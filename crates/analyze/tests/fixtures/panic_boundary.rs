//! C004 fixture: unsupervised spawns, scoped spawns that drop the
//! caller's panic payload, and panicking consumer loops.

// Neither catch_unwind in the closure nor a join in this fn.
fn fire_and_forget(work: impl FnOnce() + Send + 'static) {
    thread::spawn(move || work());
}

// Builder chains count as thread spawns too.
fn named_fire_and_forget() {
    thread::Builder::new().name("w".into()).spawn(|| tick());
}

// A consumer loop that panics on bad input instead of degrading.
fn consume(rx: Receiver<u32>) {
    loop {
        match rx.recv() {
            Ok(v) => handle(v),
            Err(_) => panic!("channel died"),
        }
    }
}

// unreachable! in a recv-driven while loop.
fn consume_timeout(rx: Receiver<u32>) {
    while running() {
        match rx.recv_timeout(tick()) {
            Ok(v) => handle(v),
            Err(e) => unreachable!("no timeouts expected: {e}"),
        }
    }
}

// A scoped fan-out over caller-supplied work: the scope turns a panic in
// `f` into "a scoped thread panicked", losing the caller's message.
fn par_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], f: F) {
    std::thread::scope(|s| {
        for (i, chunk) in data.chunks_mut(8).enumerate() {
            s.spawn(move || f(i, chunk));
        }
    });
}
