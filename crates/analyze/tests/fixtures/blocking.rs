//! C002 fixture: guards held across blocking operations.

struct Hub {
    inbox: Mutex<Vec<u32>>,
}

impl Hub {
    // Guard live across a channel receive.
    fn drain(&self, rx: &Receiver<u32>) {
        let mut inbox = self.inbox.lock();
        let v = rx.recv();
        inbox.push(v);
    }

    // The if-let footgun: the condition temporary lives through the
    // block, so the send happens under the lock.
    fn bounce(&self, tx: &Sender<u32>) {
        if let Some(v) = self.inbox.lock().pop() {
            tx.send(v);
        }
    }

    // Guard live across a thread join.
    fn wait(&self, handle: JoinHandle<()>) {
        let inbox = self.inbox.lock();
        handle.join();
        drop(inbox);
    }

    // Guard live across a baton handoff: the woken thread's first act
    // is to take the lock this one still holds.
    fn hand_off(&self, next: &Thread) {
        let inbox = self.inbox.lock();
        next.unpark();
        thread::park();
        drop(inbox);
    }

    // Guard live across a pool fan-out.
    fn fan_out(&self, xs: &[u32]) {
        let inbox = self.inbox.lock();
        let ys = par_map(xs, double);
        drop(inbox);
    }
}
