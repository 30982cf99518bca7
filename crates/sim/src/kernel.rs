//! The simulation kernel: event queue, process scheduling, and the
//! baton that passes control from one process thread to the next.
//!
//! ## Scheduling discipline
//!
//! Every simulated process runs on its own OS thread, but only the
//! thread holding the *baton* runs; every other one is parked. All kernel
//! state — event queue, resources, mailboxes, per-process wake slots —
//! sits in one [`Core`] behind one mutex, and there is no kernel thread.
//! A process that calls a blocking primitive applies its request to the
//! core itself and then runs the dispatch loop over the `(time, seq)`
//! event heap. If the next runnable process is its own, it keeps the
//! baton and continues without a context switch; otherwise it stores the
//! wake in that process's slot, unparks its thread and parks until its
//! own slot is filled. The lock is always released before a thread is
//! unparked or parks. `send`, and a `recv` whose message is already
//! queued, never dispatch at all: the caller keeps running.
//!
//! Events at equal virtual time are ordered by an insertion sequence
//! number and the processes completed by one resource firing resume in
//! FIFO order, so a whole simulation is a deterministic function of its
//! inputs — re-running a measurement campaign always reproduces the same
//! virtual timings, which the estimation-model experiments rely on.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use etm_support::sync::Mutex;

use crate::mailbox::{Mailbox, MailboxId, Payload};
use crate::resource::{ResourceId, SharedResource};
use crate::time::SimTime;

/// Identifies a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pid(pub(crate) usize);

/// Wake-up token handed to a blocked process. Carries the received message
/// when the wake completes a `recv`.
enum Wake {
    Go,
    Delivery(Payload),
}

/// Marker payload used to unwind a process thread when the simulation is
/// dropped while the process is still blocked.
struct Cancelled;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvKind {
    WakeProcess(Pid),
    ResourceFire { res: ResourceId, generation: u64 },
}

#[derive(PartialEq, Eq, Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All simulated processes are blocked and no event can wake them.
///
/// Returned by [`Simulation::run`]; carries the names of the stuck
/// processes for diagnosis (e.g. a receive with no matching send).
#[derive(Debug)]
pub struct DeadlockError {
    /// Names of the processes still blocked when the event queue drained.
    pub blocked: Vec<String>,
    /// Virtual time at which the simulation stalled.
    pub at: SimTime,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked at t={} with blocked processes: {}",
            self.at,
            self.blocked.join(", ")
        )
    }
}

impl std::error::Error for DeadlockError {}

/// Kernel-side view of one process.
struct Proc {
    thread: Thread,
    /// The wake left by whoever passed this process the baton.
    wake: Option<Wake>,
    finished: bool,
}

/// How a run ended; set by the thread that ends it, read by the driver.
enum End {
    /// No event and no ready process is left.
    Drained,
    /// A process body panicked; the payload is re-raised by `run`.
    Panicked(Payload),
}

/// The whole kernel state, shared by the driver and every process thread
/// behind one mutex.
struct Core {
    /// The virtual clock, mirrored into `clock` for lock-free reads by
    /// [`Ctx::now`]. Only the baton holder writes it, under the lock, and
    /// a reader holds the baton, which it received through the lock
    /// after that write, so `Relaxed` loads and stores suffice.
    now: SimTime,
    clock: Arc<AtomicU64>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    resources: Vec<SharedResource>,
    mailboxes: Vec<Mailbox>,
    procs: Vec<Proc>,
    /// Processes completed by one resource firing, resumed in FIFO order
    /// before the next event is popped.
    ready: VecDeque<Pid>,
    /// Messages taken from a mailbox for a parked receiver whose wake
    /// event has been scheduled but not yet fired.
    pending_deliveries: Vec<(Pid, Payload)>,
    events_dispatched: u64,
    /// The thread inside [`Simulation::run`].
    driver: Thread,
    end: Option<End>,
    cancelled: bool,
}

impl Core {
    fn push_event(&mut self, time: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    /// Reschedules the completion event for a resource after a membership
    /// change.
    fn reschedule_resource(&mut self, res: ResourceId) {
        if let Some(t) = self.resources[res.0].next_completion() {
            let generation = self.resources[res.0].generation;
            // Guard against float drift placing the completion marginally
            // in the past.
            let t = t.max(self.now);
            self.push_event(t, EvKind::ResourceFire { res, generation });
        }
    }

    /// Dispatches events until a process is runnable; `None` once neither
    /// a ready process nor an event is left.
    fn next_runnable(&mut self) -> Option<(Pid, Wake)> {
        loop {
            if let Some(pid) = self.ready.pop_front() {
                return Some((pid, Wake::Go));
            }
            let Reverse(ev) = self.queue.pop()?;
            debug_assert!(ev.time >= self.now, "event in the past");
            self.events_dispatched += 1;
            self.now = ev.time;
            self.clock
                .store(ev.time.secs().to_bits(), Ordering::Relaxed);
            match ev.kind {
                EvKind::WakeProcess(pid) => {
                    if self.procs[pid.0].finished {
                        continue;
                    }
                    // A wake may complete a pending mailbox delivery.
                    let wake = match self.pending_deliveries.iter().position(|(p, _)| *p == pid) {
                        Some(i) => Wake::Delivery(self.pending_deliveries.remove(i).1),
                        None => Wake::Go,
                    };
                    return Some((pid, wake));
                }
                EvKind::ResourceFire { res, generation } => {
                    let r = &mut self.resources[res.0];
                    if r.generation != generation {
                        continue; // stale: membership changed since scheduling
                    }
                    r.advance_to(ev.time);
                    r.take_completed_into(true, &mut self.ready);
                    self.reschedule_resource(res);
                }
            }
        }
    }

    /// Passes the baton on after a request has been applied. `Ok` is the
    /// wake of `me`, the caller's own process, when it is next to run:
    /// it keeps the baton. `Err` is the thread to unpark once the lock is
    /// released: the next runnable process, whose wake now sits in its
    /// slot, or the driver when the run has drained.
    fn pass_baton(&mut self, me: Option<Pid>) -> Result<Wake, Thread> {
        match self.next_runnable() {
            Some((pid, wake)) if Some(pid) == me => Ok(wake),
            Some((pid, wake)) => {
                let p = &mut self.procs[pid.0];
                p.wake = Some(wake);
                Err(p.thread.clone())
            }
            None => {
                self.end = Some(End::Drained);
                Err(self.driver.clone())
            }
        }
    }
}

/// Handle given to each process body for interacting with the simulation.
///
/// All methods that block in virtual time suspend the calling process and
/// resume it when the corresponding event fires.
pub struct Ctx {
    pid: Pid,
    clock: Arc<AtomicU64>,
    core: Arc<Mutex<Core>>,
}

impl Ctx {
    /// The process's own id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }

    /// Acts on [`Core::pass_baton`]'s verdict, called with the lock
    /// released: keep running, or wake the next thread and park until
    /// the baton comes back.
    fn follow_baton(&self, next: Result<Wake, Thread>) -> Wake {
        match next {
            Ok(wake) => wake,
            Err(thread) => {
                thread.unpark();
                self.await_baton()
            }
        }
    }

    /// Parks until another thread leaves a wake in this process's slot.
    /// Unwinds with `Cancelled` if the simulation is dropped first.
    fn await_baton(&self) -> Wake {
        loop {
            thread::park();
            let mut core = self.core.lock();
            // The slot may not exist yet if the park returned spuriously
            // before `spawn` registered this process.
            if let Some(wake) = core.procs.get_mut(self.pid.0).and_then(|p| p.wake.take()) {
                return wake;
            }
            let cancelled = core.cancelled;
            drop(core);
            if cancelled {
                panic::panic_any(Cancelled);
            }
        }
    }

    /// The body returned: retire and pass the baton on; the thread then
    /// exits.
    fn retire(&self) {
        let mut core = self.core.lock();
        core.procs[self.pid.0].finished = true;
        let next = core.pass_baton(None);
        drop(core);
        if let Err(thread) = next {
            thread.unpark();
        }
    }

    /// The body panicked: retire and hand the payload to the driver.
    fn retire_panicked(&self, payload: Payload) {
        let mut core = self.core.lock();
        core.procs[self.pid.0].finished = true;
        core.end = Some(End::Panicked(payload));
        let driver = core.driver.clone();
        drop(core);
        driver.unpark();
    }

    /// Suspends the process for `dt` virtual seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or NaN.
    pub fn hold(&self, dt: f64) {
        assert!(
            dt >= 0.0 && !dt.is_nan(),
            "hold duration must be >= 0, got {dt}"
        );
        let mut core = self.core.lock();
        let at = core.now + dt;
        core.push_event(at, EvKind::WakeProcess(self.pid));
        let next = core.pass_baton(Some(self.pid));
        drop(core);
        self.follow_baton(next);
    }

    /// Performs `work` work-units on a processor-sharing resource and
    /// returns when the work completes. With `n` concurrent jobs on a
    /// resource of speed `s`, each progresses at `s/n` — the elapsed
    /// virtual time therefore depends on contention, exactly like a
    /// time-sliced CPU or a shared network link.
    pub fn compute(&self, res: ResourceId, work: f64) {
        let mut core = self.core.lock();
        let now = core.now;
        core.resources[res.0].advance_to(now);
        core.resources[res.0].add_job(self.pid, work);
        core.reschedule_resource(res);
        let next = core.pass_baton(Some(self.pid));
        drop(core);
        self.follow_baton(next);
    }

    /// Transfers `bytes` over a shared link: a fixed `latency` hold
    /// followed by occupying the link's bandwidth (processor sharing with
    /// any concurrent transfers). The link's resource speed is interpreted
    /// as bytes per second.
    pub fn transfer(&self, link: ResourceId, bytes: f64, latency: f64) {
        if latency > 0.0 {
            self.hold(latency);
        }
        self.compute(link, bytes);
    }

    /// Posts a message to `mb` without blocking (delivery is instantaneous
    /// in virtual time; model transport cost with [`Ctx::transfer`]).
    pub fn send<T: Any + Send>(&self, mb: MailboxId, msg: T) {
        let msg: Payload = Box::new(msg);
        let mut core = self.core.lock();
        if let Some((waiter, payload)) = core.mailboxes[mb.0].post(msg) {
            // Deliver at the current instant; the waiter runs after the
            // sender blocks.
            core.pending_deliveries.push((waiter, payload));
            let now = core.now;
            core.push_event(now, EvKind::WakeProcess(waiter));
        }
    }

    /// Receives the next message from `mb`, blocking in virtual time until
    /// one is available.
    ///
    /// # Panics
    /// Panics if the message at the head of the mailbox is not a `T`;
    /// mixing payload types in one mailbox is a programming error.
    pub fn recv<T: Any + Send>(&self, mb: MailboxId) -> T {
        let mut core = self.core.lock();
        let queued = core.mailboxes[mb.0].take_or_wait(self.pid);
        let next = match queued {
            Some(payload) => Ok(Wake::Delivery(payload)),
            None => core.pass_baton(Some(self.pid)),
        };
        drop(core);
        let Wake::Delivery(payload) = self.follow_baton(next) else {
            unreachable!("recv woken without a delivery");
        };
        match payload.downcast::<T>() {
            Ok(boxed) => *boxed,
            Err(_) => panic!(
                "mailbox type mismatch: expected {}",
                std::any::type_name::<T>()
            ),
        }
    }
}

/// A discrete-event simulation: processes, resources, mailboxes and the
/// virtual clock. Build one, spawn processes, call [`Simulation::run`].
///
/// A `Simulation` is single-shot: `run` consumes the event horizon and the
/// value cannot be reused for a second run.
pub struct Simulation {
    clock: Arc<AtomicU64>,
    core: Arc<Mutex<Core>>,
    names: Vec<String>,
    handles: Vec<JoinHandle<()>>,
    ran: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        install_cancel_hook();
        let clock = Arc::new(AtomicU64::new(0f64.to_bits()));
        let core = Core {
            now: SimTime::ZERO,
            clock: Arc::clone(&clock),
            queue: BinaryHeap::new(),
            seq: 0,
            resources: Vec::new(),
            mailboxes: Vec::new(),
            procs: Vec::new(),
            ready: VecDeque::new(),
            pending_deliveries: Vec::new(),
            events_dispatched: 0,
            driver: thread::current(),
            end: None,
            cancelled: false,
        };
        Simulation {
            clock,
            core: Arc::new(Mutex::new(core)),
            names: Vec::new(),
            handles: Vec::new(),
            ran: false,
        }
    }

    /// Registers a processor-sharing resource (CPU: `speed` = 1.0 for a
    /// unit-speed processor; link: `speed` = bytes per second).
    pub fn add_shared_resource(&mut self, name: impl Into<String>, speed: f64) -> ResourceId {
        let res = SharedResource::new(name, speed);
        let mut core = self.core.lock();
        core.resources.push(res);
        ResourceId(core.resources.len() - 1)
    }

    /// Derates a registered resource: divides its service speed by
    /// `slowdown` (> 1 slows it down, e.g. a straggling CPU or a
    /// degraded link; fractional values model recovery). This is the
    /// fault-injection hook for execution-side chaos: the derated
    /// resource serves every subsequent job slower *through the normal
    /// processor-sharing discipline*, so contention, overlap, and
    /// completion ordering all reflect the fault — unlike post-hoc
    /// scaling of measured outputs. Jobs already in service keep the
    /// work served so far; any completion scheduled under the old rate
    /// is invalidated and recomputed.
    ///
    /// # Panics
    /// Panics if `slowdown` is not a finite positive factor.
    pub fn derate_resource(&mut self, id: ResourceId, slowdown: f64) {
        let mut core = self.core.lock();
        let now = core.now;
        let res = &mut core.resources[id.0];
        res.advance_to(now);
        res.derate(slowdown);
        core.reschedule_resource(id);
    }

    /// Registers a mailbox for message passing between processes.
    pub fn add_mailbox(&mut self) -> MailboxId {
        let mailbox = Mailbox::default();
        let mut core = self.core.lock();
        core.mailboxes.push(mailbox);
        MailboxId(core.mailboxes.len() - 1)
    }

    /// Spawns a simulated process. The body runs on its own thread but is
    /// scheduled cooperatively by the kernel, starting at virtual time 0.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`].
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        assert!(!self.ran, "cannot spawn after the simulation has run");
        let pid = Pid(self.names.len());
        let ctx = Ctx {
            pid,
            clock: Arc::clone(&self.clock),
            core: Arc::clone(&self.core),
        };
        let name = name.into();
        let handle = thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    // The start event's wake; it never carries a message.
                    ctx.await_baton();
                    body(&ctx);
                }));
                match result {
                    Ok(()) => ctx.retire(),
                    // Quietly exit: the simulation was torn down.
                    Err(payload) if payload.is::<Cancelled>() => {}
                    Err(payload) => ctx.retire_panicked(payload),
                }
            })
            .expect("failed to spawn simulation process thread");
        let mut core = self.core.lock();
        core.procs.push(Proc {
            thread: handle.thread().clone(),
            wake: None,
            finished: false,
        });
        // Start event at t = 0.
        core.push_event(SimTime::ZERO, EvKind::WakeProcess(pid));
        drop(core);
        self.names.push(name);
        self.handles.push(handle);
        pid
    }

    fn now(&self) -> SimTime {
        SimTime::new(f64::from_bits(self.clock.load(Ordering::Relaxed)))
    }

    /// Runs the simulation to completion.
    ///
    /// The calling thread is the driver: it passes the baton to the first
    /// runnable process and parks until the run drains or a process
    /// panics.
    ///
    /// Returns the final virtual time once every process has finished, or
    /// a [`DeadlockError`] if the event queue drains while processes are
    /// still blocked.
    ///
    /// # Panics
    /// Re-raises any panic from a process body on the calling thread.
    pub fn run(&mut self) -> Result<f64, DeadlockError> {
        assert!(!self.ran, "Simulation::run may only be called once");
        self.ran = true;
        let mut core = self.core.lock();
        core.driver = thread::current();
        // Grow the kernel's queues here, on the driver thread: growth on a
        // short-lived process thread would land in that thread's malloc
        // arena and raise peak memory.
        let n = core.procs.len();
        let slots = 2 * (n + core.resources.len());
        core.queue.reserve(slots);
        core.ready.reserve(n);
        core.pending_deliveries.reserve(n);
        let first = core.pass_baton(None);
        drop(core);
        if let Err(thread) = first {
            thread.unpark();
        }
        // Park until the run ends; a drained start unparked this thread
        // itself, so the first park returns at once.
        let (end, procs) = loop {
            thread::park();
            let mut core = self.core.lock();
            if let Some(end) = core.end.take() {
                break (end, std::mem::take(&mut core.procs));
            }
        };
        if let End::Panicked(payload) = end {
            panic::resume_unwind(payload);
        }
        let blocked: Vec<String> = procs
            .iter()
            .zip(&self.names)
            .filter(|(p, _)| !p.finished)
            .map(|(_, name)| name.clone())
            .collect();
        if blocked.is_empty() {
            Ok(self.now().secs())
        } else {
            Err(DeadlockError {
                blocked,
                at: self.now(),
            })
        }
    }

    /// Post-run statistics: final time, event count, per-resource usage.
    ///
    /// Meaningful after [`Simulation::run`]; resources are advanced to
    /// the final clock so busy time is complete.
    pub fn stats(&mut self) -> crate::stats::SimStats {
        let mut core = self.core.lock();
        let now = core.now;
        let events = core.events_dispatched;
        let mut taken = std::mem::take(&mut core.resources);
        drop(core);
        let mut resources = std::collections::BTreeMap::new();
        for r in &mut taken {
            r.advance_to(now);
            resources.insert(r.name().to_string(), r.stats);
        }
        self.core.lock().resources = taken;
        crate::stats::SimStats {
            end_seconds: now.secs(),
            events,
            resources,
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Wake every process thread; one still parked sees the
        // cancellation and unwinds with `Cancelled`, which the thread
        // wrapper swallows.
        self.core.lock().cancelled = true;
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for the internal `Cancelled` unwind marker and
/// delegates everything else to the previous hook.
fn install_cancel_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                previous(info);
            }
        }));
    });
}
