//! End-to-end tests of the discrete-event kernel: timing semantics,
//! processor sharing, message passing, determinism and deadlock detection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use etm_sim::Simulation;

#[test]
fn empty_simulation_finishes_at_zero() {
    let mut sim = Simulation::new();
    assert_eq!(sim.run().unwrap(), 0.0);
}

#[test]
fn hold_advances_time() {
    let mut sim = Simulation::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    sim.spawn("p", move |ctx| {
        ctx.hold(1.5);
        seen2.lock().unwrap().push(ctx.now());
        ctx.hold(0.5);
        seen2.lock().unwrap().push(ctx.now());
    });
    let end = sim.run().unwrap();
    assert!((end - 2.0).abs() < 1e-12);
    let seen = seen.lock().unwrap();
    assert!((seen[0] - 1.5).abs() < 1e-12);
    assert!((seen[1] - 2.0).abs() < 1e-12);
}

#[test]
fn parallel_holds_overlap() {
    let mut sim = Simulation::new();
    for _ in 0..10 {
        sim.spawn("p", |ctx| ctx.hold(3.0));
    }
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn compute_on_uncontended_cpu_takes_work_over_speed() {
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 2.0);
    sim.spawn("p", move |ctx| {
        ctx.compute(cpu, 6.0);
        assert!((ctx.now() - 3.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn processor_sharing_two_jobs_double_duration() {
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    for _ in 0..2 {
        sim.spawn("p", move |ctx| ctx.compute(cpu, 1.0));
    }
    assert!((sim.run().unwrap() - 2.0).abs() < 1e-12);
}

#[test]
fn processor_sharing_staggered_arrivals() {
    // Job A (2 units) starts at t=0; job B (3 units) at t=1.
    // A: 1 unit alone, then shares: finishes at t=3.
    // B: has consumed 1 unit by t=3, 2 remain alone: finishes at t=5.
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let a_done = Arc::new(Mutex::new(0.0));
    let a_done2 = Arc::clone(&a_done);
    sim.spawn("a", move |ctx| {
        ctx.compute(cpu, 2.0);
        *a_done2.lock().unwrap() = ctx.now();
    });
    sim.spawn("b", move |ctx| {
        ctx.hold(1.0);
        ctx.compute(cpu, 3.0);
        assert!((ctx.now() - 5.0).abs() < 1e-9, "b at {}", ctx.now());
    });
    let end = sim.run().unwrap();
    assert!((end - 5.0).abs() < 1e-9);
    assert!((*a_done.lock().unwrap() - 3.0).abs() < 1e-9);
}

#[test]
fn transfer_includes_latency_and_bandwidth() {
    let mut sim = Simulation::new();
    // 100 bytes/s link, 0.5 s latency: 50 bytes take 0.5 + 0.5 = 1.0 s.
    let link = sim.add_shared_resource("link", 100.0);
    sim.spawn("s", move |ctx| {
        ctx.transfer(link, 50.0, 0.5);
        assert!((ctx.now() - 1.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn send_recv_rendezvous() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("sender", move |ctx| {
        ctx.hold(2.0);
        ctx.send(mb, 42u64);
    });
    sim.spawn("receiver", move |ctx| {
        let v: u64 = ctx.recv(mb);
        assert_eq!(v, 42);
        // Receiver was blocked until the send at t=2.
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
fn send_before_recv_is_buffered() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("sender", move |ctx| {
        ctx.send(mb, 1u32);
        ctx.send(mb, 2u32);
    });
    sim.spawn("receiver", move |ctx| {
        ctx.hold(5.0);
        let a: u32 = ctx.recv(mb);
        let b: u32 = ctx.recv(mb);
        assert_eq!((a, b), (1, 2));
        assert!((ctx.now() - 5.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
fn ping_pong_alternates() {
    let mut sim = Simulation::new();
    let to_b = sim.add_mailbox();
    let to_a = sim.add_mailbox();
    sim.spawn("a", move |ctx| {
        for i in 0..100u32 {
            ctx.send(to_b, i);
            let echo: u32 = ctx.recv(to_a);
            assert_eq!(echo, i);
        }
    });
    sim.spawn("b", move |ctx| {
        for _ in 0..100 {
            let v: u32 = ctx.recv(to_b);
            ctx.send(to_a, v);
        }
    });
    sim.run().unwrap();
}

#[test]
fn deadlock_is_reported_with_process_names() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("starved", move |ctx| {
        let _: u32 = ctx.recv(mb);
    });
    let err = sim.run().unwrap_err();
    assert_eq!(err.blocked, vec!["starved".to_string()]);
    assert!(err.to_string().contains("starved"));
}

#[test]
fn determinism_same_inputs_same_timings() {
    fn run_once() -> f64 {
        let mut sim = Simulation::new();
        let cpu = sim.add_shared_resource("cpu", 1.7);
        let link = sim.add_shared_resource("link", 1e6);
        let mb = sim.add_mailbox();
        for i in 0..8usize {
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.hold(0.01 * i as f64);
                ctx.compute(cpu, 0.3 + 0.05 * i as f64);
                ctx.transfer(link, 1e5, 1e-4);
                ctx.send(mb, i);
            });
        }
        sim.spawn("collector", move |ctx| {
            let mut sum = 0usize;
            for _ in 0..8 {
                sum += ctx.recv::<usize>(mb);
            }
            assert_eq!(sum, 28);
        });
        sim.run().unwrap()
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "simulation must be bit-deterministic"
    );
}

#[test]
fn many_processes_share_one_cpu_fairly() {
    let n = 16;
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let finished = Arc::new(AtomicUsize::new(0));
    for _ in 0..n {
        let f = Arc::clone(&finished);
        sim.spawn("p", move |ctx| {
            ctx.compute(cpu, 1.0);
            f.fetch_add(1, Ordering::SeqCst);
        });
    }
    let end = sim.run().unwrap();
    assert!((end - n as f64).abs() < 1e-9, "end={end}");
    assert_eq!(finished.load(Ordering::SeqCst), n);
}

#[test]
fn zero_work_compute_completes_at_current_time() {
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    sim.spawn("p", move |ctx| {
        ctx.hold(1.0);
        ctx.compute(cpu, 0.0);
        assert!((ctx.now() - 1.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
#[should_panic(expected = "inside process")]
fn process_panics_propagate_to_run() {
    let mut sim = Simulation::new();
    sim.spawn("bad", |_ctx| panic!("inside process"));
    let _ = sim.run();
}

#[test]
fn drop_with_blocked_processes_does_not_hang() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("parked", move |ctx| {
        let _: u32 = ctx.recv(mb);
    });
    let _ = sim.run(); // deadlocks, leaves the thread parked
    drop(sim); // must join the thread without hanging
}

#[test]
fn two_cpus_independent() {
    let mut sim = Simulation::new();
    let cpu0 = sim.add_shared_resource("cpu0", 1.0);
    let cpu1 = sim.add_shared_resource("cpu1", 1.0);
    sim.spawn("a", move |ctx| {
        ctx.compute(cpu0, 2.0);
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    sim.spawn("b", move |ctx| {
        ctx.compute(cpu1, 2.0);
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 2.0).abs() < 1e-12);
}

#[test]
fn stats_track_utilization_and_events() {
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    sim.spawn("worker", move |ctx| {
        ctx.compute(cpu, 1.0);
        ctx.hold(1.0); // idle second
        ctx.compute(cpu, 2.0);
    });
    let end = sim.run().unwrap();
    assert!((end - 4.0).abs() < 1e-9);
    let stats = sim.stats();
    assert_eq!(stats.end_seconds, end);
    assert!(stats.events > 0);
    let cpu_stats = &stats.resources["cpu"];
    assert!((cpu_stats.busy_seconds - 3.0).abs() < 1e-9);
    assert!((cpu_stats.work_served - 3.0).abs() < 1e-9);
    assert_eq!(cpu_stats.jobs_completed, 2);
    let (name, util) = stats.bottleneck().unwrap();
    assert_eq!(name, "cpu");
    assert!((util - 0.75).abs() < 1e-9);
}

#[test]
fn derated_resource_serves_slower_end_to_end() {
    // Identical work on a clean and a 2x-derated CPU: the derated run
    // takes exactly twice the virtual time.
    let wall_of = |slowdown: Option<f64>| {
        let mut sim = Simulation::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        if let Some(s) = slowdown {
            sim.derate_resource(cpu, s);
        }
        sim.spawn("p", move |ctx| ctx.compute(cpu, 3.0));
        sim.run().unwrap()
    };
    let clean = wall_of(None);
    let derated = wall_of(Some(2.0));
    assert!((clean - 3.0).abs() < 1e-12);
    assert!((derated - 6.0).abs() < 1e-12);
}

#[test]
fn derate_is_deterministic_under_contention() {
    // Two co-scheduled jobs on a derated CPU: processor sharing still
    // applies, on top of the slowdown, bit-identically across runs.
    let run_once = || {
        let mut sim = Simulation::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        sim.derate_resource(cpu, 1.5);
        for i in 0..2 {
            sim.spawn(format!("p{i}"), move |ctx| ctx.compute(cpu, 1.0));
        }
        sim.run().unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.to_bits(), b.to_bits());
    assert!((a - 3.0).abs() < 1e-9, "2 jobs x 1.0 work at speed 1/1.5");
}

/// Message of a caught panic payload (`panic!` with or without format
/// arguments).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Counts how many process closures have been torn down.
struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn panic_inside_a_kernel_primitive_reaches_run_with_its_message() {
    // The NaN job is rejected by the resource while the process thread
    // applies its own request; the payload must still surface from
    // `run`, and the bystander parked in `recv` must be torn down.
    let torn_down = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let mb = sim.add_mailbox();
    let guard = DropCounter(Arc::clone(&torn_down));
    sim.spawn("bystander", move |ctx| {
        let _guard = guard;
        let _: u32 = ctx.recv(mb);
    });
    sim.spawn("bad", move |ctx| {
        ctx.hold(1.0);
        ctx.compute(cpu, f64::NAN);
    });
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("the NaN job must panic");
    let msg = panic_message(payload.as_ref());
    assert!(
        msg.contains("job work must be finite and non-negative"),
        "lost the panic message: {msg:?}"
    );
    drop(sim);
    assert_eq!(torn_down.load(Ordering::SeqCst), 1);
}

#[test]
fn drop_after_deadlock_joins_every_thread() {
    let n = 6;
    let torn_down = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let never = sim.add_mailbox();
    for i in 0..n {
        let guard = DropCounter(Arc::clone(&torn_down));
        sim.spawn(format!("stuck{i}"), move |ctx| {
            let _guard = guard;
            ctx.compute(cpu, 0.5 * (i + 1) as f64);
            let _: u8 = ctx.recv(never);
        });
    }
    let err = sim.run().unwrap_err();
    assert_eq!(err.blocked.len(), n);
    // Processor sharing finishes all the work, 0.5 * (1 + ... + n).
    let work = 0.25 * (n * (n + 1)) as f64;
    assert!((err.at.secs() - work).abs() < 1e-9, "at {}", err.at);
    drop(sim);
    assert_eq!(
        torn_down.load(Ordering::SeqCst),
        n,
        "every process thread must have unwound and been joined"
    );
}

#[test]
fn drop_before_run_joins_unstarted_threads() {
    let torn_down = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    for _ in 0..4 {
        let guard = DropCounter(Arc::clone(&torn_down));
        sim.spawn("idle", move |_ctx| {
            let _guard = guard;
            panic!("a process that never ran must not start");
        });
    }
    drop(sim);
    assert_eq!(torn_down.load(Ordering::SeqCst), 4);
}

#[test]
fn many_process_ping_pong_has_a_fixed_event_count() {
    // 16 pairs x 500 round trips, staggered in time and sharing one CPU,
    // so wakes, deliveries and resource completions interleave across
    // all 32 threads. A lost wakeup hangs or deadlocks; a reordering
    // moves the event count or the end time.
    let pairs = 16usize;
    let rounds = 500u32;
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 4.0);
    for k in 0..pairs {
        let ping = sim.add_mailbox();
        let pong = sim.add_mailbox();
        let lag = 1e-3 * (k + 1) as f64;
        sim.spawn(format!("ping{k}"), move |ctx| {
            for i in 0..rounds {
                ctx.send(ping, i);
                let back: u32 = ctx.recv(pong);
                assert_eq!(back, i + 1);
                if i % 50 == 0 {
                    ctx.compute(cpu, lag);
                }
            }
        });
        sim.spawn(format!("pong{k}"), move |ctx| {
            for _ in 0..rounds {
                let v: u32 = ctx.recv(ping);
                ctx.hold(lag);
                ctx.send(pong, v + 1);
            }
        });
    }
    let end = sim.run().expect("ping-pong must not deadlock");
    let stats = sim.stats();
    assert_eq!(
        (end.to_bits(), stats.events),
        (0x4020_1ea6_502e_2001, 24_190),
        "end {end} ({:#018x}) after {} events",
        end.to_bits(),
        stats.events
    );
}

#[test]
fn completions_of_one_firing_resume_in_service_order() {
    // Three equal jobs finish on the same resource firing; their
    // processes must resume in the order the jobs joined the resource.
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3usize {
        let order = Arc::clone(&order);
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.compute(cpu, 1.0);
            order.lock().unwrap().push(i);
        });
    }
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
}
