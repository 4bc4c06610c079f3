//! The load generator: an open loop that starts each request at its due
//! time whatever the system is doing, and a closed loop of callers that
//! each wait for their previous reply.
//!
//! The open loop runs in lanes. Each lane is one thread that generates
//! its own schedule and serves it: it sleeps until a request is due, then
//! makes the call itself, so no request waits on a cross-thread wake-up.
//! When a call overruns, the requests due meanwhile start late.
//!
//! Latency runs from the *due* time, so a slow call is charged to every
//! request queued behind it. Each lane's queue is settled on the calls'
//! measured times: a request starts when it is due or when the previous
//! one settled, whichever is later, and settles one call time after
//! that. A call is timed on the lane's CPU clock, which stops while the
//! hypervisor withholds the CPU (see `probe`); a call that blocks off
//! the CPU is therefore charged only its running time. The generator's
//! own lateness — a timer wake-up that comes late while the lane was
//! idle — is the benchmark's, not the system's: it is reported as lag
//! and stays out of the latency.

use std::time::{Duration, Instant};

use crate::probe::thread_cpu_ns;

/// One open-loop request, in nanoseconds since the loop's epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    /// When the lane was free to start it (wall clock): the later of the
    /// due time and the previous request's answer.
    pub free_ns: u64,
    /// When the lane started it (wall clock).
    pub start_ns: u64,
    /// CPU time the call took on the lane.
    pub call_ns: u64,
    /// When it was answered in the settled queue.
    pub settled_ns: u64,
}

impl Timing {
    /// Due time to (settled) response: what the requester experiences.
    pub fn latency_ns(&self) -> u64 {
        self.settled_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator started a request it was free to start.
    pub fn lag_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.free_ns)
    }

    /// Time spent queued behind earlier requests.
    pub fn wait_ns(&self) -> u64 {
        self.latency_ns().saturating_sub(self.call_ns)
    }

    /// The call itself.
    pub fn service_ns(&self) -> u64 {
        self.call_ns
    }
}

fn since(epoch: Instant) -> u64 {
    // Saturates at zero for an epoch in the future.
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// Sleeps until `epoch + due_ns`: through long gaps with the timer,
/// through the last stretch by yielding, since a timer wake-up can be
/// late by more than a short gap. `tick` runs while there is time.
fn wait_until(epoch: Instant, due_ns: u64, tick: &mut dyn FnMut()) {
    loop {
        let now = since(epoch);
        if now >= due_ns {
            return;
        }
        if due_ns - now > 200_000 {
            tick();
        }
        let left = due_ns.saturating_sub(since(epoch));
        if left > 120_000 {
            std::thread::sleep(Duration::from_nanos(left - 80_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one lane per schedule in `lanes` (due times in nanoseconds after
/// `epoch`, ascending). Lane `l` calls `exec(l, k)` for its `k`-th
/// request — the timed part, which ends when it returns — then
/// `verify(l, k, response)` outside the timed region. Lane 0 runs on the
/// calling thread and runs `tick` while it waits (for probes), so the
/// loop adds `lanes.len() - 1` threads. Returns each lane's timings and
/// verification results in schedule order.
pub fn open_loop<R, P: Send>(
    lanes: &[Vec<u64>],
    epoch: Instant,
    mut tick: impl FnMut(),
    exec: impl Fn(usize, usize) -> R + Sync,
    verify: impl Fn(usize, usize, R) -> P + Sync,
) -> Vec<Vec<(Timing, P)>> {
    let lane = |l: usize, tick: &mut dyn FnMut()| {
        let mut out = Vec::with_capacity(lanes[l].len());
        let (mut prev_done, mut prev_settled) = (0, 0);
        for (k, &due_ns) in lanes[l].iter().enumerate() {
            wait_until(epoch, due_ns, tick);
            let start_ns = since(epoch);
            let cpu = thread_cpu_ns();
            let response = exec(l, k);
            let call_ns = thread_cpu_ns() - cpu;
            let done_ns = since(epoch);
            let settled_ns = due_ns.max(prev_settled) + call_ns;
            let free_ns = due_ns.max(prev_done);
            let timing = Timing { due_ns, free_ns, start_ns, call_ns, settled_ns };
            (prev_done, prev_settled) = (done_ns, settled_ns);
            out.push((timing, verify(l, k, response)));
        }
        out
    };
    std::thread::scope(|s| {
        let others: Vec<_> =
            (1..lanes.len()).map(|l| s.spawn(move || lane(l, &mut || {}))).collect();
        let mut all = vec![lane(0, &mut tick)];
        all.extend(others.into_iter().map(|h| h.join().expect("open-loop lane panicked")));
        all
    })
}

/// Runs `callers` closed-loop callers until `deadline`: caller `c`
/// issues its `k`-th request as `exec(c, k)` only after its previous
/// one returned. The calling thread is caller 0, so the loop adds
/// `callers - 1` threads. Returns each caller's results in issue order.
pub fn closed_loop<P: Send>(
    callers: usize,
    deadline: Instant,
    exec: impl Fn(usize, usize) -> P + Sync,
) -> Vec<Vec<P>> {
    let run = |c: usize| {
        let mut out = Vec::new();
        while Instant::now() < deadline {
            out.push(exec(c, out.len()));
        }
        out
    };
    std::thread::scope(|s| {
        let others: Vec<_> = (1..callers.max(1)).map(|c| s.spawn(move || run(c))).collect();
        let mut all = vec![run(0)];
        all.extend(others.into_iter().map(|h| h.join().expect("closed-loop caller panicked")));
        all
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Keeps the CPU busy for `ms` of this thread's CPU time.
    fn burn(ms: u64) {
        let start = thread_cpu_ns();
        while thread_cpu_ns() - start < ms * MS {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_stalled_handler_inflates_the_latency_of_requests_behind_it() {
        // Request 2 stalls for 40 ms. Requests 3..8 fall due during the
        // stall and must be charged for it, although their own calls
        // are instant.
        let due: Vec<u64> = (0..8).map(|i| i * 2 * MS).collect();
        let out = open_loop(
            &[due],
            Instant::now(),
            || {},
            |_, k| {
                if k == 2 {
                    burn(40);
                }
            },
            |_, _, ()| (),
        );
        let latency: Vec<u64> = out[0].iter().map(|(t, _)| t.latency_ns()).collect();
        assert!(latency[2] >= 40 * MS, "the stalled request itself: {latency:?}");
        for (k, l) in latency.iter().enumerate().skip(3) {
            // Due at 2k ms, answered no earlier than the stall's end at
            // 4 + 40 ms.
            let floor = (44 - 2 * k as u64) * MS;
            let t = out[0][k].0;
            assert!(*l >= floor, "request {k}: {l} ns < {floor} ns");
            assert!(t.service_ns() < 10 * MS, "the call itself is fast");
            assert!(t.wait_ns() + MS >= floor, "the stall shows as waiting");
            assert!(t.lag_ns() < 10 * MS, "waiting behind the stall is not generator lag");
        }
    }

    #[test]
    fn generator_lag_is_reported_and_kept_out_of_the_latency() {
        // An epoch 30 ms in the past: the first request is already 30 ms
        // overdue when the idle lane gets to it. That is the generator's
        // lag; the calls are instant, so the settled latency is not.
        let epoch = Instant::now() - Duration::from_millis(30);
        let due: Vec<u64> = (0..5).map(|i| i * MS).collect();
        let out = open_loop(&[due], epoch, || {}, |_, _| (), |_, _, ()| ());
        let first = out[0][0].0;
        assert!(first.lag_ns() >= 30 * MS, "first request lag {} ns", first.lag_ns());
        for (t, _) in &out[0] {
            assert!(t.latency_ns() < MS, "generator lag leaked into latency: {t:?}");
        }
        // On schedule: requests start on time, never early.
        let due: Vec<u64> = (1..=5).map(|i| i * 5 * MS).collect();
        let out = open_loop(&[due.clone(), due], Instant::now(), || {}, |_, _| (), |_, _, ()| ());
        for (t, _) in out.iter().flatten() {
            assert!(t.start_ns >= t.due_ns, "never started early");
            assert!(t.lag_ns() < 4 * MS, "lag {} ns", t.lag_ns());
        }
    }

    #[test]
    fn results_come_back_per_lane_in_schedule_order() {
        let lanes = vec![vec![0; 20], vec![0; 30]];
        let out = open_loop(&lanes, Instant::now(), || {}, |l, k| (l, k), |_, _, r| r);
        assert_eq!(out.len(), 2);
        for (l, lane) in out.iter().enumerate() {
            assert_eq!(lane.len(), lanes[l].len());
            assert!(lane.iter().enumerate().all(|(k, (_, p))| *p == (l, k)));
        }
    }

    #[test]
    fn closed_loop_callers_run_until_the_deadline() {
        let deadline = Instant::now() + Duration::from_millis(20);
        let out = closed_loop(2, deadline, |c, k| {
            std::thread::sleep(Duration::from_millis(1));
            (c, k)
        });
        assert_eq!(out.len(), 2);
        for (c, results) in out.iter().enumerate() {
            assert!(!results.is_empty());
            assert!(results.iter().enumerate().all(|(k, r)| *r == (c, k)));
        }
    }
}
