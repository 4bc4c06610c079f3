//! Process probes read from `/proc`: peak resident memory, CPU time,
//! involuntary context switches and thread count for the traced run's
//! `proc.*` metrics, and the clocks every workload times with.
//!
//! On a virtual machine the hypervisor can withhold a CPU the guest
//! wants to run on. The guest kernel counts that time as *steal*; it
//! runs from a few percent to a third of the CPU time asked for on a
//! busy shared host. The benchmark keeps it out of its figures, so they
//! describe the code rather than the neighbours: a span of wall time is
//! discounted by the stolen share of the CPU time asked for within it
//! ([`StealClock`]), and a single call is timed on its thread's CPU
//! clock ([`thread_cpu_ns`]), which the kernel does not advance while
//! the CPU is stolen.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// CPU time the calling thread has run, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`.
    // On 64-bit Linux that is two 64-bit integers, the layout of the
    // `repr(C)` `Timespec`, and `tp` points at a live local of that type.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Machine-wide CPU time asked for (busy plus stolen), and the part of
/// it the hypervisor stole, in clock ticks (`/proc/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CpuTicks {
    asked: u64,
    stolen: u64,
}

fn cpu_ticks() -> CpuTicks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return CpuTicks::default() };
    // cpu user nice system idle iowait irq softirq steal ...
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    let stolen = field(7);
    CpuTicks { asked: field(0) + field(1) + field(2) + field(5) + field(6) + stolen, stolen }
}

/// A wall clock that discounts steal: [`StealClock::effective_s`] is the
/// wall time since [`StealClock::start`] times the share of the CPU time
/// asked for meanwhile that the guest actually got. With no steal it is
/// the plain wall time.
#[derive(Debug, Clone, Copy)]
pub struct StealClock {
    start: Instant,
    ticks: CpuTicks,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock { start: Instant::now(), ticks: cpu_ticks() }
    }

    /// Share of the CPU time asked for since the start that was stolen.
    pub fn stolen_share(&self) -> f64 {
        let now = cpu_ticks();
        let asked = now.asked.saturating_sub(self.ticks.asked);
        let stolen = now.stolen.saturating_sub(self.ticks.stolen);
        if asked == 0 {
            0.0
        } else {
            stolen as f64 / asked as f64
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn effective_s(&self) -> f64 {
        let wall = self.wall_s();
        wall * (1.0 - self.stolen_share())
    }
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU time of the whole process, exited threads
/// included, seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / clock_ticks_per_s()
}

/// `AT_CLKTCK` from the auxiliary vector (the unit of `/proc` CPU
/// times), 100 if it cannot be read.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else { return 100.0 };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, v)| v as f64)
}

/// Live threads of the process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Involuntary context switches of every live thread, by thread id.
fn involuntary_switches() -> HashMap<u64, u64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return HashMap::new() };
    tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let tid = t.file_name().to_str()?.parse().ok()?;
            let path = t.path().join("status");
            Some((tid, status_field(path.to_str()?, "nonvoluntary_ctxt_switches:")?))
        })
        .collect()
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// What the process did over one measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcWindow {
    /// CPU time ÷ (wall time × cores).
    pub cpu_util: f64,
    /// Most threads seen alive at one sample.
    pub peak_threads: usize,
    /// Involuntary context switches of every thread seen in the window.
    pub ctx_switches_involuntary: u64,
}

/// Samples threads and context switches over a window. Threads that
/// start and end between two samples are missed by the thread and
/// switch counts (not by the CPU time), so samplers call
/// [`Probe::sample`] every few milliseconds.
#[derive(Debug)]
pub struct Probe {
    start: Instant,
    start_cpu: f64,
    baseline: HashMap<u64, u64>,
    state: Mutex<(usize, HashMap<u64, u64>)>,
}

impl Probe {
    pub fn start() -> Probe {
        let baseline = involuntary_switches();
        Probe {
            start: Instant::now(),
            start_cpu: cpu_seconds(),
            state: Mutex::new((thread_count(), baseline.clone())),
            baseline,
        }
    }

    pub fn sample(&self) {
        let threads = thread_count();
        let switches = involuntary_switches();
        let mut state = self.state.lock().expect("probe state poisoned");
        state.0 = state.0.max(threads);
        for (tid, n) in switches {
            let seen = state.1.entry(tid).or_insert(0);
            *seen = (*seen).max(n);
        }
    }

    pub fn finish(&self, cores: usize) -> ProcWindow {
        self.sample();
        let wall = self.start.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - self.start_cpu;
        let state = self.state.lock().expect("probe state poisoned");
        let switches = state
            .1
            .iter()
            .map(|(tid, n)| n.saturating_sub(self.baseline.get(tid).copied().unwrap_or(0)))
            .sum();
        ProcWindow {
            cpu_util: cpu / (wall * cores as f64).max(1e-9),
            peak_threads: state.0,
            ctx_switches_involuntary: switches,
        }
    }
}

/// Runs `work` while a sampler thread probes the process every 5 ms
/// (only when `sampled`; otherwise no thread is started and only CPU
/// time is measured). The sampler is the benchmark's one extra thread
/// on the batch and closed-loop workloads.
pub fn with_probe<R>(sampled: bool, cores: usize, work: impl FnOnce() -> R) -> (R, ProcWindow) {
    let probe = Probe::start();
    if !sampled {
        let out = work();
        return (out, probe.finish(cores));
    }
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                probe.sample();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, probe.finish(cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_cpu_clock_runs_only_while_the_thread_does() {
        let t = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_ns() - t;
        assert!(slept < 10_000_000, "sleeping used {slept} ns of CPU");
        let t = thread_cpu_ns();
        let wall = Instant::now();
        while wall.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        assert!(thread_cpu_ns() - t > 1_000_000, "spinning used no CPU");
    }

    #[test]
    fn the_steal_clock_never_runs_ahead_of_the_wall_clock() {
        let clock = StealClock::start();
        std::thread::sleep(Duration::from_millis(20));
        let (effective, wall) = (clock.effective_s(), clock.wall_s());
        assert!(effective > 0.0 && effective <= wall, "{effective} s of {wall} s");
        assert!((0.0..=1.0).contains(&clock.stolen_share()));
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        let (_, window) = with_probe(true, 1, || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed() < Duration::from_millis(50) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        });
        assert!(window.peak_threads >= 2, "sampler thread not seen: {window:?}");
        assert!(window.cpu_util > 0.0);
    }
}
