//! Wall-clock benchmark of the EVR system, driven from outside through
//! the public APIs of `evr-sas`, `evr-core` and `evr-client`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|playback|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets itself up several times (reporting the median as
//! `setup_s`), measures for `--seconds`, then checks its outputs outside
//! the timed region. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) attaches the
//! program's existing `evr-obs` hooks, times the calls into each layer
//! and prints the per-layer metrics. The last line of standard output
//! is one JSON object; the process exits non-zero if any output was
//! wrong. `perfbench/README.md` defines every metric.

mod ingest;
mod metrics;
mod openloop;
mod playback;
mod probe;
mod serve;
mod stats;

use metrics::{result_line, Metrics};
use stats::Digest;

/// The command line, checked.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Cores available to this process: the benchmark's own threads
    /// never exceed it.
    pub cores: usize,
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (segments, sessions or requests, plus the
    /// output checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Digest of the checked outputs, comparable across commits.
    pub digest: Digest,
}

/// How many times every workload sets itself up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

/// Times `SETUP_REPS` set-ups, dropping each before the next, and
/// returns the last one with the median set-up time (steal discounted).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let clock = probe::StealClock::start();
        last = Some(setup());
        times.push(clock.effective_s());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

const USAGE: &str =
    "usage: evr-perfbench --workload <ingest|playback|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["ingest", "playback", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "evr-perfbench: workload {}, seed {}, {} s, trace {}, {} cores",
        run.workload, run.seed, run.seconds, run.traced as u8, run.cores
    );
    let clock = probe::StealClock::start();
    let mut out = match run.workload.as_str() {
        "ingest" => ingest::run(&run),
        "playback" => playback::run(&run),
        _ => serve::run(&run),
    };
    out.metrics.set("proc.peak_rss_mb", probe::peak_rss_mb());
    println!("host steal: {:.1} % of the CPU time asked for", 100.0 * clock.stolen_share());

    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("error_rate = {error_rate} ({} failed of {} attempted)", out.failed, out.attempted);
    println!("output digest = {}", out.digest.hex());
    for traced in [false, true] {
        if traced && !run.traced {
            continue;
        }
        for (d, v) in out.metrics.for_mode(traced) {
            println!("  {:<36} {v:>16.6} {}", d.name, d.unit);
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics.for_mode(run.traced))
    );
    if !correct {
        eprintln!("output check FAILED: {} of {} operations wrong", out.failed, out.attempted);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let run = parse_args(&args("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.traced),
            ("serve", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload ingest --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload ingest --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload ingest --seed 1 --seconds -3 --trace 0")).is_err());
    }
}
