//! Alternating-pair A/B of two `evr-perfbench` binaries: the comparison
//! behind the speed claims in this repository.
//!
//! ```text
//! cargo run --release -p evr-bench --bin perfbench_ab -- \
//!     a=<perfbench binary> b=<perfbench binary> workload=<ingest|playback|serve> \
//!     pairs=<n> seconds=<s> seed=<first> [digests=differ]
//! ```
//!
//! Pair `i` runs `a` and `b` at seed `first + i` with `--trace 0`, `a`
//! first in the first pair and the other side first in each next one,
//! so a slow drift of the host (steal, a busy neighbour) and any cost of
//! running second reach both sides alike. Each run's last line is
//! perfbench's JSON result, read
//! with [`evr_bench::json`]; its `output digest` line identifies the
//! outputs. The tool prints each pair's end-to-end metrics
//! (`BENCHMARK.json`'s `end_to_end` list), then per metric the median
//! [q1, q3] of each side, the change of the medians and how many pairs
//! moved in the metric's `better` direction.
//!
//! Exits non-zero on a run that exits non-zero, reports a failed
//! operation or prints no result line, and on a pair whose two runs
//! print different output digests. A change that alters outputs on
//! purpose passes `digests=differ`.

use std::process::{exit, Command, Stdio};

use evr_bench::json::Json;

/// The benchmark's declaration, read for its end-to-end metric names
/// and their `better` directions.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

const USAGE: &str = "expected `a=BIN b=BIN workload=NAME pairs=N seconds=S seed=FIRST` \
                     and optionally `digests=differ`";

struct AbArgs {
    a: String,
    b: String,
    workload: String,
    pairs: u64,
    seconds: f64,
    seed: u64,
    same_digests: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> AbArgs {
    let (mut a, mut b, mut workload) = (None, None, None);
    let (mut pairs, mut seconds, mut seed) = (None, None, None);
    let mut same_digests = true;
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            panic!("unknown argument {arg:?}; {USAGE}");
        };
        match key {
            "a" => a = Some(value.to_string()),
            "b" => b = Some(value.to_string()),
            "workload" => workload = Some(value.to_string()),
            "pairs" => pairs = Some(value.parse().expect("pairs=N takes an integer")),
            "seconds" => seconds = Some(value.parse().expect("seconds=S takes seconds")),
            "seed" => seed = Some(value.parse().expect("seed=FIRST takes an integer")),
            "digests" => {
                same_digests = match value {
                    "same" => true,
                    "differ" => false,
                    _ => panic!("digests= takes `same` or `differ`, got {value:?}"),
                }
            }
            _ => panic!("unknown argument {arg:?}; {USAGE}"),
        }
    }
    fn missing(name: &str) -> ! {
        panic!("{name}= is required; {USAGE}")
    }
    let args = AbArgs {
        a: a.unwrap_or_else(|| missing("a")),
        b: b.unwrap_or_else(|| missing("b")),
        workload: workload.unwrap_or_else(|| missing("workload")),
        pairs: pairs.unwrap_or_else(|| missing("pairs")),
        seconds: seconds.unwrap_or_else(|| missing("seconds")),
        seed: seed.unwrap_or_else(|| missing("seed")),
        same_digests,
    };
    assert!(args.pairs > 0, "pairs= must be at least 1");
    assert!(args.seconds > 0.0, "seconds= must be positive");
    args
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
}

fn end_to_end(benchmark: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(benchmark)?;
    let list = doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field =
                |key| m.get(key).and_then(Json::as_str).ok_or(format!("metric lacks {key}"));
            Ok(Metric {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: match field("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("unknown better direction {other:?}")),
                },
            })
        })
        .collect()
}

/// What one perfbench run reported.
#[derive(Debug)]
struct RunResult {
    /// One value per metric, in the order of the metric list.
    values: Vec<f64>,
    digest: String,
}

/// Reads a perfbench run's standard output: its `output digest` line and
/// the metric values of its last line, the JSON result.
fn read_run(stdout: &str, metrics: &[Metric]) -> Result<RunResult, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let result = Json::parse(last).map_err(|e| format!("no result line ({e})"))?;
    let failed = result.get("failed").and_then(Json::as_f64).ok_or("result has no `failed`")?;
    if failed > 0.0 {
        return Err(format!("{failed} operations failed"));
    }
    let values = metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|all| all.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("result has no {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output digest = "))
        .ok_or("no output digest line")?;
    Ok(RunResult { values, digest: digest.trim().to_string() })
}

fn run(bin: &str, args: &AbArgs, seed: u64, metrics: &[Metric]) -> Result<RunResult, String> {
    let seed_arg = seed.to_string();
    let seconds_arg = args.seconds.to_string();
    let out = Command::new(bin)
        .args(["--workload", &args.workload, "--seed", &seed_arg])
        .args(["--seconds", &seconds_arg, "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{bin}: cannot start ({e})"))?;
    if !out.status.success() {
        return Err(format!("{bin} at seed {seed}: {}", out.status));
    }
    read_run(&String::from_utf8_lossy(&out.stdout), metrics)
        .map_err(|e| format!("{bin} at seed {seed}: {e}"))
}

/// The `p`-quantile of `sorted`, interpolating linearly between ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` of `values`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (quantile(&sorted, 0.25), quantile(&sorted, 0.5), quantile(&sorted, 0.75))
}

/// `v` to four significant digits.
fn num(v: f64) -> String {
    let digits = if v == 0.0 { 0 } else { v.abs().log10().floor() as i32 };
    format!("{v:.*}", (3 - digits).max(0) as usize)
}

fn change(a: f64, b: f64) -> String {
    format!("{:+.1} %", 100.0 * (b - a) / a)
}

fn fail(message: String) -> ! {
    eprintln!("perfbench_ab FAILED: {message}");
    exit(1)
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let metrics = end_to_end(BENCHMARK_JSON).expect("BENCHMARK.json declares its metrics");
    let last_seed = args.seed + args.pairs - 1;
    println!(
        "perfbench_ab: {} pairs of {} s `{}` runs, seeds {}..={last_seed}\n  a = {}\n  b = {}",
        args.pairs, args.seconds, args.workload, args.seed, args.a, args.b
    );
    let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
    for seed in args.seed..=last_seed {
        let a_first = a_runs.len() % 2 == 0;
        let side = |bin: &str| run(bin, &args, seed, &metrics).unwrap_or_else(|e| fail(e));
        let (a, b) = if a_first {
            let a = side(&args.a);
            (a, side(&args.b))
        } else {
            let b = side(&args.b);
            (side(&args.a), b)
        };
        println!(
            "pair {} seed {seed}, {} first: digest a {} b {}",
            a_runs.len() + 1,
            if a_first { "a" } else { "b" },
            a.digest,
            b.digest
        );
        for (m, (&va, &vb)) in metrics.iter().zip(a.values.iter().zip(&b.values)) {
            println!(
                "  {:<18} {:>12} -> {:>12} {:<4} {:>9}",
                m.name,
                num(va),
                num(vb),
                m.unit,
                change(va, vb)
            );
        }
        if args.same_digests && a.digest != b.digest {
            fail(format!("seed {seed}: output digests differ ({} vs {})", a.digest, b.digest));
        }
        a_runs.push(a);
        b_runs.push(b);
    }
    println!(
        "{:<18} {:<4} {:>30} {:>30} {:>9} {:>7}",
        "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "change", "better"
    );
    for (i, m) in metrics.iter().enumerate() {
        let column = |runs: &[RunResult]| runs.iter().map(|r| r.values[i]).collect::<Vec<_>>();
        let (va, vb) = (column(&a_runs), column(&b_runs));
        let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&va), quartiles(&vb));
        let better = va
            .iter()
            .zip(&vb)
            .filter(|&(&a, &b)| if m.lower_is_better { b < a } else { b > a })
            .count();
        let shown = |q1, med, q3| format!("{} [{}, {}]", num(med), num(q1), num(q3));
        println!(
            "{:<18} {:<4} {:>30} {:>30} {:>9} {:>7}",
            m.name,
            m.unit,
            shown(a1, am, a3),
            shown(b1, bm, b3),
            change(am, bm),
            format!("{better}/{}", a_runs.len()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        end_to_end(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn stdout(failed: u64, throughput: f64) -> String {
        format!(
            "evr-perfbench: workload serve\noutput digest = a92785cbc56541e3\n  setup_s 1.2 s\n\
             {{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\
             \"setup_s\": {{\"value\": 1.25, \"unit\": \"s\"}}, \
             \"throughput_per_s\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}, \
             \"latency_p50_ms\": {{\"value\": 0.002, \"unit\": \"ms\"}}, \
             \"latency_p99_ms\": {{\"value\": 0.1, \"unit\": \"ms\"}}}}}}\n",
            failed == 0
        )
    }

    #[test]
    fn the_benchmark_declares_four_end_to_end_metrics() {
        let m = metrics();
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms"]);
        assert!(!m[1].lower_is_better && m[0].lower_is_better && m[3].lower_is_better);
    }

    #[test]
    fn a_run_is_read_by_metric_name() {
        let run = read_run(&stdout(0, 130500.0), &metrics()).expect("a good run");
        assert_eq!(run.values, [1.25, 130500.0, 0.002, 0.1]);
        assert_eq!(run.digest, "a92785cbc56541e3");
    }

    #[test]
    fn failed_operations_and_missing_lines_are_errors() {
        let m = metrics();
        assert!(read_run(&stdout(3, 1.0), &m).unwrap_err().contains("3 operations failed"));
        let good = stdout(0, 1.0);
        let no_result = good.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(read_run(&no_result, &m).unwrap_err().contains("no result line"));
        let no_digest = good.replace("output digest", "digest");
        assert!(read_run(&no_digest, &m).unwrap_err().contains("no output digest"));
        let no_metric = good.replace("latency_p99_ms", "p99");
        assert!(read_run(&no_metric, &m).unwrap_err().contains("latency_p99_ms"));
        assert!(read_run("", &m).is_err());
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn numbers_keep_four_significant_digits() {
        assert_eq!(num(130512.4), "130512");
        assert_eq!(num(1.2734), "1.273");
        assert_eq!(num(0.0021234), "0.002123");
        assert_eq!(num(0.0), "0.000");
        assert_eq!(change(100.0, 130.0), "+30.0 %");
    }
}
