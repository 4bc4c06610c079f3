//! Scaling-efficiency model for the bench binaries.
//!
//! Both `fleet_bench` and `ingest_bench` sweep worker counts over
//! deterministic workloads. This module turns `(workers, wall)` points
//! into a [`ScalingSummary`] — speedup, parallel efficiency, and a
//! serial fraction fitted with Amdahl's law — plus an optional
//! per-stage breakdown computed from worker timeline events
//! ([`stage_scaling`]).
//!
//! **Modeled vs measured points.** CI runs in single-core containers,
//! where a wall-clock worker sweep measures the OS timeslicer, not the
//! scheduler — every real-thread sweep reads ~1.0x there by physics.
//! The gated scaling numbers therefore come from the *schedule model*
//! ([`simulate_chunked_makespan`]): per-item costs are measured once in
//! the serial run, then the chunked self-scheduler is replayed in
//! virtual time assuming one core per worker, which is exactly the
//! quantity the scheduler controls (assignment balance) and is
//! reproducible on any host. The real wall-clock sweep is still
//! attached as `measured` points — on a multi-core host the two
//! converge; in a single-core container `measured` shows thread
//! overhead while the model shows schedule quality.
//!
//! The Amdahl fit inverts `s(w) = 1 / (f + (1 - f)/w)` for the serial
//! fraction `f` at each measured point with `w > 1`:
//!
//! ```text
//! f = (w/s - 1) / (w - 1)
//! ```
//!
//! and averages the per-point estimates, clamped to `[0, 1]`. With one
//! or two sweep points this is exact inversion, not a regression; with
//! more points it damps noise without assuming which point is clean.

use evr_obs::TimelineEvent;

/// One measured sweep point: the wall-clock of the whole workload at a
/// given worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    pub workers: usize,
    pub wall_s: f64,
}

/// Per-stage serial-fraction estimate derived from timeline events
/// (see [`stage_scaling`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageScaling {
    /// Stage name as recorded on the timeline (`plan`, `fetch`, …).
    pub stage: String,
    /// Total busy seconds across all workers in the serial run.
    pub serial_busy_s: f64,
    /// Busiest single worker's seconds in the parallel run — the
    /// stage's critical path under the measured schedule.
    pub parallel_busy_s: f64,
    /// Amdahl serial fraction for this stage in isolation.
    pub serial_fraction: f64,
}

/// The fitted scaling model for one workload sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingSummary {
    /// Worker count of the fastest-swept configuration (the max).
    pub workers: usize,
    /// `wall(1 worker) / wall(max workers)`.
    pub speedup: f64,
    /// `speedup / workers` — 1.0 is perfect linear scaling.
    pub efficiency: f64,
    /// Amdahl serial fraction fitted over all `w > 1` points.
    pub serial_fraction: f64,
    /// The raw sweep points the summary was fitted from.
    pub points: Vec<ScalingPoint>,
    /// Real wall-clock sweep points measured on this host, attached for
    /// reference when the fitted points are schedule-model output
    /// (empty otherwise).
    pub measured: Vec<ScalingPoint>,
    /// Optional per-stage breakdown (empty when no timeline ran).
    pub stages: Vec<StageScaling>,
}

/// The worker counts a bench sweeps: 1 (the serial reference), then
/// doubling up to and including `max`.
pub fn worker_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1];
    let mut w = 2;
    while w < max {
        counts.push(w);
        w *= 2;
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

/// Replays chunked self-scheduling over measured per-item `costs` in
/// virtual time, one core per worker, and returns the makespan.
///
/// Chunk `k` covers items `[k·chunk, (k+1)·chunk)`; the next chunk is
/// always pulled by the worker with the smallest accumulated busy time
/// (ties to the lowest lane) — the greedy pull order a free worker
/// realises on real hardware. `chunk = 0` picks
/// [`evr_sched::auto_chunk`], the size the runtime scheduler uses.
/// Deterministic given `costs`; returns 0.0 for an empty workload.
pub fn simulate_chunked_makespan(costs: &[f64], workers: usize, chunk: u64) -> f64 {
    if costs.is_empty() {
        return 0.0;
    }
    let workers = workers.clamp(1, costs.len());
    let chunk = if chunk == 0 { evr_sched::auto_chunk(costs.len() as u64, workers) } else { chunk }
        .max(1) as usize;
    let mut lanes = vec![0.0f64; workers];
    for chunk_costs in costs.chunks(chunk) {
        let puller = lanes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(w, _)| w)
            .unwrap_or(0);
        lanes[puller] += chunk_costs.iter().sum::<f64>();
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// The makespan of the old static interleave (lane `w` of `n` runs
/// items `w, w+n, w+2n, …`) over the same per-item `costs` — the
/// comparison baseline that shows what chunked pulling buys on uneven
/// workloads.
pub fn simulate_interleave_makespan(costs: &[f64], workers: usize) -> f64 {
    if costs.is_empty() {
        return 0.0;
    }
    let workers = workers.clamp(1, costs.len());
    let mut lanes = vec![0.0f64; workers];
    for (i, c) in costs.iter().enumerate() {
        lanes[i % workers] += c;
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// Inverts Amdahl's law for the serial fraction given one measured
/// speedup at `workers > 1`. Clamped to `[0, 1]`; degenerate inputs
/// (non-positive speedup, `workers <= 1`) return 1.0 — "no evidence of
/// any parallelism".
pub fn amdahl_serial_fraction(workers: f64, speedup: f64) -> f64 {
    if workers <= 1.0 || speedup <= 0.0 {
        return 1.0;
    }
    ((workers / speedup - 1.0) / (workers - 1.0)).clamp(0.0, 1.0)
}

impl ScalingSummary {
    /// Fits the model from a sweep. Returns `None` unless the sweep has
    /// a 1-worker point and at least one multi-worker point, both with
    /// positive wall-clock — anything else has no scaling to model.
    pub fn fit(points: &[ScalingPoint]) -> Option<ScalingSummary> {
        let serial = points.iter().find(|p| p.workers == 1 && p.wall_s > 0.0)?;
        let multi: Vec<&ScalingPoint> =
            points.iter().filter(|p| p.workers > 1 && p.wall_s > 0.0).collect();
        let widest = *multi.iter().max_by_key(|p| p.workers)?;
        let speedup = serial.wall_s / widest.wall_s;
        let fractions: Vec<f64> = multi
            .iter()
            .map(|p| amdahl_serial_fraction(p.workers as f64, serial.wall_s / p.wall_s))
            .collect();
        let serial_fraction = fractions.iter().sum::<f64>() / fractions.len() as f64;
        Some(ScalingSummary {
            workers: widest.workers,
            speedup,
            efficiency: speedup / widest.workers as f64,
            serial_fraction,
            points: points.to_vec(),
            measured: Vec::new(),
            stages: Vec::new(),
        })
    }

    /// Fits the model from the chunked-schedule simulation over measured
    /// per-item `costs` at the given worker counts (see
    /// [`simulate_chunked_makespan`]). Returns `None` when the costs or
    /// counts give nothing to model (no items, no multi-worker count).
    pub fn fit_modeled(costs: &[f64], worker_counts: &[usize]) -> Option<ScalingSummary> {
        let points: Vec<ScalingPoint> = worker_counts
            .iter()
            .map(|&w| ScalingPoint { workers: w, wall_s: simulate_chunked_makespan(costs, w, 0) })
            .collect();
        ScalingSummary::fit(&points)
    }

    /// Attaches a per-stage breakdown (builder style).
    #[must_use]
    pub fn with_stages(mut self, stages: Vec<StageScaling>) -> ScalingSummary {
        self.stages = stages;
        self
    }

    /// Attaches the real wall-clock sweep measured on this host
    /// (builder style; shown as `measured` in the JSON).
    #[must_use]
    pub fn with_measured(mut self, measured: Vec<ScalingPoint>) -> ScalingSummary {
        self.measured = measured;
        self
    }

    /// Renders the summary as a stable JSON object (fixed key order,
    /// `{:.6}` floats) for embedding in a bench report.
    pub fn to_json(&self) -> String {
        let render_points = |points: &[ScalingPoint]| -> Vec<String> {
            points
                .iter()
                .map(|p| format!("{{\"workers\":{},\"wall_s\":{:.6}}}", p.workers, p.wall_s))
                .collect()
        };
        let points = render_points(&self.points);
        let measured = render_points(&self.measured);
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":\"{}\",\"serial_busy_s\":{:.6},\"parallel_busy_s\":{:.6},\"serial_fraction\":{:.6}}}",
                    s.stage, s.serial_busy_s, s.parallel_busy_s, s.serial_fraction
                )
            })
            .collect();
        format!(
            "{{\"workers\":{},\"speedup\":{:.6},\"efficiency\":{:.6},\"serial_fraction\":{:.6},\"points\":[{}],\"measured\":[{}],\"stages\":[{}]}}",
            self.workers,
            self.speedup,
            self.efficiency,
            self.serial_fraction,
            points.join(","),
            measured.join(","),
            stages.join(",")
        )
    }

    /// One human-readable line for the bench's stdout report.
    pub fn render_line(&self) -> String {
        format!(
            "scaling: {:.2}x speedup at {} workers ({:.0}% efficient, serial fraction {:.3})",
            self.speedup,
            self.workers,
            self.efficiency * 100.0,
            self.serial_fraction
        )
    }
}

/// Derives per-stage serial fractions from two timeline captures of the
/// same workload: one serial (`1` worker) and one at `workers` lanes.
///
/// For each stage the serial busy time is the sum of its interval
/// durations in the serial capture; the parallel "critical path" is the
/// busiest single lane's total in the parallel capture. Their ratio is
/// the stage's effective speedup, inverted through Amdahl for a
/// per-stage serial fraction. Stages absent from either capture (or
/// with negligible serial time) are skipped; results sort by serial
/// busy time, heaviest first.
pub fn stage_scaling(
    serial: &[TimelineEvent],
    parallel: &[TimelineEvent],
    workers: usize,
) -> Vec<StageScaling> {
    const MIN_BUSY_S: f64 = 1e-6;
    let mut stages: Vec<StageScaling> = Vec::new();
    let mut names: Vec<&'static str> = serial.iter().map(|e| e.stage).collect();
    names.sort_unstable();
    names.dedup();
    for stage in names {
        let serial_busy_s = serial
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.duration_ns() as f64 / 1e9)
            .sum::<f64>();
        if serial_busy_s < MIN_BUSY_S {
            continue;
        }
        let mut lanes: Vec<(u32, f64)> = Vec::new();
        for e in parallel.iter().filter(|e| e.stage == stage) {
            let dur = e.duration_ns() as f64 / 1e9;
            match lanes.iter_mut().find(|(w, _)| *w == e.worker) {
                Some((_, busy)) => *busy += dur,
                None => lanes.push((e.worker, dur)),
            }
        }
        let parallel_busy_s = lanes.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        if parallel_busy_s < MIN_BUSY_S {
            continue;
        }
        let speedup = serial_busy_s / parallel_busy_s;
        stages.push(StageScaling {
            stage: stage.to_string(),
            serial_busy_s,
            parallel_busy_s,
            serial_fraction: amdahl_serial_fraction(workers as f64, speedup),
        });
    }
    stages.sort_by(|a, b| {
        b.serial_busy_s.partial_cmp(&a.serial_busy_s).unwrap_or(std::cmp::Ordering::Equal)
    });
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_obs::TraceCtx;

    fn pt(workers: usize, wall_s: f64) -> ScalingPoint {
        ScalingPoint { workers, wall_s }
    }

    #[test]
    fn worker_counts_double_up_to_and_including_the_maximum() {
        assert_eq!(worker_counts(1), vec![1]);
        assert_eq!(worker_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(worker_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn perfect_scaling_has_zero_serial_fraction() {
        let s = ScalingSummary::fit(&[pt(1, 8.0), pt(2, 4.0), pt(4, 2.0), pt(8, 1.0)]).unwrap();
        assert_eq!(s.workers, 8);
        assert!((s.speedup - 8.0).abs() < 1e-9);
        assert!((s.efficiency - 1.0).abs() < 1e-9);
        assert!(s.serial_fraction < 1e-9);
    }

    #[test]
    fn no_scaling_has_unit_serial_fraction() {
        let s = ScalingSummary::fit(&[pt(1, 4.0), pt(4, 4.0)]).unwrap();
        assert!((s.speedup - 1.0).abs() < 1e-9);
        assert!((s.serial_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_inversion_recovers_the_planted_fraction() {
        // Plant f = 0.25, synthesise walls from Amdahl, recover f.
        let f = 0.25;
        let wall = |w: f64| f + (1.0 - f) / w;
        let s =
            ScalingSummary::fit(&[pt(1, wall(1.0)), pt(4, wall(4.0)), pt(8, wall(8.0))]).unwrap();
        assert!((s.serial_fraction - f).abs() < 1e-9, "got {}", s.serial_fraction);
    }

    #[test]
    fn fit_needs_serial_and_multi_worker_points() {
        assert!(ScalingSummary::fit(&[]).is_none());
        assert!(ScalingSummary::fit(&[pt(1, 2.0)]).is_none());
        assert!(ScalingSummary::fit(&[pt(4, 2.0)]).is_none());
        assert!(ScalingSummary::fit(&[pt(1, 0.0), pt(4, 2.0)]).is_none());
        assert!(ScalingSummary::fit(&[pt(1, 2.0), pt(4, 1.0)]).is_some());
    }

    #[test]
    fn degenerate_amdahl_inputs_clamp_to_fully_serial() {
        assert_eq!(amdahl_serial_fraction(1.0, 2.0), 1.0);
        assert_eq!(amdahl_serial_fraction(4.0, 0.0), 1.0);
        // Super-linear measurements clamp to 0 rather than going negative.
        assert_eq!(amdahl_serial_fraction(4.0, 8.0), 0.0);
    }

    fn ev(worker: u32, stage: &'static str, start_ms: u64, end_ms: u64) -> TimelineEvent {
        TimelineEvent {
            worker,
            stage,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            ctx: TraceCtx::anonymous(),
        }
    }

    #[test]
    fn stage_scaling_separates_balanced_from_skewed_stages() {
        // "render": 4x100ms serial, perfectly balanced over 4 workers.
        // "plan": 4x100ms serial, all on worker 0 in the parallel run.
        let serial: Vec<TimelineEvent> = (0..4)
            .flat_map(|i| {
                [
                    ev(0, "render", i * 200, i * 200 + 100),
                    ev(0, "plan", i * 200 + 100, i * 200 + 200),
                ]
            })
            .collect();
        let mut parallel: Vec<TimelineEvent> = (0..4).map(|w| ev(w, "render", 0, 100)).collect();
        parallel.extend((0..4).map(|i| ev(0, "plan", 100 + i * 100, 200 + i * 100)));
        let stages = stage_scaling(&serial, &parallel, 4);
        assert_eq!(stages.len(), 2);
        let render = stages.iter().find(|s| s.stage == "render").unwrap();
        let plan = stages.iter().find(|s| s.stage == "plan").unwrap();
        assert!(render.serial_fraction < 1e-9, "balanced stage: {}", render.serial_fraction);
        assert!(
            (plan.serial_fraction - 1.0).abs() < 1e-9,
            "skewed stage: {}",
            plan.serial_fraction
        );
    }

    #[test]
    fn stage_scaling_skips_stages_missing_from_either_capture() {
        let serial = vec![ev(0, "render", 0, 100), ev(0, "plan", 100, 200)];
        let parallel = vec![ev(0, "render", 0, 100)];
        let stages = stage_scaling(&serial, &parallel, 4);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage, "render");
    }

    #[test]
    fn uniform_costs_model_near_linear_scaling() {
        let costs = vec![1.0; 2000];
        let s = ScalingSummary::fit_modeled(&costs, &[1, 2, 4, 8]).unwrap();
        assert_eq!(s.workers, 8);
        assert!(s.speedup >= 7.0, "modeled speedup {}", s.speedup);
        assert!(s.efficiency >= 0.875, "modeled efficiency {}", s.efficiency);
    }

    #[test]
    fn chunked_model_beats_interleave_on_index_proportional_cost() {
        // The interleave's blind spot is cost concentrated in one
        // residue class: every 8th item is 50x as expensive, so the old
        // `w, w+n, …` policy at 8 workers puts the entire hot class on
        // lane 0 while chunked pulling spreads it.
        let costs: Vec<f64> = (0..800).map(|i| if i % 8 == 0 { 50.0 } else { 1.0 }).collect();
        let serial: f64 = costs.iter().sum();
        let interleave = simulate_interleave_makespan(&costs, 8);
        let chunked = simulate_chunked_makespan(&costs, 8, 0);
        assert!(
            serial / interleave < 2.0,
            "interleave should collapse: {:.2}x",
            serial / interleave
        );
        assert!(
            serial / chunked > 6.0,
            "chunked should stay near-linear: {:.2}x",
            serial / chunked
        );
    }

    #[test]
    fn schedule_simulation_is_deterministic_and_conservative() {
        let costs: Vec<f64> = (0..321).map(|i| ((i * 37) % 101) as f64 / 100.0 + 0.01).collect();
        let a = simulate_chunked_makespan(&costs, 8, 0);
        let b = simulate_chunked_makespan(&costs, 8, 0);
        assert_eq!(a, b, "virtual-time replay must be deterministic");
        let serial: f64 = costs.iter().sum();
        // Makespan is bounded below by perfect balance and above by serial.
        assert!(a >= serial / 8.0 - 1e-9);
        assert!(a <= serial + 1e-9);
        // One worker degenerates to the serial sum; empty costs to zero.
        assert!((simulate_chunked_makespan(&costs, 1, 0) - serial).abs() < 1e-9);
        assert_eq!(simulate_chunked_makespan(&[], 8, 0), 0.0);
        assert_eq!(simulate_interleave_makespan(&[], 8), 0.0);
    }

    #[test]
    fn summary_json_is_stable_and_complete() {
        let s = ScalingSummary::fit(&[pt(1, 2.0), pt(2, 1.0)]).unwrap().with_stages(vec![
            StageScaling {
                stage: "render".into(),
                serial_busy_s: 1.5,
                parallel_busy_s: 0.75,
                serial_fraction: 0.0,
            },
        ]);
        let json = s.to_json();
        assert!(json.starts_with("{\"workers\":2,\"speedup\":2.000000"), "{json}");
        assert!(json.contains("\"points\":[{\"workers\":1,\"wall_s\":2.000000}"), "{json}");
        assert!(json.contains("\"stages\":[{\"stage\":\"render\""), "{json}");
    }
}
