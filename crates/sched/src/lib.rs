//! Deterministic chunked self-scheduling over independent work items.
//!
//! Every fan-out in the workspace — `evr-core`'s `FleetRunner` (users),
//! `evr-sas`'s segment ingest, ladder and tile planners, and the serving
//! front's batch path — runs pure functions of `(shared state, item
//! index)` over `0..count`. They used to split items by a *static
//! interleave* (worker `w` of `n` takes items `w, w+n, w+2n, …`), which
//! is deterministic but load-blind: when per-item cost is uneven — a
//! busy segment, a user whose trace misses every FOV — the unlucky lane
//! becomes the critical path and the sweep waits on one straggler while
//! the other workers idle (visible as lane gaps in the worker-timeline
//! Gantt chart).
//!
//! This crate replaces the interleave with **chunked self-scheduling**:
//!
//! 1. items are split into fixed-size contiguous chunks
//!    (`chunk k = [k·size, min((k+1)·size, count))`);
//! 2. workers *pull* the next chunk index from a shared atomic cursor
//!    whenever they finish one — a fast worker takes more chunks, a
//!    straggler takes fewer, so imbalance is bounded by one chunk
//!    instead of a whole lane;
//! 3. every chunk's results are collected with the chunk index, sorted,
//!    and concatenated in ascending item order on the calling thread.
//!
//! **The determinism argument.** Which worker runs which chunk *is*
//! timing-dependent — that is the point of self-scheduling. But the
//! output is not: each item's result is a pure function of the item
//! index, every result is returned in ascending item order regardless
//! of which lane produced it, and all order-sensitive downstream
//! accumulation (f64 merges, log appends, stream numbering) happens on
//! the calling thread in that one fixed order. The returned `Vec` is
//! therefore byte-identical to a serial loop for *any* worker count and
//! *any* chunk size — only wall-clock and per-lane observability
//! (timeline rows, `*_worker_*` metrics) vary between runs.
//!
//! **The chunk-size heuristic** ([`auto_chunk`]) targets
//! [`CHUNKS_PER_WORKER`] pulls per worker. Tuning came from the worker
//! timelines and `evr_pipeline_stage_seconds_*` histograms of the fleet
//! and ingest benches: per-item cost varies by a small factor (FOV-hit
//! users are ~2–3x cheaper than miss-heavy ones, degraded segments
//! ~2x cheaper than dense ones), so a handful of pulls per worker
//! bounds the straggler tail to a fraction of one lane's share, while
//! keeping cursor traffic (one `fetch_add` per chunk) far below
//! per-item cost even for sub-millisecond items.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bound on resolved worker counts: more threads than this only
/// adds scheduling overhead for the workloads in this workspace.
pub const MAX_WORKERS: usize = 64;

/// Chunk pulls [`auto_chunk`] aims for per worker. Four keeps the
/// straggler bound at ~1/4 of a lane's share (enough for the measured
/// per-item cost spread) without making the cursor a hot cache line.
pub const CHUNKS_PER_WORKER: u64 = 4;

/// Resolves a requested worker count. `0` means *auto* — one worker per
/// available core — and every path, auto included, is clamped to
/// `1..=`[`MAX_WORKERS`]; the result never exceeds the item count (and
/// is at least 1, so degenerate `items = 0` still resolves).
pub fn resolve_workers(requested: usize, items: u64) -> usize {
    let workers = match requested {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        n => n,
    }
    .clamp(1, MAX_WORKERS);
    workers.min(items.max(1) as usize)
}

/// The chunk size [`run_chunked`] uses when the caller passes `0`:
/// `ceil(items / (workers * CHUNKS_PER_WORKER))`, at least 1 — so every
/// worker gets roughly [`CHUNKS_PER_WORKER`] pulls.
pub fn auto_chunk(items: u64, workers: usize) -> u64 {
    let pulls = (workers as u64).max(1) * CHUNKS_PER_WORKER;
    items.div_ceil(pulls).max(1)
}

/// What one worker lane did during a [`run_chunked_observed`] call:
/// items completed and busy wall-clock. Lane *attribution* is
/// timing-dependent (self-scheduling), so these feed observability
/// only — never results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStats {
    /// Worker lane index (`0..workers`).
    pub worker: u32,
    /// Items this lane completed.
    pub items: u64,
    /// Lane busy time, seconds (from first pull to last completion).
    pub busy_s: f64,
}

/// Runs `work` over items `0..count` across `workers` scoped threads
/// with chunked self-scheduling, returning results in ascending item
/// order — byte-identical to a serial loop for any worker count and
/// chunk size.
///
/// `workers` is resolved via [`resolve_workers`] (`0` = auto); `chunk`
/// of `0` picks [`auto_chunk`]. A resolved worker count of 1 runs a
/// serial fast path with no thread machinery.
///
/// A panicking worker is resumed on the calling thread after the scope
/// joins (the panic is not swallowed and never converts into a hang or
/// a partial result).
pub fn run_chunked<T, F>(count: u64, workers: usize, chunk: u64, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_chunked_observed(count, workers, chunk, work).0
}

/// [`run_chunked`] plus per-lane [`LaneStats`] for the caller's worker
/// metrics (`evr_fleet_worker_*`). The stats vector always has one
/// entry per resolved worker, in lane order.
#[allow(clippy::disallowed_methods, reason = "the workspace's one thread creator")]
pub fn run_chunked_observed<T, F>(
    count: u64,
    workers: usize,
    chunk: u64,
    work: F,
) -> (Vec<T>, Vec<LaneStats>)
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = resolve_workers(workers, count);
    let chunk = if chunk == 0 { auto_chunk(count, workers) } else { chunk };
    if workers <= 1 {
        let t0 = Instant::now();
        let out: Vec<T> = (0..count).map(&work).collect();
        let stats = LaneStats { worker: 0, items: count, busy_s: t0.elapsed().as_secs_f64() };
        return (out, vec![stats]);
    }
    let chunks = count.div_ceil(chunk);
    let cursor = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let work = &work;
        let cursor = &cursor;
        let handles: Vec<_> = (0..workers as u32)
            .map(|worker| {
                scope.spawn(move || {
                    // Tag the thread's timeline lane so intervals the
                    // work records land on this worker's Gantt row.
                    evr_obs::timeline::with_worker(worker, || {
                        let t0 = Instant::now();
                        let mut out: Vec<(u64, Vec<T>)> = Vec::new();
                        let mut items = 0u64;
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= chunks {
                                break;
                            }
                            let start = c * chunk;
                            let end = (start + chunk).min(count);
                            out.push((c, (start..end).map(work).collect()));
                            items += end - start;
                        }
                        let stats = LaneStats { worker, items, busy_s: t0.elapsed().as_secs_f64() };
                        (out, stats)
                    })
                })
            })
            .collect();
        let mut lanes = Vec::with_capacity(workers);
        let mut all: Vec<(u64, Vec<T>)> = Vec::with_capacity(chunks as usize);
        for h in handles {
            let (out, stats) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            lanes.push(stats);
            all.extend(out);
        }
        all.sort_unstable_by_key(|(c, _)| *c);
        (all.into_iter().flat_map(|(_, r)| r).collect(), lanes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_and_chunk() {
        let serial: Vec<u64> = (0..97).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            for chunk in [0, 1, 2, 7, 97, 1000] {
                assert_eq!(
                    run_chunked(97, workers, chunk, |i| i * 3 + 1),
                    serial,
                    "{workers} workers, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn parity_holds_under_deliberately_uneven_item_cost() {
        // Item cost proportional to index: the tail items are far more
        // expensive than the head, the classic straggler shape. The
        // output must stay identical to serial for every worker count.
        let cost_work = |i: u64| {
            let mut acc = i;
            for _ in 0..i * 50 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            (i, acc)
        };
        let serial: Vec<(u64, u64)> = (0..200).map(cost_work).collect();
        for workers in [1, 2, 8, 64] {
            assert_eq!(run_chunked(200, workers, 0, cost_work), serial, "{workers} workers");
        }
    }

    #[test]
    fn zero_items_yield_an_empty_vec() {
        assert!(run_chunked(0, 8, 0, |i| i).is_empty());
        assert!(run_chunked(0, 0, 0, |i| i).is_empty());
    }

    #[test]
    fn worker_resolution_clamps_and_caps() {
        assert_eq!(resolve_workers(3, 100), 3);
        assert_eq!(resolve_workers(1000, 100), MAX_WORKERS);
        assert_eq!(resolve_workers(8, 2), 2);
        assert_eq!(resolve_workers(0, 1), 1);
        // The auto arm obeys the same 1..=64 contract as explicit
        // requests, even on a >64-core machine.
        let auto = resolve_workers(0, u64::MAX);
        assert!((1..=MAX_WORKERS).contains(&auto), "auto resolved to {auto}");
    }

    #[test]
    fn auto_chunk_targets_pulls_per_worker() {
        // 2000 items, 8 workers -> 32 pulls -> chunk 63.
        assert_eq!(auto_chunk(2000, 8), 63);
        // Never zero, even for tiny workloads.
        assert_eq!(auto_chunk(1, 64), 1);
        assert_eq!(auto_chunk(0, 8), 1);
        // Serial runs take one chunk per CHUNKS_PER_WORKER-th of the work.
        assert_eq!(auto_chunk(100, 1), 25);
    }

    #[test]
    fn lane_stats_cover_every_item_exactly_once() {
        for workers in [1, 3, 8] {
            let (out, lanes) = run_chunked_observed(123, workers, 0, |i| i);
            assert_eq!(out.len(), 123);
            assert_eq!(lanes.len(), resolve_workers(workers, 123));
            assert_eq!(lanes.iter().map(|l| l.items).sum::<u64>(), 123, "{workers} workers");
            for (lane, stats) in lanes.iter().enumerate() {
                assert_eq!(stats.worker, lane as u32);
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_chunked(10, 4, 1, |i| {
                if i == 7 {
                    panic!("item 7 exploded");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
