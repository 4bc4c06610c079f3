//! `serve`: independent requests against an ingested Rhino catalog (11
//! objects). Keys `(segment, cluster)` are Zipf-skewed. Most requests are
//! top-rung `fetch_fov` reads. The rest are coarse-rung `fetch_fov_rung`
//! calls, `fetch_fov_upgrade` calls on the delta wire and per-tile
//! `fetch_tile` calls. A rung miss transcodes and writes a delta entry
//! into the store, so writes sit beside reads. The store's byte budget
//! is half the working set, so it evicts and reconstructs. Every request
//! is first admitted with `SasFront::admit` at its due time and then
//! executed on `front.server()`.
//!
//! The run is a sequence of cycles of about a second. Each cycle is an
//! open-loop stretch — one lane per core, each a seeded Poisson stream,
//! together at one fixed offered rate — then a closed-loop stretch of
//! `cores` callers, whose completion rate is the saturation throughput.
//! The lanes or the callers are the benchmark's only threads, so they
//! never exceed `cores`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use evr_faults::FrontProfile;
use evr_obs::Observer;
use evr_projection::lut::SamplingMapCache;
use evr_sas::{
    fov_rung_quantizers, ingest_tiled_rates_with, ingest_video_with, Admission, FovPrerenderStore,
    FovUpgrade, IngestOptions, PrerenderedFov, SasCatalog, SasConfig, SasFront, SasServer,
    TileRung, TiledRateCatalog,
};
use evr_video::library::{scene_for, VideoId};
use evr_video::{transcode_segment, DeltaSegment, EncodedSegment, SegmentRepr};

use crate::openloop::{closed_loop, open_loop, Timing};
use crate::probe::{Probe, StealClock};
use crate::stats::{median, median_of_windows, Dist, Rng, Zipf};
use crate::{timed_setup, Outcome, Run};

const VIDEO: VideoId = VideoId::Rhino;
/// Content ingested, seconds.
const CONTENT_S: f64 = 2.0;
/// Offered rate of the open loop, requests per second: about 30 % of
/// the closed-loop saturation throughput on a 2-core host (~35 000
/// req/s), low enough that queueing does not swamp the tail.
const OFFERED_RPS: f64 = 10_000.0;
/// Share of each cycle spent in the open loop; the closed loop gets the
/// rest.
const OPEN_SHARE: f64 = 0.6;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.1;
/// The store's byte budget as a share of the working set (every stream
/// at every rung).
const BUDGET_SHARE: f64 = 0.5;
/// Requests served, untimed, to warm the store before timing.
const WARM_REQUESTS: u64 = 3000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Top,
    Rung(u8),
    Upgrade(u8),
    Tile { tile: usize, rung: usize },
}

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Top => 0,
            Op::Rung(_) => 1,
            Op::Upgrade(_) => 2,
            Op::Tile { .. } => 3,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    segment: u32,
    cluster: usize,
    op: Op,
}

/// Draws requests as a pure function of `(seed, stream, index)`.
struct Mix {
    seed: u64,
    keys: Vec<(u32, usize)>,
    zipf: Zipf,
    lower: Vec<u8>,
    tiles: usize,
    tile_rungs: usize,
}

impl Mix {
    fn request(&self, stream: u64, i: u64) -> Req {
        let mut rng = Rng::new(self.seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i << 20);
        let (segment, cluster) = self.keys[self.zipf.sample(&mut rng)];
        let u = rng.unit();
        let op = if u < 0.70 {
            Op::Top
        } else if u < 0.82 {
            Op::Rung(self.lower[rng.below(self.lower.len())])
        } else if u < 0.92 {
            Op::Upgrade(self.lower[rng.below(self.lower.len())])
        } else {
            Op::Tile { tile: rng.below(self.tiles), rung: rng.below(self.tile_rungs) }
        };
        Req { segment, cluster, op }
    }
}

/// What one request got back.
enum Payload {
    Fov(Arc<PrerenderedFov>),
    Upgrade(FovUpgrade),
    Tile(TileRung),
    /// Shed, unavailable or a lookup error.
    Refused,
}

struct Response {
    payload: Payload,
    admit_ns: u64,
    op_ns: u64,
}

/// One request's check result and its cost breakdown.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    ok: bool,
    /// Shed, unavailable or a lookup error.
    refused: bool,
    kind: usize,
    admit_ns: u64,
    op_ns: u64,
    delta: bool,
}

/// A stream at one rung: `(segment, cluster, quantizer)`.
type RungKey = (u32, usize, u8);

/// The outputs every response is checked against, computed directly
/// from the catalog in set-up.
struct Expected {
    top: HashMap<(u32, usize), PrerenderedFov>,
    rung: HashMap<RungKey, EncodedSegment>,
    tiles: Arc<TiledRateCatalog>,
    /// First upgrade response seen per reference rung, with how many
    /// responses matched it; reconstructed and checked after the run.
    upgrades: Mutex<HashMap<RungKey, (FovUpgrade, u64)>>,
}

struct Setup {
    front: SasFront,
    store: FovPrerenderStore,
    mix: Mix,
    expected: Expected,
    ingest_s: f64,
    tiled_s: f64,
    streams: usize,
    degraded: usize,
}

fn setup(seed: u64, cores: usize) -> Setup {
    let scene = scene_for(VIDEO);
    let cfg = SasConfig::default();
    let t = Instant::now();
    let options = IngestOptions { workers: cores, ..IngestOptions::default() };
    let catalog: SasCatalog = ingest_video_with(&scene, &cfg, CONTENT_S, &options)
        .expect("the paper-default configuration ingests");
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let tiles = Arc::new(ingest_tiled_rates_with(&scene, &cfg, CONTENT_S, cores));
    let tiled_s = t.elapsed().as_secs_f64();

    let keys: Vec<(u32, usize)> = (0..catalog.segment_count())
        .flat_map(|s| catalog.clusters_in_segment(s).into_iter().map(move |c| (s, c)))
        .collect();
    let rungs = fov_rung_quantizers(&cfg);
    let lower = rungs[..rungs.len() - 1].to_vec();
    let mut top = HashMap::new();
    let mut rung = HashMap::new();
    let mut working_set = 0u64;
    for &(s, c) in &keys {
        let stream = catalog.fov_stream(s, c).expect("indexed stream");
        let (data, meta) = catalog.read_fov(stream).expect("readable stream");
        let fov = PrerenderedFov { data: data.clone(), meta: meta.to_vec() };
        working_set += fov.cost_bytes();
        for &q in &lower {
            let coarse = transcode_segment(data, q);
            working_set +=
                PrerenderedFov { data: coarse.clone(), meta: meta.to_vec() }.cost_bytes();
            rung.insert((s, c, q), coarse);
        }
        top.insert((s, c), fov);
    }
    let store = FovPrerenderStore::with_budget((working_set as f64 * BUDGET_SHARE) as u64);
    let mut server = SasServer::with_store(catalog, store.clone());
    server.attach_tiles(Arc::clone(&tiles));
    // A front whose admission model never sheds, whatever order the
    // lanes and callers admit in: every refusal is a failed request.
    let profile = FrontProfile {
        service_time_s: 1e-6,
        queue_capacity: u32::MAX,
        shed_latency_s: 1e9,
        ..FrontProfile::default()
    };
    let front = SasFront::new(server, profile, seed);
    let mix = Mix {
        seed,
        zipf: Zipf::new(keys.len(), ZIPF_S),
        keys,
        lower,
        tiles: tiles.grid().len(),
        tile_rungs: tiles.rung_count(),
    };
    let expected = Expected { top, rung, tiles, upgrades: Mutex::new(HashMap::new()) };
    let streams = mix.keys.len();
    let degraded = front.server().catalog().degraded_segments().len();
    let s = Setup { front, store, mix, expected, ingest_s, tiled_s, streams, degraded };
    for i in 0..WARM_REQUESTS {
        let req = s.mix.request(0, i);
        execute(s.front.server(), req);
    }
    s
}

/// The server call a request makes.
fn execute(server: &SasServer, req: Req) -> Payload {
    let (s, c) = (req.segment, req.cluster);
    let result = match req.op {
        Op::Top => server.fetch_fov(s, c).map(|(p, _)| Payload::Fov(p)),
        Op::Rung(q) => server.fetch_fov_rung(s, c, q).map(|(p, _)| Payload::Fov(p)),
        Op::Upgrade(q) => server.fetch_fov_upgrade(s, c, q, true).map(Payload::Upgrade),
        Op::Tile { tile, rung } => server.fetch_tile(s, tile, rung).map(Payload::Tile),
    };
    result.unwrap_or(Payload::Refused)
}

/// Admission at virtual time `t_s`, then the server call.
fn admit_and_execute(front: &SasFront, req: Req, t_s: f64) -> Response {
    let t0 = Instant::now();
    let admission = front.admit(req.segment, t_s);
    let t1 = Instant::now();
    let payload = match admission {
        Admission::Serve { .. } => execute(front.server(), req),
        Admission::Shed { .. } | Admission::Unavailable { .. } => Payload::Refused,
    };
    Response {
        payload,
        admit_ns: (t1 - t0).as_nanos() as u64,
        op_ns: t1.elapsed().as_nanos() as u64,
    }
}

/// Checks one response against the direct computation (untimed).
fn verify(expected: &Expected, req: Req, resp: Response) -> Verdict {
    let (s, c) = (req.segment, req.cluster);
    let top = &expected.top[&(s, c)];
    let mut delta = false;
    let got = match &resp.payload {
        Payload::Fov(_) => "an FOV payload",
        Payload::Upgrade(u) if matches!(u.repr, SegmentRepr::Delta(_)) => "a delta upgrade",
        Payload::Upgrade(_) => "a full upgrade",
        Payload::Tile(_) => "a tile",
        Payload::Refused => "a refusal",
    };
    let refused = matches!(resp.payload, Payload::Refused);
    let ok = match (req.op, resp.payload) {
        (Op::Top, Payload::Fov(p)) => *p == *top,
        (Op::Rung(q), Payload::Fov(p)) => p.data == expected.rung[&(s, c, q)] && p.meta == top.meta,
        (Op::Upgrade(q), Payload::Upgrade(u)) => {
            delta = matches!(u.repr, SegmentRepr::Delta(_));
            let mut seen = expected.upgrades.lock().expect("upgrade map poisoned");
            match seen.get_mut(&(s, c, q)) {
                Some((first, n)) => {
                    *n += 1;
                    *first == u
                }
                None => {
                    seen.insert((s, c, q), (u, 1));
                    true
                }
            }
        }
        (Op::Tile { tile, rung }, Payload::Tile(t)) => t == *expected.tiles.rung(s, tile, rung),
        _ => false,
    };
    if !ok {
        eprintln!("serve: {req:?} got {got} that does not match the direct computation");
    }
    Verdict { ok, refused, kind: req.op.kind(), admit_ns: resp.admit_ns, op_ns: resp.op_ns, delta }
}

/// Reconstructs every distinct upgrade response against the directly
/// transcoded reference rung; returns the responses that failed.
fn check_upgrades(expected: &Expected) -> u64 {
    let seen = expected.upgrades.lock().expect("upgrade map poisoned");
    seen.iter()
        .filter(|((s, c, q), (u, _))| {
            let top = &expected.top[&(*s, *c)];
            let rebuilt = match &u.repr {
                SegmentRepr::Full(seg) => seg.clone(),
                SegmentRepr::Delta(d) => d.reconstruct(&expected.rung[&(*s, *c, *q)]),
            };
            rebuilt != top.data || u.meta != top.meta
        })
        .map(|(_, (_, n))| *n)
        .sum()
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = timed_setup(|| setup(run.seed, run.cores));
    out.metrics.set("setup_s", setup_s);

    let observer = Observer::enabled();
    if run.traced {
        s.front.set_observer(&observer);
    }
    // The run is a sequence of cycles of about a second, each an
    // open-loop stretch then a closed-loop stretch. Every metric is the
    // median over cycles, so a slow spell of the host moves a few
    // cycles, not the result.
    let cycles = (run.seconds.round() as usize).max(1);
    let cycle_s = run.seconds / cycles as f64;
    let open_s = cycle_s * OPEN_SHARE;
    let closed_s = cycle_s - open_s;
    // One open-loop lane per core, each a Poisson stream at its share
    // of the offered rate.
    let lanes = run.cores;
    let rate = OFFERED_RPS / lanes as f64;

    let stats_before = s.store.stats();
    let lut_before = SamplingMapCache::shared().stats();
    let probe = Probe::start();
    let mut last_sample = Instant::now();
    let front = &s.front;
    let expected = &s.expected;
    let mut open: Vec<(Timing, Verdict)> = Vec::new();
    let mut requests: Vec<Req> = Vec::new();
    let mut closed: Vec<Verdict> = Vec::new();
    let mut cycle_latency = Vec::new();
    let mut cycle_rate = Vec::new();
    for cycle in 0..cycles {
        let stream = |l: usize| (10 + cycle * lanes + l) as u64;
        let schedules: Vec<Vec<u64>> = (0..lanes)
            .map(|l| {
                let mut rng = Rng::new(run.seed ^ stream(l) << 40);
                let mut due_ns = Vec::new();
                let mut t = rng.exp(rate);
                while t < open_s {
                    due_ns.push((t * 1e9) as u64);
                    t += rng.exp(rate);
                }
                due_ns
            })
            .collect();
        let reqs: Vec<Vec<Req>> = schedules
            .iter()
            .enumerate()
            .map(|(l, due)| (0..due.len() as u64).map(|k| s.mix.request(stream(l), k)).collect())
            .collect();
        // Admission runs on one virtual clock across cycles.
        let base_s = cycle as f64 * cycle_s;
        let results = open_loop(
            &schedules,
            Instant::now(),
            || {
                if run.traced && last_sample.elapsed() >= Duration::from_millis(10) {
                    probe.sample();
                    last_sample = Instant::now();
                }
            },
            |l, k| admit_and_execute(front, reqs[l][k], base_s + schedules[l][k] as f64 / 1e9),
            |l, k, resp| verify(expected, reqs[l][k], resp),
        );
        cycle_latency
            .push(results.iter().flatten().map(|(t, _)| t.latency_ns() as f64 / 1e6).collect());
        open.extend(results.into_iter().flatten());
        requests.extend(reqs.into_iter().flatten());

        // Closed loop: saturation throughput of `cores` callers, over
        // the steal-discounted time.
        let clock = StealClock::start();
        let start = Instant::now();
        let done = closed_loop(run.cores, start + Duration::from_secs_f64(closed_s), |c, k| {
            let req = s.mix.request(1_000_000 + (cycle * run.cores + c) as u64, k as u64);
            let t_s = base_s + open_s + start.elapsed().as_secs_f64();
            verify(expected, req, admit_and_execute(front, req, t_s))
        });
        let n: usize = done.iter().map(Vec::len).sum();
        cycle_rate.push(n as f64 / clock.effective_s());
        closed.extend(done.into_iter().flatten());
    }
    let proc = probe.finish(run.cores);
    let stats_after = s.store.stats();
    let lut_after = SamplingMapCache::shared().stats();

    let latency = median_of_windows(&cycle_latency, 0.99);
    let capacity = median(&cycle_rate);
    let lag = Dist::of(open.iter().map(|(t, _)| t.lag_ns() as f64 / 1e6).collect(), 0.99);
    println!(
        "serve: {cycles} cycles of {open_s:.2} s open loop at {OFFERED_RPS} req/s in {lanes} \
         lane(s), then {closed_s:.2} s closed loop of {} callers",
        run.cores
    );
    println!(
        "serve: open loop, {} requests, latency from due time (median over cycles) {}",
        open.len(),
        latency.describe("ms")
    );
    println!("serve: generator lag {}", lag.describe("ms"));
    println!(
        "serve: closed loop, {} requests, median {capacity:.0} req/s over cycles",
        closed.len()
    );
    out.metrics.set("throughput_per_s", capacity);
    out.metrics.set("latency_p50_ms", latency.p50);
    out.metrics.set("latency_p99_ms", latency.tail);

    let verdicts: Vec<Verdict> = open.iter().map(|(_, v)| *v).chain(closed).collect();
    let refused_or_wrong = verdicts.iter().filter(|v| !v.ok).count() as u64;
    let bad_upgrades = check_upgrades(expected);
    out.attempted += verdicts.len() as u64;
    out.failed += refused_or_wrong + bad_upgrades;
    println!(
        "check: {} responses against direct transcodes and the tiled catalog, {} distinct \
         upgrades reconstructed: {} wrong or refused, {} bad upgrades",
        verdicts.len(),
        expected.upgrades.lock().expect("upgrade map poisoned").len(),
        refused_or_wrong,
        bad_upgrades
    );
    // The digest covers the requests and their checked results.
    for (req, (_, v)) in requests.iter().zip(&open) {
        out.digest.feed(&(req, v.ok, v.delta));
    }

    if run.traced {
        let m = &mut out.metrics;
        m.set("proc.cpu_util", proc.cpu_util);
        m.set("proc.peak_threads", proc.peak_threads as f64);
        m.set("proc.ctx_switches_involuntary", proc.ctx_switches_involuntary as f64);
        m.set("sas.ingest_video_s", s.ingest_s);
        m.set("sas.ingest_tiled_s", s.tiled_s);
        m.set("sas.fov_streams", s.streams as f64);
        m.set("sas.degraded_segments", s.degraded as f64);
        let reads =
            (stats_after.hits + stats_after.misses) - (stats_before.hits + stats_before.misses);
        m.set(
            "store.hit_ratio",
            (stats_after.hits - stats_before.hits) as f64 / reads.max(1) as f64,
        );
        m.set("store.evictions", (stats_after.evictions - stats_before.evictions) as f64);
        m.set("store.reconstructs", (stats_after.reconstructs - stats_before.reconstructs) as f64);
        // Every miss is followed by an insert.
        m.set("store.writes", (stats_after.misses - stats_before.misses) as f64);
        m.set("store.resident_mb", s.store.resident_bytes() as f64 / (1 << 20) as f64);
        m.set("store.delta_entries", s.store.delta_entries() as f64);
        m.set(
            "projection.calls",
            ((lut_after.hits + lut_after.misses) - (lut_before.hits + lut_before.misses)) as f64,
        );

        let open_verdicts: Vec<Verdict> = open.iter().map(|(_, v)| *v).collect();
        let op_us = |kind: usize| {
            Dist::of(
                open_verdicts
                    .iter()
                    .filter(|v| v.kind == kind)
                    .map(|v| v.op_ns as f64 / 1e3)
                    .collect(),
                0.99,
            )
        };
        for (kind, name) in [
            (0, "server.fetch_fov_us"),
            (1, "server.fetch_fov_rung_us"),
            (2, "server.fetch_fov_upgrade_us"),
        ] {
            let d = op_us(kind);
            println!("trace: {name} {}", d.describe("us"));
            m.set(&format!("{name}.p50"), d.p50);
            m.set(&format!("{name}.p99"), d.tail);
        }
        m.set("server.fetch_tile_us.p50", op_us(3).p50);
        let upgrades: Vec<&Verdict> = verdicts.iter().filter(|v| v.kind == 2).collect();
        m.set(
            "server.delta_upgrade_ratio",
            upgrades.iter().filter(|v| v.delta).count() as f64 / upgrades.len().max(1) as f64,
        );
        m.set("server.calls", verdicts.len() as f64);
        m.set("front.calls", verdicts.len() as f64);
        m.set(
            "front.admit_ns",
            verdicts.iter().map(|v| v.admit_ns as f64).sum::<f64>() / verdicts.len().max(1) as f64,
        );
        let refused = verdicts.iter().filter(|v| v.refused).count();
        m.set("front.shed_rate", refused as f64 / verdicts.len().max(1) as f64);
        m.set("front.peak_queue_depth", f64::from(s.front.peak_queue_depth()));
        let ms = |f: fn(&Timing) -> u64| {
            Dist::of(open.iter().map(|(t, _)| f(t) as f64 / 1e6).collect(), 0.99)
        };
        let wait = ms(Timing::wait_ns);
        let service = ms(Timing::service_ns);
        println!("trace: queue wait {}", wait.describe("ms"));
        println!("trace: service {}", service.describe("ms"));
        m.set("serve.queue_wait_ms.p50", wait.p50);
        m.set("serve.queue_wait_ms.p99", wait.tail);
        m.set("serve.service_ms.p50", service.p50);
        m.set("serve.service_ms.p99", service.tail);
        m.set("gen.lag_ms.p99", lag.tail);

        // evr-video serving path, replayed on a sample of streams.
        let (mut transcode, mut encode, mut rebuild) = (Vec::new(), Vec::new(), Vec::new());
        let q = s.mix.lower[0];
        for key in s.mix.keys.iter().take(8) {
            let top = &expected.top[key].data;
            let t = Instant::now();
            let coarse = transcode_segment(top, q);
            transcode.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let delta = DeltaSegment::encode_if_smaller(&coarse, top);
            encode.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(d) = delta {
                let t = Instant::now();
                std::hint::black_box(d.reconstruct(top));
                rebuild.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        m.set("video.transcode_us", median(&transcode));
        m.set("video.delta_encode_us", median(&encode));
        m.set("video.delta_reconstruct_us", median(&rebuild));
        m.set("video.calls", (transcode.len() + encode.len() + rebuild.len()) as f64);

        // Tracing overhead: short closed loops with the front's observer
        // detached and attached, alternating. Every loop draws fresh
        // request streams, so no arm replays a sequence the store was
        // just shaped by.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for rep in 0..4u64 {
            let traced = rep % 2 == 1;
            s.front.set_observer(&if traced { observer.clone() } else { Observer::noop() });
            let front = &s.front;
            let start = Instant::now();
            let n: usize = closed_loop(run.cores, start + Duration::from_millis(400), |c, k| {
                let req = s.mix.request(100 + 10 * rep + c as u64, k as u64);
                admit_and_execute(front, req, 1e6 + start.elapsed().as_secs_f64());
            })
            .iter()
            .map(Vec::len)
            .sum();
            let rate = n as f64 / start.elapsed().as_secs_f64();
            if traced { &mut on } else { &mut off }.push(rate);
        }
        out.metrics.set("obs.trace_overhead_frac", median(&off) / median(&on) - 1.0);
    }
    out
}
