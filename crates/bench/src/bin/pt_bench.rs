//! PT fast-path benchmark: measures renders served from the sampling-map
//! LUT against direct `render_fov` calls, checks that every LUT-served
//! render is bit-identical to the direct one, and emits `BENCH_pt.json`
//! so the performance trajectory has data points (ROADMAP: "as fast as
//! the hardware allows").
//!
//! Exits non-zero if any parity check fails, which is what the CI smoke
//! step relies on:
//!
//! ```text
//! cargo run --release -p evr-bench --bin pt_bench -- --smoke json=BENCH_pt.json
//! cargo run --release -p evr-bench --bin pt_bench -- frames=120 seed=11
//! ```
//!
//! Timings vary across machines, so unlike `chaos_run` the JSON is not
//! golden-diffed — only the `parity_ok` flags are load-bearing in CI.

use std::time::Instant;

use evr_bench::header;
use evr_math::EulerAngles;
use evr_projection::lut::SamplingMapCache;
use evr_projection::transform::render_panorama;
use evr_projection::{
    FilterMode, FixedTransformer, FovSpec, Projection, Rgb, Transformer, Viewport,
};
use evr_pte::{Pte, PteConfig};

struct PtArgs {
    seed: u64,
    frames: u32,
    src: (u32, u32),
    viewport: (u32, u32),
    json: Option<String>,
}

impl Default for PtArgs {
    fn default() -> Self {
        PtArgs { seed: 7, frames: 60, src: (2048, 1024), viewport: (960, 540), json: None }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> PtArgs {
    let mut out = PtArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            out.frames = 12;
            out.src = (512, 256);
            out.viewport = (192, 108);
        } else if let Some(v) = arg.strip_prefix("seed=") {
            out.seed = v.parse().expect("seed=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("frames=") {
            out.frames = v.parse().expect("frames=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `--smoke`, `seed=N`, `frames=N` \
                 or `json=PATH`"
            );
        }
    }
    out
}

/// Seeded xorshift64* — enough randomness for head poses without pulling
/// a SIMD-heavy RNG into a timing benchmark.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pose(&mut self) -> EulerAngles {
        EulerAngles::from_degrees(
            (self.next_f64() - 0.5) * 360.0,
            (self.next_f64() - 0.5) * 160.0,
            0.0,
        )
    }
}

struct CaseResult {
    projection: Projection,
    filter: FilterMode,
    parity_ok: bool,
    seq_ms: f64,
    map_ms: f64,
}

/// One projection × filter case: parity of LUT-served renders against
/// direct `render_fov` calls, then per-frame timings for each path.
fn run_case(args: &PtArgs, projection: Projection, filter: FilterMode) -> CaseResult {
    let (sw, sh) = args.src;
    let src = render_panorama(projection, sw, sh, |d| {
        Rgb::new(
            (d.x * 120.0 + 128.0) as u8,
            (d.y * 120.0 + 128.0) as u8,
            (d.z * 90.0 + 96.0) as u8,
        )
    });
    let viewport = Viewport::new(args.viewport.0, args.viewport.1);
    let t = Transformer::new(projection, filter, FovSpec::hdk2(), viewport);
    let fixed = FixedTransformer::new(
        evr_math::FxFormat::q28_10(),
        projection,
        filter,
        FovSpec::hdk2(),
        viewport,
    );
    let cache = SamplingMapCache::new();

    // Parity sweep: a handful of poses including the ERP seam region.
    let mut rng = Rng::new(args.seed);
    let mut poses = vec![
        EulerAngles::from_degrees(179.5, 0.0, 0.0),
        EulerAngles::from_degrees(-179.5, -30.0, 0.0),
    ];
    for _ in 0..4 {
        poses.push(rng.pose());
    }
    let mut parity_ok = true;
    for &pose in &poses {
        let direct = t.render_fov(&src, pose);
        let (map, _) = cache.reference_map(&t, pose, 1);
        let mapped = t.render_with_map(&src, map.as_reference().expect("reference map"));
        let fx_direct = fixed.render_fov(&src, pose);
        let (fx_map, _) = cache.fixed_map(&fixed, pose);
        let fx_mapped = fixed.render_with_map(&src, fx_map.as_fixed().expect("fixed map").1);
        parity_ok &= mapped == direct.image && fx_mapped == fx_direct;
    }

    // Timings: a fresh pose each frame for the direct path (no LUT), one
    // warm map replayed for the map path (the steady-state frame of a
    // static gaze).
    let mut rng = Rng::new(args.seed ^ 0xBEEF);
    let frame_poses: Vec<EulerAngles> = (0..args.frames).map(|_| rng.pose()).collect();
    let start = Instant::now();
    for &pose in &frame_poses {
        std::hint::black_box(t.render_fov(&src, pose));
    }
    let seq_ms = start.elapsed().as_secs_f64() * 1e3 / args.frames as f64;
    let (map, _) = cache.reference_map(&t, frame_poses[0], 1);
    let coords = map.as_reference().expect("reference map");
    let start = Instant::now();
    for _ in 0..args.frames {
        std::hint::black_box(t.render_with_map(&src, coords));
    }
    let map_ms = start.elapsed().as_secs_f64() * 1e3 / args.frames as f64;

    CaseResult { projection, filter, parity_ok, seq_ms, map_ms }
}

struct EngineResult {
    cold_ms: f64,
    warm_ms: f64,
    lut_hits: u64,
    lut_misses: u64,
}

/// `Pte::render_frame` end to end — the path that used to run the
/// mapping twice. Cold = first frame at a pose (LUT miss), warm = the
/// remaining frames at LUT-quantized poses (hits).
fn run_engine(args: &PtArgs) -> EngineResult {
    let (sw, sh) = args.src;
    let cfg = PteConfig::prototype().with_viewport(Viewport::new(args.viewport.0, args.viewport.1));
    let src = render_panorama(cfg.projection, sw, sh, |d| {
        Rgb::new((d.x * 120.0 + 128.0) as u8, 90, (d.z * 90.0 + 96.0) as u8)
    });
    // Quantize poses to 0.5°: nearby frames of a head trajectory land on
    // the same LUT entry, which is where the single-pass win comes from.
    let pte = Pte::new(cfg).with_lut_cache(SamplingMapCache::with_config(1 << 23, 0.5));

    let mut rng = Rng::new(args.seed ^ 0xF0F0);
    let base = rng.pose();
    let start = Instant::now();
    std::hint::black_box(pte.render_frame(&src, base));
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let warm_frames = args.frames.max(2) - 1;
    let start = Instant::now();
    for _ in 0..warm_frames {
        // ±0.1° jitter around the gaze: snaps to the same quantized pose.
        let jitter = EulerAngles::from_degrees(
            base.yaw.to_degrees().0 + (rng.next_f64() - 0.5) * 0.2,
            base.pitch.to_degrees().0 + (rng.next_f64() - 0.5) * 0.2,
            0.0,
        );
        std::hint::black_box(pte.render_frame(&src, jitter));
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3 / warm_frames as f64;
    let stats = pte.lut_cache().stats();
    EngineResult { cold_ms, warm_ms, lut_hits: stats.hits, lut_misses: stats.misses }
}

/// Stable JSON: fixed key order, floats `{:.6}`, one case per line.
fn bench_json(args: &PtArgs, cases: &[CaseResult], engine: &EngineResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"seed\": {}, \"frames\": {},\n  \"src\": [{}, {}], \"viewport\": [{}, {}],\n",
        args.seed, args.frames, args.src.0, args.src.1, args.viewport.0, args.viewport.1
    ));
    out.push_str(&format!(
        "  \"parity_ok\": {},\n  \"cases\": [\n",
        cases.iter().all(|c| c.parity_ok)
    ));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"projection\": \"{}\", \"filter\": \"{}\", \"parity_ok\": {}, \
             \"seq_ms\": {:.6}, \"map_ms\": {:.6}, \"map_speedup\": {:.6}}}{}\n",
            c.projection,
            c.filter,
            c.parity_ok,
            c.seq_ms,
            c.map_ms,
            c.seq_ms / c.map_ms,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"engine\": {{\"cold_ms\": {:.6}, \"warm_ms\": {:.6}, \"warm_speedup\": {:.6}, \
         \"lut_hits\": {}, \"lut_misses\": {}}}\n",
        engine.cold_ms,
        engine.warm_ms,
        engine.cold_ms / engine.warm_ms,
        engine.lut_hits,
        engine.lut_misses
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("pt_bench", "PT fast path: sampling-map LUT vs direct render");
    println!(
        "src {}x{}, viewport {}x{}, {} frames, seed {}",
        args.src.0, args.src.1, args.viewport.0, args.viewport.1, args.frames, args.seed
    );

    let mut cases = Vec::new();
    for projection in Projection::ALL {
        for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
            let c = run_case(&args, projection, filter);
            println!(
                "  {:<4} {:<9} parity {}  seq {:.2} ms, map {:.2} ms ({:.2}x)",
                c.projection.to_string(),
                c.filter.to_string(),
                if c.parity_ok { "ok" } else { "FAIL" },
                c.seq_ms,
                c.map_ms,
                c.seq_ms / c.map_ms,
            );
            cases.push(c);
        }
    }
    let engine = run_engine(&args);
    println!(
        "  engine render_frame: cold {:.2} ms, warm {:.2} ms ({:.2}x), LUT {} hits / {} misses",
        engine.cold_ms,
        engine.warm_ms,
        engine.cold_ms / engine.warm_ms,
        engine.lut_hits,
        engine.lut_misses
    );

    if let Some(path) = &args.json {
        let json = bench_json(&args, &cases, &engine);
        std::fs::write(path, &json).expect("write pt bench JSON");
        println!("json: {path}");
    }

    if !cases.iter().all(|c| c.parity_ok) {
        eprintln!("parity FAILED: a LUT-served render diverged from the direct render");
        std::process::exit(1);
    }
}
