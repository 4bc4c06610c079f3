//! SAS store/server invariants across the ingest → serve boundary,
//! including property-based checks over random request streams.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use evr_client::session::{ContentPath, PlaybackSession, Renderer, SessionConfig};
use evr_math::EulerAngles;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, ImageBuffer, Projection, Transformer, Viewport};
use evr_sas::{
    fov_rung_quantizers, ingest_ladder_with, ingest_tiled_rates_with, ingest_video_with,
    populate_fov_ladder, FovPrerenderStore, IngestOptions, SasCatalog, SasConfig, SasServer,
};
use evr_video::codec::{CodecConfig, Encoder};
use evr_video::library::{scene_for, VideoId};
use evr_video::DeltaSegment;

/// Two seconds of Rhino at the tiny test configuration.
fn tiny_catalog() -> SasCatalog {
    let cfg = SasConfig::tiny_for_tests();
    ingest_video_with(&scene_for(VideoId::Rhino), &cfg, 2.0, &IngestOptions::default())
        .expect("tiny config ingests")
}

fn server() -> SasServer {
    SasServer::new(tiny_catalog())
}

#[test]
fn every_indexed_stream_is_readable_and_consistent() {
    let s = server();
    let catalog = s.catalog();
    for seg in 0..catalog.segment_count() {
        let original = catalog.try_original_segment(seg).expect("segment in range");
        for cluster in catalog.clusters_in_segment(seg) {
            let stream = catalog.fov_stream(seg, cluster).expect("listed");
            let (data, meta) = catalog.read_fov(stream).unwrap();
            // One orientation per frame, aligned to the original segment.
            assert_eq!(data.frames.len(), meta.len());
            assert_eq!(data.start_index, original.start_index);
            assert_eq!(data.frames[0].kind, evr_video::codec::FrameKind::Intra);
            // Metadata FOV = device FOV + margin.
            assert_eq!(meta[0].fov, catalog.config().stream_fov());
        }
    }
}

#[test]
fn utilization_filtering_is_nested() {
    // Streams kept at a lower utilisation are a subset of those kept at
    // any higher utilisation.
    let s = server();
    let full = s.catalog();
    let half = full.with_utilization(0.5);
    let quarter = half.with_utilization(0.25);
    for seg in 0..full.segment_count() {
        let h: Vec<_> = half.clusters_in_segment(seg);
        let q: Vec<_> = quarter.clusters_in_segment(seg);
        for c in &q {
            assert!(h.contains(c), "segment {seg} cluster {c}");
        }
        for c in &h {
            assert!(full.fov_stream(seg, *c).is_some());
        }
    }
    assert!(quarter.total_fov_target_bytes() <= half.total_fov_target_bytes());
}

#[test]
fn best_cluster_always_resolves_to_servable_stream() {
    let s = server();
    for seg in 0..s.catalog().segment_count() {
        for yaw in [-150.0, -60.0, 0.0, 45.0, 120.0] {
            let pose = EulerAngles::from_degrees(yaw, -10.0, 0.0);
            if let Some(c) = s.best_cluster(seg, pose) {
                if let Err(e) = s.fetch_fov(seg, c) {
                    panic!("best_cluster returned unservable stream: {e}");
                }
            }
        }
    }
}

#[test]
fn store_backed_serving_is_byte_identical_to_storeless() {
    // A one-byte store keeps only its newest pre-render, so fetches
    // re-read the catalog as a store-less server did. It must produce
    // bit-identical playback reports to a cold and then warm default
    // store: the store changes residency and sharing, never content.
    let catalog = tiny_catalog();
    let rereading = SasServer::with_store(catalog.clone(), FovPrerenderStore::with_budget(1));
    let stored = SasServer::with_store(catalog, FovPrerenderStore::new());
    let session = PlaybackSession::new(SessionConfig::new(
        ContentPath::OnlineSas,
        Renderer::Pte,
        SasConfig::tiny_for_tests(),
    ));
    let sys = evr_core::EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 2.0);
    for user in 0..3 {
        let trace = sys.user_trace(user);
        let a = session.run(&rereading, &trace);
        let b = session.run(&stored, &trace);
        assert_eq!(a, b, "user {user}: store-backed report diverged");
        // Re-running against the warm store stays identical too.
        let c = session.run(&stored, &trace);
        assert_eq!(a, c, "user {user}: warm store report diverged");
    }
}

#[test]
fn degraded_catalog_plays_end_to_end_from_originals() {
    // NaN detector output degrades every segment at ingest; playback
    // must still run to completion, serving the original panorama.
    let mut cfg = SasConfig::tiny_for_tests();
    cfg.detector.localization_noise = f64::NAN;
    let catalog = ingest_video_with(
        &scene_for(VideoId::Rs),
        &cfg,
        2.0,
        &IngestOptions { workers: 2, ..IngestOptions::default() },
    )
    .expect("degraded ingest still succeeds");
    assert_eq!(catalog.degraded_segments().len(), catalog.segment_count() as usize);
    let server = SasServer::with_store(catalog, FovPrerenderStore::new());
    let session =
        PlaybackSession::new(SessionConfig::new(ContentPath::OnlineSas, Renderer::Gpu, cfg));
    let sys = evr_core::EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 2.0);
    let report = session.run(&server, &sys.user_trace(1));
    assert!(report.frames_total > 0, "playback must complete");
    assert_eq!(report.fov_hits, 0, "no FOV streams exist to hit");
    assert_eq!(
        report.fallback_frames, report.frames_total,
        "every frame comes from the original panorama"
    );
}

/// A running FNV-1a hash, the digest `perfbench` prints for its outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over the `Debug` rendering of a value.
fn debug_digest(value: &impl std::fmt::Debug) -> String {
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("digest writes never fail");
    h.hex()
}

/// FNV-1a over an image's dimensions and its RGB bytes in raster order.
fn pixel_digest(img: &ImageBuffer) -> String {
    let mut h = Fnv::new();
    h.eat(&img.width().to_le_bytes());
    h.eat(&img.height().to_le_bytes());
    for p in img.pixels() {
        h.eat(&[p.r, p.g, p.b]);
    }
    h.hex()
}

/// The serving outputs of every FOV stream at every lower ladder rung on
/// a fresh store: the first rung fetch (a transcode), the second (a
/// second transcode, which must equal the first), the delta-wire
/// upgrade, and the rung's down-delta against the top rung.
fn serving_digest(catalog: &SasCatalog, cfg: &SasConfig) -> String {
    let server = SasServer::with_store(catalog.clone(), FovPrerenderStore::new());
    let rungs = fov_rung_quantizers(cfg);
    let mut served = Vec::new();
    for segment in 0..catalog.segment_count() {
        for cluster in catalog.clusters_in_segment(segment) {
            for &q in &rungs[..rungs.len() - 1] {
                let transcoded = server.fetch_fov_rung(segment, cluster, q);
                let reconstructed = server.fetch_fov_rung(segment, cluster, q);
                let upgrade = server.fetch_fov_upgrade(segment, cluster, q, true);
                let (top, _) = server.fetch_fov(segment, cluster).expect("indexed stream");
                let (rung, _) = transcoded.as_ref().expect("ladder rung");
                let down = DeltaSegment::encode(&rung.data, &top.data);
                served.push((transcoded, reconstructed, upgrade, down));
            }
        }
    }
    debug_digest(&served)
}

/// Byte identity of the ingest stages (catalog, delta FOV ladder,
/// tiled-rate catalog, ABR ladder) and of the serving kernels (transcode,
/// delta encode, delta reconstruct) against `tests/golden/ingest_digest.txt`.
/// The digests come from the exhaustive kernels that the motion-search,
/// ERP-render and bilinear fast paths replace (DESIGN.md §7, §11), and
/// from the per-coefficient `predict_coeff` rescale that the step-ratio
/// table replaces (DESIGN.md §16). Regenerate them only for a deliberate
/// output change, never to absorb a kernel change.
#[test]
fn ingest_outputs_match_golden_digest() {
    let cfg = SasConfig::tiny_for_tests();
    let mut got = String::new();
    for video in [VideoId::Paris, VideoId::Rhino] {
        let scene = scene_for(video);
        let store = FovPrerenderStore::new();
        let options =
            IngestOptions { workers: 2, store: Some(store.clone()), ..Default::default() };
        let catalog = ingest_video_with(&scene, &cfg, 1.0, &options).expect("tiny config ingests");
        let ladder = populate_fov_ladder(&catalog, &store, &fov_rung_quantizers(&cfg), 2, true);
        let tiles = ingest_tiled_rates_with(&scene, &cfg, 1.0, 2);
        writeln!(got, "{video:?} catalog {}", debug_digest(&catalog)).unwrap();
        writeln!(got, "{video:?} ladder {}", debug_digest(&ladder)).unwrap();
        writeln!(got, "{video:?} tiles {}", debug_digest(&tiles)).unwrap();
        writeln!(got, "{video:?} serve {}", serving_digest(&catalog, &cfg)).unwrap();
        let abr = ingest_ladder_with(&scene, &cfg, &[30, 18, 10], 1.0, 2).expect("valid ladder");
        writeln!(got, "{video:?} abr-ladder {}", debug_digest(&(abr.quantizers(), abr.matrix())))
            .unwrap();
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/ingest_digest.txt");
    let want = std::fs::read_to_string(&path).expect("tests/golden/ingest_digest.txt exists");
    assert_eq!(got, want, "ingest output drifted from the golden digests");
}

/// Byte identity of the three ingest kernels at the paper-default
/// geometry against `tests/golden/kernel_digest.txt`: the FOV pre-render
/// `downsample2x(render_with_map)` (a 224×224 map over a 320×160 Paris
/// frame, seam and pole poses included), the 320×160 ERP scene render of
/// every library scene, and `encode_frame` runs of an intra frame and
/// its predicted followers: at three sizes and quantisers, at a size
/// odd in both axes, and on one tile of the default grid at every tiled
/// rung (the full-resolution crop at the top quantiser, the halved crop
/// at the lower ones). `ingest_digest.txt` pins only the tiny
/// 96×48 configuration, where border taps dominate. The digests come
/// from the pre-fast-path kernels (the `#[cfg(test)]` oracles of
/// DESIGN.md §7 and §11); regenerate them only for a deliberate output
/// change, never to absorb a kernel change.
#[test]
fn ingest_kernels_match_golden_digest() {
    let cfg = SasConfig::default();
    let (src_w, src_h) = cfg.analysis_src;
    let (fov_w, fov_h) = cfg.analysis_fov;
    let renderer = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        cfg.stream_fov(),
        Viewport::new(fov_w * 2, fov_h * 2),
    );
    let fov_frame = |src: &ImageBuffer, yaw: f64, pitch: f64, roll: f64| {
        let map = renderer.coordinate_map(EulerAngles::from_degrees(yaw, pitch, roll));
        downsample2x(&renderer.render_with_map(src, &map))
    };
    let paris = scene_for(VideoId::Paris);
    let mut got = String::new();

    let src = paris.render_image(1.0, Projection::Erp, src_w, src_h);
    for (yaw, pitch, roll) in [
        (0.0, 0.0, 0.0),
        (-5.0, -10.0, 0.0),
        (179.5, 0.0, 0.0),
        (-179.5, 15.0, 5.0),
        (45.0, 80.0, 0.0),
        (-120.0, -80.0, 0.0),
    ] {
        let digest = pixel_digest(&fov_frame(&src, yaw, pitch, roll));
        writeln!(got, "fov {yaw} {pitch} {roll} {digest}").unwrap();
    }

    for video in VideoId::ALL {
        let scene = scene_for(video);
        for t in [0.0, 1.7] {
            let digest = pixel_digest(&scene.render_image(t, Projection::Erp, src_w, src_h));
            writeln!(got, "scene {video:?} {t} {digest}").unwrap();
        }
    }

    let encode = |q: u8, frames: &[ImageBuffer]| {
        let mut enc = Encoder::new(CodecConfig::new(30, q));
        debug_digest(&frames.iter().map(|f| enc.encode_frame(f)).collect::<Vec<_>>())
    };
    let source = |scene: &evr_video::Scene, t: f64, w: u32, h: u32| {
        scene.render_image(t, Projection::Erp, w, h)
    };
    let original = [source(&paris, 0.0, src_w, src_h), source(&paris, 1.0 / 30.0, src_w, src_h)];
    writeln!(got, "encode {src_w}x{src_h} q12 {}", encode(12, &original)).unwrap();
    let fov = [
        fov_frame(&source(&paris, 0.0, src_w, src_h), -6.0, -9.0, 0.0),
        fov_frame(&source(&paris, 1.0 / 30.0, src_w, src_h), -3.0, -9.0, 0.0),
    ];
    writeln!(got, "encode {fov_w}x{fov_h} q15 {}", encode(15, &fov)).unwrap();
    let rhino = scene_for(VideoId::Rhino);
    let odd = [source(&rhino, 0.0, 100, 60), source(&rhino, 0.9, 100, 60)];
    writeln!(got, "encode 100x60 q30 {}", encode(30, &odd)).unwrap();
    // Odd in both axes: one- and two-sample chroma averages, and partial
    // blocks in every plane.
    let odd = [0.0, 0.4, 0.8].map(|t| source(&rhino, t, 57, 33));
    writeln!(got, "encode 57x33 q12 {}", encode(12, &odd)).unwrap();
    // One tile of the default grid as the tiled ingest codes it: the
    // full-resolution crop at the top rung, the halved crop below it.
    let (tile_w, tile_h) = (src_w / cfg.tile_grid.cols, src_h / cfg.tile_grid.rows);
    let (x0, y0) = (3 * tile_w, tile_h);
    let crops = [0.0, 1.0 / 30.0, 2.0 / 30.0].map(|t| {
        let src = source(&paris, t, src_w, src_h);
        ImageBuffer::from_fn(tile_w, tile_h, |x, y| src.get(x0 + x, y0 + y))
    });
    let halved = crops.each_ref().map(downsample2x);
    let rungs = cfg.tiled_rung_quantizers();
    let (top, lower) = rungs.split_last().expect("the tiled ladder has a top rung");
    writeln!(got, "encode tile {tile_w}x{tile_h} q{top} {}", encode(*top, &crops)).unwrap();
    for &q in lower {
        let (w, h) = (tile_w / 2, tile_h / 2);
        writeln!(got, "encode tile {w}x{h} q{q} {}", encode(q, &halved)).unwrap();
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/kernel_digest.txt");
    let want = std::fs::read_to_string(&path).expect("tests/golden/kernel_digest.txt exists");
    assert_eq!(got, want, "ingest kernel output drifted from the golden digests");
}

/// The store-backed [`server`] with the tiled-rate catalog attached,
/// built once and shared by every property case (its store warms up
/// across cases).
fn tiled_server() -> &'static SasServer {
    static SERVER: OnceLock<SasServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let cfg = SasConfig::tiny_for_tests();
        let mut s = server();
        s.attach_tiles(Arc::new(ingest_tiled_rates_with(&scene_for(VideoId::Rhino), &cfg, 2.0, 2)));
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_random_request_streams_never_crash(
        requests in proptest::collection::vec(
            (0u32..13, 0u8..5, 0usize..8, 0usize..64, any::<bool>()),
            1..40,
        )
    ) {
        let s = tiled_server();
        let catalog = s.catalog();
        let tiles = s.tiles().expect("tiles attached");
        // Every ladder rung, plus quantisers just outside it.
        let mut quantizers = fov_rung_quantizers(catalog.config());
        quantizers.extend([0, 51]);
        for (seg, op, cluster, pick, delta_wire) in requests {
            // Segments past the end, up to the last representable index.
            let segment = if seg == 12 { u32::MAX } else { seg };
            let q = quantizers[pick % quantizers.len()];
            // Every `SasError` names a lookup failure: a server that owns
            // its store has no other way to fail, so only the successes
            // carry properties to check.
            match op {
                0 | 1 => {
                    let fetched = if op == 0 {
                        s.fetch_fov(segment, cluster)
                    } else {
                        s.fetch_fov_rung(segment, cluster, q)
                    };
                    if let Ok((fov, wire_bytes)) = fetched {
                        prop_assert_eq!(fov.data.frames.len(), fov.meta.len());
                        prop_assert!(wire_bytes > 0);
                    }
                }
                2 => {
                    let rung = s.fetch_fov_rung(segment, cluster, q);
                    let upgrade = s.fetch_fov_upgrade(segment, cluster, q, delta_wire);
                    match (rung, upgrade) {
                        (Ok((held, _)), Ok(up)) => {
                            let (top, _) = s.fetch_fov(segment, cluster).expect("upgradable");
                            prop_assert_eq!(up.meta.len(), top.data.frames.len());
                            prop_assert!(up.wire_bytes > 0);
                            prop_assert!(delta_wire || !up.repr.is_delta());
                            prop_assert!(up.repr.reconstruct(Some(&held.data)) == top.data,
                                "upgrade of ({}, {}) from q{} does not rebuild the top rung",
                                segment, cluster, q);
                        }
                        (Err(a), Err(b)) => prop_assert_eq!(a, b),
                        (rung, upgrade) => prop_assert!(false,
                            "rung {:?} and upgrade {:?} disagree", rung.err(), upgrade.err()),
                    }
                }
                3 => {
                    let tile = pick % (tiles.grid().len() + 2);
                    let rung = cluster % (tiles.rung_count() + 1);
                    if let Ok(r) = s.fetch_tile(segment, tile, rung) {
                        let original = catalog.try_original_segment(segment);
                        let frames = original.expect("segment in range").frames.len();
                        prop_assert_eq!(r.frame_bytes.len(), frames);
                        prop_assert!(r.wire_bytes > 0);
                    }
                }
                _ => {
                    let pose = EulerAngles::from_degrees(pick as f64 * 5.625 - 180.0, -10.0, 0.0);
                    if let Some(c) = s.best_cluster(segment, pose) {
                        prop_assert!(s.fetch_fov(segment, c).is_ok());
                    }
                }
            }
        }
    }
}
