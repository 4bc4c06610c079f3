//! SAS store/server invariants across the ingest → serve boundary,
//! including property-based checks over random request streams.

use std::fmt::Write as _;

use proptest::prelude::*;

use evr_client::session::{ContentPath, PlaybackSession, Renderer, SessionConfig};
use evr_math::EulerAngles;
use evr_sas::{
    fov_rung_quantizers, ingest_tiled_rates_with, ingest_video, ingest_video_with,
    populate_fov_ladder, FovPrerenderStore, IngestOptions, Request, Response, SasCatalog,
    SasConfig, SasServer,
};
use evr_video::library::{scene_for, VideoId};
use evr_video::DeltaSegment;

fn server() -> SasServer {
    SasServer::new(ingest_video(&scene_for(VideoId::Rhino), &SasConfig::tiny_for_tests(), 2.0))
}

#[test]
fn every_indexed_stream_is_readable_and_consistent() {
    let s = server();
    let catalog = s.catalog();
    for seg in 0..catalog.segment_count() {
        let original = catalog.original_segment(seg);
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
                match s.handle(Request::FovVideo { segment: seg, cluster: c }) {
                    Response::FovVideo { .. } => {}
                    other => panic!("best_cluster returned unservable stream: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn store_backed_serving_is_byte_identical_to_storeless() {
    // The same catalog behind a store-less server and a store-backed one
    // must produce bit-identical playback reports: the store changes
    // residency and sharing, never content.
    let catalog = ingest_video(&scene_for(VideoId::Rhino), &SasConfig::tiny_for_tests(), 2.0);
    let storeless = SasServer::new(catalog.clone());
    let stored = SasServer::with_store(catalog, FovPrerenderStore::new());
    let session = PlaybackSession::new(SessionConfig::new(
        ContentPath::OnlineSas,
        Renderer::Pte,
        SasConfig::tiny_for_tests(),
    ));
    let sys = evr_core::EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 2.0);
    for user in 0..3 {
        let trace = sys.user_trace(user);
        let a = session.run(&storeless, &trace);
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

/// FNV-1a over the `Debug` rendering of a value, the digest
/// `perfbench` prints for its outputs.
fn debug_digest(value: &impl std::fmt::Debug) -> String {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("digest writes never fail");
    format!("{:016x}", h.0)
}

/// The serving outputs of every FOV stream at every lower ladder rung on
/// a fresh store: the first rung fetch (a transcode), the second (a
/// delta reconstruct), the delta-wire upgrade, and the rung's down-delta
/// against the top rung.
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

/// Byte identity of the three ingest stages (catalog, delta FOV ladder,
/// tiled-rate catalog) and of the serving kernels (transcode, delta
/// encode, delta reconstruct) against `tests/golden/ingest_digest.txt`.
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
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/ingest_digest.txt");
    let want = std::fs::read_to_string(&path).expect("tests/golden/ingest_digest.txt exists");
    assert_eq!(got, want, "ingest output drifted from the golden digests");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_random_request_streams_never_crash(
        requests in proptest::collection::vec((0u32..12, 0usize..8, any::<bool>()), 1..40)
    ) {
        let s = server();
        for (segment, cluster, original) in requests {
            let req = if original {
                Request::Original { segment }
            } else {
                Request::FovVideo { segment, cluster }
            };
            match s.handle(req) {
                Response::FovVideo { segment, meta, wire_bytes } => {
                    prop_assert_eq!(segment.frames.len(), meta.len());
                    prop_assert!(wire_bytes > 0);
                }
                Response::Original { segment, wire_bytes } => {
                    prop_assert!(!segment.frames.is_empty());
                    prop_assert!(wire_bytes > 0);
                }
                Response::NotFound => {}
            }
        }
    }
}
