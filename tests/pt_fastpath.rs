//! Parity properties for the PT fast path.
//!
//! The sampling-map LUT is a pure wall-clock optimisation: a render
//! through any cached map must be bit-identical to `render_fov`, which
//! builds its own map. These properties pin that across all three
//! projections, both filters and randomized orientations, for the f64
//! reference pipeline and the fixed-point datapath alike, and a golden
//! digest pins the whole-frame renders themselves.

use std::fmt::Write as _;

use proptest::prelude::*;

use evr_math::{EulerAngles, FxFormat};
use evr_projection::lut::SamplingMapCache;
use evr_projection::transform::render_panorama;
use evr_projection::{
    FilterMode, FixedTransformer, FovSpec, ImageBuffer, Projection, Rgb, Transformer, Viewport,
};
use evr_pte::{Pte, PteConfig};

fn test_panorama(projection: Projection) -> ImageBuffer {
    render_panorama(projection, 64, 32, |d| {
        Rgb::new(
            (d.x * 110.0 + 128.0) as u8,
            (d.y * 110.0 + 128.0) as u8,
            (d.z * 110.0 + 128.0) as u8,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reference pipeline: the LUT map path reproduces `render_fov` bit
    /// for bit.
    #[test]
    fn prop_reference_fast_paths_are_bit_identical(
        yaw in -180.0f64..180.0,
        pitch in -80.0f64..80.0,
        roll in -30.0f64..30.0,
    ) {
        let pose = EulerAngles::from_degrees(yaw, pitch, roll);
        let cache = SamplingMapCache::new();
        for projection in Projection::ALL {
            let src = test_panorama(projection);
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                let t = Transformer::new(projection, filter, FovSpec::hdk2(), Viewport::new(24, 16));
                let baseline = t.render_fov(&src, pose);
                let (map, _) = cache.reference_map(&t, pose, 1);
                let coords = map.as_reference().expect("reference map");
                prop_assert_eq!(&t.render_with_map(&src, coords), &baseline.image);
                // A second lookup is a hit and must serve the same map.
                let (again, hit) = cache.reference_map(&t, pose, 1);
                prop_assert!(hit);
                prop_assert_eq!(again.as_reference().expect("reference map"), coords);
            }
        }
    }

    /// Fixed-point datapath: same property for the PTE-faithful
    /// renderer and its cached coordinate stream.
    #[test]
    fn prop_fixed_fast_paths_are_bit_identical(
        yaw in -180.0f64..180.0,
        pitch in -80.0f64..80.0,
    ) {
        let pose = EulerAngles::from_degrees(yaw, pitch, 0.0);
        let cache = SamplingMapCache::new();
        for projection in Projection::ALL {
            let src = test_panorama(projection);
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                let t = FixedTransformer::new(
                    FxFormat::q28_10(),
                    projection,
                    filter,
                    FovSpec::hdk2(),
                    Viewport::new(24, 16),
                );
                let baseline = t.render_fov(&src, pose);
                let (map, _) = cache.fixed_map(&t, pose);
                let (_, coords) = map.as_fixed().expect("fixed map");
                prop_assert_eq!(&t.render_with_map(&src, coords), &baseline);
            }
        }
    }

    /// Pose quantization trades map freshness for reuse, but snapping
    /// must stay transparent: a quantized cache serves exactly the map
    /// the transformer would build at the snapped pose.
    #[test]
    fn prop_quantized_cache_serves_the_snapped_pose_map(
        yaw in -179.0f64..179.0,
        pitch in -60.0f64..60.0,
    ) {
        let pose = EulerAngles::from_degrees(yaw, pitch, 0.0);
        let cache = SamplingMapCache::with_config(1 << 20, 0.5);
        let t = Transformer::new(
            Projection::Erp,
            FilterMode::Bilinear,
            FovSpec::hdk2(),
            Viewport::new(16, 12),
        );
        let (map, _) = cache.reference_map(&t, pose, 1);
        let snapped_map = t.coordinate_map(cache.snap(pose));
        prop_assert_eq!(map.as_reference().expect("reference map"), snapped_map.as_slice());
    }
}

/// The analyzer and the renderer share one cache without colliding:
/// reference (analysis) and fixed (datapath) maps for the same
/// configuration are distinct entries, and repeat frames hit.
#[test]
fn renderer_and_analyzer_share_the_cache_without_collisions() {
    let pose = EulerAngles::from_degrees(42.0, -7.0, 0.0);
    let cache = SamplingMapCache::new();
    let viewport = Viewport::new(20, 12);
    let t = Transformer::new(Projection::Eac, FilterMode::Bilinear, FovSpec::hdk2(), viewport);
    let fixed = FixedTransformer::new(
        FxFormat::q28_10(),
        Projection::Eac,
        FilterMode::Bilinear,
        FovSpec::hdk2(),
        viewport,
    );

    let (_, hit) = cache.reference_map(&t, pose, 1);
    assert!(!hit);
    let (_, hit) = cache.fixed_map(&fixed, pose);
    assert!(!hit, "fixed map must not alias the reference entry");
    let (_, hit) = cache.reference_map(&t, pose, 2);
    assert!(!hit, "strided analysis map must not alias the full map");
    let (_, hit) = cache.reference_map(&t, pose, 1);
    assert!(hit);
    let (_, hit) = cache.fixed_map(&fixed, pose);
    assert!(hit);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (2, 3));
}

/// FNV-1a over an image's dimensions and its RGB bytes in raster order
/// (the `pixel_digest` of `tests/sas_invariants.rs`).
fn pixel_digest(img: &ImageBuffer) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let dims = [img.width().to_le_bytes(), img.height().to_le_bytes()];
    let pixels = img.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
    for b in dims.into_iter().flatten().chain(pixels) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Byte identity of the three whole-frame renderers against
/// `tests/golden/pt_digest.txt`: `Transformer::render_fov`,
/// `FixedTransformer::render_fov` (q28.10) and the image of
/// `Pte::render_frame`, for every projection and filter at the seam and
/// pole poses of `kernel_digest.txt`. The 192×108 viewport over a
/// 512×256 source is `pt_bench`'s smoke geometry; every texel of the
/// source differs from its neighbours, so a tap read from the wrong
/// texel shows. This is the bit-exact pin of the fixed-point render.
#[test]
fn whole_frame_renders_match_golden_digest() {
    let src = ImageBuffer::from_fn(512, 256, |x, y| {
        let k = (x.wrapping_mul(2654435761) ^ y.wrapping_mul(40503)).rotate_left(11);
        Rgb::new(k as u8, (k >> 8) as u8, (k >> 16) as u8)
    });
    let viewport = Viewport::new(192, 108);
    let mut got = String::new();
    for projection in Projection::ALL {
        for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
            let reference = Transformer::new(projection, filter, FovSpec::hdk2(), viewport);
            let fixed = FixedTransformer::new(
                FxFormat::q28_10(),
                projection,
                filter,
                FovSpec::hdk2(),
                viewport,
            );
            let pte = Pte::new(
                PteConfig::prototype()
                    .with_projection(projection)
                    .with_filter(filter)
                    .with_viewport(viewport),
            )
            .with_lut_cache(SamplingMapCache::new());
            for (yaw, pitch, roll) in [
                (0.0, 0.0, 0.0),
                (-5.0, -10.0, 0.0),
                (179.5, 0.0, 0.0),
                (-179.5, 15.0, 5.0),
                (45.0, 80.0, 0.0),
                (-120.0, -80.0, 0.0),
            ] {
                let pose = EulerAngles::from_degrees(yaw, pitch, roll);
                let case = format!("{projection} {filter} {yaw} {pitch} {roll}");
                let digest = pixel_digest(&reference.render_fov(&src, pose).image);
                writeln!(got, "reference {case} {digest}").unwrap();
                writeln!(got, "fixed {case} {}", pixel_digest(&fixed.render_fov(&src, pose)))
                    .unwrap();
                writeln!(got, "pte {case} {}", pixel_digest(&pte.render_frame(&src, pose).0))
                    .unwrap();
            }
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/pt_digest.txt");
    let want = std::fs::read_to_string(&path).expect("tests/golden/pt_digest.txt exists");
    assert_eq!(got, want, "whole-frame PT output drifted from the golden digests");
}

/// A capacity-bounded cache evicts rather than grows: resident
/// coordinates never exceed the configured budget even across many
/// distinct poses.
#[test]
fn bounded_cache_stays_within_its_coordinate_budget() {
    let viewport = Viewport::new(16, 12);
    let budget = (viewport.pixels() as usize) * 3;
    let cache = SamplingMapCache::with_config(budget, 0.0);
    let t = Transformer::new(Projection::Cmp, FilterMode::Nearest, FovSpec::hdk2(), viewport);
    for k in 0..10 {
        let pose = EulerAngles::from_degrees(k as f64 * 11.0, 0.0, 0.0);
        cache.reference_map(&t, pose, 1);
        assert!(cache.resident_coords() <= budget);
    }
    assert!(cache.len() <= 3);
}
