//! SAS FOV-video generation: coordinate-map computation, map reuse and
//! antialiased rendering — the server-side pre-rendering hot path.
//!
//! `fov_frame_paris_224` is the call ingest makes 240 times per segment
//! at the default configuration: a 224×224 `render_with_map` over a
//! 320×160 source with 13 objects, box-filtered to 112×112.
//! `scene_render_paris_320x160` renders that source, the scene with the
//! most objects for the ERP render's per-row cull to drop.

use criterion::{criterion_group, criterion_main, Criterion};
use evr_math::EulerAngles;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, FovSpec, Projection, Transformer, Viewport};
use evr_video::library::{scene_for, VideoId};

fn bench_fovgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("fov_generation");
    group.sample_size(20);
    let scene = scene_for(VideoId::Rhino);
    let src = scene.render_image(1.0, Projection::Erp, 320, 160);
    let t = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        FovSpec::hdk2().expanded(evr_math::Degrees(10.0)),
        Viewport::new(224, 224),
    );
    let pose = EulerAngles::from_degrees(-5.0, -10.0, 0.0);

    group.bench_function("coordinate_map_224", |b| {
        b.iter(|| t.coordinate_map(std::hint::black_box(pose)))
    });
    let map = t.coordinate_map(pose);
    group.bench_function("render_with_map_224", |b| {
        b.iter(|| t.render_with_map(std::hint::black_box(&src), &map))
    });
    let hi = t.render_with_map(&src, &map);
    group
        .bench_function("downsample2x_224", |b| b.iter(|| downsample2x(std::hint::black_box(&hi))));
    group.bench_function("scene_render_src_320x160", |b| {
        b.iter(|| scene.render_image(std::hint::black_box(2.5), Projection::Erp, 320, 160))
    });

    let paris = scene_for(VideoId::Paris);
    let paris_src = paris.render_image(1.0, Projection::Erp, 320, 160);
    group.bench_function("fov_frame_paris_224", |b| {
        b.iter(|| downsample2x(&t.render_with_map(std::hint::black_box(&paris_src), &map)))
    });
    group.bench_function("scene_render_paris_320x160", |b| {
        b.iter(|| paris.render_image(std::hint::black_box(1.0), Projection::Erp, 320, 160))
    });
    group.finish();
}

criterion_group!(benches, bench_fovgen);
criterion_main!(benches);
