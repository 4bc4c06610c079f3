//! Trace analytics: behaviour-model generation and Fig. 5 coverage.
//!
//! Generation is timed on both of its paths: a one-off trace, which
//! samples the object trajectories itself (`generate_trace_30s`), and
//! the `EvrSystem::user_trace` path, a fresh user on object tracks that
//! earlier users of the same system have already filled
//! (`user_trace_rs_2s`).

use criterion::{criterion_group, criterion_main, Criterion};
use evr_projection::FovSpec;
use evr_trace::analysis::{coverage_curve, tracking_episodes};
use evr_trace::behavior::{generate_user_trace, params_for, ObjectTracks};
use evr_video::library::{scene_for, VideoId};

fn bench_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_analytics");
    group.sample_size(20);
    let scene = scene_for(VideoId::Rhino);
    let params = params_for(VideoId::Rhino);

    group.bench_function("generate_trace_30s", |b| {
        b.iter(|| generate_user_trace(&scene, &params, std::hint::black_box(3), 30.0, 30.0))
    });

    let rs = scene_for(VideoId::Rs);
    let rs_params = params_for(VideoId::Rs);
    let tracks = ObjectTracks::new(&rs, 2.0, 30.0);
    for user in 0..59 {
        tracks.generate(&rs_params, user);
    }
    let mut user = 59;
    group.bench_function("user_trace_rs_2s", |b| {
        b.iter(|| {
            user += 1;
            tracks.generate(&rs_params, std::hint::black_box(user))
        })
    });

    let traces: Vec<_> =
        (0..4).map(|u| generate_user_trace(&scene, &params, u, 20.0, 10.0)).collect();
    group.bench_function("coverage_curve_4users", |b| {
        b.iter(|| coverage_curve(std::hint::black_box(&traces), &scene, FovSpec::hdk2()))
    });
    group.bench_function("tracking_episodes_20s", |b| {
        b.iter(|| {
            tracking_episodes(std::hint::black_box(&traces[0]), &scene, evr_math::Radians(0.4))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
