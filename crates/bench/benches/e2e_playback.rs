//! End-to-end client playback simulation throughput: one user session
//! over a pre-ingested video (ingestion excluded — it is the server's
//! offline cost).

use criterion::{criterion_group, criterion_main, Criterion};
use evr_client::session::{ContentPath, PlaybackSession, Renderer, SessionConfig};
use evr_sas::{ingest_video_with, IngestOptions, SasConfig, SasServer};
use evr_trace::behavior::{generate_user_trace, params_for};
use evr_video::library::{scene_for, VideoId};

fn bench_playback(c: &mut Criterion) {
    let scene = scene_for(VideoId::Rhino);
    let sas = SasConfig::tiny_for_tests();
    let catalog = ingest_video_with(&scene, &sas, 4.0, &IngestOptions::default());
    let server = SasServer::new(catalog.expect("tiny config ingests"));
    let trace = generate_user_trace(&scene, &params_for(VideoId::Rhino), 5, 4.0, 30.0);

    let mut group = c.benchmark_group("e2e_playback_4s");
    group.sample_size(30);
    for (name, path, renderer) in [
        ("baseline_gpu", ContentPath::OnlineBaseline, Renderer::Gpu),
        ("sas_pte", ContentPath::OnlineSas, Renderer::Pte),
    ] {
        let session = PlaybackSession::new(SessionConfig::new(path, renderer, sas));
        group.bench_function(name, |b| {
            b.iter(|| session.run(std::hint::black_box(&server), &trace))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_playback);
criterion_main!(benches);
