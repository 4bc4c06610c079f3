//! Codec-model throughput: intra and predicted coding, global motion
//! estimation, decode. `encode_predicted_112` is the FOV-video size:
//! 240 of the 270 frames an ingest segment encodes at the default
//! configuration are 112×112 P- and I-frames of the FOV streams.
//!
//! The `serving_112` group times the coefficient-domain kernels the SAS
//! server runs per rung and upgrade request, on one 30-frame 112×112
//! FOV segment at the top rung's q15: the transcode to the q30 rung,
//! the store's down-delta (q30 against q15), the up-delta (q15 against
//! q30), the one-pass upgrade delta the server sends instead (the same
//! output straight from the top rung), and the reconstruct of the
//! down-delta.

use criterion::{criterion_group, criterion_main, Criterion};
use evr_math::EulerAngles;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, FovSpec, ImageBuffer, Projection, Rgb, Transformer, Viewport};
use evr_video::codec::{CodecConfig, Decoder, EncodedSegment, Encoder};
use evr_video::library::{scene_for, VideoId};
use evr_video::{transcode_segment, DeltaSegment};

fn frame(phase: f64) -> ImageBuffer {
    frame_sized(320, 160, phase)
}

fn frame_sized(w: u32, h: u32, phase: f64) -> ImageBuffer {
    ImageBuffer::from_fn(w, h, |x, y| {
        let v =
            ((x as f64 * 0.2 + phase).sin() * 80.0 + (y as f64 * 0.15).cos() * 60.0 + 128.0) as u8;
        Rgb::new(v, v / 2 + 64, 255 - v)
    })
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_320x160");
    group.sample_size(20);
    let f0 = frame(0.0);
    let f1 = frame(0.8);

    group.bench_function("encode_intra", |b| {
        b.iter(|| Encoder::new(CodecConfig::default()).encode_frame(std::hint::black_box(&f0)))
    });
    group.bench_function("encode_predicted", |b| {
        b.iter(|| {
            let mut enc = Encoder::new(CodecConfig::default());
            enc.encode_frame(&f0);
            enc.encode_frame(std::hint::black_box(&f1))
        })
    });
    let (g0, g1) = (frame_sized(112, 112, 0.0), frame_sized(112, 112, 0.8));
    group.bench_function("encode_predicted_112", |b| {
        b.iter(|| {
            let mut enc = Encoder::new(CodecConfig::default());
            enc.encode_frame(&g0);
            enc.encode_frame(std::hint::black_box(&g1))
        })
    });
    let mut enc = Encoder::new(CodecConfig::default());
    let encoded = enc.encode_frame(&f0);
    group.bench_function("decode_intra", |b| {
        b.iter(|| Decoder::new().decode_frame(std::hint::black_box(&encoded)))
    });
    group.finish();
}

/// One second of a Rhino FOV stream as the SAS cloud pre-renders it: a
/// 224×224 render of the ERP source, downsampled to 112×112, panning
/// with its cluster, encoded at the top rung's q15.
fn fov_segment() -> EncodedSegment {
    let scene = scene_for(VideoId::Rhino);
    let t = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        FovSpec::hdk2().expanded(evr_math::Degrees(10.0)),
        Viewport::new(224, 224),
    );
    let mut enc = Encoder::new(CodecConfig::new(30, 15));
    let frames = (0..30)
        .map(|i| {
            let time = i as f64 / 30.0;
            let src = scene.render_image(time, Projection::Erp, 320, 160);
            let pose = EulerAngles::from_degrees(-5.0 + 6.0 * time, -10.0, 0.0);
            let fov = downsample2x(&t.render_with_map(&src, &t.coordinate_map(pose)));
            enc.encode_frame(&fov)
        })
        .collect();
    EncodedSegment { start_index: 0, frames }
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_112");
    group.sample_size(20);
    let top = fov_segment();
    let rung = transcode_segment(&top, 30);
    let down = DeltaSegment::encode(&rung, &top).expect("same shape");

    group.bench_function("transcode_112", |b| {
        b.iter(|| transcode_segment(std::hint::black_box(&top), 30))
    });
    group.bench_function("delta_encode_112_down", |b| {
        b.iter(|| DeltaSegment::encode(std::hint::black_box(&rung), &top))
    });
    group.bench_function("delta_encode_112_up", |b| {
        b.iter(|| DeltaSegment::encode(std::hint::black_box(&top), &rung))
    });
    group.bench_function("delta_upgrade_112", |b| {
        b.iter(|| DeltaSegment::encode_upgrade(std::hint::black_box(&top), 30))
    });
    group.bench_function("delta_reconstruct_112", |b| {
        b.iter(|| std::hint::black_box(&down).reconstruct(&top))
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_serving);
criterion_main!(benches);
