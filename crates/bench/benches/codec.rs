//! Codec-model throughput: colour conversion, intra and predicted
//! coding, decode. `encode_predicted_112` is the FOV-video size: 240 of
//! the 270 frames an ingest segment encodes at the default configuration
//! are 112×112 P- and I-frames of the FOV streams, and
//! `encode_segment_112` encodes one whole such stream segment, 30
//! rendered Rhino FOV frames at the top rung's q15.
//!
//! The `serving_112` group times the coefficient-domain kernels of the
//! FOV rung ladder on one 30-frame 112×112 FOV segment at the top
//! rung's q15: the transcode to the q30 rung (the SAS server's answer to
//! a rung request), the delta ladder's down-delta (q30 against q15) and
//! its reconstruct, the up-delta (q15 against q30), and the one-pass
//! upgrade delta the server sends instead (the same output straight
//! from the top rung).

use criterion::{criterion_group, criterion_main, Criterion};
use evr_math::EulerAngles;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, FovSpec, ImageBuffer, Projection, Rgb, Transformer, Viewport};
use evr_video::codec::{CodecConfig, Decoder, EncodedSegment, Encoder};
use evr_video::library::{scene_for, VideoId};
use evr_video::yuv::rgb_to_yuv420;
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

    group.bench_function("rgb_to_yuv420", |b| b.iter(|| rgb_to_yuv420(std::hint::black_box(&f0))));
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
    let fov = fov_frames();
    group.bench_function("encode_segment_112", |b| {
        b.iter(|| fov_segment(std::hint::black_box(&fov)))
    });
    group.finish();
}

/// One second of a Rhino FOV stream as the SAS cloud pre-renders it: a
/// 224×224 render of the ERP source, downsampled to 112×112, panning
/// with its cluster.
fn fov_frames() -> Vec<ImageBuffer> {
    let scene = scene_for(VideoId::Rhino);
    let t = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        FovSpec::hdk2().expanded(evr_math::Degrees(10.0)),
        Viewport::new(224, 224),
    );
    (0..30)
        .map(|i| {
            let time = i as f64 / 30.0;
            let src = scene.render_image(time, Projection::Erp, 320, 160);
            let pose = EulerAngles::from_degrees(-5.0 + 6.0 * time, -10.0, 0.0);
            downsample2x(&t.render_with_map(&src, &t.coordinate_map(pose)))
        })
        .collect()
}

/// `frames` encoded as one segment at the top rung's q15, intra first.
fn fov_segment(frames: &[ImageBuffer]) -> EncodedSegment {
    let mut enc = Encoder::new(CodecConfig::new(30, 15));
    EncodedSegment { start_index: 0, frames: frames.iter().map(|f| enc.encode_frame(f)).collect() }
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_112");
    group.sample_size(20);
    let top = fov_segment(&fov_frames());
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
