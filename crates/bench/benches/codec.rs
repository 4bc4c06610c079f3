//! Codec-model throughput: intra and predicted coding, global motion
//! estimation, decode. `encode_predicted_112` is the FOV-video size:
//! 240 of the 270 frames an ingest segment encodes at the default
//! configuration are 112×112 P- and I-frames of the FOV streams.

use criterion::{criterion_group, criterion_main, Criterion};
use evr_projection::{ImageBuffer, Rgb};
use evr_video::codec::{CodecConfig, Decoder, Encoder};

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

criterion_group!(benches, bench_codec);
criterion_main!(benches);
