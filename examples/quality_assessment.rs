//! 360° video quality assessment — the PTE's second application (§8.6).
//!
//! A content server assessing incoming 360° uploads projects each frame
//! to viewer perspectives and computes PSNR/SSIM against the pristine
//! source. The projective transformations dominate the pipeline's energy
//! on a GPU; the PTE does them for a fraction. This example runs the
//! *actual* pipeline — fixed-point PT included — on synthetic content.
//!
//! ```sh
//! cargo run --release -p evr-core --example quality_assessment
//! ```

use evr_math::EulerAngles;
use evr_projection::fixed::FixedTransformer;
use evr_projection::{FilterMode, FovSpec, Projection, Transformer, Viewport};
use evr_video::codec::{CodecConfig, Decoder, Encoder};
use evr_video::library::{scene_for, VideoId};
use evr_video::quality::{psnr, ssim};

fn main() {
    let scene = scene_for(VideoId::Nyc);
    let pristine = scene.render_image(2.0, Projection::Erp, 512, 256);

    // The "uploaded" copy: one encode/decode generation at a coarse
    // quantiser, as a transcoding pipeline would see it.
    let mut enc = Encoder::new(CodecConfig::new(30, 22));
    let encoded = enc.encode_frame(&pristine);
    let degraded = Decoder::new().decode_frame(&encoded);
    println!(
        "uploaded copy: {} KB coded, whole-frame PSNR {:.1} dB",
        encoded.bytes / 1024,
        psnr(&pristine, &degraded)
    );

    // Assess at three viewer perspectives, exactly as the PTE would
    // compute them: fixed-point [28,10] projective transformation.
    let vp = Viewport::new(128, 128);
    let fov = FovSpec::hdk2();
    let reference = Transformer::new(Projection::Erp, FilterMode::Bilinear, fov, vp);
    let pte_path = FixedTransformer::new(
        evr_math::fixed::FxFormat::q28_10(),
        Projection::Erp,
        FilterMode::Bilinear,
        fov,
        vp,
    );
    println!("\nper-viewport assessment (PTE fixed-point path):");
    println!("{:>22} {:>10} {:>8} {:>12}", "viewpoint", "PSNR", "SSIM", "PT fidelity");
    for pose in [
        EulerAngles::from_degrees(0.0, 0.0, 0.0),
        EulerAngles::from_degrees(120.0, 10.0, 0.0),
        EulerAngles::from_degrees(-120.0, -20.0, 0.0),
    ] {
        let view_pristine = pte_path.render_fov(&pristine, pose);
        let view_degraded = pte_path.render_fov(&degraded, pose);
        // Sanity: the fixed-point datapath tracks the f64 reference.
        let view_f64 = reference.render_fov(&pristine, pose).image;
        println!(
            "{:>22} {:>8.1}dB {:>8.3} {:>11.2e}",
            pose.to_string(),
            psnr(&view_pristine, &view_degraded),
            ssim(&view_pristine, &view_degraded),
            view_f64.mean_abs_error(&view_pristine),
        );
    }
    println!("\n(PT fidelity = mean pixel error of the [28,10] datapath vs f64 —");
    println!(" below the paper's 1e-3 visual-indistinguishability threshold)");
    println!("Fig. 17's energy comparison is in EXPERIMENTS.md (`--bin experiments_md`).");
}
