//! Prints `EXPERIMENTS.md`, the paper-vs-measured record: runs every
//! experiment at the requested scale and writes the record to stdout.
//! Per-section wall times go to stderr, so the record is a pure
//! function of the code.
//!
//! ```sh
//! cargo run --release -p evr-bench --bin experiments_md > EXPERIMENTS.md   # paper scale
//! cargo run --release -p evr-bench --bin experiments_md -- quick           # smoke scale
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use evr_bench::context_from_env;
use evr_core::figures as f;
use evr_core::report;

/// Runs one section of the record, printing its wall time to stderr.
fn timed<T>(name: &str, run: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = run();
    eprintln!("{name}: {:.1?}", t.elapsed());
    out
}

fn main() -> Result<(), evr_sas::IngestError> {
    let t0 = Instant::now();
    let ctx = context_from_env();
    let scale = *ctx.scale();

    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs this reproduction\n\n");
    md.push_str(
        "Generated by `cargo run --release -p evr-bench --bin experiments_md > EXPERIMENTS.md`.\n\n",
    );
    let _ = writeln!(
        md,
        "Run scale: **{} users** per video over **{} s** of content (the paper: 59 \
         users, full videos). Energy numbers come from the calibrated device model \
         (`evr-energy`, `evr-pte`); workload numbers come from executing the actual \
         pipelines. Expect the *shapes* to match the paper; absolute values are \
         model-based (see DESIGN.md §2 and §8).\n",
        scale.users, scale.duration_s
    );

    md += &timed("figure 3", || report::fig03_markdown(&f::fig03(&ctx)));
    md += &timed("figure 5", || report::fig05_markdown(&f::fig05(&ctx)));
    md += &timed("figure 6", || report::fig06_markdown(&f::fig06(&ctx)));
    md += &timed("figure 11", || report::fig11_markdown(&f::fig11()));
    md += &timed("figure 12", || report::fig12_markdown(&f::fig12(&ctx)));
    md += &timed("figure 13", || report::fig13_markdown(&f::fig13(&ctx)));
    md += &report::fig14_markdown(&timed("figure 14", || f::fig14(&ctx))?);
    md += &timed("figure 15", || report::fig15_markdown(&f::fig15(&ctx)));
    md += &timed("figure 16", || report::fig16_markdown(&f::fig16(&ctx)));
    md += &timed("figure 17", || report::fig17_markdown(&f::fig17()));
    md += &timed("§7.2 prototype", || report::proto_markdown(&f::proto_pte()));
    md += &timed("T / T+H", || report::tiled_variants_markdown(&f::tiled_variants_table(&ctx)));

    md.push_str("## Reading guide\n\n");
    md.push_str(
        "* **Matches**: Fig. 3 totals/shares, Fig. 5/6 behaviour statistics, Fig. 11's \
         `[28,10]` choice, H and S+H savings (Figs. 12/15), FPS drop and miss rates \
         (Fig. 13), the Fig. 14 knee, the Fig. 16 ordering, Fig. 17's level and slope, \
         and the §7.2 prototype numbers.\n\
         * **Known deviations** (see DESIGN.md §8): `S` saves more compute than the \
         paper's 22%; Fig. 3b's per-video spread is narrower; Fig. 14's overheads sit \
         below the paper's because the motion-compensated codec makes FOV videos \
         cheaper relative to originals than the authors' H.264 pipeline did.\n\
         * **The paper's §2 point**: tiling (`T`) cuts bandwidth but saves little \
         device energy, because PT still runs on every frame; pairing it with the \
         PTE (`T+H`) recovers the energy saving.\n",
    );

    print!("{md}");
    eprintln!("{} bytes in {:.1?}", md.len(), t0.elapsed());
    Ok(())
}
