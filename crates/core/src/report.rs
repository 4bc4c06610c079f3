//! Markdown report rendering: turns figure data into the
//! paper-vs-measured tables of `EXPERIMENTS.md`.
//!
//! Every renderer embeds the paper's reported values next to this build's
//! measurements, so the generated document *is* the reproduction record.

use std::fmt::Write as _;

use crate::figures::{
    Fig11Point, Fig12Row, Fig13Row, Fig14Point, Fig15Row, Fig16Row, Fig17Row, Fig3Row, Fig5Curve,
    Fig6Curve, ProtoPteRow, TiledVariantRow,
};
use crate::system::{UseCase, Variant};

fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Renders the Fig. 3 table.
pub fn fig03_markdown(rows: &[Fig3Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 3 — device power characterisation\n\n");
    out.push_str("Paper: ~5 W total during 360° playback; display/network/storage only ");
    out.push_str("~7%/9%/4% of energy; PT ≈ 40% of compute+memory energy (up to 53%, Rhino).\n\n");
    out.push_str("| video | display | network | storage | memory | compute | total | PT share |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.2} W | {:.2} W | {:.2} W | {:.2} W | {:.2} W | **{:.2} W** | {} |",
            r.video,
            r.component_watts[0],
            r.component_watts[1],
            r.component_watts[2],
            r.component_watts[3],
            r.component_watts[4],
            r.total_watts,
            pct(r.pt_share)
        );
    }
    let avg = rows.iter().map(|r| r.pt_share).sum::<f64>() / rows.len() as f64;
    let _ = writeln!(out, "\nMeasured mean PT share: **{}** (paper ≈ 40%).\n", pct(avg));
    out
}

/// Renders the Fig. 5 table.
pub fn fig05_markdown(curves: &[Fig5Curve]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 5 — object coverage of user viewing areas\n\n");
    out.push_str("Paper: one object already appears in 60–80% of frames; with all objects ");
    out.push_str("coverage reaches 80–100%.\n\n");
    out.push_str("| video | x = 1 | x = 2 | x = 3 | all objects |\n|---|---|---|---|---|\n");
    for c in curves {
        let at = |i: usize| {
            c.coverage_pct.get(i).map(|v| format!("{v:.1}%")).unwrap_or_else(|| "—".into())
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.1}% |",
            c.video,
            at(0),
            at(1),
            at(2),
            c.coverage_pct.last().copied().unwrap_or(0.0)
        );
    }
    out.push('\n');
    out
}

/// Renders the Fig. 6 table.
pub fn fig06_markdown(curves: &[Fig6Curve]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 6 — cumulative distribution of tracking durations\n\n");
    out.push_str("Paper: users spend ≈ 47% of their time tracking one object for ≥ 5 s.\n\n");
    out.push_str("| video | ≥1 s | ≥2 s | ≥3 s | ≥4 s | ≥5 s |\n|---|---|---|---|---|---|\n");
    for c in curves {
        let _ = writeln!(
            out,
            "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            c.video,
            c.cumulative_pct[1],
            c.cumulative_pct[2],
            c.cumulative_pct[3],
            c.cumulative_pct[4],
            c.cumulative_pct[5]
        );
    }
    let avg = curves.iter().map(|c| c.cumulative_pct[5]).sum::<f64>() / curves.len() as f64;
    let _ = writeln!(out, "\nMeasured mean ≥5 s share: **{avg:.1}%** (paper ≈ 47%).\n");
    out
}

/// Renders the Fig. 11 table (selected rows).
pub fn fig11_markdown(points: &[Fig11Point]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 11 — fixed-point representation sweep\n\n");
    out.push_str("Paper: errors below 10⁻³ are visually indistinguishable; `[28, 10]` is ");
    out.push_str(
        "chosen — narrower integer allocations overflow, narrower totals lose precision.\n\n",
    );
    out.push_str(
        "| total bits | int bits | int % | mean pixel error | verdict |\n|---|---|---|---|---|\n",
    );
    for p in points {
        // Keep the table readable: the chosen width plus the extremes.
        if p.total_bits != 28 && p.total_bits != 24 && p.total_bits != 48 {
            continue;
        }
        let verdict = if p.total_bits == 28 && p.int_bits == 10 {
            "**chosen [28,10]**"
        } else if p.error > 1e-3 {
            "exceeds threshold"
        } else {
            "acceptable (wastes energy if wider than needed)"
        };
        let _ = writeln!(
            out,
            "| {} | {} | {:.0}% | {:.2e} | {} |",
            p.total_bits, p.int_bits, p.int_pct, p.error, verdict
        );
    }
    out.push('\n');
    out
}

/// Renders the Fig. 12 table.
pub fn fig12_markdown(rows: &[Fig12Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 12 — energy savings of S / H / S+H (online streaming)\n\n");
    out.push_str("Paper: compute savings average 22% (S), 38% (H), 41% (S+H, up to 58%); ");
    out.push_str("device-level S+H averages 29% (up to 42%).\n\n");
    out.push_str(
        "| video | S compute | H compute | S+H compute | S device | H device | S+H device |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    let mut sums = [0.0f64; 6];
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            r.video,
            pct(r.compute_saving[0]),
            pct(r.compute_saving[1]),
            pct(r.compute_saving[2]),
            pct(r.device_saving[0]),
            pct(r.device_saving[1]),
            pct(r.device_saving[2])
        );
        for i in 0..3 {
            sums[i] += r.compute_saving[i];
            sums[3 + i] += r.device_saving[i];
        }
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "| **mean** | **{}** | **{}** | **{}** | **{}** | **{}** | **{}** |",
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
        pct(sums[4] / n),
        pct(sums[5] / n)
    );
    out.push('\n');
    out
}

/// Renders the Fig. 13 table.
pub fn fig13_markdown(rows: &[Fig13Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 13 — FPS drop and bandwidth savings (S+H)\n\n");
    out.push_str("Paper: ≈1% FPS drop; bandwidth savings up to 34% (mean 28%); FOV-miss ");
    out.push_str("rates 5.3% (Timelapse) to 12.0% (RS), mean 7.7%.\n\n");
    out.push_str("| video | FPS drop | bandwidth saving | FOV-miss rate |\n|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.2}% | {:.1}% | {:.1}% |",
            r.video, r.fps_drop_pct, r.bandwidth_saving_pct, r.miss_rate_pct
        );
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "| **mean** | **{:.2}%** | **{:.1}%** | **{:.1}%** |",
        rows.iter().map(|r| r.fps_drop_pct).sum::<f64>() / n,
        rows.iter().map(|r| r.bandwidth_saving_pct).sum::<f64>() / n,
        rows.iter().map(|r| r.miss_rate_pct).sum::<f64>() / n
    );
    out.push('\n');
    out
}

/// Renders the Fig. 14 table.
pub fn fig14_markdown(points: &[Fig14Point]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 14 — storage overhead vs energy saving\n\n");
    out.push_str("Paper: at 100% object utilisation the FOV store averages 4.2× the original ");
    out.push_str("(Paris lowest at 2.0×, Timelapse highest at 7.6×); at 25% utilisation the ");
    out.push_str("overhead falls to ≈1.1× while still saving ≈24% energy.\n\n");
    out.push_str("| video | 25% util | 50% | 75% | 100% | saving @25% | saving @100% |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for chunk in points.chunks(4) {
        let _ = writeln!(
            out,
            "| {} | {:.2}× | {:.2}× | {:.2}× | {:.2}× | {} | {} |",
            chunk[0].video,
            chunk[0].storage_overhead,
            chunk[1].storage_overhead,
            chunk[2].storage_overhead,
            chunk[3].storage_overhead,
            pct(chunk[0].energy_saving),
            pct(chunk[3].energy_saving)
        );
    }
    out.push('\n');
    out
}

/// Renders the Fig. 15 table.
pub fn fig15_markdown(rows: &[Fig15Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 15 — live streaming & offline playback (H only)\n\n");
    out.push_str("Paper: live streaming saves 38% compute / 21% device; offline playback's ");
    out.push_str(
        "device saving is slightly higher (≈23%) because no network energy dilutes it.\n\n",
    );
    out.push_str("| use-case | video | compute saving | device saving |\n|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            r.use_case,
            r.video,
            pct(r.compute_saving),
            pct(r.device_saving)
        );
    }
    for uc in [UseCase::LiveStreaming, UseCase::OfflinePlayback] {
        let sel: Vec<_> = rows.iter().filter(|r| r.use_case == uc).collect();
        if sel.is_empty() {
            continue;
        }
        let c = sel.iter().map(|r| r.compute_saving).sum::<f64>() / sel.len() as f64;
        let d = sel.iter().map(|r| r.device_saving).sum::<f64>() / sel.len() as f64;
        let _ = writeln!(out, "| **{uc} mean** | | **{}** | **{}** |", pct(c), pct(d));
    }
    out.push('\n');
    out
}

/// Renders the Fig. 16 table.
pub fn fig16_markdown(rows: &[Fig16Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 16 — SAS vs on-device head-motion prediction\n\n");
    out.push_str("Paper: S+H (29%) beats a *perfect* on-device DNN predictor (26%) because ");
    out.push_str("the inference energy eats the gains; a hypothetical zero-overhead ");
    out.push_str("predictor would reach 39%.\n\n");
    out.push_str("| video | S+H | perfect HMP | perfect HMP, no overhead |\n|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            r.video,
            pct(r.s_plus_h),
            pct(r.perfect_hmp),
            pct(r.ideal_hmp)
        );
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "| **mean** | **{}** | **{}** | **{}** |",
        pct(rows.iter().map(|r| r.s_plus_h).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.perfect_hmp).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.ideal_hmp).sum::<f64>() / n)
    );
    out.push('\n');
    out
}

/// Renders the Fig. 17 table.
pub fn fig17_markdown(rows: &[Fig17Row]) -> String {
    let mut out = String::new();
    out.push_str("### Figure 17 — PTE for 360° quality assessment\n\n");
    out.push_str("Paper: the PTE cuts assessment energy by up to 40%, with the reduction ");
    out.push_str("shrinking at higher resolutions as the GPU amortises its overheads.\n\n");
    out.push_str("| resolution | ERP | CMP | EAC |\n|---|---|---|---|\n");
    for chunk in rows.chunks(3) {
        let _ = writeln!(
            out,
            "| {}×{} | {:.1}% | {:.1}% | {:.1}% |",
            chunk[0].resolution.0,
            chunk[0].resolution.1,
            chunk[0].reduction_pct,
            chunk[1].reduction_pct,
            chunk[2].reduction_pct
        );
    }
    out.push('\n');
    out
}

/// Renders the `T` / `T+H` table (tiled view-guided streaming, the
/// related work of the paper's §2), with one mean row per variant.
pub fn tiled_variants_markdown(rows: &[TiledVariantRow]) -> String {
    let mut out = String::new();
    out.push_str("### Tiled viewport-adaptive streaming — T / T+H vs baseline\n\n");
    out.push_str("Paper (§2): tile-based view-guided streaming saves bandwidth, but the ");
    out.push_str("client still pays PT on every frame. Faulted columns are against an ");
    out.push_str("equally faulted baseline under a seeded mild plan (one dropped request, ");
    out.push_str("one corrupt segment).\n\n");
    out.push_str("| video | variant | clean bandwidth | clean device | faulted bandwidth | ");
    out.push_str("faulted device | degraded frames |\n|---|---|---|---|---|---|---|\n");
    let cells = |r: &TiledVariantRow| {
        [
            r.bandwidth_saving,
            r.device_saving,
            r.faulted_bandwidth_saving,
            r.faulted_device_saving,
            r.faulted_degraded_fraction,
        ]
    };
    for r in rows {
        let c = cells(r).map(pct);
        let _ = writeln!(out, "| {} | {} | {} |", r.video, r.variant, c.join(" | "));
    }
    for variant in Variant::TILED {
        let sel: Vec<_> = rows.iter().filter(|r| r.variant == variant).map(cells).collect();
        if sel.is_empty() {
            continue;
        }
        let mean: Vec<String> =
            (0..5).map(|i| pct(sel.iter().map(|c| c[i]).sum::<f64>() / sel.len() as f64)).collect();
        let _ = writeln!(out, "| **{variant} mean** | | **{}** |", mean.join("** | **"));
    }
    out.push('\n');
    out
}

/// Renders the chaos (fault-injection) degradation table: one row per
/// severity rung, from the aggregate reports of a resilient sweep.
///
/// This table is not in the paper — it documents how gracefully the
/// reproduced pipeline sheds quality as the link degrades, which is the
/// robustness story `chaos_run` exercises.
pub fn chaos_markdown(rows: &[(String, crate::experiment::AggregateReport)]) -> String {
    let mut out = String::new();
    out.push_str("### Chaos sweep — graceful degradation under link faults\n\n");
    out.push_str("Same users, same content; only the injected fault severity changes. ");
    out.push_str("Energy is the per-user mean device total; resilience J is the energy ");
    out.push_str("spent waiting out faults (retry/backoff/corruption re-decode).\n\n");
    out.push_str("| severity | device J | resilience J | stall s | degraded | frozen | ");
    out.push_str("retries | timeouts |\n|---|---|---|---|---|---|---|---|\n");
    for (label, agg) in rows {
        let resilience: f64 = evr_energy::Component::ALL
            .iter()
            .map(|c| agg.ledger.get(*c, evr_energy::Activity::Resilience))
            .sum();
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.3} | {} | {} | {:.1} | {:.1} |",
            label,
            agg.ledger.total(),
            resilience,
            agg.fault_stall_s,
            pct(agg.degraded_fraction),
            pct(agg.frozen_fraction),
            agg.retries,
            agg.timeouts
        );
    }
    out.push('\n');
    out
}

/// Renders the §7.2 prototype table.
pub fn proto_markdown(rows: &[ProtoPteRow]) -> String {
    let mut out = String::new();
    out.push_str("### §7.2 — PTE prototype characterisation\n\n");
    out.push_str("Paper: 2 PTUs at 100 MHz sustain 50 FPS at 2560×1440 and draw 194 mW ");
    out.push_str("post-layout — one order of magnitude below a mobile GPU.\n\n");
    out.push_str("| PTUs | FPS | power | DRAM read / frame |\n|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.0} mW | {} KB |",
            r.ptus,
            r.fps,
            1000.0 * r.power_w,
            r.dram_read_bytes / 1024
        );
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::VideoId;

    #[test]
    fn fig12_table_contains_all_videos_and_means() {
        let rows = vec![Fig12Row {
            video: VideoId::Rhino,
            compute_saving: [0.35, 0.42, 0.40],
            device_saving: [0.27, 0.26, 0.30],
        }];
        let md = fig12_markdown(&rows);
        assert!(md.contains("| Rhino |"));
        assert!(md.contains("**mean**"));
        assert!(md.contains("35.0%"));
    }

    #[test]
    fn fig11_table_marks_the_chosen_design() {
        let points = vec![
            Fig11Point { total_bits: 28, int_bits: 10, int_pct: 35.7, error: 5e-4 },
            Fig11Point { total_bits: 28, int_bits: 3, int_pct: 10.7, error: 5e-2 },
        ];
        let md = fig11_markdown(&points);
        assert!(md.contains("**chosen [28,10]**"));
        assert!(md.contains("exceeds threshold"));
    }

    #[test]
    fn tiled_table_lists_each_row_and_variant_means() {
        let row = |video, variant, bw, device| TiledVariantRow {
            video,
            variant,
            bandwidth_saving: bw,
            device_saving: device,
            faulted_bandwidth_saving: -0.66,
            faulted_device_saving: device,
            faulted_degraded_fraction: 0.017,
        };
        let rows = vec![
            row(VideoId::Rs, Variant::T, 0.30, -0.012),
            row(VideoId::Rs, Variant::TPlusH, 0.30, 0.25),
            row(VideoId::Paris, Variant::T, 0.20, 0.032),
        ];
        let md = tiled_variants_markdown(&rows);
        assert!(md.contains("| RS | T | 30.0% | -1.2% | -66.0% | -1.2% | 1.7% |"), "{md}");
        assert!(md.contains("| RS | T+H | 30.0% | 25.0% | -66.0% | 25.0% | 1.7% |"));
        assert!(md.contains("| **T mean** | | **25.0%** | **1.0%** | **-66.0%** | **1.0%** |"));
        assert!(md.contains("| **T+H mean** | | **30.0%** | **25.0%** |"));
    }

    #[test]
    fn chaos_table_lists_each_severity_with_fault_columns() {
        let mut ledger = evr_energy::EnergyLedger::new();
        ledger.add(evr_energy::Component::Compute, evr_energy::Activity::Decode, 10.0);
        ledger.add(evr_energy::Component::Network, evr_energy::Activity::Resilience, 2.5);
        ledger.set_duration(30.0);
        let agg = crate::experiment::AggregateReport {
            ledger,
            miss_rate: 0.1,
            fov_miss_fraction: 0.08,
            fps_drop: 0.01,
            bytes_received: 1e6,
            rebuffer_time_s: 0.2,
            fault_stall_s: 1.25,
            degraded_fraction: 0.5,
            frozen_fraction: 0.25,
            retries: 3.0,
            timeouts: 2.0,
            shed_segments: 0.0,
            front_unavailable_segments: 0.0,
            users: 4,
        };
        let md = chaos_markdown(&[("severe".to_string(), agg)]);
        assert!(md.contains("| severe |"));
        assert!(md.contains("| severe | 12.50 | 2.50 | 1.250 | 50.0% | 25.0% | 3.0 | 2.0 |"));
    }

    #[test]
    fn proto_table_formats_power_in_mw() {
        let rows = vec![ProtoPteRow {
            ptus: 2,
            fps: 52.6,
            power_w: 0.185,
            dram_read_bytes: 4 * 1024 * 1024,
        }];
        let md = proto_markdown(&rows);
        assert!(md.contains("185 mW"));
        assert!(md.contains("| 2 | 52.6 |"));
    }
}
