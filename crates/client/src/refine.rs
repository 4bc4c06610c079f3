//! Coarse-then-upgrade FOV fetching over the delta wire format.
//!
//! The device-side half of DESIGN.md §16: a client opens each segment on
//! a coarse FOV rung ([`SasServer::fetch_fov_rung`]) and upgrades to the
//! top rung before scan-out ([`SasServer::fetch_fov_upgrade`]). A
//! transport that opts into the delta wire ([`Transport::delta_wire`],
//! e.g. [`DeltaWire`]) receives the upgrade as sparse quantised-residual
//! deltas against the rung it already holds whenever the server's delta
//! is smaller at target scale; the client then reconstructs the top rung
//! bit-exactly and the reconstruction work — byte-proportional codec
//! effort plus a DRAM pass over the residual stream — is charged to the
//! energy ledger under [`Activity::DeltaReconstruct`]. With the delta
//! wire off the session shape is identical but every upgrade moves the
//! full top encoding, which is what makes the two arms comparable
//! byte-for-byte and bit-for-bit ([`RefineReport::content_digest`]).
//!
//! Both halves are computed from the server's resident top rung: the
//! coarse rung is a transcode of it and the upgrade a one-pass delta from
//! it. The server keeps no lower rung in its store, so neither answer
//! depends on what the store holds.
//!
//! [`DeltaWire`]: crate::pipeline::DeltaWire

use evr_energy::{Activity, Component, DeviceParams, EnergyLedger};
use evr_sas::{SasError, SasServer};
use evr_video::delta::{segment_digest, SegmentRepr};

use crate::pipeline::{account_decode, Transport};

/// Byte accounting and integrity digest of one coarse-then-upgrade
/// fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefinedFetch {
    /// Wire bytes of the coarse rung (target scale).
    pub coarse_wire_bytes: u64,
    /// Wire bytes of the upgrade (target scale).
    pub upgrade_wire_bytes: u64,
    /// Whether the upgrade moved as a delta.
    pub via_delta: bool,
    /// Residual coefficients reconstructed (0 for a full upgrade).
    pub residual_coeffs: u64,
    /// Digest of the final top-rung segment
    /// ([`segment_digest`]) — identical with and without the delta wire.
    pub digest: u64,
}

/// Fetches `(segment, cluster)` coarse-first and upgrades to the top
/// rung, charging wire, decode and (for delta upgrades) reconstruction
/// energy to `ledger`.
///
/// # Errors
///
/// Propagates the server's typed lookup errors.
pub fn fetch_fov_refined<T: Transport>(
    transport: &T,
    server: &SasServer,
    segment: u32,
    cluster: usize,
    coarse_quantizer: u8,
    device: &DeviceParams,
    ledger: &mut EnergyLedger,
) -> Result<RefinedFetch, SasError> {
    let config = server.catalog().config();
    let scale = config.fov_byte_scale();
    let frame_px = config.target_fov.0 as u64 * config.target_fov.1 as u64;

    let (coarse, coarse_wire_bytes) = server.fetch_fov_rung(segment, cluster, coarse_quantizer)?;
    let segment_px = frame_px * coarse.data.frames.len() as u64;
    account_rx(device, ledger, coarse_wire_bytes);
    account_decode(device, ledger, segment_px, coarse_wire_bytes);

    let upgrade =
        server.fetch_fov_upgrade(segment, cluster, coarse_quantizer, transport.delta_wire())?;
    account_rx(device, ledger, upgrade.wire_bytes);
    let (top, via_delta) = match upgrade.repr {
        SegmentRepr::Full(full) => (full, false),
        SegmentRepr::Delta(delta) => {
            // Merging residuals into the held rung costs the codec's
            // byte-proportional effort over the residual stream (no new
            // pixels are produced) plus one DRAM pass over it.
            ledger.add(
                Component::Compute,
                Activity::DeltaReconstruct,
                device.decode_energy(0, upgrade.wire_bytes),
            );
            ledger.add(
                Component::Memory,
                Activity::DeltaReconstruct,
                device.dram_energy(upgrade.wire_bytes),
            );
            (delta.reconstruct(&coarse.data), true)
        }
    };
    account_decode(device, ledger, segment_px, top.scaled_bytes(scale));
    Ok(RefinedFetch {
        coarse_wire_bytes,
        upgrade_wire_bytes: upgrade.wire_bytes,
        via_delta,
        residual_coeffs: upgrade.residual_coeffs,
        digest: segment_digest(&top),
    })
}

/// Per-user accounting of a whole refinement session: every
/// `(segment, cluster)` pick fetched coarse-first and upgraded.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Segments fetched.
    pub segments: u32,
    /// Total wire bytes moved (target scale), coarse + upgrades.
    pub wire_bytes: u64,
    /// Wire bytes of the coarse rungs alone.
    pub coarse_wire_bytes: u64,
    /// Wire bytes of the upgrades alone.
    pub upgrade_wire_bytes: u64,
    /// Upgrades that moved as deltas.
    pub delta_upgrades: u32,
    /// Residual coefficients reconstructed on the device.
    pub residual_coeffs: u64,
    /// The session's energy ledger (wire, decode and reconstruction).
    pub ledger: EnergyLedger,
    /// FNV-1a fold of the per-segment top-rung digests: the played-out
    /// content's bit-exactness witness across wire formats.
    pub content_digest: u64,
}

/// Runs a refinement session over `picks`, in order.
///
/// # Errors
///
/// Propagates the first lookup error.
pub fn run_refinement_session<T: Transport>(
    transport: &T,
    server: &SasServer,
    picks: &[(u32, usize)],
    coarse_quantizer: u8,
    device: &DeviceParams,
) -> Result<RefineReport, SasError> {
    let mut ledger = EnergyLedger::new();
    let mut report = RefineReport {
        segments: 0,
        wire_bytes: 0,
        coarse_wire_bytes: 0,
        upgrade_wire_bytes: 0,
        delta_upgrades: 0,
        residual_coeffs: 0,
        ledger: EnergyLedger::new(),
        content_digest: 0xcbf2_9ce4_8422_2325,
    };
    for &(segment, cluster) in picks {
        let fetched = fetch_fov_refined(
            transport,
            server,
            segment,
            cluster,
            coarse_quantizer,
            device,
            &mut ledger,
        )?;
        report.segments += 1;
        report.coarse_wire_bytes += fetched.coarse_wire_bytes;
        report.upgrade_wire_bytes += fetched.upgrade_wire_bytes;
        report.wire_bytes += fetched.coarse_wire_bytes + fetched.upgrade_wire_bytes;
        report.delta_upgrades += u32::from(fetched.via_delta);
        report.residual_coeffs += fetched.residual_coeffs;
        for byte in fetched.digest.to_le_bytes() {
            report.content_digest =
                (report.content_digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    report.ledger = ledger;
    Ok(report)
}

fn account_rx(device: &DeviceParams, ledger: &mut EnergyLedger, bytes: u64) {
    // Per-byte radio receive energy; session-level idle listening is the
    // playback session's business, not the per-fetch helper's.
    ledger.add(Component::Network, Activity::NetworkRx, device.network_energy(bytes, 0.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CleanTransport, DeltaWire};
    use evr_sas::{fov_rung_quantizers, ingest_video, FovPrerenderStore, SasConfig};
    use evr_video::library::{scene_for, VideoId};

    fn server() -> SasServer {
        let catalog = ingest_video(&scene_for(VideoId::Rhino), &SasConfig::tiny_for_tests(), 1.0);
        SasServer::with_store(catalog, FovPrerenderStore::new())
    }

    fn picks(server: &SasServer) -> Vec<(u32, usize)> {
        (0..server.catalog().segment_count())
            .filter_map(|s| server.catalog().clusters_in_segment(s).first().map(|&c| (s, c)))
            .collect()
    }

    #[test]
    fn delta_wire_saves_upgrade_bytes_and_plays_out_bit_identically() {
        let server = server();
        let picks = picks(&server);
        assert!(!picks.is_empty());
        let coarse_q = fov_rung_quantizers(server.catalog().config())[0];
        let device = DeviceParams::default();

        let full =
            run_refinement_session(&CleanTransport, &server, &picks, coarse_q, &device).unwrap();
        let delta =
            run_refinement_session(&DeltaWire(CleanTransport), &server, &picks, coarse_q, &device)
                .unwrap();

        // Same shape, bit-identical played-out content.
        assert_eq!(full.segments, delta.segments);
        assert_eq!(full.coarse_wire_bytes, delta.coarse_wire_bytes);
        assert_eq!(full.content_digest, delta.content_digest);

        // The delta wire moves fewer upgrade bytes and reconstructs on
        // the device, visibly charged in the ledger.
        assert!(delta.delta_upgrades > 0, "no upgrade moved as a delta");
        assert!(
            delta.upgrade_wire_bytes < full.upgrade_wire_bytes,
            "delta {} vs full {}",
            delta.upgrade_wire_bytes,
            full.upgrade_wire_bytes
        );
        assert!(delta.residual_coeffs > 0);
        assert!(delta.ledger.activity_total(Activity::DeltaReconstruct) > 0.0);
        assert_eq!(full.ledger.activity_total(Activity::DeltaReconstruct), 0.0);
        assert_eq!(full.delta_upgrades, 0);
        assert_eq!(full.residual_coeffs, 0);

        // Reconstruction is charged but the wire saving shows up in the
        // radio's per-byte energy.
        let rx = |r: &RefineReport| r.ledger.activity_total(Activity::NetworkRx);
        assert!(rx(&delta) < rx(&full));
    }

    #[test]
    fn refined_fetch_propagates_typed_errors() {
        let server = server();
        let device = DeviceParams::default();
        let mut ledger = EnergyLedger::new();
        let err = fetch_fov_refined(&CleanTransport, &server, 999, 0, 30, &device, &mut ledger);
        assert_eq!(err, Err(SasError::UnknownSegment { segment: 999 }));
    }
}
