//! The energy ledger: `(component, activity)`-tagged joule accounting.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The five device components of the paper's §3 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// The (AMOLED) panel.
    Display,
    /// WiFi radio.
    Network,
    /// eMMC storage.
    Storage,
    /// DRAM.
    Memory,
    /// The SoC (CPU, GPU, codec, accelerators).
    Compute,
}

impl Component {
    /// All components, in the paper's reporting order.
    pub const ALL: [Component; 5] = [
        Component::Display,
        Component::Network,
        Component::Storage,
        Component::Memory,
        Component::Compute,
    ];
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::Display => "display",
            Component::Network => "network",
            Component::Storage => "storage",
            Component::Memory => "memory",
            Component::Compute => "compute",
        };
        f.write_str(s)
    }
}

/// What the energy was spent doing — the second axis of the ledger,
/// needed because Fig. 3b attributes compute/memory energy to projective
/// transformation specifically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Activity {
    /// Video decoding.
    Decode,
    /// Projective transformation (GPU or PTE) — the "VR tax".
    ProjectiveTransform,
    /// OS, player, IMU handling, FOV checking: the always-on baseline.
    Base,
    /// Panel scan-out.
    DisplayScan,
    /// Radio receive (+ idle listening).
    NetworkRx,
    /// Storage reads/writes (segment caching).
    StorageIo,
    /// On-device head-motion prediction (Fig. 16 comparison only).
    HeadMotionPrediction,
    /// Quality-metric computation (§8.6 use-case only).
    QualityAssessment,
    /// Fault handling: retry/backoff waits (radio idle + base power
    /// during stalls) and corruption-detection decodes.
    Resilience,
    /// Reconstructing a delta-encoded segment against its reference on
    /// the device (the client side of the delta wire format).
    DeltaReconstruct,
}

impl Activity {
    /// All activities, in declaration order.
    pub const ALL: [Activity; 10] = [
        Activity::Decode,
        Activity::ProjectiveTransform,
        Activity::Base,
        Activity::DisplayScan,
        Activity::NetworkRx,
        Activity::StorageIo,
        Activity::HeadMotionPrediction,
        Activity::QualityAssessment,
        Activity::Resilience,
        Activity::DeltaReconstruct,
    ];
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activity::Decode => "decode",
            Activity::ProjectiveTransform => "projective-transform",
            Activity::Base => "base",
            Activity::DisplayScan => "display-scan",
            Activity::NetworkRx => "network-rx",
            Activity::StorageIo => "storage-io",
            Activity::HeadMotionPrediction => "head-motion-prediction",
            Activity::QualityAssessment => "quality-assessment",
            Activity::Resilience => "resilience",
            Activity::DeltaReconstruct => "delta-reconstruct",
        };
        f.write_str(s)
    }
}

/// Joules per `(component, activity)` pair over a playback session.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    entries: BTreeMap<(Component, Activity), f64>,
    duration_s: f64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Adds this ledger's per-component totals into the
    /// `evr_energy_joules_<component>` gauges of `observer` (a no-op for
    /// a no-op observer). Sessions call this once at the end of a run, so
    /// repeated runs against one observer accumulate; keeping the mirror
    /// out of [`EnergyLedger::add`] keeps per-frame accounting free of
    /// observability cost.
    pub fn mirror_gauges(&self, observer: &evr_obs::Observer) {
        if !observer.is_enabled() {
            return;
        }
        for c in Component::ALL {
            observer
                .gauge(&evr_obs::names::energy_gauge(&c.to_string()))
                .add(self.component_total(c));
        }
    }

    /// Adds `joules` under `(component, activity)`.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or non-finite.
    #[inline]
    pub fn add(&mut self, component: Component, activity: Activity, joules: f64) {
        assert!(joules.is_finite() && joules >= 0.0, "joules must be non-negative: {joules}");
        *self.entries.entry((component, activity)).or_insert(0.0) += joules;
    }

    /// Records the session duration (for power reporting).
    pub fn set_duration(&mut self, seconds: f64) {
        assert!(seconds > 0.0, "duration must be positive");
        self.duration_s = seconds;
    }

    /// The recorded session duration, seconds (0 if never set).
    pub fn duration(&self) -> f64 {
        self.duration_s
    }

    /// Joules for one `(component, activity)` pair.
    pub fn get(&self, component: Component, activity: Activity) -> f64 {
        self.entries.get(&(component, activity)).copied().unwrap_or(0.0)
    }

    /// Total joules for a component.
    pub fn component_total(&self, component: Component) -> f64 {
        self.entries.iter().filter(|((c, _), _)| *c == component).map(|(_, j)| j).sum()
    }

    /// Total joules for an activity across components.
    pub fn activity_total(&self, activity: Activity) -> f64 {
        self.entries.iter().filter(|((_, a), _)| *a == activity).map(|(_, j)| j).sum()
    }

    /// Grand total, joules.
    pub fn total(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Average power of a component over the recorded duration, watts.
    ///
    /// # Panics
    ///
    /// Panics if the duration was never set.
    pub fn component_power(&self, component: Component) -> f64 {
        assert!(self.duration_s > 0.0, "set_duration before querying power");
        self.component_total(component) / self.duration_s
    }

    /// Average total power, watts.
    pub fn total_power(&self) -> f64 {
        assert!(self.duration_s > 0.0, "set_duration before querying power");
        self.total() / self.duration_s
    }

    /// Compute + memory joules — the denominator of Fig. 3b.
    pub fn processing_total(&self) -> f64 {
        self.component_total(Component::Compute) + self.component_total(Component::Memory)
    }

    /// The share of compute+memory energy spent on projective
    /// transformation — Fig. 3b's headline ~40%.
    pub fn pt_share_of_processing(&self) -> f64 {
        let pt = self
            .entries
            .iter()
            .filter(|((c, a), _)| {
                matches!(c, Component::Compute | Component::Memory)
                    && *a == Activity::ProjectiveTransform
            })
            .map(|(_, j)| j)
            .sum::<f64>();
        let denom = self.processing_total();
        if denom == 0.0 {
            0.0
        } else {
            pt / denom
        }
    }

    /// Fractional energy saving of `self` relative to `baseline`, over
    /// the SoC (compute) energy only — the left axis of Figs. 12/15.
    pub fn compute_saving_vs(&self, baseline: &EnergyLedger) -> f64 {
        saving(
            baseline.component_total(Component::Compute),
            self.component_total(Component::Compute),
        )
    }

    /// Fractional device-level energy saving relative to `baseline` — the
    /// right axis of Figs. 12/15.
    pub fn device_saving_vs(&self, baseline: &EnergyLedger) -> f64 {
        saving(baseline.total(), self.total())
    }

    /// Merges another ledger into this one (summing entries; duration is
    /// kept from `self`).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (&(c, a), &j) in &other.entries {
            *self.entries.entry((c, a)).or_insert(0.0) += j;
        }
    }
}

fn saving(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "energy ledger ({:.1} s):", self.duration_s)?;
        for c in Component::ALL {
            let j = self.component_total(c);
            if j > 0.0 {
                if self.duration_s > 0.0 {
                    writeln!(f, "  {c:8} {j:10.3} J ({:.3} W)", j / self.duration_s)?;
                } else {
                    writeln!(f, "  {c:8} {j:10.3} J")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_ledger() -> EnergyLedger {
        let mut l = EnergyLedger::new();
        l.set_duration(10.0);
        l.add(Component::Compute, Activity::Decode, 10.0);
        l.add(Component::Compute, Activity::ProjectiveTransform, 13.0);
        l.add(Component::Compute, Activity::Base, 8.0);
        l.add(Component::Memory, Activity::Decode, 5.0);
        l.add(Component::Memory, Activity::ProjectiveTransform, 3.0);
        l.add(Component::Memory, Activity::Base, 2.5);
        l.add(Component::Display, Activity::DisplayScan, 3.5);
        l.add(Component::Network, Activity::NetworkRx, 4.5);
        l.add(Component::Storage, Activity::StorageIo, 2.0);
        l
    }

    #[test]
    fn totals_and_powers() {
        let l = sample_ledger();
        assert!((l.total() - 51.5).abs() < 1e-12);
        assert!((l.total_power() - 5.15).abs() < 1e-12);
        assert!((l.component_power(Component::Compute) - 3.1).abs() < 1e-12);
    }

    #[test]
    fn pt_share_matches_hand_calculation() {
        let l = sample_ledger();
        // (13 + 3) / (31 + 10.5)
        assert!((l.pt_share_of_processing() - 16.0 / 41.5).abs() < 1e-12);
    }

    #[test]
    fn savings_are_relative() {
        let base = sample_ledger();
        let mut opt = sample_ledger();
        // Remove all PT energy.
        opt = EnergyLedger {
            entries: opt
                .entries
                .iter()
                .filter(|((_, a), _)| *a != Activity::ProjectiveTransform)
                .map(|(&k, &v)| (k, v))
                .collect(),
            duration_s: opt.duration_s,
        };
        let cs = opt.compute_saving_vs(&base);
        assert!((cs - 13.0 / 31.0).abs() < 1e-12);
        let ds = opt.device_saving_vs(&base);
        assert!((ds - 16.0 / 51.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_entries() {
        let mut a = sample_ledger();
        let b = sample_ledger();
        a.merge(&b);
        assert!((a.total() - 103.0).abs() < 1e-12);
        assert_eq!(a.duration(), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_panics() {
        let mut l = EnergyLedger::new();
        l.add(Component::Compute, Activity::Base, -1.0);
    }

    #[test]
    #[should_panic(expected = "set_duration")]
    fn power_without_duration_panics() {
        let l = EnergyLedger::new();
        let _ = l.total_power();
    }

    #[test]
    fn display_format_lists_components() {
        let s = sample_ledger().to_string();
        assert!(s.contains("compute") && s.contains("display") && s.contains("W"));
    }

    #[test]
    fn observer_gauges_mirror_component_totals() {
        let obs = evr_obs::Observer::enabled();
        let mut l = EnergyLedger::new();
        l.add(Component::Compute, Activity::Decode, 1.25);
        l.add(Component::Compute, Activity::Base, 0.5);
        l.add(Component::Display, Activity::DisplayScan, 2.0);
        l.merge(&sample_ledger());
        l.mirror_gauges(&obs);
        for c in Component::ALL {
            let gauge = obs.gauge(&evr_obs::names::energy_gauge(&c.to_string()));
            assert!(
                (gauge.get() - l.component_total(c)).abs() < 1e-12,
                "{c}: gauge {} vs ledger {}",
                gauge.get(),
                l.component_total(c)
            );
        }
    }

    #[test]
    fn mirror_gauges_accumulates_across_runs() {
        let obs = evr_obs::Observer::enabled();
        let l = sample_ledger();
        l.mirror_gauges(&obs);
        l.mirror_gauges(&obs);
        let compute = obs.gauge(&evr_obs::names::energy_gauge("compute"));
        assert!((compute.get() - 2.0 * l.component_total(Component::Compute)).abs() < 1e-12);
    }

    #[test]
    fn mirror_gauges_on_noop_observer_registers_nothing() {
        let obs = evr_obs::Observer::noop();
        sample_ledger().mirror_gauges(&obs);
        assert!(obs.metrics().is_empty());
    }

    proptest! {
        #[test]
        fn prop_total_equals_sum_of_components(vals in proptest::collection::vec(0.0f64..100.0, 5)) {
            let mut l = EnergyLedger::new();
            for (c, v) in Component::ALL.iter().zip(&vals) {
                l.add(*c, Activity::Base, *v);
            }
            let sum: f64 = Component::ALL.iter().map(|c| l.component_total(*c)).sum();
            prop_assert!((l.total() - sum).abs() < 1e-9);
        }
    }
}
