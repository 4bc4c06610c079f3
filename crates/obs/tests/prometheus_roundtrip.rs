//! Property test: the Prometheus exposition names every registered
//! metric exactly once, whatever mix of kinds and names is registered.

use proptest::prelude::*;

use evr_obs::Observer;

/// Builds a valid, unique metric name from sampled parts. Prometheus
/// names match `[a-zA-Z_:][a-zA-Z0-9_:]*`; a fixed prefix plus the
/// index guarantees validity and uniqueness.
fn metric_name(index: usize, salt: u64) -> String {
    format!("evr_prop_{index}_m{}", salt % 1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exposition_names_each_metric_exactly_once(
        kinds in proptest::collection::vec(0u8..3, 1..12),
        salt in 0u64..u64::MAX,
        counter_val in 0u64..1_000_000,
        gauge_val in -1e6f64..1e6,
        obs_val in 0.0f64..10.0,
    ) {
        let obs = Observer::enabled();
        let mut names = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let name = metric_name(i, salt.wrapping_add(i as u64));
            match kind {
                0 => obs.counter(&name).add(counter_val),
                1 => obs.gauge(&name).set(gauge_val),
                _ => obs.histogram(&name, &[0.5, 1.0, 5.0]).observe(obs_val),
            }
            names.push((name, *kind));
        }

        let text = obs.prometheus();
        for (name, kind) in &names {
            // Exactly one # TYPE declaration per metric.
            let type_decls = text
                .lines()
                .filter(|l| l.starts_with("# TYPE ") && l.split_whitespace().nth(2) == Some(name))
                .count();
            prop_assert_eq!(type_decls, 1, "metric {} declared {} times", name, type_decls);

            // Exactly one top-level sample line for scalars; histograms
            // expose their samples under _bucket/_sum/_count instead.
            let bare_samples = text
                .lines()
                .filter(|l| !l.starts_with('#') && l.split_whitespace().next() == Some(name))
                .count();
            match kind {
                0 | 1 => prop_assert_eq!(bare_samples, 1),
                _ => {
                    prop_assert_eq!(bare_samples, 0);
                    let sum = format!("{name}_sum ");
                    let count = format!("{name}_count ");
                    let inf = format!("{name}_bucket{{le=\"+Inf\"}} ");
                    prop_assert_eq!(text.lines().filter(|l| l.starts_with(&sum)).count(), 1);
                    prop_assert_eq!(text.lines().filter(|l| l.starts_with(&count)).count(), 1);
                    prop_assert_eq!(text.lines().filter(|l| l.starts_with(&inf)).count(), 1);
                }
            }
        }

        // No phantom metrics: every # TYPE line corresponds to a
        // registered name.
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let declared = line.split_whitespace().nth(2).expect("TYPE line has a name");
            prop_assert!(
                names.iter().any(|(n, _)| n == declared),
                "unregistered metric {} in exposition", declared
            );
        }
    }
}

proptest! {
    #[test]
    fn histogram_bucket_counts_are_cumulative_and_bounded(
        values in proptest::collection::vec(-10.0f64..1000.0, 0..64),
    ) {
        let obs = Observer::enabled();
        let h = obs.histogram("evr_prop_hist", &[0.0, 1.0, 10.0, 100.0]);
        for v in &values {
            h.observe(*v);
        }
        let text = obs.prometheus();
        let mut cumulative_counts = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("evr_prop_hist_bucket{le=") {
                let count: u64 = rest
                    .split("} ")
                    .nth(1)
                    .expect("bucket line has a count")
                    .parse()
                    .expect("bucket count parses");
                cumulative_counts.push(count);
            }
        }
        prop_assert_eq!(cumulative_counts.len(), 5); // 4 bounds + +Inf
        prop_assert!(cumulative_counts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*cumulative_counts.last().expect("has +Inf"), values.len() as u64);
    }
}
