//! Shared plumbing for the evaluation binaries.
//!
//! `experiments_md` prints every table and figure of the paper's
//! evaluation as `EXPERIMENTS.md`, in one process with a shared
//! ingestion cache; the `ablation_*` binaries run the studies beyond the
//! paper. Binaries accept an optional scale argument:
//!
//! ```text
//! cargo run --release -p evr-bench --bin experiments_md > EXPERIMENTS.md   # paper scale
//! cargo run --release -p evr-bench --bin experiments_md -- quick           # smoke scale
//! ```
//!
//! Criterion micro-benchmarks for the performance-shaped claims live in
//! `benches/`. The CI perf-regression gate is built from [`scaling`]
//! (Amdahl scaling model), [`json`] (dependency-free report reader) and
//! [`gate`] (threshold checks), driven by the `bench_gate` binary.

use evr_core::figures::{FigureContext, FigureScale};

pub mod gate;
pub mod json;
pub mod scaling;

/// Parses the common CLI convention: no argument = paper scale, `quick`
/// = smoke scale, `users=N duration=S` = custom.
///
/// # Panics
///
/// Panics (with a usage message) on unrecognised arguments.
pub fn scale_from_args(args: impl Iterator<Item = String>) -> FigureScale {
    let mut scale = FigureScale::paper();
    for arg in args {
        if arg == "quick" {
            scale = FigureScale::quick();
        } else if let Some(v) = arg.strip_prefix("users=") {
            scale.users = v.parse().expect("users=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("duration=") {
            scale.duration_s = v.parse().expect("duration=S takes seconds");
        } else {
            panic!("unknown argument {arg:?}; expected `quick`, `users=N` or `duration=S`");
        }
    }
    scale
}

/// Builds the context for a binary from `std::env::args`.
pub fn context_from_env() -> FigureContext {
    FigureContext::new(scale_from_args(std::env::args().skip(1)))
}

/// Prints a figure header in a consistent style.
pub fn header(id: &str, caption: &str) {
    println!("=== {id}: {caption} ===");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:5.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_scale() {
        let s = scale_from_args(std::iter::empty());
        assert_eq!(s.users, 59);
        assert_eq!(s.duration_s, 60.0);
    }

    #[test]
    fn quick_and_overrides() {
        let s = scale_from_args(
            ["quick".to_string(), "users=3".into(), "duration=4.5".into()].into_iter(),
        );
        assert_eq!(s.users, 3);
        assert_eq!(s.duration_s, 4.5);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn bad_argument_panics() {
        let _ = scale_from_args(["wat".to_string()].into_iter());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.415), " 41.5%");
    }
}
