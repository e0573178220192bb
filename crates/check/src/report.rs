//! Report-level accounting invariants.
//!
//! These close the loop on the clamp the metrics module used to apply
//! silently: a raw copy proportion past 1.0 or a busy union past the
//! wall clock is an accounting bug, and the checker says so instead of
//! rounding it away.

use edgenn_core::metrics::InferenceReport;

use crate::{codes, Diagnostic, Span};

const TIME_TOLERANCE_US: f64 = 1e-6;
const PROPORTION_TOLERANCE: f64 = 1e-9;

/// Verifies one inference report's accounting invariants: the raw copy
/// proportion must land in `[0, 1]` (EC030) and the busy-interval union
/// cannot exceed end-to-end latency (EC031).
#[must_use]
pub fn check_report(report: &InferenceReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let raw = report.copy_proportion();
    if !raw.is_finite() || !(0.0..=1.0 + PROPORTION_TOLERANCE).contains(&raw) {
        out.push(Diagnostic::new(
            codes::COPY_PROPORTION_OUT_OF_RANGE,
            Span::Global,
            format!(
                "{}: raw copy proportion {raw:.4} outside [0, 1] \
                 (memory {:.1} us vs total {:.1} us)",
                report.model,
                report.summary.memory_us(),
                report.total_us
            ),
        ));
    }

    if report.summary.busy_us > report.total_us + TIME_TOLERANCE_US {
        out.push(Diagnostic::new(
            codes::BUSY_EXCEEDS_WALL,
            Span::Global,
            format!(
                "{}: busy union {:.1} us exceeds end-to-end {:.1} us",
                report.model, report.summary.busy_us, report.total_us
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_core::plan::{ExecutionConfig, ExecutionPlan, NodePlan};
    use edgenn_core::runtime::Runtime;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::jetson_agx_xavier;

    fn simulated_report() -> InferenceReport {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        runtime
            .simulate(&graph, &plan)
            .expect("simulation succeeds")
    }

    #[test]
    fn simulated_reports_pass() {
        let diags = check_report(&simulated_report());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn inflated_memory_accounting_trips_ec030() {
        let mut report = simulated_report();
        report.total_us = report.summary.memory_us() / 2.0;
        let diags = check_report(&report);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::COPY_PROPORTION_OUT_OF_RANGE),
            "{diags:?}"
        );
    }

    #[test]
    fn recovered_reports_keep_the_raw_proportion_for_ec030() {
        // A degraded re-tune must not re-introduce silent clamping: the
        // EC030 path over a recovered report sees the raw value.
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        let mut faults = edgenn_sim::FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: 1,
            fail_count: u32::MAX,
        });
        let outcome = runtime
            .simulate_with_faults(
                &graph,
                &plan,
                &faults,
                &edgenn_core::runtime::resilience::ResilienceConfig::default(),
            )
            .expect("resilient run survives");
        assert!(outcome.recovery.gpu_lost);
        let mut report = outcome.report;
        assert!(check_report(&report).is_empty(), "clean recovered run");
        // Inflate the accounting: the checker must see the raw value,
        // not a silently clamped 1.0.
        report.total_us = report.summary.memory_us() / 2.0;
        assert!(report.copy_proportion() > 1.0);
        assert!(report
            .copy_proportion_clamped()
            .partial_cmp(&1.0)
            .is_some_and(std::cmp::Ordering::is_eq));
        let diags = check_report(&report);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::COPY_PROPORTION_OUT_OF_RANGE),
            "{diags:?}"
        );
    }

    #[test]
    fn busy_past_wall_clock_trips_ec031() {
        let mut report = simulated_report();
        report.summary.busy_us = report.total_us * 2.0 + 1.0;
        let diags = check_report(&report);
        assert!(diags.iter().any(|d| d.code == codes::BUSY_EXCEEDS_WALL));
    }
}
