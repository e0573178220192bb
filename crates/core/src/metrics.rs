//! Inference reports: timing breakdowns, utilization, energy, and the
//! derived metrics the paper's figures plot.

use edgenn_nn::layer::LayerClass;
use edgenn_obs::Recorder;
use edgenn_sim::trace::TraceSummary;
use edgenn_sim::{EnergyReport, Platform, ProcessorKind, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::plan::Assignment;
use crate::tuner::NodeExplanation;

/// Timing of one layer within an inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Node id in the graph.
    pub node: usize,
    /// Layer name.
    pub name: String,
    /// Layer class tag ("conv", "fc", ...).
    pub class_tag: String,
    /// Where the layer ran.
    pub assignment: Assignment,
    /// When its computation became ready to start (us).
    pub start_us: f64,
    /// When its output (including merges) was available (us).
    pub end_us: f64,
    /// Pure kernel time, excluding copies/merges attributed to the layer.
    pub kernel_us: f64,
    /// Memory-management time attributed to the layer (copies, migrations,
    /// thrash, merge).
    pub memory_us: f64,
}

impl LayerTiming {
    /// Total wall time attributed to the layer.
    pub fn total_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// True for classes the paper's layer-wise analysis tracks.
    pub fn is_class(&self, class: LayerClass) -> bool {
        self.class_tag == class.tag()
    }
}

/// Full result of one simulated inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Model name.
    pub model: String,
    /// Platform name.
    pub platform: String,
    /// End-to-end latency (us).
    pub total_us: f64,
    /// Aggregate event buckets.
    pub summary: TraceSummary,
    /// Energy accounting.
    pub energy: EnergyReport,
    /// Per-layer timings in execution order.
    pub layers: Vec<LayerTiming>,
    /// Raw trace events.
    pub events: Vec<TraceEvent>,
    /// Tuner decision provenance (empty when the plan was hand-written
    /// rather than produced by [`crate::tuner::Tuner`]).
    pub decisions: Vec<NodeExplanation>,
}

impl InferenceReport {
    /// Attaches tuner decision provenance to the report.
    pub fn with_decisions(mut self, decisions: Vec<NodeExplanation>) -> Self {
        self.decisions = decisions;
        self
    }

    /// Fraction of end-to-end time spent on CPU<->GPU memory management
    /// (explicit copies + migrations + thrash) — the quantity Figure 9
    /// plots for the explicit baseline. Unclamped: a value past 1.0 (the
    /// per-layer attribution double-counted co-run overlap) is an
    /// accounting violation, and `edgenn check` reports it as `EC030`
    /// instead of this method hiding it. Plotting pipelines that prefer a
    /// bounded axis call [`Self::copy_proportion_clamped`].
    pub fn copy_proportion(&self) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.summary.memory_us() / self.total_us
    }

    /// [`Self::copy_proportion`] clamped into `[0, 1]` — the lenient
    /// plotting variant (`edgenn check --lenient` downgrades the matching
    /// `EC030` diagnostic to a warning for the same reason).
    pub fn copy_proportion_clamped(&self) -> f64 {
        self.copy_proportion().clamp(0.0, 1.0)
    }

    /// Checks the report's accounting invariants, recording one warning
    /// per violation into `rec`. Returns the number of warnings raised
    /// (0 for a clean report).
    pub fn audit(&self, rec: &Recorder) -> usize {
        let mut raised = 0;
        let raw = self.copy_proportion();
        if raw > 1.0 {
            rec.warning(
                "metrics",
                format_args!(
                    "{}: memory time {:.1} us exceeds end-to-end {:.1} us \
                     (raw copy_proportion {:.3}; checker code EC030)",
                    self.model,
                    self.summary.memory_us(),
                    self.total_us,
                    raw
                ),
            );
            raised += 1;
        }
        if self.summary.busy_us > self.total_us + 1e-6 {
            rec.warning(
                "metrics",
                format_args!(
                    "{}: busy time {:.1} us exceeds end-to-end {:.1} us",
                    self.model, self.summary.busy_us, self.total_us
                ),
            );
            raised += 1;
        }
        raised
    }

    /// Inferences per second.
    pub fn throughput(&self) -> f64 {
        if self.total_us <= 0.0 {
            0.0
        } else {
            1e6 / self.total_us
        }
    }

    /// Performance per watt (inferences per joule), Figure 7(a)/13(a).
    pub fn perf_per_watt(&self) -> f64 {
        self.energy.perf_per_watt()
    }

    /// Performance per dollar (inferences per second per USD),
    /// Figure 7(b)/13(b).
    pub fn perf_per_price(&self, platform: &Platform) -> f64 {
        if platform.price_usd <= 0.0 {
            0.0
        } else {
            self.throughput() / platform.price_usd
        }
    }

    /// Relative improvement of this report over `baseline` (positive when
    /// this run is faster), as the paper reports percentages.
    pub fn improvement_over(&self, baseline: &InferenceReport) -> f64 {
        if baseline.total_us <= 0.0 {
            return 0.0;
        }
        (baseline.total_us - self.total_us) / baseline.total_us
    }

    /// Speedup of this run relative to `other` (>1 when this run is faster).
    pub fn speedup_over(&self, other: &InferenceReport) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        other.total_us / self.total_us
    }

    /// Utilization of one processor during the run.
    pub fn utilization(&self, proc: ProcessorKind) -> f64 {
        match proc {
            ProcessorKind::Cpu => self.energy.cpu_utilization,
            ProcessorKind::Gpu => self.energy.gpu_utilization,
        }
    }

    /// Layer timings of one class (paper Table I groups by conv/fc).
    pub fn layers_of_class(&self, class: LayerClass) -> Vec<&LayerTiming> {
        self.layers.iter().filter(|l| l.is_class(class)).collect()
    }
}

/// Geometric mean of a positive series (the paper summarizes ratio metrics
/// geometrically, e.g. the 29.14x of Figure 7(a)).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (used where the paper reports plain averages).
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: f64, copy: f64) -> InferenceReport {
        InferenceReport {
            model: "m".into(),
            platform: "p".into(),
            total_us: total,
            summary: TraceSummary {
                copy_us: copy,
                ..Default::default()
            },
            energy: EnergyReport {
                duration_us: total,
                avg_power_w: 10.0,
                energy_mj: total * 10.0 / 1000.0,
                cpu_utilization: 0.5,
                gpu_utilization: 0.9,
            },
            layers: vec![],
            events: vec![],
            decisions: vec![],
        }
    }

    #[test]
    fn copy_proportion_and_throughput() {
        let r = report(1000.0, 150.0);
        assert!((r.copy_proportion() - 0.15).abs() < 1e-9);
        assert!((r.throughput() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn raw_copy_proportion_exceeds_one_and_audit_warns() {
        use edgenn_obs::Recorder;
        // Co-run double counting: 150 us of attributed memory time in a
        // 100 us run. The default accessor reports the violation as-is;
        // only the explicit clamped variant bounds it for plotting.
        let r = report(100.0, 150.0);
        assert!(
            (r.copy_proportion() - 1.5).abs() < 1e-9,
            "default accessor is unclamped"
        );
        assert!(
            (r.copy_proportion_clamped() - 1.0).abs() < 1e-9,
            "clamped variant bounds the plot axis"
        );
        let rec = Recorder::new();
        assert_eq!(r.audit(&rec), 1);
        assert_eq!(
            rec.metrics().counter_value("edgenn_warnings_total"),
            Some(1.0)
        );
        assert!(rec.warnings()[0].contains("EC030"), "{:?}", rec.warnings());

        // A clean report raises nothing.
        let clean = report(1000.0, 150.0);
        let rec = Recorder::new();
        assert_eq!(clean.audit(&rec), 0);
        assert!(rec.warnings().is_empty());
    }

    #[test]
    fn improvement_and_speedup_relations() {
        let fast = report(800.0, 0.0);
        let slow = report(1000.0, 0.0);
        assert!((fast.improvement_over(&slow) - 0.2).abs() < 1e-9);
        assert!((fast.speedup_over(&slow) - 1.25).abs() < 1e-9);
        assert!(
            slow.improvement_over(&fast) < 0.0,
            "regressions are negative"
        );
    }

    #[test]
    fn perf_per_price_scales_inversely_with_price() {
        let r = report(1000.0, 0.0);
        let mut cheap = edgenn_sim::platforms::raspberry_pi_4();
        cheap.price_usd = 100.0;
        let mut pricey = cheap.clone();
        pricey.price_usd = 1000.0;
        assert!((r.perf_per_price(&cheap) / r.perf_per_price(&pricey) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn means() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((arithmetic_mean(&[1.0, 4.0]) - 2.5).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }

    #[test]
    fn layer_class_filter_and_total() {
        use crate::plan::Assignment;
        let mut r = report(100.0, 0.0);
        r.layers = vec![
            LayerTiming {
                node: 1,
                name: "conv1".into(),
                class_tag: "conv".into(),
                assignment: Assignment::Gpu,
                start_us: 0.0,
                end_us: 30.0,
                kernel_us: 25.0,
                memory_us: 5.0,
            },
            LayerTiming {
                node: 2,
                name: "fc1".into(),
                class_tag: "fc".into(),
                assignment: Assignment::Split { cpu_fraction: 0.4 },
                start_us: 30.0,
                end_us: 90.0,
                kernel_us: 50.0,
                memory_us: 10.0,
            },
        ];
        use edgenn_nn::layer::LayerClass;
        assert_eq!(r.layers_of_class(LayerClass::Conv).len(), 1);
        assert_eq!(r.layers_of_class(LayerClass::Fc).len(), 1);
        assert_eq!(r.layers_of_class(LayerClass::Pool).len(), 0);
        assert_eq!(r.layers[1].total_us(), 60.0);
        assert!(r.layers[0].is_class(LayerClass::Conv));
        assert!(!r.layers[0].is_class(LayerClass::Fc));
    }

    #[test]
    fn utilization_accessor() {
        let r = report(100.0, 0.0);
        assert_eq!(r.utilization(ProcessorKind::Cpu), 0.5);
        assert_eq!(r.utilization(ProcessorKind::Gpu), 0.9);
    }
}
