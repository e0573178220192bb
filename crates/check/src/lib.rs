//! # edgenn-check
//!
//! Static analysis for the EdgeNN reproduction: a three-tier verifier
//! that runs *without executing* the simulator and turns policy bugs —
//! the silent producers of plausible-but-wrong speedup numbers — into
//! stable, machine-readable diagnostics.
//!
//! - **Tier A — [`graph`]**: dataflow verification over `edgenn-nn`
//!   graphs (def-before-use, dead nodes, shape consistency, arity,
//!   illegal ReLU fusion, decomposability).
//! - **Tier B — [`plan`]**: legality of `edgenn-core` execution plans
//!   before simulation (placement per `semantics.rs`, split fractions,
//!   Eq. 1–4 input ranges, footprint vs. platform DRAM).
//! - **Tier C — [`trace`]**: a happens-before race detector over
//!   simulated event traces (kernel overlap, write-write races,
//!   kernel/DMA ordering, bandwidth conservation), plus [`report`]-level
//!   accounting invariants and [`recovery`]-log validation for runs
//!   executed under fault injection (`EC04x`). The same tier also
//!   verifies *measured* timelines: [`flight`] replays recorded flight
//!   spans from the functional engine and re-checks the occupancy and
//!   causal-ordering invariants against what actually ran.
//! - **Tier D — [`ownership`]**: an abstract interpreter over the
//!   schedule the functional engine executes for `(graph, plan)`,
//!   proving the zero-copy dataflow contract statically (write-once
//!   slots, no cross-branch races, no use-after-move, LIFO arena
//!   discipline) and deriving a certified peak-memory bound the engine's
//!   measured high-water marks must meet (`EC05x`).
//! - **Serving tier — [`serve`]**: admission-log legality (`EC07x`) —
//!   replays an `edgenn-serve` run's typed decision log and verifies
//!   the request lifecycle, the exact weighted-fair pick order, the
//!   bounded queue, deadline accounting, and admission arithmetic.
//! - **Fault storm — [`storm`]**: seeded Monte-Carlo rounds that gate
//!   each faulted analytic run on tier C and `EC04x`, then rerun it on
//!   the model's `edgenn_serve::Twin` and demand the fault-free output
//!   bit for bit.
//!
//! Every diagnostic carries a stable `EC0xx` code ([`codes`]), a
//! [`Severity`], and a [`Span`] pointing at the node, event, or scope
//! that produced it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codes;
pub mod compile;
pub mod flight;
pub mod graph;
pub mod ownership;
pub mod plan;
pub mod recovery;
pub mod report;
pub mod serve;
pub mod storm;
pub mod trace;

use serde::Serialize;

pub use codes::{code_info, registry, CodeInfo};
pub use compile::check_compiled;
pub use flight::check_flight_records;
pub use graph::check_graph;
pub use ownership::{
    analyze_schedule, check_ownership, derive_schedule, BufferLife, Op, OwnershipReport, PeakBound,
    Region, Schedule,
};
pub use plan::{check_config, check_plan, check_profile};
pub use recovery::check_recovery;
pub use report::check_report;
pub use serve::{check_admission_log, ServeCheckParams};
pub use storm::{run_storm, StormConfig, StormReport};
pub use trace::check_trace_events;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Suspicious but runnable; does not fail the CI gate.
    Warning,
    /// A correctness violation; fails `edgenn check` and the CI gate.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Warning => "warning",
            Self::Error => "error",
        })
    }
}

/// Where in the artifact a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// A graph node / plan entry, by node index.
    Node(usize),
    /// A trace event, by index into the event slice.
    Event(usize),
    /// A pair of trace events (races and hazards).
    Events(usize, usize),
    /// The execution config, the report, or the artifact as a whole.
    Global,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Node(n) => write!(f, "n{n}"),
            Self::Event(e) => write!(f, "e{e}"),
            Self::Events(a, b) => write!(f, "e{a}/e{b}"),
            Self::Global => f.write_str("-"),
        }
    }
}

// The vendored serde derive does not handle tuple variants; spans
// serialize as their rendered form ("n3", "e3/e4").
impl Serialize for Span {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::String(self.to_string())
    }
}

/// One finding: a stable code, a severity, a source span, and a message.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Stable `EC0xx` code (see [`codes::registry`]).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Source span.
    pub span: Span,
    /// Human-readable description of this specific finding.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity from the
    /// registry.
    #[must_use]
    pub fn new(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        let severity = code_info(code).map_or(Severity::Error, |c| c.severity);
        Self {
            code,
            severity,
            span,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.span, self.message
        )
    }
}

/// The result of a checker run: every diagnostic found, in tier order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CheckReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Wraps a list of findings.
    #[must_use]
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// Appends another tier's findings.
    pub fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when no error-severity diagnostic was found (warnings are
    /// advisory and do not fail the gate).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when a specific code fired at least once.
    #[must_use]
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Downgrades lenient-eligible codes to warnings — the `--lenient`
    /// mode kept for plotting pipelines that prefer a clamped copy
    /// proportion over a failed run.
    ///
    /// Eligibility is table-driven by [`CodeInfo::lenient`] in the
    /// registry, so a newly added code is strict unless its entry says
    /// otherwise, and a code missing from the registry fails closed
    /// (stays an error).
    pub fn downgrade_accounting(&mut self) {
        for d in &mut self.diagnostics {
            if code_info(d.code).is_some_and(|info| info.lenient) {
                d.severity = Severity::Warning;
            }
        }
    }

    /// Renders the findings as a human-readable table; `"clean"` plus a
    /// summary line when nothing fired.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.diagnostics.is_empty() {
            out.push_str("check clean: 0 errors, 0 warnings\n");
            return out;
        }
        out.push_str(&format!(
            "{:<7} {:<8} {:<8} message\n",
            "code", "severity", "span"
        ));
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{:<7} {:<8} {:<8} {}\n",
                d.code,
                d.severity.to_string(),
                d.span.to_string(),
                d.message
            ));
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Serializes the report to a JSON value:
    /// `{"diagnostics": [...], "errors": n, "warnings": n, "clean": bool}`.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert(
            "diagnostics",
            serde_json::to_value(&self.diagnostics).expect("diagnostics serialize"),
        );
        m.insert("errors", serde_json::Value::from(self.error_count() as u64));
        m.insert(
            "warnings",
            serde_json::Value::from(self.warning_count() as u64),
        );
        m.insert("clean", serde_json::Value::from(self.is_clean()));
        serde_json::Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_inherit_registry_severity() {
        let err = Diagnostic::new(codes::DEF_BEFORE_USE, Span::Node(3), "x");
        assert_eq!(err.severity, Severity::Error);
        let warn = Diagnostic::new(codes::DEAD_NODE, Span::Node(3), "x");
        assert_eq!(warn.severity, Severity::Warning);
        assert_eq!(err.to_string(), "EC001 [error] n3: x");
    }

    #[test]
    fn report_counts_and_gate() {
        let mut r = CheckReport::new(vec![Diagnostic::new(
            codes::DEAD_NODE,
            Span::Node(1),
            "dead",
        )]);
        assert!(r.is_clean(), "warnings alone keep the gate green");
        r.extend(vec![Diagnostic::new(
            codes::SHAPE_MISMATCH,
            Span::Node(2),
            "bad shape",
        )]);
        assert!(!r.is_clean());
        assert_eq!((r.error_count(), r.warning_count()), (1, 1));
        assert!(r.has(codes::SHAPE_MISMATCH));
    }

    #[test]
    fn lenient_mode_downgrades_accounting_codes_only() {
        let mut r = CheckReport::new(vec![
            Diagnostic::new(codes::COPY_PROPORTION_OUT_OF_RANGE, Span::Global, "1.5"),
            Diagnostic::new(codes::SHAPE_MISMATCH, Span::Node(2), "bad"),
        ]);
        assert_eq!(r.error_count(), 2);
        r.downgrade_accounting();
        assert_eq!(r.error_count(), 1, "EC003 stays an error");
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    }

    #[test]
    fn lenient_mode_fails_closed_on_unknown_and_new_codes() {
        // A code outside the registry must never be downgraded, and the
        // EC05x ownership codes are strict by table entry.
        let mut r = CheckReport::new(vec![
            Diagnostic::new("EC998", Span::Global, "unregistered"),
            Diagnostic::new(codes::DOUBLE_WRITE, Span::Node(1), "double write"),
            Diagnostic::new(codes::BUSY_EXCEEDS_WALL, Span::Global, "busy"),
        ]);
        assert_eq!(r.error_count(), 3, "unknown codes default to Error");
        r.downgrade_accounting();
        assert_eq!(r.error_count(), 2, "only the lenient table entry moves");
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.diagnostics[1].severity, Severity::Error);
        assert_eq!(r.diagnostics[2].severity, Severity::Warning);
    }

    #[test]
    fn table_and_json_round_trip_the_counts() {
        let r = CheckReport::new(vec![Diagnostic::new(
            codes::KERNEL_OVERLAP,
            Span::Events(3, 4),
            "overlap",
        )]);
        let table = r.render_table();
        assert!(table.contains("EC020") && table.contains("e3/e4"));
        assert!(table.contains("1 error(s), 0 warning(s)"));
        let json = r.to_json();
        assert_eq!(json["errors"], 1);
        assert_eq!(json["clean"], false);
        assert_eq!(json["diagnostics"][0]["code"], "EC020");

        let clean = CheckReport::default();
        assert!(clean.render_table().contains("check clean"));
        assert_eq!(clean.to_json()["clean"], true);
    }
}
