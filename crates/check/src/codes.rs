//! The stable diagnostic-code registry.
//!
//! Codes are grouped by tier: `EC00x` graph analysis, `EC01x` plan
//! analysis, `EC02x` trace race detection, `EC03x` report accounting,
//! `EC04x` recovery-trace validation, `EC05x` ownership/liveness
//! analysis, `EC06x` compile rewrite legality, `EC07x` admission-log
//! legality for the serving layer.
//! Codes are append-only — a released code never changes meaning, so
//! tooling (CI gates, dashboards) can match on them forever.

use crate::Severity;

/// Tier A: a node consumes a value defined at or after itself.
pub const DEF_BEFORE_USE: &str = "EC001";
/// Tier A: a node's output reaches no sink.
pub const DEAD_NODE: &str = "EC002";
/// Tier A: stored output shape disagrees with shape inference.
pub const SHAPE_MISMATCH: &str = "EC003";
/// Tier A: input count disagrees with the layer's declared arity.
pub const ARITY_MISMATCH: &str = "EC004";
/// Tier A: a `+relu`-fused layer that must not carry the fusion.
pub const ILLEGAL_FUSION: &str = "EC005";
/// Tier A: the DAG falls outside the fork-join family the planner
/// decomposes.
pub const UNDECOMPOSABLE: &str = "EC006";

/// Tier B: plan and graph disagree on node count.
pub const PLAN_SIZE_MISMATCH: &str = "EC010";
/// Tier B: a split fraction outside `(0, 1]` (or non-finite).
pub const SPLIT_FRACTION_RANGE: &str = "EC011";
/// Tier B: managed output on an input-split co-run under semantic-aware
/// policy (write-shared partial sums; `semantics.rs` prescribes
/// explicit).
pub const MANAGED_CORUN_OUTPUT: &str = "EC012";
/// Tier B: an assignment the config's hybrid mode or the layer's
/// capabilities forbid.
pub const ASSIGNMENT_FORBIDDEN: &str = "EC013";
/// Tier B: GPU work planned on a platform without a GPU.
pub const GPU_WORK_WITHOUT_GPU: &str = "EC014";
/// Tier B: a split so skewed one processor receives no whole partition
/// unit.
pub const DEGENERATE_SPLIT: &str = "EC015";
/// Tier B: a profiled time outside Eq. 1–4's domain (negative or NaN).
pub const INVALID_PROFILE_TIME: &str = "EC016";
/// Tier B: an execution-config field outside its documented range.
pub const CONFIG_FIELD_RANGE: &str = "EC017";
/// Tier B: the plan's memory footprint exceeds platform DRAM.
pub const FOOTPRINT_EXCEEDS_DRAM: &str = "EC018";

/// Tier C: two kernels overlap on one processor.
pub const KERNEL_OVERLAP: &str = "EC020";
/// Tier C: an event with non-finite timestamps or negative duration.
pub const MALFORMED_EVENT: &str = "EC021";
/// Tier C: CPU and GPU write one region concurrently.
pub const WRITE_WRITE_RACE: &str = "EC022";
/// Tier C: a DMA transfer concurrent with a kernel (or transfer) on the
/// same region.
pub const ORDERING_HAZARD: &str = "EC023";
/// Tier C: a single transfer faster than the platform's fastest link.
pub const BANDWIDTH_EXCEEDED: &str = "EC024";
/// Tier C: concurrent transfers that sum past the link capacity.
pub const AGGREGATE_BANDWIDTH: &str = "EC025";

/// Report: raw copy proportion outside `[0, 1]`.
pub const COPY_PROPORTION_OUT_OF_RANGE: &str = "EC030";
/// Report: busy time exceeds wall-clock time.
pub const BUSY_EXCEEDS_WALL: &str = "EC031";

/// Recovery: a fault bit but the log records no recovery decision.
pub const FAULT_UNRECOVERED: &str = "EC040";
/// Recovery: more retries of one node than the configured budget.
pub const RETRY_BUDGET_EXCEEDED: &str = "EC041";
/// Recovery: counters disagree with the event stream.
pub const RECOVERY_ACCOUNTING_MISMATCH: &str = "EC042";
/// Recovery: decisions out of simulated-time order, or a retry after
/// the node already fell back.
pub const RECOVERY_ORDER_VIOLATION: &str = "EC043";

/// Ownership: a node reads a slot no prior op wrote.
pub const READ_BEFORE_WRITE: &str = "EC050";
/// Ownership: a slot written twice (`OnceLock` write-once contract).
pub const DOUBLE_WRITE: &str = "EC051";
/// Ownership: two parallel branches touch one slot without ordering.
pub const CROSS_BRANCH_RACE: &str = "EC052";
/// Ownership: a read or merge of a slot whose value already moved out.
pub const USE_AFTER_MOVE: &str = "EC053";
/// Ownership: the schedule never produces the graph's output slot.
pub const OUTPUT_NEVER_PRODUCED: &str = "EC054";
/// Ownership: a slot written but never read and not the output.
pub const DEAD_WRITE: &str = "EC055";
/// Ownership: an arena buffer outlives the node that acquired it.
pub const ARENA_ESCAPE: &str = "EC056";
/// Ownership: an in-place merge target aliases another live slot.
pub const MERGE_ALIASES_LIVE_SLOT: &str = "EC057";
/// Ownership: the certified peak-memory bound exceeds platform DRAM.
pub const CERTIFIED_PEAK_EXCEEDS_DRAM: &str = "EC058";
/// Ownership: the schedule writes the borrowed network-input slot.
pub const BORROWED_INPUT_WRITTEN: &str = "EC059";

/// Compile: the compiled graph's interface (input or output shape)
/// differs from the original graph's.
pub const COMPILE_INTERFACE_CHANGED: &str = "EC060";
/// Compile: a fused node violates the partial-range contract (a `+relu`
/// node that is itself a ReLU, or supports input splits without
/// deferring its folded epilogue).
pub const COMPILE_FUSION_CONTRACT: &str = "EC061";
/// Compile: dead or orphaned nodes survive compilation (an unreachable
/// node, or a constant feeding nothing).
pub const COMPILE_ORPHANED_NODES: &str = "EC062";
/// Compile: the compile report disagrees with the graph it describes.
pub const COMPILE_REPORT_MISMATCH: &str = "EC063";

/// Serve: an admission-log event out of lifecycle order (a completion
/// for a shed, rejected, or never-admitted request; a duplicate
/// terminal; a batch member that was never enqueued).
pub const SERVE_LIFECYCLE: &str = "EC070";
/// Serve: a batch pick diverges from the weighted-fair replay (wrong
/// tenant, wrong request, oversized batch, or a logged virtual-time
/// vector the replay does not reproduce).
pub const SERVE_FAIRNESS_REPLAY: &str = "EC071";
/// Serve: deadline accounting — logged latency disagrees with the
/// event clock, or a completion landed past its deadline without the
/// SLO guard engaging.
pub const SERVE_DEADLINE_ACCOUNTING: &str = "EC072";
/// Serve: the bounded pending set's logged depth diverges from the
/// replay, exceeds capacity, or never drained.
pub const SERVE_QUEUE_BOUND: &str = "EC073";
/// Serve: admission arithmetic does not add up (admitted is not
/// completed + shed + still-pending, duplicate request ids, or
/// admitted requests that never reached the queue).
pub const SERVE_ADMISSION_ACCOUNTING: &str = "EC074";

/// Registry entry: one stable code with its default severity and a
/// one-line remediation (mirrored into `docs/diagnostics.md`).
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The stable `EC0xx` code.
    pub code: &'static str,
    /// Short title.
    pub title: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// True when `--lenient` may downgrade this error to a warning.
    ///
    /// The downgrade set is declared here, next to the code, so a new
    /// code can never slip into the lenient path by accident: codes
    /// default to strict, and codes absent from the registry entirely
    /// fail closed (stay errors).
    pub lenient: bool,
    /// One-line remediation.
    pub remediation: &'static str,
}

/// Every registered diagnostic code, in code order.
#[must_use]
pub fn registry() -> &'static [CodeInfo] {
    use Severity::{Error, Warning};
    &[
        CodeInfo {
            code: DEF_BEFORE_USE,
            title: "def-before-use violation",
            severity: Error,
            lenient: false,
            remediation: "Build graphs through GraphBuilder::add so every input id precedes its consumer.",
        },
        CodeInfo {
            code: DEAD_NODE,
            title: "dead node",
            severity: Warning,
            lenient: false,
            remediation: "Remove the unused layer or wire its output toward the sink.",
        },
        CodeInfo {
            code: SHAPE_MISMATCH,
            title: "shape inference mismatch",
            severity: Error,
            lenient: false,
            remediation: "Recompute stored output shapes with Layer::output_shape over the actual input shapes.",
        },
        CodeInfo {
            code: ARITY_MISMATCH,
            title: "arity mismatch",
            severity: Error,
            lenient: false,
            remediation: "Feed the node exactly Layer::arity() inputs.",
        },
        CodeInfo {
            code: ILLEGAL_FUSION,
            title: "illegal ReLU fusion",
            severity: Error,
            lenient: false,
            remediation: "Only fuse ReLU into a non-ReLU producer whose partial results are final (no input splits).",
        },
        CodeInfo {
            code: UNDECOMPOSABLE,
            title: "undecomposable structure",
            severity: Warning,
            lenient: false,
            remediation: "Restructure nested forks and dead-end branches into the flat fork-join family; the planners, the simulator and the engine all reject any other graph.",
        },
        CodeInfo {
            code: PLAN_SIZE_MISMATCH,
            title: "plan/graph size mismatch",
            severity: Error,
            lenient: false,
            remediation: "Regenerate the plan from the same graph it will execute.",
        },
        CodeInfo {
            code: SPLIT_FRACTION_RANGE,
            title: "split fraction out of range",
            severity: Error,
            lenient: false,
            remediation: "Clamp planner output to (0, 1]; a 0-fraction split should be a plain GPU assignment.",
        },
        CodeInfo {
            code: MANAGED_CORUN_OUTPUT,
            title: "managed co-run partial sums",
            severity: Warning,
            lenient: false,
            remediation: "Allocate input-split co-run outputs explicitly (semantics.rs: CoRunOutput -> Explicit).",
        },
        CodeInfo {
            code: ASSIGNMENT_FORBIDDEN,
            title: "assignment violates mode or capability",
            severity: Error,
            lenient: false,
            remediation: "Only emit split assignments when the hybrid mode allows intra-kernel co-running and the split axis holds at least two units (`partition_units` for an output split, `input_channels` for an input split).",
        },
        CodeInfo {
            code: GPU_WORK_WITHOUT_GPU,
            title: "GPU work on CPU-only platform",
            severity: Error,
            lenient: false,
            remediation: "Plan against the target platform: CPU-only devices take Assignment::Cpu everywhere.",
        },
        CodeInfo {
            code: DEGENERATE_SPLIT,
            title: "degenerate split",
            severity: Warning,
            lenient: false,
            remediation: "Round the fraction to at least one whole partition unit per processor, or assign the node solo.",
        },
        CodeInfo {
            code: INVALID_PROFILE_TIME,
            title: "invalid profiled time",
            severity: Error,
            lenient: false,
            remediation: "Re-profile the node; Eq. 1-4 need non-negative finite times (infinite GPU time is the no-GPU sentinel).",
        },
        CodeInfo {
            code: CONFIG_FIELD_RANGE,
            title: "config field out of range",
            severity: Error,
            lenient: false,
            remediation: "Keep sync overhead >= 0, host roundtrip fraction in [0, 1], jitter in [0, 1).",
        },
        CodeInfo {
            code: FOOTPRINT_EXCEEDS_DRAM,
            title: "footprint exceeds DRAM",
            severity: Error,
            lenient: false,
            remediation: "Shrink the model scale or prefer managed (single-copy) allocations on the biggest arrays.",
        },
        CodeInfo {
            code: KERNEL_OVERLAP,
            title: "kernel overlap on one processor",
            severity: Error,
            lenient: false,
            remediation: "Serialize kernels per processor through the timeline's free_at clock.",
        },
        CodeInfo {
            code: MALFORMED_EVENT,
            title: "malformed trace event",
            severity: Error,
            lenient: false,
            remediation: "Emit finite, non-negative-duration intervals for every event.",
        },
        CodeInfo {
            code: WRITE_WRITE_RACE,
            title: "CPU/GPU write-write race",
            severity: Error,
            lenient: false,
            remediation: "Give concurrent writers disjoint ranges (split part labels) or order them via a sync.",
        },
        CodeInfo {
            code: ORDERING_HAZARD,
            title: "kernel/DMA ordering hazard",
            severity: Error,
            lenient: false,
            remediation: "Schedule transfers of a region strictly before or after the kernels touching it.",
        },
        CodeInfo {
            code: BANDWIDTH_EXCEEDED,
            title: "transfer beats link capacity",
            severity: Error,
            lenient: false,
            remediation: "Lengthen the transfer to bytes / link bandwidth; no single stream can beat the memory system.",
        },
        CodeInfo {
            code: AGGREGATE_BANDWIDTH,
            title: "aggregate bandwidth over capacity",
            severity: Warning,
            lenient: false,
            remediation: "Serialize concurrent bus transfers or model per-stream contention.",
        },
        CodeInfo {
            code: COPY_PROPORTION_OUT_OF_RANGE,
            title: "copy proportion out of range",
            severity: Error,
            lenient: true,
            remediation: "Fix the accounting: memory time within one wall-clock interval cannot exceed that interval; use --lenient only for plotting.",
        },
        CodeInfo {
            code: BUSY_EXCEEDS_WALL,
            title: "busy time exceeds wall clock",
            severity: Error,
            lenient: true,
            remediation: "Check interval-union accounting: the busy union is bounded by total latency.",
        },
        CodeInfo {
            code: FAULT_UNRECOVERED,
            title: "injected fault without recovery",
            severity: Error,
            lenient: false,
            remediation: "Every kernel fault that bites must log a retry or fallback decision; check the injection hooks in exec_solo/exec_split.",
        },
        CodeInfo {
            code: RETRY_BUDGET_EXCEEDED,
            title: "retry budget exceeded",
            severity: Error,
            lenient: false,
            remediation: "Cap per-node retries at max_attempts, then fall back to the CPU instead of retrying forever.",
        },
        CodeInfo {
            code: RECOVERY_ACCOUNTING_MISMATCH,
            title: "recovery counters disagree with events",
            severity: Error,
            lenient: false,
            remediation: "Keep retries/fallbacks/deadline_degradations equal to the counts of matching events in the log.",
        },
        CodeInfo {
            code: RECOVERY_ORDER_VIOLATION,
            title: "recovery decisions out of order",
            severity: Error,
            lenient: false,
            remediation: "Log decisions in simulated-time order and never retry a node after it fell back to the CPU.",
        },
        CodeInfo {
            code: READ_BEFORE_WRITE,
            title: "read of unwritten slot",
            severity: Error,
            lenient: false,
            remediation: "Schedule every producer before its consumers; the slot table is write-once, never re-armed.",
        },
        CodeInfo {
            code: DOUBLE_WRITE,
            title: "slot written twice",
            severity: Error,
            lenient: false,
            remediation: "Each node owns exactly one OnceLock slot; a second write would be silently dropped at runtime.",
        },
        CodeInfo {
            code: CROSS_BRANCH_RACE,
            title: "cross-branch slot race",
            severity: Error,
            lenient: false,
            remediation: "Parallel branches may only touch slots of their own nodes; route shared values through the fork point.",
        },
        CodeInfo {
            code: USE_AFTER_MOVE,
            title: "use after move",
            severity: Error,
            lenient: false,
            remediation: "A slot's tensor moves out exactly once (into the result); schedule all reads before the move.",
        },
        CodeInfo {
            code: OUTPUT_NEVER_PRODUCED,
            title: "output never produced",
            severity: Error,
            lenient: false,
            remediation: "The schedule must write the graph's output slot; check the output node is reachable and executed.",
        },
        CodeInfo {
            code: DEAD_WRITE,
            title: "slot written but never read",
            severity: Warning,
            lenient: false,
            remediation: "Remove the node or wire its output toward the sink; its tensor is held to session end for nothing.",
        },
        CodeInfo {
            code: ARENA_ESCAPE,
            title: "arena buffer outlives its node",
            severity: Error,
            lenient: false,
            remediation: "Release scratch buffers (LIFO) before the acquiring node completes; with_scratch must not escape.",
        },
        CodeInfo {
            code: MERGE_ALIASES_LIVE_SLOT,
            title: "in-place merge aliases a live slot",
            severity: Error,
            lenient: false,
            remediation: "Merge partial results only into the owning node's own pending slot, never into another live buffer.",
        },
        CodeInfo {
            code: CERTIFIED_PEAK_EXCEEDS_DRAM,
            title: "certified peak exceeds DRAM",
            severity: Error,
            lenient: false,
            remediation: "Shrink the model scale or free reclaimable slots early; the certified bound must fit Platform::dram_bytes.",
        },
        CodeInfo {
            code: BORROWED_INPUT_WRITTEN,
            title: "borrowed input slot written",
            severity: Error,
            lenient: false,
            remediation: "Slot 0 borrows the caller's input tensor; no node may write it.",
        },
        CodeInfo {
            code: COMPILE_INTERFACE_CHANGED,
            title: "compiled interface changed",
            severity: Error,
            lenient: false,
            remediation: "Compiler rewrites must preserve the graph's input and output shapes exactly.",
        },
        CodeInfo {
            code: COMPILE_FUSION_CONTRACT,
            title: "fused node breaks partial-range contract",
            severity: Error,
            lenient: false,
            remediation: "A +relu node must wrap a non-ReLU producer and defer its epilogue when it has two or more input channels to split.",
        },
        CodeInfo {
            code: COMPILE_ORPHANED_NODES,
            title: "orphaned nodes after compilation",
            severity: Error,
            lenient: false,
            remediation: "Run the dce pass last; every compiled node must reach the sink (constants included).",
        },
        CodeInfo {
            code: COMPILE_REPORT_MISMATCH,
            title: "compile report disagrees with graph",
            severity: Error,
            lenient: false,
            remediation: "Regenerate the report from the compile call that produced the graph; do not edit either by hand.",
        },
        CodeInfo {
            code: SERVE_LIFECYCLE,
            title: "admission-log lifecycle violation",
            severity: Error,
            lenient: false,
            remediation: "Log every request's transitions in order (arrived, admitted, enqueued, batched, completed/shed) and never complete a shed or rejected request.",
        },
        CodeInfo {
            code: SERVE_FAIRNESS_REPLAY,
            title: "weighted-fair pick diverges from replay",
            severity: Error,
            lenient: false,
            remediation: "Every pick must take the minimum-virtual-time eligible tenant's oldest request and charge 1/weight; log the post-charge vtime vector the batcher actually holds.",
        },
        CodeInfo {
            code: SERVE_DEADLINE_ACCOUNTING,
            title: "deadline accounting violation",
            severity: Error,
            lenient: false,
            remediation: "Log latency as completion minus arrival on one clock, and route deadline-threatened batches through the degradation ladder before they miss.",
        },
        CodeInfo {
            code: SERVE_QUEUE_BOUND,
            title: "queue bound violated or not drained",
            severity: Error,
            lenient: false,
            remediation: "Refuse pushes at capacity (typed queue_full rejection), log the post-push depth, and drain the pending set before ending the run.",
        },
        CodeInfo {
            code: SERVE_ADMISSION_ACCOUNTING,
            title: "admission arithmetic does not add up",
            severity: Error,
            lenient: false,
            remediation: "Give every attempt a fresh request id and make every admitted request end as exactly one of completed or shed.",
        },
    ]
}

/// Looks up one code's registry entry.
#[must_use]
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    registry().iter().find(|c| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_unique_and_complete() {
        let reg = registry();
        assert_eq!(reg.len(), 46);
        for pair in reg.windows(2) {
            assert!(pair[0].code < pair[1].code, "codes must stay sorted");
        }
        for info in reg {
            assert!(info.code.starts_with("EC0"));
            assert!(!info.remediation.is_empty());
        }
    }

    #[test]
    fn lookup_finds_known_and_rejects_unknown() {
        assert_eq!(code_info("EC020").unwrap().severity, Severity::Error);
        assert_eq!(code_info("EC025").unwrap().severity, Severity::Warning);
        assert_eq!(code_info("EC050").unwrap().severity, Severity::Error);
        assert_eq!(code_info("EC055").unwrap().severity, Severity::Warning);
        assert!(code_info("EC999").is_none());
    }

    #[test]
    fn lenient_set_is_exactly_the_accounting_pair() {
        let lenient: Vec<&str> = registry()
            .iter()
            .filter(|c| c.lenient)
            .map(|c| c.code)
            .collect();
        assert_eq!(lenient, ["EC030", "EC031"]);
    }

    #[test]
    fn docs_list_every_code_with_its_severity() {
        let docs = include_str!("../../../docs/diagnostics.md");
        for info in registry() {
            let row = docs
                .lines()
                .find(|l| l.starts_with(&format!("| {} ", info.code)))
                .unwrap_or_else(|| panic!("{} missing from docs/diagnostics.md", info.code));
            let want = match info.severity {
                Severity::Error => "| error |",
                Severity::Warning => "| warning |",
            };
            assert!(
                row.contains(want),
                "{} severity drifted from docs: {row}",
                info.code
            );
        }
    }
}
