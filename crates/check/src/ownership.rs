//! Tier D: static ownership/liveness analysis of the zero-copy engine.
//!
//! The functional engine (`edgenn-core::runtime::functional`) moves
//! tensors through `OnceLock` slots, merges split partials in place, and
//! draws kernel temporaries from per-thread scratch arenas. Its safety
//! contract — every slot written exactly once before any read, no
//! cross-branch slot races, no use of a moved value, arena buffers
//! released before their node completes — has so far been established
//! only by runtime tests and the tier-C trace detector. This module
//! proves it *statically*: [`derive_schedule`] lowers a `(graph, plan)`
//! pair into the sequence of slot/arena operations the engine executes
//! ([`Program::lower`], over the same [`Program`] the engine runs), and
//! [`analyze_schedule`] abstract-interprets that schedule, emitting
//! `EC05x` diagnostics for every contract violation and deriving a
//! **certified peak-memory bound** ([`PeakBound`]).
//!
//! The bound is engine-true, not merely analytic: the engine holds every
//! slot until session end, so the certified slot component equals the
//! sum of non-input output sizes, and the measured
//! `EngineStats::slot_bytes` of a fault-free run must equal it (the
//! conformance suite checks all 36 model × platform combos in both
//! precisions). The arena component sums the schedule's
//! [`Op::ArenaAcquire`] bounds — each node's [`Layer::scratch_bytes`],
//! byte-accurate across element widths so it covers the int8 path's
//! i8/i16 acquisitions as well as the f32 path, doubled for split
//! assignments, whose two role computations may land on two threads
//! with two arenas.
//!
//! [`Layer::scratch_bytes`]: edgenn_nn::layer::Layer::scratch_bytes

use edgenn_core::footprint;
use edgenn_core::plan::ExecutionPlan;
use edgenn_core::schedule::{liveness_peak, Program};
use edgenn_nn::graph::Graph;
use edgenn_sim::platforms::Platform;
use serde::Serialize;

use crate::{codes, Diagnostic, Span};

pub use edgenn_core::schedule::{Op, Region, Schedule};

/// Ownership and lifetime of one slot-resident buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BufferLife {
    /// The node owning the slot.
    pub node: usize,
    /// Tensor size in bytes.
    pub bytes: u64,
    /// Op ordinal of the write that bore the buffer.
    pub born: usize,
    /// Op ordinal of the last read (equals `born` when never read).
    pub last_read: usize,
    /// True when the buffer is the session output (moved out at the end).
    pub is_output: bool,
}

/// The certified peak-memory decomposition for one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PeakBound {
    /// The borrowed network input.
    pub input_bytes: u64,
    /// What the layers hold under the plan's precision, resident for
    /// the whole session ([`footprint::weight_bytes`]).
    pub weight_bytes: u64,
    /// Sum of slot-resident output tensors — the engine frees none
    /// before session end, so this is exact for a fault-free run.
    pub slot_bytes: u64,
    /// Scratch-arena capacity bound (split nodes counted twice: one
    /// arena per role thread).
    pub arena_bytes: u64,
    /// Largest transient split-partial excess beyond the final slot.
    pub partial_bytes: u64,
    /// Total certified bound (sum of the components).
    pub total_bytes: u64,
    /// What a liveness-freeing engine would peak at instead: node by
    /// node in run order, each node's output allocated while its inputs
    /// are still live, and each slot freed once its last reader has run
    /// (the output held to session end). The reclaimable-potential
    /// headroom, reported but not gated.
    pub liveness_peak_bytes: u64,
}

/// The tier-D verdict: diagnostics, per-buffer liveness, and the
/// certified bound.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OwnershipReport {
    /// All `EC05x` findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Liveness intervals of every slot the schedule writes.
    pub lives: Vec<BufferLife>,
    /// The certified peak-memory decomposition.
    pub bound: PeakBound,
    /// Abstract ops interpreted.
    pub ops: usize,
}

impl OwnershipReport {
    /// True when no error-severity diagnostic fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != crate::Severity::Error)
    }

    /// Renders the liveness table plus the bound decomposition.
    #[must_use]
    pub fn render_table(&self, graph: &Graph) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<5} {:<24} {:>12} {:>8} {:>10} {:>7}\n",
            "slot", "layer", "bytes", "born", "last_read", "output"
        ));
        for life in &self.lives {
            let name = graph
                .nodes()
                .get(life.node)
                .map_or("<out of range>", |n| n.layer().name());
            out.push_str(&format!(
                "{:<5} {:<24} {:>12} {:>8} {:>10} {:>7}\n",
                life.node,
                name,
                life.bytes,
                life.born,
                life.last_read,
                if life.is_output { "yes" } else { "" }
            ));
        }
        let b = &self.bound;
        out.push_str(&format!(
            "certified peak: {} bytes (input {} + weights {} + slots {} + arena {} + partials {})\n",
            b.total_bytes, b.input_bytes, b.weight_bytes, b.slot_bytes, b.arena_bytes,
            b.partial_bytes
        ));
        out.push_str(&format!(
            "liveness-freed peak would be {} bytes ({} reclaimable)\n",
            b.liveness_peak_bytes,
            b.total_bytes.saturating_sub(b.liveness_peak_bytes)
        ));
        out
    }
}

/// Bytes of one node's output tensor (0 for out-of-range slots in
/// mutated schedules).
fn slot_bytes(graph: &Graph, slot: usize) -> u64 {
    graph
        .nodes()
        .get(slot)
        .map_or(0, |n| (n.output_shape().num_elements() * 4) as u64)
}

/// Lowers `(graph, plan)` into the schedule the functional engine
/// executes ([`Program::lower`]). A graph the engine rejects (outside the
/// fork-join family) lowers to the empty schedule; [`check_ownership`]
/// reports it as EC006.
#[must_use]
pub fn derive_schedule(graph: &Graph, plan: &ExecutionPlan) -> Schedule {
    Program::new(graph)
        .map(|program| program.lower(plan))
        .unwrap_or_default()
}

/// Abstract slot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Never written; reading it is EC050 (slot 0 is the borrowed input
    /// and reads fine while unwritten).
    Unwritten,
    /// Holds a live tensor.
    Written,
    /// Its tensor moved out; any further use is EC053.
    Moved,
}

/// The abstract interpreter's mutable state.
struct Interp {
    slots: Vec<SlotState>,
    /// Open arena buffers, LIFO: (owner node, bytes).
    arena_stack: Vec<(usize, u64)>,
    /// Per-slot (born ordinal, last read ordinal, read count).
    lives: Vec<Option<(usize, usize, usize)>>,
    /// Running op ordinal (unique across regions and branches).
    ordinal: usize,
    diagnostics: Vec<Diagnostic>,
}

impl Interp {
    fn diag(&mut self, code: &'static str, node: usize, message: String) {
        self.diagnostics
            .push(Diagnostic::new(code, Span::Node(node), message));
    }

    /// Applies one op to the state machine, recording diagnostics.
    fn step(&mut self, op: Op) {
        self.ordinal += 1;
        let at = self.ordinal;
        match op {
            Op::Read { node, slot } => {
                match self.slots.get(slot).copied() {
                    Some(SlotState::Written) => {
                        if let Some(Some(life)) = self.lives.get_mut(slot) {
                            life.1 = at;
                            life.2 += 1;
                        }
                    }
                    Some(SlotState::Unwritten) if slot == 0 => {} // borrowed input
                    Some(SlotState::Unwritten) | None => self.diag(
                        codes::READ_BEFORE_WRITE,
                        node,
                        format!("node {node} reads slot {slot} before any write"),
                    ),
                    Some(SlotState::Moved) => self.diag(
                        codes::USE_AFTER_MOVE,
                        node,
                        format!("node {node} reads slot {slot} after its value moved out"),
                    ),
                }
            }
            Op::Write { node, slot } => {
                // A buffer still open at the node's write escaped its
                // kernel: `with_scratch` returns buffers before the
                // forward call completes.
                if self.arena_stack.iter().any(|&(owner, _)| owner == node) {
                    self.diag(
                        codes::ARENA_ESCAPE,
                        node,
                        format!("node {node} completes with its arena buffer still open"),
                    );
                    self.arena_stack.retain(|&(owner, _)| owner != node);
                }
                if slot == 0 {
                    self.diag(
                        codes::BORROWED_INPUT_WRITTEN,
                        node,
                        format!("node {node} writes slot 0, which borrows the caller's input"),
                    );
                    return;
                }
                match self.slots.get(slot).copied() {
                    Some(SlotState::Unwritten) => {
                        self.slots[slot] = SlotState::Written;
                        if let Some(life) = self.lives.get_mut(slot) {
                            *life = Some((at, at, 0));
                        }
                    }
                    Some(SlotState::Written | SlotState::Moved) => self.diag(
                        codes::DOUBLE_WRITE,
                        node,
                        format!("node {node} writes slot {slot} a second time"),
                    ),
                    None => self.diag(
                        codes::DOUBLE_WRITE,
                        node,
                        format!("node {node} writes out-of-range slot {slot}"),
                    ),
                }
            }
            Op::Merge { node, target } => {
                if target != node {
                    let state = self.slots.get(target).copied();
                    if state == Some(SlotState::Moved) {
                        self.diag(
                            codes::USE_AFTER_MOVE,
                            node,
                            format!("node {node} merges into slot {target} after its move"),
                        );
                    } else {
                        self.diag(
                            codes::MERGE_ALIASES_LIVE_SLOT,
                            node,
                            format!("node {node} merges partials into foreign slot {target}"),
                        );
                    }
                } else if self.slots.get(target).copied() == Some(SlotState::Written) {
                    self.diag(
                        codes::MERGE_ALIASES_LIVE_SLOT,
                        node,
                        format!(
                            "node {node} merges partials into slot {target}, which already \
                             holds a live tensor"
                        ),
                    );
                }
            }
            Op::ArenaAcquire { node, bytes } => self.arena_stack.push((node, bytes)),
            Op::ArenaRelease { node } => match self.arena_stack.pop() {
                Some((owner, _)) if owner == node => {}
                Some((owner, bytes)) => {
                    self.diag(
                        codes::ARENA_ESCAPE,
                        node,
                        format!(
                            "node {node} releases over node {owner}'s open buffer \
                             ({bytes} bytes) — LIFO discipline broken"
                        ),
                    );
                }
                None => self.diag(
                    codes::ARENA_ESCAPE,
                    node,
                    format!("node {node} releases scratch it never acquired"),
                ),
            },
            Op::MoveOut { slot } => match self.slots.get(slot).copied() {
                Some(SlotState::Written) => {
                    self.slots[slot] = SlotState::Moved;
                }
                Some(SlotState::Moved) => self.diag(
                    codes::USE_AFTER_MOVE,
                    slot,
                    format!("slot {slot} moved out twice"),
                ),
                Some(SlotState::Unwritten) | None => self.diag(
                    codes::OUTPUT_NEVER_PRODUCED,
                    slot,
                    format!("output slot {slot} moves out but was never written"),
                ),
            },
        }
    }
}

/// Interprets `schedule` against the zero-copy contract, returning the
/// full tier-D report. Pass the schedule from [`derive_schedule`] for
/// the engine's real behaviour, or a mutated one to test the verifier.
/// The schedule's ops already carry the plan's arena and split sizes;
/// `weight_bytes` is what the layers hold under the plan's precision
/// ([`footprint::weight_bytes`]).
#[must_use]
pub fn analyze_schedule(
    graph: &Graph,
    platform: &Platform,
    schedule: &Schedule,
    weight_bytes: u64,
) -> OwnershipReport {
    let len = graph.len();
    let mut interp = Interp {
        slots: vec![SlotState::Unwritten; len],
        arena_stack: Vec::new(),
        lives: vec![None; len],
        ordinal: 0,
        diagnostics: Vec::new(),
    };

    for region in &schedule.regions {
        if let Region::Parallel(branches) = region {
            check_branch_isolation(&mut interp, branches);
        }
        // Branches are data-disjoint when isolation holds, so
        // interpreting them in branch order is equivalent to any
        // interleaving.
        for &op in region.ops() {
            interp.step(op);
        }
    }

    // End-of-session facts: every open arena buffer escaped, the output
    // must exist, and unread non-output slots are dead weight.
    let open: Vec<(usize, u64)> = interp.arena_stack.drain(..).collect();
    for (owner, bytes) in open {
        interp.diag(
            codes::ARENA_ESCAPE,
            owner,
            format!("session ends with node {owner}'s {bytes}-byte arena buffer open"),
        );
    }
    let output = graph.output_id().index();
    if len == 0 || !matches!(interp.slots.get(output), Some(SlotState::Moved)) {
        let produced = matches!(interp.slots.get(output), Some(SlotState::Written));
        if !produced {
            interp.diag(
                codes::OUTPUT_NEVER_PRODUCED,
                output,
                format!("the schedule never produces output slot {output}"),
            );
        }
    }
    let mut lives = Vec::new();
    for (slot, life) in interp.lives.iter().enumerate() {
        let Some((born, last_read, reads)) = *life else {
            continue;
        };
        let is_output = slot == output;
        if reads == 0 && !is_output {
            interp.diagnostics.push(Diagnostic::new(
                codes::DEAD_WRITE,
                Span::Node(slot),
                format!("slot {slot} is written but never read and is not the output"),
            ));
        }
        lives.push(BufferLife {
            node: slot,
            bytes: slot_bytes(graph, slot),
            born,
            last_read,
            is_output,
        });
    }

    let bound = certify_bound(graph, schedule, &lives, weight_bytes);
    let mut diagnostics = interp.diagnostics;
    if platform.dram_bytes > 0 && bound.total_bytes > platform.dram_bytes {
        diagnostics.push(Diagnostic::new(
            codes::CERTIFIED_PEAK_EXCEEDS_DRAM,
            Span::Global,
            format!(
                "certified peak {:.1} MiB exceeds '{}' DRAM ({:.1} MiB)",
                bound.total_bytes as f64 / (1 << 20) as f64,
                platform.name,
                platform.dram_bytes as f64 / (1 << 20) as f64
            ),
        ));
    }
    OwnershipReport {
        diagnostics,
        lives,
        bound,
        ops: schedule.op_count(),
    }
}

/// Flags slots touched by more than one branch of a parallel region
/// (EC052): concurrent writers, or a reader of a sibling's write, race
/// without a happens-before edge.
fn check_branch_isolation(interp: &mut Interp, branches: &[Vec<Op>]) {
    let touched = |branch: &[Op]| {
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for op in branch {
            match *op {
                Op::Write { slot, .. } | Op::Merge { target: slot, .. } => writes.push(slot),
                Op::Read { slot, .. } => reads.push(slot),
                _ => {}
            }
        }
        (writes, reads)
    };
    let sets: Vec<(Vec<usize>, Vec<usize>)> = branches.iter().map(|b| touched(b)).collect();
    for (a, (writes_a, _)) in sets.iter().enumerate() {
        for (b, (writes_b, reads_b)) in sets.iter().enumerate() {
            if a == b {
                continue;
            }
            for &slot in writes_a {
                if writes_b.contains(&slot) && a < b {
                    interp.diag(
                        codes::CROSS_BRANCH_RACE,
                        slot,
                        format!("branches {a} and {b} both write slot {slot}"),
                    );
                }
                if reads_b.contains(&slot) {
                    interp.diag(
                        codes::CROSS_BRANCH_RACE,
                        slot,
                        format!(
                            "branch {b} reads slot {slot} while branch {a} writes it \
                             concurrently"
                        ),
                    );
                }
            }
        }
    }
}

/// Builds the certified peak-memory decomposition from the schedule's
/// ops and the slot lives they produced.
fn certify_bound(
    graph: &Graph,
    schedule: &Schedule,
    lives: &[BufferLife],
    weight_bytes: u64,
) -> PeakBound {
    let input_bytes = slot_bytes(graph, 0);
    let slot_total: u64 = lives.iter().map(|l| l.bytes).sum();
    let mut arena_bytes = 0u64;
    let mut partial_bytes = 0u64;
    for op in schedule.ops() {
        match *op {
            Op::ArenaAcquire { bytes, .. } => arena_bytes += bytes,
            // Before the merge lands in the slot, both partials are
            // live: bounded by twice the output (input-split partials
            // are each full size), of which one becomes the slot.
            Op::Merge { node, .. } => partial_bytes = partial_bytes.max(slot_bytes(graph, node)),
            _ => {}
        }
    }
    // The borrowed input is counted above, for the whole session.
    let output = graph.output_id().index();
    let slot_peak = liveness_peak(schedule, &[], |slot| slot_bytes(graph, slot), output);
    let total_bytes = input_bytes + weight_bytes + slot_total + arena_bytes + partial_bytes;
    PeakBound {
        input_bytes,
        weight_bytes,
        slot_bytes: slot_total,
        arena_bytes,
        partial_bytes,
        total_bytes,
        liveness_peak_bytes: input_bytes + weight_bytes + slot_peak,
    }
}

/// Runs the full tier-D analysis: lowers the engine schedule for
/// `(graph, plan)` and interprets it against the target `platform`. A
/// graph the engine rejects has no schedule to prove: the report carries
/// EC006 and no lives.
#[must_use]
pub fn check_ownership(
    graph: &Graph,
    plan: &ExecutionPlan,
    platform: &Platform,
) -> OwnershipReport {
    match Program::new(graph) {
        Ok(program) => {
            let weights = footprint::weight_bytes(graph, &program, plan.config.precision);
            analyze_schedule(graph, platform, &program.lower(plan), weights)
        }
        Err(e) => OwnershipReport {
            diagnostics: vec![Diagnostic::new(
                codes::UNDECOMPOSABLE,
                Span::Global,
                format!("the engine cannot run this graph: {e}"),
            )],
            ..OwnershipReport::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_core::plan::{Assignment, ExecutionConfig, NodePlan};
    use edgenn_core::runtime::Runtime;
    use edgenn_core::tuner::Tuner;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::jetson_agx_xavier;

    fn tuned(graph: &Graph) -> ExecutionPlan {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(graph, &runtime).unwrap();
        tuner
            .plan(graph, &runtime, ExecutionConfig::edgenn())
            .unwrap()
    }

    #[test]
    fn tuned_plans_verify_clean_on_all_models() {
        let platform = jetson_agx_xavier();
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let plan = tuned(&graph);
            let report = check_ownership(&graph, &plan, &platform);
            assert!(report.is_clean(), "{kind}: {:?}", report.diagnostics);
            assert!(report.ops > 0);
            assert_eq!(report.lives.len(), graph.len() - 1, "{kind}");
        }
    }

    #[test]
    fn certified_weights_are_what_the_footprint_counts() {
        // Tier D certifies the weights the layers hold, as `footprint`
        // counts them: a conv's GEMM padding rows and, under an int8
        // plan, the int8 sidecar on top of the plain parameters.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            for config in [ExecutionConfig::edgenn(), ExecutionConfig::edgenn_int8()] {
                let plan = tuner.plan(&graph, &runtime, config).unwrap();
                let certified = check_ownership(&graph, &plan, &platform).bound;
                let held = footprint::footprint(&graph, &plan).unwrap();
                assert_eq!(
                    certified.weight_bytes, held.weight_bytes,
                    "{kind} {:?}",
                    config.precision
                );
            }
        }
    }

    #[test]
    fn certified_slot_component_is_the_sum_of_non_input_outputs() {
        let platform = jetson_agx_xavier();
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let plan = tuned(&graph);
        let report = check_ownership(&graph, &plan, &platform);
        let expected: u64 = graph
            .nodes()
            .iter()
            .skip(1)
            .map(|n| (n.output_shape().num_elements() * 4) as u64)
            .sum();
        assert_eq!(report.bound.slot_bytes, expected);
        assert!(report.bound.total_bytes >= report.bound.liveness_peak_bytes);
    }

    #[test]
    fn split_nodes_double_the_arena_bound() {
        let platform = jetson_agx_xavier();
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let solo = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        let mut split = solo.clone();
        for node in &mut split.nodes {
            node.assignment = Assignment::Split { cpu_fraction: 0.5 };
        }
        let a = check_ownership(&graph, &solo, &platform).bound.arena_bytes;
        let b = check_ownership(&graph, &split, &platform).bound.arena_bytes;
        assert!(a > 0, "LeNet convs must have an arena bound");
        assert_eq!(b, 2 * a, "each split role brings its own arena");
    }

    #[test]
    fn splits_with_one_unit_to_share_lower_as_whole_nodes() {
        // Softmax has one unit and LeNet's conv1 one input channel: the
        // engine runs each split whole, so the lowered schedule holds no
        // merge for either and certifies what the unsplit plan does.
        let platform = jetson_agx_xavier();
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let cpu = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes: vec![
                NodePlan {
                    assignment: Assignment::Cpu,
                    ..NodePlan::gpu_explicit()
                };
                graph.len()
            ],
        };
        let node = |name| (graph.nodes().iter().position(|n| n.layer().name() == name)).unwrap();
        let mut split = cpu.clone();
        split.nodes[node("softmax")].assignment = Assignment::Split { cpu_fraction: 0.5 };
        split.nodes[node("conv1")].assignment = Assignment::SplitInput { cpu_fraction: 0.5 };
        let program = Program::new(&graph).unwrap();
        let schedule = program.lower(&split);
        assert!(!schedule.ops().any(|op| matches!(op, Op::Merge { .. })));
        assert_eq!(schedule, program.lower(&cpu));
        assert_eq!(
            check_ownership(&graph, &split, &platform).bound,
            check_ownership(&graph, &cpu, &platform).bound
        );
    }

    /// input -> relu -> relu over `[4]` floats, or, with `orphan`, an
    /// input feeding two relus that never rejoin; planned on the GPU.
    fn relus(orphan: bool) -> (Graph, ExecutionPlan) {
        use edgenn_nn::graph::{Node, NodeId};
        use edgenn_nn::layer::{InputLayer, Relu};
        use std::sync::Arc;
        let shape = edgenn_tensor::Shape::new(&[4]);
        let relu = |name, input| Node::new(Arc::new(Relu::new(name)), vec![input], shape.clone());
        let input = Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape.clone(),
        );
        let b_input = if orphan { NodeId(0) } else { NodeId(1) };
        let nodes = vec![input, relu("a", NodeId(0)), relu("b", b_input)];
        let plan = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes: vec![NodePlan::gpu_explicit(); nodes.len()],
        };
        (Graph::from_parts("relus", nodes, NodeId(2)), plan)
    }

    #[test]
    fn liveness_keeps_a_node_inputs_live_while_its_output_is_allocated() {
        // The second relu holds the first relu's 16 bytes and its own
        // 16 at once, on top of the 16-byte borrowed input.
        let (graph, plan) = relus(false);
        let report = check_ownership(&graph, &plan, &jetson_agx_xavier());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.bound.input_bytes, 16);
        assert_eq!(report.bound.liveness_peak_bytes, 48);
    }

    #[test]
    fn undecomposable_graph_reports_ec006_and_derives_no_lives() {
        // input feeding two relus that never rejoin: decompose rejects
        // it (dead-end branch), and so do the engine and the planners,
        // so tier D has no schedule to prove.
        let (graph, plan) = relus(true);
        let report = check_ownership(&graph, &plan, &jetson_agx_xavier());
        let found: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(found, [codes::UNDECOMPOSABLE], "{:?}", report.diagnostics);
        assert!(report.lives.is_empty());
        assert_eq!(report.ops, 0);
        assert_eq!(derive_schedule(&graph, &plan), Schedule::default());
    }

    #[test]
    fn schedule_lowering_is_deterministic() {
        let graph = build(ModelKind::ResNet18, ModelScale::Tiny);
        let plan = tuned(&graph);
        assert_eq!(
            derive_schedule(&graph, &plan),
            derive_schedule(&graph, &plan)
        );
    }
}
