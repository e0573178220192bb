//! The lowered schedule: a graph as the engine runs it, and the slot and
//! arena operations that run performs under a plan.
//!
//! A [`Program`] resolves a graph's fork-join [`Segment`]s once. The
//! functional engine executes its segments, the analytic simulator and
//! the tuner walk them, and [`Program::lower`] turns them and a plan into
//! the [`Schedule`] of ops the engine performs, which the `edgenn-check`
//! tier-D interpreter proves. [`liveness_peak`] is the one node-level
//! liveness sweep over that schedule, shared by [`crate::footprint`] and
//! tier D.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use edgenn_nn::graph::{Graph, NodeId, Segment, Structure};
use edgenn_nn::layer::{Layer, LayerClass};
use serde::Serialize;

use crate::plan::{Assignment, ExecutionPlan};
use crate::Result;

/// The graph as the engine runs it, shared by `Arc` with the engine's
/// pooled jobs so they can be `'static`. Each consumer builds it once per
/// graph — the engine once per executor, and the serving layer builds one
/// executor per batch — so it is kept flat: the graph's own `Arc` layers,
/// every node's [`Facts`], plus every node's input edges and output dims
/// copied into two arrays, node `i`'s share delimited by
/// `bounds[i]..bounds[i + 1]`.
pub struct Program {
    layers: Vec<Arc<dyn Layer>>,
    facts: Vec<Facts>,
    edges: Vec<NodeId>,
    dims: Vec<usize>,
    bounds: Vec<(usize, usize)>,
    output: NodeId,
    structure: Structure,
    /// Per segment, the flops a fork would hand to the pool: every
    /// non-empty branch but the last, which the driver runs itself (0 for
    /// a chain).
    fork_flops: Vec<u64>,
}

/// What the engine and the memory accounting need of one node's layer,
/// asked once over [`Graph::input_shapes`] when the [`Program`] is built.
/// A node whose shapes do not resolve (tier A diagnoses it) reads one
/// unit, one channel, no flops and no scratch.
#[derive(Clone, Copy)]
pub(crate) struct Facts {
    /// [`Layer::partition_units`]: what an output-channel split shares out.
    pub(crate) units: usize,
    /// [`Layer::input_channels`]: what an input-channel split shares out.
    pub(crate) channels: usize,
    /// The flops of [`Layer::workload`].
    pub(crate) flops: u64,
    /// [`Layer::scratch_bytes`]: the node's scratch-arena bound.
    pub(crate) scratch_bytes: u64,
}

impl Program {
    /// Resolves `graph`'s fork-join structure, copies its layers, edges
    /// and dims, and asks each node's layer for its [`Facts`].
    ///
    /// # Errors
    /// Fails when the graph has no valid fork-join decomposition.
    pub fn new(graph: &Graph) -> Result<Self> {
        let nodes = graph.nodes();
        let mut layers = Vec::with_capacity(nodes.len());
        let mut facts = Vec::with_capacity(nodes.len());
        let mut edges = Vec::with_capacity(nodes.iter().map(|n| n.inputs().len()).sum());
        let mut dims = Vec::with_capacity(nodes.iter().map(|n| n.output_shape().rank()).sum());
        let mut bounds = Vec::with_capacity(nodes.len() + 1);
        for (id, node) in graph.topo_order().zip(nodes) {
            bounds.push((edges.len(), dims.len()));
            layers.push(node.layer_arc());
            let (layer, shapes) = (node.layer(), graph.input_shapes(id).ok());
            let shapes = shapes.as_deref();
            facts.push(Facts {
                units: shapes.map_or(1, |s| layer.partition_units(s).unwrap_or(1)),
                channels: shapes.map_or(1, |s| layer.input_channels(s).unwrap_or(1)),
                flops: shapes.map_or(0, |s| layer.workload(s).map_or(0, |w| w.flops)),
                scratch_bytes: shapes.map_or(0, |s| layer.scratch_bytes(s).unwrap_or(0)),
            });
            edges.extend_from_slice(node.inputs());
            dims.extend_from_slice(node.output_shape().dims());
        }
        bounds.push((edges.len(), dims.len()));
        let structure = graph.structure()?;
        let fork_flops = structure
            .segments()
            .iter()
            .map(|segment| {
                let Segment::Parallel { branches, .. } = segment else {
                    return 0;
                };
                let mut real = branches.iter().filter(|b| !b.is_empty());
                real.next_back(); // the driver's own branch
                real.flatten().map(|id| facts[id.index()].flops).sum()
            })
            .collect();
        Ok(Self {
            layers,
            facts,
            edges,
            dims,
            bounds,
            output: graph.output_id(),
            structure,
            fork_flops,
        })
    }

    pub(crate) fn facts(&self, id: NodeId) -> Facts {
        self.facts[id.index()]
    }

    pub(crate) fn layer(&self, id: NodeId) -> &dyn Layer {
        &*self.layers[id.index()]
    }

    pub(crate) fn inputs(&self, id: NodeId) -> &[NodeId] {
        &self.edges[self.bounds[id.index()].0..self.bounds[id.index() + 1].0]
    }

    pub(crate) fn dims(&self, id: NodeId) -> &[usize] {
        &self.dims[self.bounds[id.index()].1..self.bounds[id.index() + 1].1]
    }

    /// The fork-join segments in execution order.
    pub(crate) fn segments(&self) -> &[Segment] {
        self.structure.segments()
    }

    /// The branches of segment `seg` (empty for a chain).
    pub(crate) fn branches(&self, seg: usize) -> &[Vec<NodeId>] {
        match &self.segments()[seg] {
            Segment::Parallel { branches, .. } => branches,
            Segment::Chain(_) => &[],
        }
    }

    pub(crate) fn fork_flops(&self, seg: usize) -> u64 {
        self.fork_flops[seg]
    }

    /// How node `id` runs, planned as `assignment`: a split with fewer
    /// than two units (or input channels) to share runs whole, as
    /// [`Assignment::Cpu`]; the engine and [`Program::lower`] both ask.
    pub(crate) fn run_as(&self, id: NodeId, assignment: Assignment) -> Assignment {
        let facts = self.facts(id);
        match assignment {
            Assignment::Split { .. } if facts.units < 2 => Assignment::Cpu,
            Assignment::SplitInput { .. } if facts.channels < 2 => Assignment::Cpu,
            assignment => assignment,
        }
    }

    /// Lowers this program under `plan` into the ops the engine performs:
    /// a region per segment, keeping a fork-join region's branches apart
    /// (the engine may run them on different threads), then the output
    /// handoff.
    pub fn lower(&self, plan: &ExecutionPlan) -> Schedule {
        if self.layers.is_empty() {
            return Schedule::default();
        }
        let lower = |nodes: &[NodeId]| {
            let mut ops = Vec::new();
            for &id in nodes {
                self.lower_node(plan, id, &mut ops);
            }
            ops
        };
        let mut regions: Vec<Region> = self
            .segments()
            .iter()
            .map(|segment| match segment {
                Segment::Chain(nodes) => Region::Serial(lower(nodes)),
                Segment::Parallel { branches, .. } => {
                    Region::Parallel(branches.iter().map(|b| lower(b)).collect())
                }
            })
            .collect();
        let slot = self.output.index();
        regions.push(Region::Serial(vec![Op::MoveOut { slot }]));
        Schedule { regions }
    }

    /// Lowers one node into the ops the engine performs for it; the input
    /// pseudo-node is the borrowed network input and performs none.
    fn lower_node(&self, plan: &ExecutionPlan, id: NodeId, ops: &mut Vec<Op>) {
        let layer = self.layer(id);
        if layer.class() == LayerClass::Input {
            return;
        }
        let node = id.index();
        let inputs = self.inputs(id);
        ops.extend(inputs.iter().map(|i| Op::Read {
            node,
            slot: i.index(),
        }));
        // Split assignments run two role computations, maybe on two
        // threads with two arenas, and merge them in place.
        let split =
            (plan.nodes.get(node)).is_some_and(|p| self.run_as(id, p.assignment).is_corun());
        // `scratch_bytes` is the byte-accurate bound across every execution
        // path *and precision* (the int8 kernels' widened i16 packing can
        // exceed the f32 path's elems x 4), so one certified bound holds for
        // plans of either precision.
        let arena = self.facts(id).scratch_bytes * if split { 2 } else { 1 };
        if arena > 0 {
            ops.push(Op::ArenaAcquire { node, bytes: arena });
            ops.push(Op::ArenaRelease { node });
        }
        if split {
            ops.push(Op::Merge { node, target: node });
        }
        ops.push(Op::Write { node, slot: node });
    }
}

/// One abstract operation of the lowered engine schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Op {
    /// Node `node` reads the tensor in `slot` by reference.
    Read {
        /// The consuming node.
        node: usize,
        /// The slot read.
        slot: usize,
    },
    /// Node `node` moves its freshly computed tensor into `slot`.
    Write {
        /// The producing node.
        node: usize,
        /// The slot written (the engine always uses the node's own).
        slot: usize,
    },
    /// Node `node` merges split partials in place into `target`'s
    /// pending buffer (before the buffer becomes the `Write`).
    Merge {
        /// The split node performing the merge.
        node: usize,
        /// The pending slot the partials merge into.
        target: usize,
    },
    /// Node `node` acquires `bytes` of scratch-arena capacity (the
    /// static bound over all its role computations).
    ArenaAcquire {
        /// The owning node.
        node: usize,
        /// Certified acquisition bound in bytes.
        bytes: u64,
    },
    /// Node `node` returns its scratch buffers to the arena (LIFO).
    ArenaRelease {
        /// The owning node.
        node: usize,
    },
    /// The session moves the tensor out of `slot` (the output handoff).
    MoveOut {
        /// The slot whose value moves out.
        slot: usize,
    },
}

/// A region of the schedule: sequential ops, or fork-join branches whose
/// op lists run concurrently on pool workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Region {
    /// Ops executed in order on one thread.
    Serial(Vec<Op>),
    /// Per-branch op lists with no cross-branch ordering.
    Parallel(Vec<Vec<Op>>),
}

impl Region {
    /// The region's ops, branch by branch for a fork-join region.
    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        let (serial, branches) = match self {
            Region::Serial(ops) => (ops.as_slice(), &[][..]),
            Region::Parallel(branches) => (&[][..], branches.as_slice()),
        };
        serial.iter().chain(branches.iter().flatten())
    }
}

/// The lowered schedule of one `(graph, plan)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Regions in execution order.
    pub regions: Vec<Region>,
}

impl Schedule {
    /// Every op in run order, branch by branch within a region.
    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.regions.iter().flat_map(Region::ops)
    }

    /// Total op count across all regions.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops().count()
    }
}

/// Peak live bytes over `schedule`, node by node: each `Write` allocates
/// its slot while every slot its node read is still live, then frees each
/// slot that node was the last to read. The `live_in` slots are live
/// before the first op; `keep` (the network output) and slots nobody
/// reads stay live to the end.
pub fn liveness_peak(
    schedule: &Schedule,
    live_in: &[usize],
    bytes: impl Fn(usize) -> u64,
    keep: usize,
) -> u64 {
    let mut last_read = HashMap::new();
    for (at, op) in schedule.ops().enumerate() {
        if let Op::Read { slot, .. } = *op {
            last_read.insert(slot, at);
        }
    }
    let mut held: HashSet<usize> = live_in.iter().copied().collect();
    let mut live: u64 = held.iter().map(|&slot| bytes(slot)).sum();
    let mut peak = live;
    let mut dying = Vec::new();
    for (at, op) in schedule.ops().enumerate() {
        match *op {
            Op::Read { slot, .. } if last_read[&slot] == at => dying.push(slot),
            Op::Write { slot, .. } => {
                live += bytes(slot);
                held.insert(slot);
                peak = peak.max(live);
                for slot in dying.drain(..) {
                    if slot != keep && held.remove(&slot) {
                        live -= bytes(slot);
                    }
                }
            }
            _ => {}
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Assignment, ExecutionConfig, NodePlan};
    use edgenn_nn::models::{build, ModelKind, ModelScale};

    #[test]
    fn arena_bound_is_byte_accurate_across_element_widths() {
        // The certified arena component is each node's
        // `Layer::scratch_bytes`, byte-accurate across precisions. Models
        // with dense layers carry it beyond the f32 kernels' needs: the
        // f32 mat-vec touches no arena, but the int8 path quantizes its
        // input into scratch.
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn_int8(),
                nodes: vec![
                    NodePlan {
                        assignment: Assignment::Cpu,
                        ..NodePlan::gpu_explicit()
                    };
                    graph.len()
                ],
            };
            // The certified arena component: every acquisition's bound.
            let arena: u64 = (Program::new(&graph).unwrap().lower(&plan).ops())
                .map(|op| match *op {
                    Op::ArenaAcquire { bytes, .. } => bytes,
                    _ => 0,
                })
                .sum();
            let bound = |class: Option<LayerClass>| -> u64 {
                graph
                    .topo_order()
                    .map(|id| (graph.node(id).unwrap().layer(), id))
                    .filter(|(layer, _)| class.is_none_or(|c| layer.class() == c))
                    .map(|(layer, id)| {
                        let shapes = graph.input_shapes(id).unwrap();
                        layer.scratch_bytes(&shapes).unwrap()
                    })
                    .sum()
            };
            assert_eq!(arena, bound(None), "{kind}");
            let has_fc = graph
                .nodes()
                .iter()
                .any(|n| n.layer().class() == LayerClass::Fc);
            if has_fc {
                assert!(
                    bound(Some(LayerClass::Fc)) > 0,
                    "{kind}: dense layers must bound their int8 input copy"
                );
            }
        }
    }
}
