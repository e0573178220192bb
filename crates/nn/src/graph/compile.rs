//! The graph compiler: a multi-pass optimizer that runs between model
//! construction and plan generation.
//!
//! The committed benches showed F32 hybrid trailing the single-processor
//! reference on every model even after the microkernel work: per-node
//! dispatch, full-tensor activation sweeps, and first-call weight packing
//! ate the kernel wins. The fix is the classic one — compile the graph
//! before tuning it ("A Unified Optimization Approach for CNN Model
//! Inference on Integrated GPUs" reports operator fusion + layout
//! selection as the dominant wins on exactly this hardware class):
//!
//! 1. **identity-elim** — inference-time identities (dropout, full-range
//!    slices, ReLU after an already-clamped output) vanish.
//! 2. **fuse-activations** — a ReLU whose producer has no other consumer
//!    folds into that producer's write-back epilogue ([`FusedRelu`]),
//!    removing a full pass over memory and a dispatch per activation.
//! 3. **fold-constants** — nodes whose inputs are all compile-time
//!    constants are evaluated once, here, into [`Constant`] nodes.
//! 4. **simplify-slices** — a concat of in-order slices covering one
//!    producer cancels to the producer itself.
//! 5. **dce** — nodes no longer reachable from the sink are dropped.
//!
//! The pipeline iterates to a fixpoint (each pass can expose work for the
//! others), then a **prepack** step materializes every surviving layer's
//! weights into the GEMM/qgemm panel layouts so steady-state inference
//! does zero packing work.
//!
//! Every rewrite is *exact* for f32: fused epilogues clamp in registers
//! with the same operation order as the separate activation pass, so the
//! compiled graph's forward output is bitwise identical to the original
//! (the proptests assert `==`, not approx). Rewrite legality is
//! re-verified downstream by `edgenn-check` tier A plus the EC06x codes.

use std::ops::Range;
use std::sync::Arc;

use edgenn_tensor::Shape;

use crate::graph::{fuse::FusedRelu, Graph, Node, NodeId};
use crate::layer::{Constant, Layer, Role};
use crate::{NnError, Result};

/// Fixpoint guard: the most pipeline iterations [`compile`] runs.
const MAX_ITERATIONS: usize = 10;

/// Which rewrite passes run, and which precisions get weights prepacked.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The rewrite passes to run.
    pub passes: Passes,
    /// Prepack f32 weights into GEMM panel layout.
    pub prepack_f32: bool,
    /// Quantize + prepack int8 weights into qgemm panel layout.
    pub prepack_int8: bool,
}

/// The rewrite pass sets [`compile`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// Every pass of the pipeline.
    All,
    /// `fuse-activations` alone: the graph the fusion ablation measures.
    FuseOnly,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            passes: Passes::All,
            prepack_f32: true,
            prepack_int8: false,
        }
    }
}

impl CompileOptions {
    /// Options for an int8 deployment: every pass, both packings.
    #[must_use]
    pub fn int8() -> Self {
        Self {
            prepack_int8: true,
            ..Self::default()
        }
    }
}

/// Node/edge delta recorded for one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassDelta {
    /// Stable pass name (`identity-elim`, `fuse-activations`, ...).
    pub pass: &'static str,
    /// Fixpoint iteration this execution belongs to (1-based).
    pub iteration: usize,
    /// Node count before the pass ran.
    pub nodes_before: usize,
    /// Node count after.
    pub nodes_after: usize,
    /// Edge count before.
    pub edges_before: usize,
    /// Edge count after.
    pub edges_after: usize,
    /// Individual rewrites applied (0 = the pass was a no-op).
    pub rewrites: usize,
}

/// What [`compile`] did to a graph.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Model name.
    pub model: String,
    /// Node count before compilation (including the input pseudo-node).
    pub nodes_pre: usize,
    /// Node count after.
    pub nodes_post: usize,
    /// Edge count before.
    pub edges_pre: usize,
    /// Edge count after.
    pub edges_post: usize,
    /// Every pass execution, in order.
    pub passes: Vec<PassDelta>,
    /// Fixpoint iterations run.
    pub iterations: usize,
    /// Weight bytes packed at compile time (f32 + int8).
    pub prepacked_bytes: u64,
    /// Nodes whose weights were prepacked.
    pub prepacked_nodes: usize,
}

impl CompileReport {
    /// Nodes removed across the whole pipeline.
    #[must_use]
    pub fn nodes_eliminated(&self) -> usize {
        self.nodes_pre.saturating_sub(self.nodes_post)
    }

    /// Pass executions that changed the graph.
    #[must_use]
    pub fn passes_applied(&self) -> usize {
        self.passes.iter().filter(|p| p.rewrites > 0).count()
    }
}

/// Per-node rewrite decision, in old-graph id space.
enum Decision {
    /// Copy the node (inputs remapped, shape re-inferred).
    Keep,
    /// The node vanishes; consumers are rewired to `target` (an old id
    /// that must resolve earlier in topological order).
    Redirect(NodeId),
    /// Swap the layer; `inputs` overrides the edge list when `Some`.
    Replace {
        layer: Arc<dyn Layer>,
        inputs: Option<Vec<NodeId>>,
    },
    /// Remove the node and its edges entirely (dce only — the caller
    /// guarantees no live consumer references it).
    Drop,
}

fn edge_count(graph: &Graph) -> usize {
    graph.nodes().iter().map(|n| n.inputs().len()).sum()
}

/// Applies a decision vector, producing the rewritten graph.
///
/// Shapes are re-inferred from the (remapped) input shapes rather than
/// copied, so an illegal rewrite fails here instead of at execution time.
/// The result is assembled with [`Graph::from_parts`]: passes are allowed
/// to orphan nodes (constant folding strands the folded subgraph) and the
/// dce pass sweeps them before the compiled graph leaves [`compile`].
fn apply(graph: &Graph, decisions: &[Decision]) -> Result<Graph> {
    debug_assert_eq!(decisions.len(), graph.len());
    let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut nodes: Vec<Node> = Vec::with_capacity(graph.len());
    for id in graph.topo_order() {
        let node = graph.node(id)?;
        if id == graph.input_id() {
            remap[id.index()] = Some(NodeId(0));
            nodes.push(Node::new(
                node.layer_arc(),
                vec![],
                node.output_shape().clone(),
            ));
            continue;
        }
        let (layer, old_inputs): (Arc<dyn Layer>, &[NodeId]) = match &decisions[id.index()] {
            Decision::Drop => continue,
            Decision::Redirect(target) => {
                remap[id.index()] = remap[target.index()];
                if remap[id.index()].is_none() {
                    return Err(NnError::InvalidGraph {
                        reason: format!(
                            "compiler redirected node {} to unresolved node {}",
                            id.index(),
                            target.index()
                        ),
                    });
                }
                continue;
            }
            Decision::Keep => (node.layer_arc(), node.inputs()),
            Decision::Replace { layer, inputs } => (
                Arc::clone(layer),
                inputs.as_deref().unwrap_or(node.inputs()),
            ),
        };
        let mut inputs = Vec::with_capacity(old_inputs.len());
        for old in old_inputs {
            inputs.push(remap[old.index()].ok_or_else(|| NnError::InvalidGraph {
                reason: format!(
                    "compiler rewired node {} to a dropped input {}",
                    id.index(),
                    old.index()
                ),
            })?);
        }
        let shapes: Vec<&Shape> = inputs
            .iter()
            .map(|i| nodes[i.index()].output_shape())
            .collect();
        let output_shape = layer.output_shape(&shapes)?;
        remap[id.index()] = Some(NodeId(nodes.len()));
        nodes.push(Node::new(layer, inputs, output_shape));
    }
    let output = remap[graph.output_id().index()].ok_or_else(|| NnError::InvalidGraph {
        reason: "compiler removed the output node".to_string(),
    })?;
    Ok(Graph::from_parts(graph.name(), nodes, output))
}

/// Removes inference-time identities: [`Role::Identity`] nodes
/// (dropout), full-range slices, and a ReLU whose producer's output is
/// already clamped (a preceding ReLU or a fused `+relu` epilogue).
fn pass_identity_elim(graph: &Graph) -> Result<(Graph, usize)> {
    let mut decisions: Vec<Decision> = graph.topo_order().map(|_| Decision::Keep).collect();
    let mut rewrites = 0;
    for id in graph.topo_order().skip(1) {
        let node = graph.node(id)?;
        let identity = match node.layer().role() {
            Role::Identity => true,
            Role::Relu => {
                let producer = graph.node(node.inputs()[0])?.layer();
                producer.role() == Role::Relu || producer.deferred_epilogue_relu()
            }
            Role::Slice(r) => {
                r.start == 0
                    && graph
                        .node(node.inputs()[0])
                        .is_ok_and(|p| p.output_shape().dim(0).is_ok_and(|d| d == r.end))
            }
            Role::Kernel | Role::Constant(_) | Role::Concat => false,
        };
        if identity && node.inputs().len() == 1 {
            // Identities are arity-1 and shape-preserving, so consumers
            // can take the producer's tensor directly. The one forbidden
            // elision: an identity that is the sink AND fed by the input
            // pseudo-node — removing it would leave a layer-less graph.
            let producer = node.inputs()[0];
            if !(id == graph.output_id() && producer == graph.input_id()) {
                decisions[id.index()] = Decision::Redirect(producer);
                rewrites += 1;
            }
        }
    }
    Ok((apply(graph, &decisions)?, rewrites))
}

/// Folds a ReLU into its sole-consumer producer's epilogue.
///
/// It handles any producer with a fused epilogue — conv and dense clamp in
/// the GEMM write-back, residual adds clamp in the same elementwise loop,
/// and everything else falls back to an in-place clamp on the partial
/// (still one fewer node, dispatch, and intermediate).
pub(crate) fn pass_fuse_activations(graph: &Graph) -> Result<(Graph, usize)> {
    let mut decisions: Vec<Decision> = graph.topo_order().map(|_| Decision::Keep).collect();
    let mut fused_into: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut rewrites = 0;
    for id in graph.topo_order().skip(1) {
        let node = graph.node(id)?;
        if node.layer().role() != Role::Relu {
            continue;
        }
        let producer = node.inputs()[0];
        if producer == graph.input_id() {
            continue;
        }
        let player = graph.node(producer)?.layer();
        // The producer must feed only this ReLU, must not itself be (or
        // already carry) a ReLU, and must not be a constant — folding an
        // activation into a constant is the constant-folder's job.
        let fusible = match player.role() {
            Role::Relu | Role::Constant(_) => false,
            Role::Kernel | Role::Identity | Role::Concat | Role::Slice(_) => {
                !player.deferred_epilogue_relu()
            }
        };
        if fusible
            && graph.successors(producer).len() == 1
            && fused_into[producer.index()].is_none()
        {
            fused_into[id.index()] = Some(producer);
            decisions[id.index()] = Decision::Redirect(producer);
            decisions[producer.index()] = Decision::Replace {
                layer: Arc::new(FusedRelu::new(graph.node(producer)?.layer_arc())),
                inputs: None,
            };
            rewrites += 1;
        }
    }
    Ok((apply(graph, &decisions)?, rewrites))
}

/// Evaluates every node whose inputs are all compile-time constants,
/// replacing it with a [`Constant`] holding the result.
fn pass_fold_constants(graph: &Graph) -> Result<(Graph, usize)> {
    let mut decisions: Vec<Decision> = graph.topo_order().map(|_| Decision::Keep).collect();
    // Constness propagates in topo order: a node folded earlier in this
    // sweep counts as constant for its consumers.
    let mut values: Vec<Option<edgenn_tensor::Tensor>> = graph
        .nodes()
        .iter()
        .map(|n| match n.layer().role() {
            Role::Constant(value) => Some(value.clone()),
            Role::Kernel | Role::Relu | Role::Identity | Role::Concat | Role::Slice(_) => None,
        })
        .collect();
    let mut rewrites = 0;
    for id in graph.topo_order().skip(1) {
        let node = graph.node(id)?;
        if values[id.index()].is_some() || node.inputs().is_empty() {
            continue;
        }
        if !node.inputs().iter().all(|i| values[i.index()].is_some()) {
            continue;
        }
        let inputs: Vec<&edgenn_tensor::Tensor> = node
            .inputs()
            .iter()
            .map(|i| values[i.index()].as_ref().expect("folded input has value"))
            .collect();
        let result = node.layer().forward(&inputs)?;
        decisions[id.index()] = Decision::Replace {
            layer: Arc::new(Constant::new(
                format!("{}#folded", node.layer().name()),
                result.clone(),
            )),
            inputs: Some(vec![]),
        };
        values[id.index()] = Some(result);
        rewrites += 1;
    }
    Ok((apply(graph, &decisions)?, rewrites))
}

/// Cancels a concat of in-order slices that exactly covers one producer:
/// `concat(x[0..a], x[a..b], ..., x[c..n]) == x`.
fn pass_simplify_slices(graph: &Graph) -> Result<(Graph, usize)> {
    let mut decisions: Vec<Decision> = graph.topo_order().map(|_| Decision::Keep).collect();
    let mut rewrites = 0;
    'nodes: for id in graph.topo_order().skip(1) {
        let node = graph.node(id)?;
        // Only a *pure* concat is the identity over a covering split —
        // a fused `concat+relu` transforms its inputs and must survive.
        if node.inputs().len() < 2 || node.layer().role() != Role::Concat {
            continue;
        }
        // All inputs must be slices of one common producer...
        let mut producer: Option<NodeId> = None;
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(node.inputs().len());
        for &slice_id in node.inputs() {
            let slice = graph.node(slice_id)?;
            let Role::Slice(range) = slice.layer().role() else {
                continue 'nodes;
            };
            match producer {
                None => producer = Some(slice.inputs()[0]),
                Some(p) if p == slice.inputs()[0] => {}
                Some(_) => continue 'nodes,
            }
            ranges.push(range);
        }
        let producer = producer.expect("arity >= 2 checked");
        // ...and cover it, in order, without gaps or overlap.
        let Ok(units) = graph.node(producer)?.output_shape().dim(0) else {
            continue;
        };
        let mut cursor = 0;
        for r in &ranges {
            if r.start != cursor {
                continue 'nodes;
            }
            cursor = r.end;
        }
        if cursor != units {
            continue;
        }
        // The concat result must really be the producer tensor: the
        // concat's output shape equals the producer's.
        if node.output_shape() != graph.node(producer)?.output_shape() {
            continue;
        }
        decisions[id.index()] = Decision::Redirect(producer);
        rewrites += 1;
    }
    Ok((apply(graph, &decisions)?, rewrites))
}

/// Drops every node unreachable by walking the sink's ancestry.
fn pass_dce(graph: &Graph) -> Result<(Graph, usize)> {
    let mut live = vec![false; graph.len()];
    let mut stack = vec![graph.output_id()];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.index()], true) {
            continue;
        }
        stack.extend_from_slice(graph.node(id)?.inputs());
    }
    live[graph.input_id().index()] = true;
    let decisions: Vec<Decision> = live
        .iter()
        .map(|&l| if l { Decision::Keep } else { Decision::Drop })
        .collect();
    let rewrites = live.iter().filter(|&&l| !l).count();
    Ok((apply(graph, &decisions)?, rewrites))
}

type Pass = fn(&Graph) -> Result<(Graph, usize)>;

/// Rewrite pass names in pipeline order. Mirrored by the pass table in
/// `docs/compiler.md` (a doc-sync test keeps the two aligned) and by the
/// `edgenn_compiler_*` observability counters' `pass` dimension.
pub const PASS_NAMES: [&str; 5] = [
    "identity-elim",
    "simplify-slices",
    "fuse-activations",
    "fold-constants",
    "dce",
];

/// Compiles `graph`: runs the rewrite pipeline to a fixpoint, then
/// prepacks surviving weights, returning the optimized graph and a
/// [`CompileReport`] of everything that happened.
///
/// # Errors
/// Propagates shape-inference failures from illegal rewrites (which
/// indicate a compiler bug — the checker's EC06x tier re-verifies the
/// output independently) and graph access errors.
pub fn compile(graph: &Graph, options: &CompileOptions) -> Result<(Graph, CompileReport)> {
    let mut report = CompileReport {
        model: graph.name().to_string(),
        nodes_pre: graph.len(),
        edges_pre: edge_count(graph),
        ..CompileReport::default()
    };
    // simplify-slices runs before fusion so a cancellable concat is gone
    // before an activation could fuse into it and pin it in place.
    let all: [(&'static str, Pass); 5] = [
        (PASS_NAMES[0], pass_identity_elim),
        (PASS_NAMES[1], pass_simplify_slices),
        (PASS_NAMES[2], pass_fuse_activations),
        (PASS_NAMES[3], pass_fold_constants),
        (PASS_NAMES[4], pass_dce),
    ];
    let passes = match options.passes {
        Passes::All => &all[..],
        Passes::FuseOnly => &all[2..3],
    };

    let mut current = apply(
        graph,
        &graph
            .topo_order()
            .map(|_| Decision::Keep)
            .collect::<Vec<_>>(),
    )?;
    for iteration in 1..=MAX_ITERATIONS {
        report.iterations = iteration;
        let mut changed = false;
        for (name, pass) in passes {
            let nodes_before = current.len();
            let edges_before = edge_count(&current);
            let (next, rewrites) = pass(&current)?;
            report.passes.push(PassDelta {
                pass: name,
                iteration,
                nodes_before,
                nodes_after: next.len(),
                edges_before,
                edges_after: edge_count(&next),
                rewrites,
            });
            changed |= rewrites > 0;
            current = next;
        }
        if !changed {
            break;
        }
    }

    if options.prepack_f32 || options.prepack_int8 {
        for node in current.nodes() {
            let mut bytes = 0;
            if options.prepack_f32 {
                bytes += node.layer().prepack(false);
            }
            if options.prepack_int8 {
                bytes += node.layer().prepack(true);
            }
            if bytes > 0 {
                report.prepacked_nodes += 1;
                report.prepacked_bytes += bytes;
            }
        }
    }

    report.nodes_post = current.len();
    report.edges_post = edge_count(&current);
    Ok((current, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::layer::{AddResidual, Concat, Conv2d, Dense, Dropout, Relu, Slice};
    use crate::models::{build, ModelKind, ModelScale};
    use edgenn_tensor::Tensor;

    fn compiled(graph: &Graph) -> (Graph, CompileReport) {
        compile(graph, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn docs_list_every_pass_in_pipeline_order() {
        let docs = include_str!("../../../../docs/compiler.md");
        let rows: Vec<usize> = PASS_NAMES
            .iter()
            .map(|name| {
                docs.lines()
                    .position(|l| l.starts_with(&format!("| {name} |")))
                    .unwrap_or_else(|| panic!("pass {name} missing from docs/compiler.md"))
            })
            .collect();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "docs/compiler.md pass table is out of pipeline order"
        );
    }

    #[test]
    fn compiled_models_are_bitwise_identical_and_smaller() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let (opt, report) = compiled(&graph);
            assert!(
                opt.len() < graph.len(),
                "{kind}: compile should remove nodes ({} -> {})",
                graph.len(),
                opt.len()
            );
            assert_eq!(report.nodes_pre, graph.len());
            assert_eq!(report.nodes_post, opt.len());
            assert_eq!(opt.output_shape(), graph.output_shape());
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 99);
            let a = graph.forward(&input).unwrap();
            let b = opt.forward(&input).unwrap();
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{kind}: compiled forward must be bitwise identical"
            );
        }
    }

    #[test]
    fn dropout_and_redundant_relu_are_eliminated() {
        let mut b = GraphBuilder::new("ident", Shape::new(&[4]));
        let x = b.input_id();
        let d = b.add(Dense::new("fc", 4, 8, 0), &[x]).unwrap();
        let r1 = b.add(Relu::new("r1"), &[d]).unwrap();
        let r2 = b.add(Relu::new("r2"), &[r1]).unwrap();
        let dr = b.add(Dropout::new("drop"), &[r2]).unwrap();
        let _ = b.add(Dense::new("out", 8, 2, 1), &[dr]).unwrap();
        let graph = b.finish().unwrap();
        let (opt, report) = compiled(&graph);
        // fc+relu, out: 2 layer nodes + input.
        assert_eq!(opt.len(), 3);
        assert!(report.passes_applied() >= 2);
        assert!(opt.nodes().iter().any(|n| n.layer().name() == "fc+relu"));
        let input = Tensor::random(&[4], 1.0, 3);
        assert_eq!(
            graph.forward(&input).unwrap().as_slice(),
            opt.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn residual_relu_fuses_into_the_add() {
        let mut b = GraphBuilder::new("res", Shape::new(&[3, 4, 4]));
        let x = b.input_id();
        let c1 = b.add(Conv2d::new("c1", 3, 3, 3, 1, 1, 0), &[x]).unwrap();
        let add = b.add(AddResidual::new("add"), &[c1, x]).unwrap();
        let _ = b.add(Relu::new("r"), &[add]).unwrap();
        let graph = b.finish().unwrap();
        let (opt, _) = compiled(&graph);
        assert!(
            opt.nodes().iter().any(|n| n.layer().name() == "add+relu"),
            "post-residual relu fuses into the add"
        );
        let input = Tensor::random(&[3, 4, 4], 1.0, 5);
        assert_eq!(
            graph.forward(&input).unwrap().as_slice(),
            opt.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn constant_subgraphs_fold_and_dce_sweeps_them() {
        use crate::layer::Constant;
        let mut b = GraphBuilder::new("fold", Shape::new(&[4]));
        let x = b.input_id();
        let k1 = b
            .add(Constant::new("k1", Tensor::filled(&[4], 1.5)), &[])
            .unwrap();
        let k2 = b
            .add(Constant::new("k2", Tensor::filled(&[4], -1.0)), &[])
            .unwrap();
        let ksum = b.add(AddResidual::new("ksum"), &[k1, k2]).unwrap();
        let krelu = b.add(Relu::new("krelu"), &[ksum]).unwrap();
        let _ = b.add(AddResidual::new("mix"), &[x, krelu]).unwrap();
        let graph = b.finish().unwrap();
        let (opt, report) = compiled(&graph);
        // input, folded constant, mix.
        assert_eq!(opt.len(), 3, "constant subgraph folds to one node");
        assert!(report.nodes_eliminated() >= 2);
        let folded = opt
            .nodes()
            .iter()
            .find_map(|n| match n.layer().role() {
                Role::Constant(value) => Some(value),
                _ => None,
            })
            .expect("a folded constant survives");
        assert_eq!(folded.as_slice(), &[0.5; 4]);
        let input = Tensor::random(&[4], 1.0, 8);
        assert_eq!(
            graph.forward(&input).unwrap().as_slice(),
            opt.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn covering_slice_concat_cancels() {
        let mut b = GraphBuilder::new("sc", Shape::new(&[6, 2, 2]));
        let x = b.input_id();
        let c = b.add(Conv2d::new("c", 6, 6, 3, 1, 1, 0), &[x]).unwrap();
        let lo = b.add(Slice::new("lo", 0, 2), &[c]).unwrap();
        let mid = b.add(Slice::new("mid", 2, 5), &[c]).unwrap();
        let hi = b.add(Slice::new("hi", 5, 6), &[c]).unwrap();
        let cat = b.add(Concat::new("cat", 3), &[lo, mid, hi]).unwrap();
        let _ = b.add(Relu::new("r"), &[cat]).unwrap();
        let graph = b.finish().unwrap();
        let (opt, _) = compiled(&graph);
        // input + c+relu: the slices, concat, and relu all vanish.
        assert_eq!(opt.len(), 2);
        assert!(opt.nodes().iter().any(|n| n.layer().name() == "c+relu"));
        let input = Tensor::random(&[6, 2, 2], 1.0, 11);
        assert_eq!(
            graph.forward(&input).unwrap().as_slice(),
            opt.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn non_covering_or_reordered_slices_do_not_cancel() {
        for (ranges, label) in [
            (vec![(0usize, 2usize), (3, 6)], "gap"),
            (vec![(2, 6), (0, 2)], "reordered"),
            (vec![(0, 2), (2, 5)], "short"),
        ] {
            let mut b = GraphBuilder::new("sc", Shape::new(&[6, 2, 2]));
            let x = b.input_id();
            let parts: Vec<NodeId> = ranges
                .iter()
                .enumerate()
                .map(|(i, &(s, e))| b.add(Slice::new(format!("s{i}"), s, e), &[x]).unwrap())
                .collect();
            let _ = b.add(Concat::new("cat", parts.len()), &parts).unwrap();
            let graph = b.finish().unwrap();
            let (opt, _) = compiled(&graph);
            assert!(
                opt.nodes().iter().any(|n| n.layer().name() == "cat"),
                "{label}: concat must survive"
            );
            let input = Tensor::random(&[6, 2, 2], 1.0, 13);
            assert_eq!(
                graph.forward(&input).unwrap().as_slice(),
                opt.forward(&input).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn full_range_slice_is_removed_as_identity() {
        let mut b = GraphBuilder::new("fs", Shape::new(&[4, 2, 2]));
        let x = b.input_id();
        let c = b.add(Conv2d::new("c", 4, 4, 3, 1, 1, 0), &[x]).unwrap();
        let s = b.add(Slice::new("full", 0, 4), &[c]).unwrap();
        let _ = b.add(Relu::new("r"), &[s]).unwrap();
        let graph = b.finish().unwrap();
        let (opt, _) = compiled(&graph);
        assert_eq!(opt.len(), 2);
        let input = Tensor::random(&[4, 2, 2], 1.0, 17);
        assert_eq!(
            graph.forward(&input).unwrap().as_slice(),
            opt.forward(&input).unwrap().as_slice()
        );
    }

    #[test]
    fn prepack_reports_bytes_once_and_is_idempotent() {
        let graph = build(ModelKind::AlexNet, ModelScale::Tiny);
        let (_, first) = compile(&graph, &CompileOptions::default()).unwrap();
        assert!(first.prepacked_bytes > 0, "convs pack panel weights");
        assert!(first.prepacked_nodes > 0);
        // Layers are shared Arcs: compiling the same graph again finds
        // everything already packed.
        let (_, second) = compile(&graph, &CompileOptions::default()).unwrap();
        assert_eq!(second.prepacked_bytes, 0, "prepack is idempotent");
        // With both packings off, a fresh graph gets nothing packed.
        let fresh = build(ModelKind::AlexNet, ModelScale::Tiny);
        let unpacked = CompileOptions {
            prepack_f32: false,
            ..CompileOptions::default()
        };
        let (_, none) = compile(&fresh, &unpacked).unwrap();
        assert_eq!(none.prepacked_bytes, 0);
        assert_eq!(none.prepacked_nodes, 0);
    }

    #[test]
    fn int8_options_pack_quantized_weights_too() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let (_, f32_only) = compile(&graph, &CompileOptions::default()).unwrap();
        let graph2 = build(ModelKind::LeNet, ModelScale::Tiny);
        let (_, both) = compile(&graph2, &CompileOptions::int8()).unwrap();
        assert!(both.prepacked_bytes > f32_only.prepacked_bytes);
    }

    #[test]
    fn fixpoint_terminates_and_second_compile_is_a_noop() {
        let graph = build(ModelKind::ResNet18, ModelScale::Tiny);
        let (opt, report) = compiled(&graph);
        assert!(report.iterations <= MAX_ITERATIONS);
        let (opt2, report2) = compiled(&opt);
        assert_eq!(opt2.len(), opt.len(), "compile is idempotent");
        assert_eq!(report2.nodes_eliminated(), 0);
    }

    #[test]
    fn report_passes_carry_consistent_deltas() {
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let (_, report) = compiled(&graph);
        for pair in report.passes.windows(2) {
            if pair[0].iteration == pair[1].iteration {
                assert_eq!(pair[0].nodes_after, pair[1].nodes_before);
                assert_eq!(pair[0].edges_after, pair[1].edges_before);
            }
        }
        for p in &report.passes {
            assert!(p.nodes_after <= p.nodes_before);
        }
        assert_eq!(
            report.passes.first().unwrap().nodes_before,
            report.nodes_pre
        );
        assert_eq!(report.passes.last().unwrap().nodes_after, report.nodes_post);
    }
}
