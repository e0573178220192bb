//! The inference DAG: nodes, shape inference, execution, and the
//! chain/branch decomposition used by EdgeNN's tuner.

mod calibrate;
mod compile;
mod fuse;
mod structure;

use std::sync::Arc;

use edgenn_tensor::{Shape, Tensor};

use crate::layer::{InputLayer, Layer};
use crate::{NnError, Result, Workload};

pub use calibrate::calibrate;
pub use compile::{compile, CompileOptions, CompileReport, PassDelta, Passes, PASS_NAMES};
pub use fuse::FusedRelu;
pub use structure::{decompose, Segment, Structure};

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order, which is always a
/// valid topological order because a node may only reference
/// already-inserted nodes as inputs (the graph is acyclic by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the DAG: a layer plus its input edges.
pub struct Node {
    layer: Arc<dyn Layer>,
    inputs: Vec<NodeId>,
    output_shape: Shape,
}

impl Node {
    /// Assembles a node directly, with no shape inference or input
    /// validation. Exists for analysis tooling (`edgenn-check`) and tests
    /// that need to represent *malformed* graphs; inference paths should
    /// always go through [`GraphBuilder::add`].
    pub fn new(layer: Arc<dyn Layer>, inputs: Vec<NodeId>, output_shape: Shape) -> Self {
        Self {
            layer,
            inputs,
            output_shape,
        }
    }

    /// The layer kernel.
    pub fn layer(&self) -> &dyn Layer {
        self.layer.as_ref()
    }

    /// Shared handle to the layer kernel.
    pub fn layer_arc(&self) -> Arc<dyn Layer> {
        Arc::clone(&self.layer)
    }

    /// Input edges.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Inferred output shape.
    pub fn output_shape(&self) -> &Shape {
        &self.output_shape
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("layer", &self.layer.name())
            .field("inputs", &self.inputs)
            .field("output_shape", &self.output_shape)
            .finish()
    }
}

/// An immutable inference DAG with pre-inferred shapes.
///
/// Node 0 is always the input pseudo-node; the unique sink is the output.
#[derive(Debug)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    successors: Vec<Vec<NodeId>>,
    output: NodeId,
}

impl Graph {
    /// Assembles a graph from raw parts without any of the
    /// [`GraphBuilder::finish`] invariant checks (single sink, backward
    /// edges, inferred shapes). Successor lists are still derived, with
    /// out-of-range input ids skipped rather than rejected.
    ///
    /// This is the ingestion point for graphs whose invariants are *not*
    /// trusted — the static verifier in `edgenn-check` diagnoses such
    /// graphs instead of panicking on them. Executing a graph built this
    /// way is undefined unless it passes the checker.
    pub fn from_parts(name: impl Into<String>, nodes: Vec<Node>, output: NodeId) -> Self {
        let mut successors: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (idx, node) in nodes.iter().enumerate() {
            for input in &node.inputs {
                if input.index() < successors.len() {
                    successors[input.index()].push(NodeId(idx));
                }
            }
        }
        Self {
            name: name.into(),
            nodes,
            successors,
            output,
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (including the input pseudo-node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a graph with no nodes (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Accesses one node.
    ///
    /// # Errors
    /// Returns [`NnError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or(NnError::UnknownNode { id: id.index() })
    }

    /// The input pseudo-node id (always `NodeId(0)`).
    pub fn input_id(&self) -> NodeId {
        NodeId(0)
    }

    /// The unique sink node id.
    pub fn output_id(&self) -> NodeId {
        self.output
    }

    /// Shape the graph consumes.
    pub fn input_shape(&self) -> &Shape {
        self.nodes[0].output_shape()
    }

    /// Shape the graph produces.
    pub fn output_shape(&self) -> &Shape {
        self.nodes[self.output.index()].output_shape()
    }

    /// Successor (consumer) node ids of `id`.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.successors[id.index()]
    }

    /// Nodes in topological order (insertion order by construction).
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Runs the full reference forward pass.
    ///
    /// # Errors
    /// Propagates layer execution failures; returns
    /// [`NnError::InvalidGraph`] if the input tensor mismatches the
    /// declared input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.shape() != self.input_shape() {
            return Err(NnError::InvalidGraph {
                reason: format!(
                    "input shape {} does not match graph input {}",
                    input.shape(),
                    self.input_shape()
                ),
            });
        }
        let mut outputs: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        outputs[0] = Some(self.nodes[0].layer.forward(&[input])?);
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            let inputs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|id| outputs[id.index()].as_ref().expect("topological order"))
                .collect();
            outputs[idx] = Some(node.layer.forward(&inputs)?);
        }
        Ok(outputs[self.output.index()]
            .take()
            .expect("output computed"))
    }

    /// Chain/branch decomposition of the DAG (paper Section IV-D).
    ///
    /// # Errors
    /// Returns [`NnError::InvalidGraph`] for structures outside the
    /// fork-join family the decomposition supports (e.g. nested forks).
    pub fn structure(&self) -> Result<Structure> {
        decompose(self)
    }

    /// Renders a per-layer summary table (name, class, output shape,
    /// MFLOPs, parameter count) — the `model.summary()` convention.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} layers, {:.2} GFLOPs, {:.2} M params
",
            self.name,
            self.len() - 1,
            self.total_flops() as f64 / 1e9,
            self.param_bytes() as f64 / 4e6,
        ));
        out.push_str(&format!(
            "{:<24} {:<8} {:<18} {:>12} {:>12}
",
            "layer", "class", "output", "MFLOPs", "params"
        ));
        for id in self.topo_order().skip(1) {
            let node = &self.nodes[id.index()];
            let workload = self.workload(id);
            out.push_str(&format!(
                "{:<24} {:<8} {:<18} {:>12.3} {:>12}
",
                node.layer.name(),
                node.layer.class().tag(),
                node.output_shape.to_string(),
                workload.flops as f64 / 1e6,
                workload.weight_bytes / 4,
            ));
        }
        out
    }

    /// Total parameter bytes across all nodes.
    pub fn param_bytes(&self) -> u64 {
        self.topo_order()
            .map(|id| self.workload(id).weight_bytes)
            .sum()
    }

    /// Total FLOPs of one forward pass.
    pub fn total_flops(&self) -> u64 {
        self.topo_order().map(|id| self.workload(id).flops).sum()
    }

    /// The output shapes of node `id`'s inputs, in edge order: the shapes
    /// its layer answers every shape-dependent question over.
    ///
    /// # Errors
    /// Returns [`NnError::UnknownNode`] for an out-of-range `id` or a
    /// dangling input edge (only a [`Graph::from_parts`] graph has one).
    pub fn input_shapes(&self, id: NodeId) -> Result<Vec<&Shape>> {
        self.node(id)?
            .inputs
            .iter()
            .map(|&i| self.node(i).map(Node::output_shape))
            .collect()
    }

    /// Node `id`'s analytic workload; zero when its shapes do not resolve.
    fn workload(&self, id: NodeId) -> Workload {
        self.input_shapes(id)
            .and_then(|shapes| self.nodes[id.index()].layer.workload(&shapes))
            .unwrap_or_default()
    }
}

/// Incremental DAG builder.
///
/// ```
/// use edgenn_nn::graph::GraphBuilder;
/// use edgenn_nn::layer::{Dense, Relu};
/// use edgenn_tensor::Shape;
///
/// let mut b = GraphBuilder::new("mlp", Shape::new(&[4]));
/// let x = b.input_id();
/// let h = b.add(Dense::new("fc1", 4, 8, 0), &[x]).unwrap();
/// let h = b.add(Relu::new("relu1"), &[h]).unwrap();
/// let _ = b.add(Dense::new("fc2", 8, 2, 1), &[h]).unwrap();
/// let graph = b.finish().unwrap();
/// assert_eq!(graph.output_shape().dims(), &[2]);
/// ```
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Starts a graph consuming tensors of `input_shape`.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        let input = InputLayer::new(input_shape.clone());
        Self {
            name: name.into(),
            nodes: vec![Node {
                layer: Arc::new(input),
                inputs: vec![],
                output_shape: input_shape,
            }],
        }
    }

    /// Id of the input pseudo-node.
    pub fn input_id(&self) -> NodeId {
        NodeId(0)
    }

    /// Appends a layer fed by `inputs`, returning its id.
    ///
    /// # Errors
    /// Returns [`NnError::UnknownNode`] for dangling input ids and
    /// propagates shape-inference failures from the layer.
    pub fn add(&mut self, layer: impl Layer + 'static, inputs: &[NodeId]) -> Result<NodeId> {
        self.add_arc(Arc::new(layer), inputs)
    }

    /// Appends a shared layer handle fed by `inputs`, returning its id.
    ///
    /// # Errors
    /// Same contract as [`GraphBuilder::add`].
    pub fn add_arc(&mut self, layer: Arc<dyn Layer>, inputs: &[NodeId]) -> Result<NodeId> {
        for id in inputs {
            if id.index() >= self.nodes.len() {
                return Err(NnError::UnknownNode { id: id.index() });
            }
        }
        let shapes: Vec<&Shape> = inputs
            .iter()
            .map(|id| self.nodes[id.index()].output_shape())
            .collect();
        let output_shape = layer.output_shape(&shapes)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            layer,
            inputs: inputs.to_vec(),
            output_shape,
        });
        Ok(id)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidGraph`] when the graph has no layer nodes
    /// or more than one sink.
    pub fn finish(self) -> Result<Graph> {
        if self.nodes.len() < 2 {
            return Err(NnError::InvalidGraph {
                reason: "graph has no layers".to_string(),
            });
        }
        let mut successors: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            for input in &node.inputs {
                successors[input.index()].push(NodeId(idx));
            }
        }
        let sinks: Vec<NodeId> = successors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| NodeId(i))
            .collect();
        if sinks.len() != 1 {
            return Err(NnError::InvalidGraph {
                reason: format!("expected exactly one sink, found {}", sinks.len()),
            });
        }
        Ok(Graph {
            name: self.name,
            nodes: self.nodes,
            successors,
            output: sinks[0],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Concat, Dense, Relu};

    fn mlp() -> Graph {
        let mut b = GraphBuilder::new("mlp", Shape::new(&[4]));
        let x = b.input_id();
        let h = b.add(Dense::new("fc1", 4, 8, 0), &[x]).unwrap();
        let h = b.add(Relu::new("relu"), &[h]).unwrap();
        let _ = b.add(Dense::new("fc2", 8, 2, 1), &[h]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids_and_shapes() {
        let g = mlp();
        assert_eq!(g.len(), 4);
        assert_eq!(g.input_shape().dims(), &[4]);
        assert_eq!(g.output_shape().dims(), &[2]);
        assert_eq!(g.node(NodeId(1)).unwrap().layer().name(), "fc1");
        assert!(g.node(NodeId(9)).is_err());
    }

    #[test]
    fn forward_runs_end_to_end() {
        let g = mlp();
        let x = Tensor::random(&[4], 1.0, 3);
        let y = g.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2]);
        // deterministic weights: repeated runs agree
        assert_eq!(g.forward(&x).unwrap(), y);
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let g = mlp();
        assert!(matches!(
            g.forward(&Tensor::zeros(&[5])),
            Err(NnError::InvalidGraph { .. })
        ));
    }

    #[test]
    fn builder_rejects_dangling_inputs() {
        let mut b = GraphBuilder::new("g", Shape::new(&[4]));
        assert!(matches!(
            b.add(Relu::new("r"), &[NodeId(7)]),
            Err(NnError::UnknownNode { id: 7 })
        ));
    }

    #[test]
    fn finish_rejects_empty_and_multi_sink_graphs() {
        let b = GraphBuilder::new("g", Shape::new(&[4]));
        assert!(matches!(b.finish(), Err(NnError::InvalidGraph { .. })));

        let mut b = GraphBuilder::new("g", Shape::new(&[4]));
        let x = b.input_id();
        b.add(Relu::new("a"), &[x]).unwrap();
        b.add(Relu::new("b"), &[x]).unwrap();
        assert!(matches!(b.finish(), Err(NnError::InvalidGraph { .. })));
    }

    #[test]
    fn successors_are_reverse_edges() {
        let mut b = GraphBuilder::new("g", Shape::new(&[2, 2, 2]));
        let x = b.input_id();
        let a = b.add(Relu::new("a"), &[x]).unwrap();
        let c = b.add(Relu::new("c"), &[x]).unwrap();
        let _ = b.add(Concat::new("cat", 2), &[a, c]).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.successors(x), &[a, c]);
        assert_eq!(g.successors(a), &[NodeId(3)]);
        assert!(g.successors(NodeId(3)).is_empty());
    }

    #[test]
    fn summary_lists_every_layer() {
        let g = mlp();
        let summary = g.summary();
        assert!(summary.contains("fc1"));
        assert!(summary.contains("relu"));
        assert!(summary.contains("fc2"));
        assert!(summary.contains("GFLOPs"));
        // One header + meta line plus one line per layer (input excluded).
        assert_eq!(summary.lines().count(), 2 + g.len() - 1);
    }

    #[test]
    fn flops_and_params_are_positive_for_mlp() {
        let g = mlp();
        assert!(g.total_flops() > 0);
        assert!(g.param_bytes() > 0);
    }
}
