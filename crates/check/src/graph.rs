//! Tier A: dataflow verification over `edgenn-nn` graphs.
//!
//! Graphs built through [`edgenn_nn::graph::GraphBuilder`] satisfy most
//! of these invariants by construction; graphs arriving through
//! [`edgenn_nn::graph::Graph::from_parts`] (deserialization, importers,
//! tests) satisfy none of them. The checker treats every graph as
//! untrusted.

use edgenn_nn::graph::{Graph, NodeId};
use edgenn_nn::layer::{LayerClass, Role};

use crate::{codes, Diagnostic, Span};

/// Verifies dataflow well-formedness of one graph: def-before-use order,
/// reachability (dead nodes), shape-inference consistency, arity, and
/// ReLU-fusion legality, plus decomposability into the fork-join family
/// the planner handles.
#[must_use]
pub fn check_graph(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = graph.len();

    for (idx, node) in graph.nodes().iter().enumerate() {
        let layer = node.layer();

        // EC001 — def-before-use: insertion order is the topological
        // order, so every input must strictly precede its consumer (this
        // also catches self-loops and dangling ids).
        let mut inputs_ok = true;
        for input in node.inputs() {
            if input.index() >= idx {
                inputs_ok = false;
                out.push(Diagnostic::new(
                    codes::DEF_BEFORE_USE,
                    Span::Node(idx),
                    format!(
                        "'{}' consumes {input}, which is not defined before node n{idx}",
                        layer.name()
                    ),
                ));
            }
        }

        // EC004 — arity.
        if node.inputs().len() != layer.arity() {
            out.push(Diagnostic::new(
                codes::ARITY_MISMATCH,
                Span::Node(idx),
                format!(
                    "'{}' has {} input(s), layer arity is {}",
                    layer.name(),
                    node.inputs().len(),
                    layer.arity()
                ),
            ));
        }

        let shapes = match graph.input_shapes(NodeId(idx)) {
            Ok(shapes) if inputs_ok => shapes,
            _ => Vec::new(),
        };

        // EC003 — stored shape must agree with shape inference over the
        // actual input shapes (conv/pool/dense chains propagate here).
        if layer.class() != LayerClass::Input && inputs_ok {
            match layer.output_shape(&shapes) {
                Ok(inferred) if &inferred != node.output_shape() => {
                    out.push(Diagnostic::new(
                        codes::SHAPE_MISMATCH,
                        Span::Node(idx),
                        format!(
                            "'{}' stores shape {} but inference yields {inferred}",
                            layer.name(),
                            node.output_shape()
                        ),
                    ));
                }
                Err(e) => {
                    out.push(Diagnostic::new(
                        codes::SHAPE_MISMATCH,
                        Span::Node(idx),
                        format!("'{}' fails shape inference: {e}", layer.name()),
                    ));
                }
                Ok(_) => {}
            }
        }

        // EC005 — illegal fusion: a "+relu"-named node is either ReLU
        // fused into ReLU, or a fusion over a layer whose partial sums
        // are not final *and* whose epilogue is not deferred (ReLU does
        // not distribute over partial sums; a fused node may keep input
        // splits only by declaring `deferred_epilogue_relu`, which makes
        // the executor clamp once after the merge).
        let relu = layer.role() == Role::Relu;
        if layer.name().ends_with("+relu")
            && (relu
                || (layer.input_channels(&shapes).unwrap_or(1) >= 2
                    && !layer.deferred_epilogue_relu()))
        {
            out.push(Diagnostic::new(
                codes::ILLEGAL_FUSION,
                Span::Node(idx),
                format!(
                    "'{}' carries a ReLU fusion it must not ({})",
                    layer.name(),
                    if relu {
                        "producer is itself a ReLU"
                    } else {
                        "producer emits non-final partial sums without a deferred epilogue"
                    }
                ),
            ));
        }
    }

    // EC002 — dead nodes: walk input edges back from the sink; anything
    // unreached contributes nothing to the output.
    if graph.output_id().index() < n {
        let mut live = vec![false; n];
        let mut stack = vec![graph.output_id()];
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            for input in graph.nodes()[id.index()].inputs() {
                if input.index() < n {
                    stack.push(*input);
                }
            }
        }
        for (idx, is_live) in live.iter().enumerate() {
            if !is_live {
                out.push(Diagnostic::new(
                    codes::DEAD_NODE,
                    Span::Node(idx),
                    format!(
                        "'{}' never reaches the output",
                        graph.nodes()[idx].layer().name()
                    ),
                ));
            }
        }
    } else {
        out.push(Diagnostic::new(
            codes::DEF_BEFORE_USE,
            Span::Node(graph.output_id().index()),
            format!("output id {} is out of range", graph.output_id()),
        ));
    }

    // EC006 — the planner's chain/branch decomposition must accept the
    // topology, or hybrid planning silently degrades.
    if let Err(e) = graph.structure() {
        out.push(Diagnostic::new(
            codes::UNDECOMPOSABLE,
            Span::Global,
            format!("structure decomposition failed: {e}"),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_nn::graph::{GraphBuilder, Node};
    use edgenn_nn::layer::{Concat, Dense, Relu};
    use edgenn_tensor::Shape;
    use std::sync::Arc;

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn builder_graphs_are_clean() {
        use edgenn_nn::models::{build, ModelKind, ModelScale};
        for kind in [
            ModelKind::Fcnn,
            ModelKind::LeNet,
            ModelKind::AlexNet,
            ModelKind::SqueezeNet,
            ModelKind::ResNet18,
        ] {
            let g = build(kind, ModelScale::Paper);
            let diags = check_graph(&g);
            assert!(diags.is_empty(), "{kind:?}: {diags:?}");
        }
    }

    #[test]
    fn forward_reference_is_def_before_use() {
        let mut b = GraphBuilder::new("g", Shape::new(&[4]));
        let x = b.input_id();
        let _ = b.add(Relu::new("r"), &[x]).unwrap();
        let g = b.finish().unwrap();
        // Rebuild with a forward edge: node 1 consumes node 2.
        let nodes: Vec<Node> = g
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let inputs = if i == 1 { vec![NodeId(2)] } else { vec![] };
                Node::new(n.layer_arc(), inputs, n.output_shape().clone())
            })
            .collect();
        let bad = Graph::from_parts("g", nodes, NodeId(1));
        assert!(codes_of(&check_graph(&bad)).contains(&codes::DEF_BEFORE_USE));
    }

    #[test]
    fn dead_node_and_shape_mismatch_are_flagged() {
        let relu: Arc<dyn edgenn_nn::layer::Layer> = Arc::new(Relu::new("r"));
        let input = Node::new(
            Arc::new(edgenn_nn::layer::InputLayer::new(Shape::new(&[4]))),
            vec![],
            Shape::new(&[4]),
        );
        let live = Node::new(Arc::clone(&relu), vec![NodeId(0)], Shape::new(&[4]));
        let dead = Node::new(Arc::clone(&relu), vec![NodeId(0)], Shape::new(&[4]));
        // A live node whose stored shape disagrees with inference.
        let misshapen = Node::new(Arc::clone(&relu), vec![NodeId(1)], Shape::new(&[7]));
        let g = Graph::from_parts("g", vec![input, live, dead, misshapen], NodeId(3));
        let diags = check_graph(&g);
        let found = codes_of(&diags);
        assert!(found.contains(&codes::DEAD_NODE), "{diags:?}");
        assert!(found.contains(&codes::SHAPE_MISMATCH), "{diags:?}");
        // The dead node is n2.
        assert!(diags
            .iter()
            .any(|d| d.code == codes::DEAD_NODE && d.span == Span::Node(2)));
    }

    #[test]
    fn arity_mismatch_is_flagged() {
        let input = Node::new(
            Arc::new(edgenn_nn::layer::InputLayer::new(Shape::new(&[4]))),
            vec![],
            Shape::new(&[4]),
        );
        // Dense has arity 1; feed it two inputs.
        let fc = Node::new(
            Arc::new(Dense::new("fc", 4, 2, 0)),
            vec![NodeId(0), NodeId(0)],
            Shape::new(&[2]),
        );
        let g = Graph::from_parts("g", vec![input, fc], NodeId(1));
        assert!(codes_of(&check_graph(&g)).contains(&codes::ARITY_MISMATCH));
    }

    #[test]
    fn relu_fused_into_relu_is_illegal() {
        let mut b = GraphBuilder::new("g", Shape::new(&[4]));
        let x = b.input_id();
        // A ReLU whose *name* claims a fusion: relu-into-relu.
        let _ = b.add(Relu::new("conv1+relu"), &[x]).unwrap();
        let g = b.finish().unwrap();
        let diags = check_graph(&g);
        assert!(
            codes_of(&diags).contains(&codes::ILLEGAL_FUSION),
            "{diags:?}"
        );
    }

    #[test]
    fn legal_fusions_pass() {
        use edgenn_nn::graph::{compile, CompileOptions, Passes};
        use edgenn_nn::models::{build, ModelKind, ModelScale};
        let g = build(ModelKind::AlexNet, ModelScale::Tiny);
        let fuse_only = CompileOptions {
            passes: Passes::FuseOnly,
            prepack_f32: false,
            prepack_int8: false,
        };
        let (fused, _) = compile(&g, &fuse_only).unwrap();
        assert!(check_graph(&fused).is_empty());
    }

    #[test]
    fn nested_forks_are_undecomposable_but_only_a_warning() {
        let mut b = GraphBuilder::new("g", Shape::new(&[2, 2, 2]));
        let x = b.input_id();
        let a1 = b.add(Relu::new("a1"), &[x]).unwrap();
        let a2 = b.add(Relu::new("a2"), &[x]).unwrap();
        let b1 = b.add(Relu::new("b1"), &[a1]).unwrap();
        let b2 = b.add(Relu::new("b2"), &[a1]).unwrap();
        let j1 = b.add(Concat::new("j1", 2), &[b1, b2]).unwrap();
        let _ = b.add(Concat::new("j2", 2), &[j1, a2]).unwrap();
        let g = b.finish().unwrap();
        let diags = check_graph(&g);
        assert!(
            codes_of(&diags).contains(&codes::UNDECOMPOSABLE),
            "{diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.severity == crate::Severity::Warning),
            "undecomposable alone must not fail the gate"
        );
    }
}
