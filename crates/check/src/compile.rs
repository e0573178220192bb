//! Tier A extension: rewrite-legality verification for compiled graphs
//! (`EC06x`).
//!
//! The graph compiler (`edgenn_nn::graph::compile`) promises exact
//! rewrites; this module re-verifies the promise *independently of the
//! compiler's own bookkeeping*, over `(original, compiled, report)`:
//!
//! - **EC060** — the compiled graph must keep the original's interface:
//!   same input shape, same output shape.
//! - **EC061** — every fused `+relu` node must honor the partial-range
//!   contract: it must not itself be a ReLU, and if it supports
//!   input-channel splits it must defer its folded epilogue so the
//!   executor clamps once after the merge.
//! - **EC062** — no dead or orphaned nodes survive: every node reaches
//!   the sink (a stranded constant from folding is the canonical bug).
//! - **EC063** — the [`CompileReport`] must describe the graph it came
//!   with (node/edge counts, monotone pass deltas).
//!
//! Callers should run [`check_compiled`] *in addition to*
//! [`crate::check_graph`] on the compiled graph — this module checks the
//! rewrite, tier A checks the result as a graph in its own right.

use edgenn_nn::graph::{CompileReport, Graph, NodeId};
use edgenn_nn::layer::Role;

use crate::{codes, Diagnostic, Span};

fn edge_count(graph: &Graph) -> usize {
    graph.nodes().iter().map(|n| n.inputs().len()).sum()
}

/// Verifies that `compiled` is a legal rewrite of `original` described
/// by `report`. Returns every `EC06x` finding (empty = legal).
#[must_use]
pub fn check_compiled(
    original: &Graph,
    compiled: &Graph,
    report: &CompileReport,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // EC060 — interface preservation.
    if compiled.input_shape() != original.input_shape() {
        out.push(Diagnostic::new(
            codes::COMPILE_INTERFACE_CHANGED,
            Span::Node(0),
            format!(
                "input shape changed: {} -> {}",
                original.input_shape(),
                compiled.input_shape()
            ),
        ));
    }
    if compiled.output_shape() != original.output_shape() {
        out.push(Diagnostic::new(
            codes::COMPILE_INTERFACE_CHANGED,
            Span::Node(compiled.output_id().index()),
            format!(
                "output shape changed: {} -> {}",
                original.output_shape(),
                compiled.output_shape()
            ),
        ));
    }

    // EC061 — fused-node partial-range contract.
    for (idx, node) in compiled.nodes().iter().enumerate() {
        let layer = node.layer();
        if !layer.name().ends_with("+relu") {
            continue;
        }
        if layer.role() == Role::Relu {
            out.push(Diagnostic::new(
                codes::COMPILE_FUSION_CONTRACT,
                Span::Node(idx),
                format!("'{}' fuses a ReLU into a ReLU", layer.name()),
            ));
        }
        let channels = compiled
            .input_shapes(NodeId(idx))
            .and_then(|shapes| layer.input_channels(&shapes));
        if channels.unwrap_or(1) >= 2 && !layer.deferred_epilogue_relu() {
            out.push(Diagnostic::new(
                codes::COMPILE_FUSION_CONTRACT,
                Span::Node(idx),
                format!(
                    "'{}' supports input splits but does not defer its folded epilogue",
                    layer.name()
                ),
            ));
        }
    }

    // EC062 — no orphans: every non-input node must reach the sink.
    let n = compiled.len();
    if compiled.output_id().index() < n {
        let mut live = vec![false; n];
        let mut stack = vec![compiled.output_id()];
        while let Some(id) = stack.pop() {
            // Seen, or a dangling input edge (tier A's EC001).
            if live.get(id.index()) != Some(&false) {
                continue;
            }
            live[id.index()] = true;
            if let Ok(node) = compiled.node(id) {
                stack.extend_from_slice(node.inputs());
            }
        }
        live[compiled.input_id().index()] = true;
        for (idx, l) in live.iter().enumerate() {
            if !l {
                let name = compiled
                    .node(edgenn_nn::graph::NodeId(idx))
                    .map(|node| node.layer().name().to_string())
                    .unwrap_or_default();
                out.push(Diagnostic::new(
                    codes::COMPILE_ORPHANED_NODES,
                    Span::Node(idx),
                    format!("'{name}' does not reach the sink after compilation"),
                ));
            }
        }
    }

    // EC063 — report/graph agreement.
    let mut mismatches = Vec::new();
    if report.nodes_pre != original.len() {
        mismatches.push(format!(
            "nodes_pre {} != original nodes {}",
            report.nodes_pre,
            original.len()
        ));
    }
    if report.nodes_post != compiled.len() {
        mismatches.push(format!(
            "nodes_post {} != compiled nodes {}",
            report.nodes_post,
            compiled.len()
        ));
    }
    if report.edges_pre != edge_count(original) {
        mismatches.push(format!(
            "edges_pre {} != original edges {}",
            report.edges_pre,
            edge_count(original)
        ));
    }
    if report.edges_post != edge_count(compiled) {
        mismatches.push(format!(
            "edges_post {} != compiled edges {}",
            report.edges_post,
            edge_count(compiled)
        ));
    }
    for pair in report.passes.windows(2) {
        if pair[0].iteration == pair[1].iteration && pair[0].nodes_after != pair[1].nodes_before {
            mismatches.push(format!(
                "pass '{}' ends at {} nodes but '{}' starts at {}",
                pair[0].pass, pair[0].nodes_after, pair[1].pass, pair[1].nodes_before
            ));
        }
    }
    for p in &report.passes {
        if p.nodes_after > p.nodes_before {
            mismatches.push(format!(
                "pass '{}' grew the graph: {} -> {} nodes",
                p.pass, p.nodes_before, p.nodes_after
            ));
        }
    }
    for m in mismatches {
        out.push(Diagnostic::new(
            codes::COMPILE_REPORT_MISMATCH,
            Span::Global,
            m,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_nn::graph::{compile, CompileOptions, GraphBuilder, Node};
    use edgenn_nn::layer::{Constant, Dense, Dropout, Relu};
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_tensor::{Shape, Tensor};
    use std::sync::Arc;

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn compiled_models_pass_every_ec06x_check() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let (opt, report) = compile(&graph, &CompileOptions::default()).unwrap();
            let diags = check_compiled(&graph, &opt, &report);
            assert!(diags.is_empty(), "{kind}: {diags:?}");
            assert!(
                crate::check_graph(&opt).is_empty(),
                "{kind}: compiled graph must also pass tier A"
            );
        }
    }

    #[test]
    fn interface_change_is_flagged() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let (_, report) = compile(&graph, &CompileOptions::default()).unwrap();
        // "Compile" into a graph with a different output shape.
        let mut b = GraphBuilder::new("other", graph.input_shape().clone());
        let x = b.input_id();
        let flat = b.add(edgenn_nn::layer::Flatten::new("flat"), &[x]).unwrap();
        let elems = graph.input_shape().num_elements();
        let _ = b.add(Dense::new("fc", elems, 3, 0), &[flat]).unwrap();
        let other = b.finish().unwrap();
        let diags = check_compiled(&graph, &other, &report);
        assert!(codes_of(&diags).contains(&codes::COMPILE_INTERFACE_CHANGED));
    }

    #[test]
    fn fake_fused_relu_breaks_the_contract() {
        let mut b = GraphBuilder::new("g", Shape::new(&[4]));
        let x = b.input_id();
        let _ = b.add(Relu::new("conv1+relu"), &[x]).unwrap();
        let g = b.finish().unwrap();
        let report = CompileReport {
            model: "g".into(),
            nodes_pre: g.len(),
            nodes_post: g.len(),
            edges_pre: 1,
            edges_post: 1,
            ..CompileReport::default()
        };
        let diags = check_compiled(&g, &g, &report);
        assert!(codes_of(&diags).contains(&codes::COMPILE_FUSION_CONTRACT));
    }

    #[test]
    fn orphaned_constant_is_flagged() {
        // Assemble via from_parts: the builder would reject a second sink.
        let input = Node::new(
            Arc::new(edgenn_nn::layer::InputLayer::new(Shape::new(&[4]))),
            vec![],
            Shape::new(&[4]),
        );
        let orphan = Node::new(
            Arc::new(Constant::new("stranded", Tensor::ones(&[4]))),
            vec![],
            Shape::new(&[4]),
        );
        let sink = Node::new(
            Arc::new(Dropout::new("d")),
            vec![NodeId(0)],
            Shape::new(&[4]),
        );
        let g = Graph::from_parts("g", vec![input, orphan, sink], NodeId(2));
        let report = CompileReport {
            model: "g".into(),
            nodes_pre: 3,
            nodes_post: 3,
            edges_pre: 1,
            edges_post: 1,
            ..CompileReport::default()
        };
        let diags = check_compiled(&g, &g, &report);
        assert!(codes_of(&diags).contains(&codes::COMPILE_ORPHANED_NODES));
    }

    #[test]
    fn stale_report_is_flagged() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        let (opt, mut report) = compile(&graph, &CompileOptions::default()).unwrap();
        report.nodes_post += 1;
        let diags = check_compiled(&graph, &opt, &report);
        assert!(codes_of(&diags).contains(&codes::COMPILE_REPORT_MISMATCH));
    }

    #[test]
    fn compiler_docs_list_every_ec06x_code_with_its_severity() {
        // docs/diagnostics.md is covered by the registry-wide sync test;
        // docs/compiler.md carries its own copy of the EC06x table and
        // must not drift either.
        let docs = include_str!("../../../docs/compiler.md");
        for info in crate::codes::registry()
            .iter()
            .filter(|c| c.code.starts_with("EC06"))
        {
            let row = docs
                .lines()
                .find(|l| l.starts_with(&format!("| {} ", info.code)))
                .unwrap_or_else(|| panic!("{} missing from docs/compiler.md", info.code));
            assert!(
                row.contains("| error |"),
                "{} severity drifted from docs/compiler.md: {row}",
                info.code
            );
        }
    }
}
