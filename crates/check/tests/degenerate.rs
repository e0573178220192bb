//! Degenerate-graph robustness: every checker tier must terminate with a
//! sensible verdict — never a panic — on the pathological inputs a
//! hand-built graph (or a fuzzer) can produce: the empty DAG, the
//! input-only graph, disconnected components, zero-byte tensors, and a
//! dangling input edge, off the sink's path and on it.

use std::sync::Arc;

use edgenn_check::{
    check_compiled, check_graph, check_ownership, check_plan, codes, Diagnostic, Severity, Span,
};
use edgenn_core::plan::{Assignment, ExecutionConfig, ExecutionPlan, NodePlan};
use edgenn_core::runtime::functional::Executor;
use edgenn_nn::graph::{CompileReport, Graph, Node, NodeId};
use edgenn_nn::layer::{Dense, InputLayer, Relu};
use edgenn_nn::NnError;
use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};
use edgenn_tensor::Shape;

/// A plan placing every node on the CPU (legal on any platform).
fn cpu_plan(len: usize) -> ExecutionPlan {
    ExecutionPlan {
        config: ExecutionConfig::cpu_only(),
        nodes: vec![
            NodePlan {
                assignment: Assignment::Cpu,
                ..NodePlan::gpu_explicit()
            };
            len
        ],
    }
}

#[test]
fn empty_dag_terminates_in_every_tier() {
    let graph = Graph::from_parts("empty", Vec::new(), NodeId(0));
    let plan = cpu_plan(0);
    let platform = jetson_agx_xavier();

    // Tier A and B complete without panicking.
    let _ = check_graph(&graph);
    let _ = check_plan(&graph, &plan, &platform);

    // Tier D: nothing is written, so the output cannot exist.
    let report = check_ownership(&graph, &plan, &platform);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::OUTPUT_NEVER_PRODUCED),
        "{:?}",
        report.diagnostics
    );
    assert!(report.lives.is_empty());
    assert_eq!(report.bound.slot_bytes, 0);
    assert_eq!(report.bound.weight_bytes, 0);
}

#[test]
fn input_only_graph_flags_the_unproduced_output() {
    let shape = Shape::new(&[4]);
    let graph = Graph::from_parts(
        "input-only",
        vec![Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape,
        )],
        NodeId(0),
    );
    let plan = cpu_plan(graph.len());
    for platform in [jetson_agx_xavier(), raspberry_pi_4()] {
        let report = check_ownership(&graph, &plan, &platform);
        // The "output" is the borrowed input: no node ever writes it, so
        // the session has nothing of its own to hand back.
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::OUTPUT_NEVER_PRODUCED),
            "{}: {:?}",
            platform.name,
            report.diagnostics
        );
        assert!(report.lives.is_empty());
    }
}

#[test]
fn disconnected_component_is_dead_in_tier_a_and_undecomposable_in_tier_d() {
    let shape = Shape::new(&[8]);
    // 0:input -> 1:relu(out)   2:relu reads the input but nobody reads 2.
    let nodes = vec![
        Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape.clone(),
        ),
        Node::new(Arc::new(Relu::new("live")), vec![NodeId(0)], shape.clone()),
        Node::new(Arc::new(Relu::new("orphan")), vec![NodeId(0)], shape),
    ];
    let graph = Graph::from_parts("disconnected", nodes, NodeId(1));
    let plan = cpu_plan(graph.len());
    let platform = jetson_agx_xavier();

    let tier_a = check_graph(&graph);
    assert!(
        tier_a.iter().any(|d| d.code == codes::DEAD_NODE),
        "tier A must flag the orphan: {tier_a:?}"
    );

    // The orphan's branch dead-ends: the engine refuses the graph, so
    // tier D has no schedule to prove.
    assert!(Executor::new(&graph).is_err());
    let report = check_ownership(&graph, &plan, &platform);
    let ec006: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == codes::UNDECOMPOSABLE)
        .collect();
    assert!(
        !ec006.is_empty(),
        "tier D must report the undecomposable graph: {:?}",
        report.diagnostics
    );
    assert!(ec006.iter().all(|d| d.severity == Severity::Warning));
    assert!(report.lives.is_empty());
}

#[test]
fn zero_byte_tensors_analyze_without_dividing_or_panicking() {
    let shape = Shape::new(&[0]);
    let nodes = vec![
        Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape.clone(),
        ),
        Node::new(Arc::new(Relu::new("zero")), vec![NodeId(0)], shape),
    ];
    let graph = Graph::from_parts("zero-bytes", nodes, NodeId(1));
    let plan = cpu_plan(graph.len());
    let platform = jetson_agx_xavier();

    let _ = check_graph(&graph);
    let _ = check_plan(&graph, &plan, &platform);
    let report = check_ownership(&graph, &plan, &platform);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.bound.slot_bytes, 0);
    assert_eq!(report.bound.input_bytes, 0);
    assert_eq!(report.bound.total_bytes, 0);
    // A zero-byte buffer still has a well-formed liveness interval.
    assert_eq!(report.lives.len(), 1);
    assert!(report.lives[0].last_read >= report.lives[0].born);
}

#[test]
fn dangling_input_edge_resolves_no_shapes_in_any_tier() {
    let shape = Shape::new(&[4]);
    // 0:input -> 1:"a+relu" (out)   2:"b+relu" reads n9, which does not exist.
    let nodes = vec![
        Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape.clone(),
        ),
        Node::new(
            Arc::new(Dense::new("a+relu", 4, 4, 1)),
            vec![NodeId(0)],
            shape.clone(),
        ),
        Node::new(
            Arc::new(Dense::new("b+relu", 4, 4, 2)),
            vec![NodeId(9)],
            shape.clone(),
        ),
    ];
    let graph = Graph::from_parts("dangling", nodes, NodeId(1));
    assert_eq!(graph.input_shapes(NodeId(1)).unwrap(), [&shape]);
    assert!(matches!(
        graph.input_shapes(NodeId(2)),
        Err(NnError::UnknownNode { id: 9 })
    ));
    let findings = |diagnostics: Vec<Diagnostic>| -> Vec<(&str, Span)> {
        diagnostics.iter().map(|d| (d.code, d.span)).collect()
    };

    // Tier A: the dangling edge is a def-before-use error, and no shape
    // inference runs over it.
    assert_eq!(
        findings(check_graph(&graph)),
        [
            (codes::ILLEGAL_FUSION, Span::Node(1)),
            (codes::DEF_BEFORE_USE, Span::Node(2)),
            (codes::DEAD_NODE, Span::Node(2)),
        ]
    );

    // Tier B: the split node's units do not resolve, so it has one to
    // share out; the footprint check over the whole graph does not panic.
    let mut plan = cpu_plan(graph.len());
    plan.config = ExecutionConfig::edgenn();
    plan.nodes[1].assignment = Assignment::SplitInput { cpu_fraction: 0.5 };
    plan.nodes[2].assignment = Assignment::Split { cpu_fraction: 0.5 };
    assert_eq!(
        findings(check_plan(&graph, &plan, &jetson_agx_xavier())),
        [(codes::ASSIGNMENT_FORBIDDEN, Span::Node(2))]
    );

    // EC061 judges the resolvable fused node and passes over the other.
    let ec061: Vec<_> = findings(check_compiled(&graph, &graph, &CompileReport::default()))
        .into_iter()
        .filter(|(code, _)| *code == codes::COMPILE_FUSION_CONTRACT)
        .collect();
    assert_eq!(ec061, [(codes::COMPILE_FUSION_CONTRACT, Span::Node(1))]);
}

#[test]
fn dangling_input_edge_on_the_sink_path_is_no_orphan_panic() {
    let shape = Shape::new(&[4]);
    // 0:input -> 1:"a+relu"   2:"b+relu" (out) reads n9, which does not
    // exist: EC062's walk from the sink meets the dangling id.
    let nodes = vec![
        Node::new(
            Arc::new(InputLayer::new(shape.clone())),
            vec![],
            shape.clone(),
        ),
        Node::new(
            Arc::new(Dense::new("a+relu", 4, 4, 1)),
            vec![NodeId(0)],
            shape.clone(),
        ),
        Node::new(
            Arc::new(Dense::new("b+relu", 4, 4, 2)),
            vec![NodeId(9)],
            shape.clone(),
        ),
    ];
    let graph = Graph::from_parts("dangling-sink", nodes, NodeId(2));
    let findings: Vec<(&str, Span)> = check_compiled(&graph, &graph, &CompileReport::default())
        .iter()
        .map(|d| (d.code, d.span))
        .filter(|(code, _)| *code != codes::COMPILE_REPORT_MISMATCH)
        .collect();
    // EC061 judges the resolvable fused node; EC062 finds it orphaned,
    // and the sink reaches nothing through its dangling edge (EC063
    // flags the empty report's node and edge counts).
    assert_eq!(
        findings,
        [
            (codes::COMPILE_FUSION_CONTRACT, Span::Node(1)),
            (codes::COMPILE_ORPHANED_NODES, Span::Node(1)),
        ]
    );
}
