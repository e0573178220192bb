//! Diagnostic: prints how many flight records one request writes, per
//! model, scale, precision and plan (tuned for the Jetson, or every
//! partitionable layer split), beside the fixed ring size
//! `flight::RING_RECORDS`. Re-run it after any change that adds records:
//!
//! ```text
//! cargo run --release -p edgenn-core --example flight_volume
//! ```
//!
//! Each request is read through its own `ProfileWindow`, the engine's
//! record of what that request wrote.

use std::collections::BTreeMap;

use edgenn_core::plan::{Assignment, ExecutionConfig, ExecutionPlan, NodePlan, Precision};
use edgenn_core::prelude::*;
use edgenn_core::runtime::functional::Executor;
use edgenn_nn::graph::{compile, CompileOptions, Graph};
use edgenn_obs::flight;
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_sim::AllocStrategy;
use edgenn_tensor::Tensor;

/// Splits every layer with at least two output units half and half.
fn split_every_layer(graph: &Graph) -> Vec<NodePlan> {
    let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
    for id in graph.topo_order() {
        let shapes = graph.input_shapes(id).unwrap();
        let layer = graph.node(id).unwrap().layer();
        if layer.partition_units(&shapes).unwrap_or(1) >= 2 {
            nodes[id.index()] = NodePlan {
                assignment: Assignment::Split { cpu_fraction: 0.5 },
                output_alloc: AllocStrategy::Explicit,
                prefetch_inputs: false,
            };
        }
    }
    nodes
}

fn main() {
    let platform = jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    flight::enable();
    let ring = flight::RING_RECORDS;
    let mut most = (0, 0.0);
    for scale in [ModelScale::Tiny, ModelScale::Paper] {
        for kind in ModelKind::ALL {
            for precision in [Precision::F32, Precision::Int8] {
                let options = match precision {
                    Precision::F32 => CompileOptions::default(),
                    Precision::Int8 => CompileOptions::int8(),
                };
                let graph = compile(&build(kind, scale), &options).unwrap().0;
                let config = ExecutionConfig {
                    precision,
                    ..ExecutionConfig::edgenn()
                };
                let tuned = Tuner::new(&graph, &runtime)
                    .unwrap()
                    .plan(&graph, &runtime, config)
                    .unwrap();
                let split = ExecutionPlan {
                    config,
                    nodes: split_every_layer(&graph),
                };
                let executor = Executor::new(&graph).unwrap();
                let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
                for (name, plan) in [("tuned", &tuned), ("all-split", &split)] {
                    // The first request of a plan also records the scratch
                    // arena growing; report the larger of two.
                    let mut heaviest: Option<(u64, BTreeMap<&str, usize>)> = None;
                    for _ in 0..2 {
                        let outcome = executor.execute(plan, &input).unwrap();
                        let window = outcome.engine.profile.expect("recording is on");
                        let records = window.records();
                        let written = records.len() as u64 + window.dropped;
                        if heaviest.as_ref().is_none_or(|(most, _)| written > *most) {
                            let mut by_kind = BTreeMap::new();
                            for r in &records {
                                *by_kind.entry(r.kind.name()).or_default() += 1;
                            }
                            heaviest = Some((written, by_kind));
                        }
                    }
                    let (written, by_kind) = heaviest.expect("two requests ran");
                    let per_node = written as f64 / graph.len() as f64;
                    most = (most.0.max(written), f64::max(most.1, per_node));
                    println!(
                        "{scale:?} {kind} {precision} {name}: {written} records per request \
                         ({per_node:.1} per node over {} nodes, {:.1}% of a {ring}-record ring) \
                         {by_kind:?}",
                        graph.len(),
                        100.0 * written as f64 / ring as f64,
                    );
                }
            }
        }
    }
    println!(
        "most: {} records per request, {:.1} per node; RING_RECORDS = {ring}",
        most.0, most.1
    );
}
