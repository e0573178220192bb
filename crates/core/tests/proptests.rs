//! Randomized (seeded, deterministic) tests for EdgeNN's planning math and
//! plan/runtime consistency.
//!
//! These were originally property-based tests; they now draw cases from a
//! fixed-seed RNG so the suite is reproducible and dependency-free.

use edgenn_core::assign::{optimal_assignment, BranchCost};
use edgenn_core::partition::{optimal_partition, t_total_us, PartitionInputs};
use edgenn_core::plan::{Assignment, ExecutionConfig, ExecutionPlan, NodePlan};
use edgenn_core::prelude::*;
use edgenn_core::runtime::{functional, Runtime};
use edgenn_nn::graph::{compile, CompileOptions};
use edgenn_sim::platforms;
use edgenn_tensor::Tensor;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn arb_partition_inputs(rng: &mut rand::rngs::StdRng) -> PartitionInputs {
    PartitionInputs {
        t_cpu_us: rng.gen_range(0.1f64..10_000.0),
        t_gpu_us: rng.gen_range(0.1f64..10_000.0),
        output_bytes: rng.gen_range(0u64..50_000_000),
        copy_rate_gbps: rng.gen_range(0.1f64..50.0),
        sync_overhead_us: rng.gen_range(0.0f64..50.0),
    }
}

#[test]
fn partition_decision_never_loses_to_endpoints() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0001);
    for _ in 0..CASES {
        let inputs = arb_partition_inputs(&mut rng);
        let d = optimal_partition(&inputs);
        assert!(
            d.t_total_us <= t_total_us(&inputs, 0.0) + 1e-9,
            "vs GPU-only"
        );
        assert!(
            d.t_total_us <= t_total_us(&inputs, 1.0) + 1e-9,
            "vs CPU-only"
        );
        assert!((0.0..=1.0).contains(&d.p_cpu));
        assert!(d.improvement() >= 0.0);
    }
}

#[test]
fn partition_closed_form_is_global_optimum_without_sync() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0002);
    for _ in 0..CASES {
        // In the paper's idealized setting (no fixed sync cost), Eq. (4)
        // must beat every sampled p.
        let inputs = PartitionInputs {
            sync_overhead_us: 0.0,
            ..arb_partition_inputs(&mut rng)
        };
        let d = optimal_partition(&inputs);
        for k in 0..=200 {
            let p = k as f64 / 200.0;
            assert!(
                d.t_total_us <= t_total_us(&inputs, p) + 1e-6,
                "p_op {} beaten at p = {p}",
                d.p_cpu
            );
        }
    }
}

#[test]
fn partition_decision_monotone_in_merge_cost() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0003);
    for _ in 0..CASES {
        let inputs = arb_partition_inputs(&mut rng);
        let slower = rng.gen_range(1.5f64..20.0);
        // A slower merge rate can only reduce the attractiveness of
        // splitting: the decision time never improves.
        let worse = PartitionInputs {
            copy_rate_gbps: inputs.copy_rate_gbps / slower,
            ..inputs
        };
        let d1 = optimal_partition(&inputs);
        let d2 = optimal_partition(&worse);
        assert!(d2.t_total_us >= d1.t_total_us - 1e-9);
    }
}

#[test]
fn assignment_never_loses_to_all_gpu() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0004);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..5);
        let costs: Vec<BranchCost> = (0..n)
            .map(|_| BranchCost {
                t_cpu_us: rng.gen_range(0.1f64..5000.0),
                t_gpu_us: rng.gen_range(0.1f64..5000.0),
                output_bytes: rng.gen_range(0u64..10_000_000),
            })
            .collect();
        let rate = rng.gen_range(0.1f64..50.0);
        let fixed = rng.gen_range(0.0f64..30.0);
        let sync = rng.gen_range(0.0f64..30.0);
        let all_gpu: f64 = costs.iter().map(|b| b.t_gpu_us).sum();
        let d = optimal_assignment(&costs, rate, fixed, sync);
        assert!(d.t_total_us <= all_gpu + 1e-9);
        assert!(d.t_gpu_only_us == all_gpu);
        assert!(d.improvement() >= 0.0);
    }
}

#[test]
fn random_plans_execute_losslessly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0005);
    for _ in 0..16 {
        let assignments: Vec<usize> = (0..32).map(|_| rng.gen_range(0usize..3)).collect();
        let fractions: Vec<f64> = (0..32).map(|_| rng.gen_range(0.05f64..0.95)).collect();
        let seed = rng.gen_range(0u64..200);
        // Any structurally valid plan — random processor choices and split
        // fractions — must produce exactly the reference output.
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
        for id in graph.topo_order() {
            let node = graph.node(id).unwrap();
            let shapes = graph.input_shapes(id).unwrap();
            let i = id.index();
            let choice = assignments[i % assignments.len()];
            let units = node.layer().partition_units(&shapes).unwrap_or(1);
            nodes[i].assignment = match choice {
                0 => Assignment::Gpu,
                1 => Assignment::Cpu,
                _ if units >= 2 => Assignment::Split {
                    cpu_fraction: fractions[i % fractions.len()],
                },
                _ => Assignment::Gpu,
            };
        }
        let plan = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes,
        };
        let input = Tensor::random(graph.input_shape().dims(), 1.0, seed);
        let reference = graph.forward(&input).unwrap();
        let outcome = functional::execute(&graph, &plan, &input).unwrap();
        assert!(outcome.output.approx_eq(&reference, 1e-4));
    }
}

#[test]
fn simulation_time_positive_and_layers_ordered() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0006);
    for _ in 0..8 {
        let seed = rng.gen_range(0u64..100);
        let jetson = platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&jetson);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let mut config = ExecutionConfig::edgenn();
        config.jitter = 0.1;
        config.jitter_seed = seed;
        let plan = tuner.plan(&graph, &runtime, config).unwrap();
        let report = runtime.simulate(&graph, &plan).unwrap();
        assert!(report.total_us > 0.0);
        for layer in &report.layers {
            assert!(layer.end_us >= layer.start_us);
            assert!(layer.end_us <= report.total_us + 1e-6);
        }
        // Events are consistent: no event ends after the reported total,
        // and no processor ever runs two activities at once.
        for event in &report.events {
            assert!(event.end_us <= report.total_us + 1e-6);
            assert!(event.duration_us() >= -1e-9);
        }
        let violations = edgenn_sim::trace::check_trace(&report.events, None);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

#[test]
fn jitter_bounds_total_time() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0007);
    for _ in 0..6 {
        let seed = rng.gen_range(0u64..50);
        // With jitter amplitude a, the total must stay within the
        // [1-a, 1+a]-scaled envelope of the jitter-free run (all kernel
        // durations scale by at most that factor; fixed costs don't grow).
        let jetson = platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&jetson);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let clean_plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::baseline_gpu())
            .unwrap();
        let clean = runtime.simulate(&graph, &clean_plan).unwrap();
        let mut config = ExecutionConfig::baseline_gpu();
        config.jitter = 0.2;
        config.jitter_seed = seed;
        let jittered_plan = tuner.plan(&graph, &runtime, config).unwrap();
        let jittered = runtime.simulate(&graph, &jittered_plan).unwrap();
        assert!(jittered.total_us >= clean.total_us * 0.8 - 1.0);
        assert!(jittered.total_us <= clean.total_us * 1.2 + 1.0);
    }
}

#[test]
fn batch_execute_matches_forward_under_random_plans() {
    // Differential test for the pooled session: random assignment plans
    // over random models, executed as a batch through one Executor, must
    // match the single-threaded reference on every input.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0008);
    for _ in 0..12 {
        let kind = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
        let graph = build(kind, ModelScale::Tiny);
        let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
        for id in graph.topo_order() {
            let node = graph.node(id).unwrap();
            let shapes = graph.input_shapes(id).unwrap();
            let units = node.layer().partition_units(&shapes).unwrap_or(1);
            let channels = node.layer().input_channels(&shapes).unwrap_or(1);
            nodes[id.index()].assignment = match rng.gen_range(0u8..4) {
                0 => Assignment::Gpu,
                1 => Assignment::Cpu,
                2 if units >= 2 => Assignment::Split {
                    cpu_fraction: rng.gen_range(0.05f64..0.95),
                },
                3 if channels >= 2 => Assignment::SplitInput {
                    cpu_fraction: rng.gen_range(0.05f64..0.95),
                },
                _ => Assignment::Gpu,
            };
        }
        let plan = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes,
        };
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::random(graph.input_shape().dims(), 1.0, rng.gen_range(0u64..1000)))
            .collect();
        let executor = functional::Executor::new(&graph).unwrap();
        let outcomes = executor.batch_execute(&plan, &inputs).unwrap();
        for (input, outcome) in inputs.iter().zip(&outcomes) {
            let reference = graph.forward(input).unwrap();
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: pooled batch diverged from reference"
            );
        }
    }
}

#[test]
fn compiled_graphs_execute_losslessly_under_random_split_plans() {
    // The executor runs the *compiled* graph (fused epilogues, folded
    // constants, prepacked weights) under random processor choices and
    // split fractions; the reference is the raw, uncompiled graph. The
    // f32 path must match to merge tolerance, and the int8 path must
    // stay within the quantization bound — on every bundled model.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC04E_0009);
    for kind in ModelKind::ALL {
        let raw = build(kind, ModelScale::Tiny);
        let (graph, report) = compile(&raw, &CompileOptions::int8()).unwrap();
        assert!(graph.len() < raw.len(), "{kind}: compiler removed nothing");
        assert!(report.prepacked_nodes > 0, "{kind}: nothing prepacked");
        for _ in 0..3 {
            let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
            for id in graph.topo_order() {
                let node = graph.node(id).unwrap();
                let shapes = graph.input_shapes(id).unwrap();
                let units = node.layer().partition_units(&shapes).unwrap_or(1);
                let channels = node.layer().input_channels(&shapes).unwrap_or(1);
                nodes[id.index()].assignment = match rng.gen_range(0u8..4) {
                    0 => Assignment::Gpu,
                    1 => Assignment::Cpu,
                    2 if units >= 2 => Assignment::Split {
                        cpu_fraction: rng.gen_range(0.05f64..0.95),
                    },
                    3 if channels >= 2 => Assignment::SplitInput {
                        cpu_fraction: rng.gen_range(0.05f64..0.95),
                    },
                    _ => Assignment::Gpu,
                };
            }
            let input = Tensor::random(graph.input_shape().dims(), 1.0, rng.gen_range(0u64..1000));
            let reference = raw.forward(&input).unwrap();

            let plan = ExecutionPlan {
                config: ExecutionConfig::edgenn(),
                nodes: nodes.clone(),
            };
            let outcome = functional::execute(&graph, &plan, &input).unwrap();
            assert!(
                outcome.output.approx_eq(&reference, 1e-4),
                "{kind}: compiled f32 execution diverged from raw reference"
            );

            let qplan = ExecutionPlan {
                config: ExecutionConfig::edgenn_int8(),
                nodes,
            };
            let qoutcome = functional::execute(&graph, &qplan, &input).unwrap();
            assert!(
                qoutcome.output.approx_eq(&reference, 0.05),
                "{kind}: compiled int8 execution outside the quantization bound"
            );
        }
    }
}
