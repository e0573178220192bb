//! Randomized (seeded, deterministic) tests for the checker.
//!
//! The contract under test: tuner-produced plans over builder-built
//! graphs pass every tier, and a single targeted mutation of a valid
//! artifact trips exactly the diagnostic code registered for that
//! defect class.

use edgenn_check::{
    check_config, check_graph, check_plan, check_profile, codes, CheckReport, Severity,
};
use edgenn_core::plan::{Assignment, ExecutionConfig, ExecutionPlan, HybridMode, NodePlan};
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::{NodeStats, Tuner};
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_sim::platforms::{self, Platform};
use rand::{Rng, SeedableRng};

const CASES: usize = 32;

fn arb_model(rng: &mut rand::rngs::StdRng) -> ModelKind {
    match rng.gen_range(0u32..6) {
        0 => ModelKind::Fcnn,
        1 => ModelKind::LeNet,
        2 => ModelKind::AlexNet,
        3 => ModelKind::Vgg16,
        4 => ModelKind::SqueezeNet,
        _ => ModelKind::ResNet18,
    }
}

fn arb_gpu_platform(rng: &mut rand::rngs::StdRng) -> Platform {
    match rng.gen_range(0u32..4) {
        0 => platforms::jetson_agx_xavier(),
        1 => platforms::rtx_2080ti_server(),
        2 => platforms::amd_embedded_apu(),
        _ => platforms::apple_silicon_m1(),
    }
}

fn arb_config(rng: &mut rand::rngs::StdRng) -> ExecutionConfig {
    match rng.gen_range(0u32..6) {
        0 => ExecutionConfig::edgenn(),
        1 => ExecutionConfig::baseline_gpu(),
        2 => ExecutionConfig::memory_only(),
        3 => ExecutionConfig::hybrid_only(),
        4 => ExecutionConfig::inter_kernel_only(),
        _ => ExecutionConfig::edgenn_energy_aware(),
    }
}

/// Tuner-produced plans over builder-built graphs pass tiers A and B on
/// the platform they were planned for.
#[test]
fn random_valid_plans_pass_the_checker() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0001);
    for _ in 0..CASES {
        let graph = build(arb_model(&mut rng), ModelScale::Tiny);
        let platform = arb_gpu_platform(&mut rng);
        let config = arb_config(&mut rng);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).expect("profile");
        let plan = tuner.plan(&graph, &runtime, config).expect("plan");

        let mut report = CheckReport::new(check_graph(&graph));
        report.extend(check_profile(tuner.stats()));
        report.extend(check_plan(&graph, &plan, &platform));
        assert!(
            report.is_clean(),
            "{:?} on {}: {}",
            graph.name(),
            platform.name,
            report.render_table()
        );
    }
}

/// Negating one profiled time trips EC016 and nothing in tier A.
#[test]
fn negative_profile_time_mutation_trips_ec016() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0002);
    for _ in 0..CASES {
        let graph = build(arb_model(&mut rng), ModelScale::Tiny);
        let platform = platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).expect("profile");
        let mut stats: Vec<NodeStats> = tuner.stats().to_vec();
        let victim = rng.gen_range(0usize..stats.len());
        if rng.gen_range(0u32..2) == 0 {
            stats[victim].t_cpu_us = -stats[victim].t_cpu_us.max(1.0);
        } else {
            stats[victim].t_gpu_us = f64::NAN;
        }
        let diags = check_profile(&stats);
        assert!(
            diags.iter().any(|d| d.code == codes::INVALID_PROFILE_TIME),
            "mutated node {victim} not caught: {diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }
}

/// Pushing one split fraction outside (0, 1] trips EC011.
#[test]
fn out_of_range_fraction_mutation_trips_ec011() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0003);
    for _ in 0..CASES {
        let graph = build(arb_model(&mut rng), ModelScale::Tiny);
        let platform = platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).expect("profile");
        let mut plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .expect("plan");
        let victim = rng.gen_range(1usize..plan.nodes.len());
        let bad = if rng.gen_range(0u32..2) == 0 {
            rng.gen_range(1.001f64..10.0)
        } else {
            -rng.gen_range(0.001f64..10.0)
        };
        plan.nodes[victim].assignment = Assignment::Split { cpu_fraction: bad };
        let diags = check_plan(&graph, &plan, &platform);
        assert!(
            diags.iter().any(|d| d.code == codes::SPLIT_FRACTION_RANGE),
            "fraction {bad} on n{victim} not caught: {diags:?}"
        );
    }
}

/// Swapping a placement against the platform or mode trips EC013/EC014.
#[test]
fn swapped_placement_mutation_trips_ec013_or_ec014() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0004);
    for _ in 0..CASES {
        let graph = build(arb_model(&mut rng), ModelScale::Tiny);

        // GPU work planned onto a GPU-less platform: EC014.
        let cpu_only_platform = platforms::raspberry_pi_4();
        let plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        let diags = check_plan(&graph, &plan, &cpu_only_platform);
        assert!(
            diags.iter().any(|d| d.code == codes::GPU_WORK_WITHOUT_GPU),
            "{diags:?}"
        );

        // A split under a mode that forbids intra-kernel co-running: EC013.
        let platform = arb_gpu_platform(&mut rng);
        let mut plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        assert_eq!(plan.config.hybrid, HybridMode::GpuOnly);
        let victim = rng.gen_range(1usize..plan.nodes.len());
        plan.nodes[victim].assignment = Assignment::Split { cpu_fraction: 0.5 };
        let diags = check_plan(&graph, &plan, &platform);
        assert!(
            diags.iter().any(|d| d.code == codes::ASSIGNMENT_FORBIDDEN),
            "split on n{victim} under GpuOnly not caught: {diags:?}"
        );
    }
}

/// Random config mutations outside the documented ranges trip EC017.
#[test]
fn config_field_mutations_trip_ec017() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0005);
    for _ in 0..CASES {
        let mut config = arb_config(&mut rng);
        match rng.gen_range(0u32..3) {
            0 => config.sync_overhead_us = -rng.gen_range(0.001f64..100.0),
            1 => config.host_roundtrip_fraction = rng.gen_range(1.001f64..5.0),
            _ => config.jitter = rng.gen_range(1.0f64..4.0),
        }
        let diags = check_config(&config);
        assert!(
            diags.iter().any(|d| d.code == codes::CONFIG_FIELD_RANGE),
            "{config:?}: {diags:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tier D: one surgical schedule mutation per EC05x code.
// ---------------------------------------------------------------------------

use edgenn_check::{analyze_schedule, check_ownership, derive_schedule, Op, Region, Schedule};

/// A tuned tiny-scale `(graph, plan)` pair whose derived schedule is
/// clean — the fixed point every mutation below perturbs.
fn tier_d_subject(
    rng: &mut rand::rngs::StdRng,
) -> (edgenn_nn::graph::Graph, ExecutionPlan, Platform) {
    let graph = build(arb_model(rng), ModelScale::Tiny);
    let platform = platforms::jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).expect("profile");
    let plan = tuner
        .plan(&graph, &runtime, ExecutionConfig::edgenn())
        .expect("plan");
    (graph, plan, platform)
}

/// Asserts `code` fires on `schedule` and did not fire pre-mutation.
fn assert_trips(
    code: &str,
    graph: &edgenn_nn::graph::Graph,
    plan: &ExecutionPlan,
    platform: &Platform,
    schedule: &Schedule,
) {
    let clean = check_ownership(graph, plan, platform);
    assert!(
        clean.diagnostics.iter().all(|d| d.code != code),
        "{code} already fires without the mutation: {:?}",
        clean.diagnostics
    );
    let report = analyze_schedule(graph, platform, schedule, clean.bound.weight_bytes);
    assert!(
        report.diagnostics.iter().any(|d| d.code == code),
        "mutation did not trip {code}: {:?}",
        report.diagnostics
    );
}

/// A read injected before the producing write trips EC050.
#[test]
fn premature_read_mutation_trips_ec050() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0050);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let victim = rng.gen_range(1usize..graph.len());
        schedule.regions.insert(
            0,
            Region::Serial(vec![Op::Read {
                node: victim,
                slot: victim,
            }]),
        );
        assert_trips(
            codes::READ_BEFORE_WRITE,
            &graph,
            &plan,
            &platform,
            &schedule,
        );
    }
}

/// A duplicated write to an already-live slot trips EC051.
#[test]
fn double_write_mutation_trips_ec051() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0051);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let victim = rng.gen_range(1usize..graph.len());
        let at = schedule.regions.len() - 1; // before the MoveOut region
        schedule.regions.insert(
            at,
            Region::Serial(vec![Op::Write {
                node: victim,
                slot: victim,
            }]),
        );
        assert_trips(codes::DOUBLE_WRITE, &graph, &plan, &platform, &schedule);
    }
}

/// Two parallel branches touching the same slot trip EC052.
#[test]
fn cross_branch_race_mutation_trips_ec052() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0052);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let victim = rng.gen_range(1usize..graph.len());
        let write = Op::Write {
            node: victim,
            slot: victim,
        };
        let race = if rng.gen_range(0u32..2) == 0 {
            // Writer/writer race.
            vec![vec![write], vec![write]]
        } else {
            // Writer/reader race.
            vec![
                vec![write],
                vec![Op::Read {
                    node: victim,
                    slot: victim,
                }],
            ]
        };
        schedule.regions.insert(0, Region::Parallel(race));
        assert_trips(
            codes::CROSS_BRANCH_RACE,
            &graph,
            &plan,
            &platform,
            &schedule,
        );
    }
}

/// A read appended after the output moved out trips EC053.
#[test]
fn use_after_move_mutation_trips_ec053() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0053);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let out = graph.output_id().index();
        schedule.regions.push(Region::Serial(vec![Op::Read {
            node: out,
            slot: out,
        }]));
        assert_trips(codes::USE_AFTER_MOVE, &graph, &plan, &platform, &schedule);
    }
}

/// Deleting the output's producing write trips EC054.
#[test]
fn missing_output_write_mutation_trips_ec054() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0054);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let out = graph.output_id().index();
        for region in &mut schedule.regions {
            let drop_write = |ops: &mut Vec<Op>| {
                ops.retain(|op| !matches!(op, Op::Write { slot, .. } if *slot == out));
            };
            match region {
                Region::Serial(ops) => drop_write(ops),
                Region::Parallel(branches) => branches.iter_mut().for_each(drop_write),
            }
        }
        assert_trips(
            codes::OUTPUT_NEVER_PRODUCED,
            &graph,
            &plan,
            &platform,
            &schedule,
        );
    }
}

/// Deleting every read of an interior slot trips the EC055 warning.
#[test]
fn dead_write_mutation_trips_ec055() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0055);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        // Node 1's output always has at least one consumer in the
        // builder models, and is never the output.
        let victim = 1usize;
        assert_ne!(victim, graph.output_id().index());
        for region in &mut schedule.regions {
            let drop_reads = |ops: &mut Vec<Op>| {
                ops.retain(|op| !matches!(op, Op::Read { slot, .. } if *slot == victim));
            };
            match region {
                Region::Serial(ops) => drop_reads(ops),
                Region::Parallel(branches) => branches.iter_mut().for_each(drop_reads),
            }
        }
        let weights = check_ownership(&graph, &plan, &platform).bound.weight_bytes;
        let report = analyze_schedule(&graph, &platform, &schedule, weights);
        let ec055: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::DEAD_WRITE)
            .collect();
        assert!(!ec055.is_empty(), "no EC055: {:?}", report.diagnostics);
        assert!(
            ec055.iter().all(|d| d.severity == Severity::Warning),
            "EC055 must stay a warning: {ec055:?}"
        );
    }
}

/// Deleting an arena release (leaking the buffer past the node's write)
/// trips EC056.
#[test]
fn leaked_arena_buffer_mutation_trips_ec056() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0056);
    for _ in 0..CASES {
        // LeNet always has convolutions, hence arena acquisitions.
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let platform = platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).expect("profile");
        let plan = tuner
            .plan(&graph, &runtime, arb_config(&mut rng))
            .expect("plan");
        let mut schedule = derive_schedule(&graph, &plan);
        let mut dropped = false;
        for region in &mut schedule.regions {
            if dropped {
                break;
            }
            if let Region::Serial(ops) = region {
                if let Some(pos) = ops
                    .iter()
                    .position(|op| matches!(op, Op::ArenaRelease { .. }))
                {
                    ops.remove(pos);
                    dropped = true;
                }
            }
        }
        assert!(dropped, "LeNet schedule must contain an arena release");
        assert_trips(codes::ARENA_ESCAPE, &graph, &plan, &platform, &schedule);
    }
}

/// A merge retargeted at a foreign live slot trips EC057.
#[test]
fn aliased_merge_mutation_trips_ec057() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0057);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        // Merge node 2's partials into node 1's already-live buffer.
        let at = schedule.regions.len() - 1;
        schedule
            .regions
            .insert(at, Region::Serial(vec![Op::Merge { node: 2, target: 1 }]));
        assert_trips(
            codes::MERGE_ALIASES_LIVE_SLOT,
            &graph,
            &plan,
            &platform,
            &schedule,
        );
    }
}

/// Shrinking the platform's DRAM under the certified bound trips EC058.
#[test]
fn tiny_dram_mutation_trips_ec058() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0058);
    for _ in 0..CASES {
        let (graph, plan, mut platform) = tier_d_subject(&mut rng);
        platform.dram_bytes = rng.gen_range(1u64..1024);
        let report = check_ownership(&graph, &plan, &platform);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::CERTIFIED_PEAK_EXCEEDS_DRAM),
            "bound {} vs dram {} not caught: {:?}",
            report.bound.total_bytes,
            platform.dram_bytes,
            report.diagnostics
        );
    }
}

/// A write aimed at the borrowed input slot trips EC059.
#[test]
fn borrowed_input_write_mutation_trips_ec059() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_0059);
    for _ in 0..CASES {
        let (graph, plan, platform) = tier_d_subject(&mut rng);
        let mut schedule = derive_schedule(&graph, &plan);
        let writer = rng.gen_range(1usize..graph.len());
        schedule.regions.insert(
            0,
            Region::Serial(vec![Op::Write {
                node: writer,
                slot: 0,
            }]),
        );
        assert_trips(
            codes::BORROWED_INPUT_WRITTEN,
            &graph,
            &plan,
            &platform,
            &schedule,
        );
    }
}

/// Quantize→dequantize round-trip error stays within half a code step
/// (`scale / 2`) for any in-range value under random affine parameters.
#[test]
fn random_quantize_round_trip_within_half_scale() {
    use edgenn_tensor::{quantize_into, QuantParams};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_1808);
    for _ in 0..CASES {
        // A random calibration range that straddles zero (the affine
        // scheme always keeps 0.0 exactly representable).
        let lo = -rng.gen_range(0.01f32..100.0);
        let hi = rng.gen_range(0.01f32..100.0);
        let p = QuantParams::from_min_max(lo, hi);
        let src: Vec<f32> = (0..256).map(|_| rng.gen_range(lo..hi)).collect();
        let mut q = vec![0i8; src.len()];
        quantize_into(&src, &mut q, p);
        for (&v, &code) in src.iter().zip(&q) {
            let back = p.dequantize_one(code);
            assert!(
                (v - back).abs() <= p.scale / 2.0 + 1e-6,
                "v={v} back={back} scale={}",
                p.scale
            );
        }
    }
}

/// The packed int8 GEMM tracks the f32 GEMM within the analytic
/// per-element quantization bound on random shapes and operands:
/// each operand contributes at most half a code step per factor, so
/// `|err[i][j]| <= Σ_p (|w|·εx + |x|·εw + εw·εx)` with
/// `εw = s_w[i]/2`, `εx = s_x/2`.
#[test]
fn random_int8_gemm_tracks_f32_within_quantization_bound() {
    use edgenn_tensor::{
        gemm_into, min_max, qgemm_requant_into, quantize_into, row_sums, QTensor, QuantParams,
        Quantization, Requant, Tensor,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_1811);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..24);
        let k = rng.gen_range(1usize..96);
        let n = rng.gen_range(1usize..48);
        let w = Tensor::random(&[m, k], 1.0, rng.gen_range(0u64..u64::MAX));
        let x = Tensor::random(&[k, n], 1.0, rng.gen_range(0u64..u64::MAX));
        let qw = QTensor::quantize_per_channel(&w).unwrap();
        let Quantization::PerChannel(wp) = qw.quant().clone() else {
            unreachable!()
        };
        let w_scales: Vec<f32> = wp.iter().map(|p| p.scale).collect();
        let rsums = row_sums(qw.as_slice(), m, k);
        let (lo, hi) = min_max(x.as_slice());
        let act = QuantParams::from_min_max(lo, hi);
        let mut qx = vec![0i8; k * n];
        quantize_into(x.as_slice(), &mut qx, act);
        let rq = Requant {
            w_scales: &w_scales,
            act,
            row_sums: &rsums,
            bias: None,
            relu: false,
        };
        let mut got = vec![0.0f32; m * n];
        qgemm_requant_into(qw.as_slice(), &qx, &mut got, m, k, n, &rq);
        let mut want = vec![0.0f32; m * n];
        gemm_into(w.as_slice(), x.as_slice(), &mut want, m, k, n);
        for i in 0..m {
            let ew = w_scales[i] / 2.0;
            let ex = act.scale / 2.0;
            for j in 0..n {
                let bound: f32 = (0..k)
                    .map(|p| {
                        let wv = w.as_slice()[i * k + p].abs();
                        let xv = x.as_slice()[p * n + j].abs();
                        wv * ex + xv * ew + ew * ex
                    })
                    .sum::<f32>()
                    + 1e-4;
                let err = (got[i * n + j] - want[i * n + j]).abs();
                assert!(
                    err <= bound,
                    "({m},{k},{n}) [{i},{j}]: err {err} > bound {bound}"
                );
            }
        }
    }
}
