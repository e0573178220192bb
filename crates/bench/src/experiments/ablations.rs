//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own figures.

use edgenn_core::partition::{optimal_partition, t_total_us, PartitionInputs};
use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_core::Result;

use crate::experiments::Lab;
use crate::report::{Comparison, ExperimentReport};

/// Memory-policy ablation: semantic-aware (mixed) allocation vs
/// all-managed vs all-explicit, under full hybrid execution.
///
/// # Errors
/// Propagates simulation failures.
pub fn ablation_memory_policy(lab: &Lab) -> Result<ExperimentReport> {
    let runtime = Runtime::new(&lab.jetson);
    let mut rows = Vec::new();
    let mut semantic_wins = 0usize;
    for kind in ModelKind::ALL {
        let graph = lab.model(kind);
        let tuner = Tuner::new(&graph, &runtime)?;
        let mut times = Vec::new();
        for policy in [
            MemoryPolicy::AllExplicit,
            MemoryPolicy::AllManaged,
            MemoryPolicy::SemanticAware,
        ] {
            let mut config = ExecutionConfig::edgenn();
            config.memory_policy = policy;
            let plan = tuner.plan(&graph, &runtime, config)?;
            times.push(runtime.simulate(&graph, &plan)?.total_us);
        }
        if times[2] <= times[0] && times[2] <= times[1] + 1e-6 {
            semantic_wins += 1;
        }
        rows.push((kind.name().to_string(), times));
    }
    Ok(ExperimentReport {
        id: "Ablation A".to_string(),
        title: "memory policy under hybrid execution (us)".to_string(),
        columns: vec![
            "all-explicit".to_string(),
            "all-managed".to_string(),
            "semantic-aware".to_string(),
        ],
        rows,
        comparisons: vec![Comparison::new(
            "networks where semantic-aware is best (of 6)",
            6.0,
            semantic_wins as f64,
        )],
        notes: vec![
            "The paper's claim: neither pure mechanism dominates; choosing per array by \
             semantics matches or beats both on every network."
                .to_string(),
        ],
    })
}

/// Hybrid-mode ablation: GPU-only vs inter-only vs intra-only vs
/// inter+intra, all under semantic-aware memory.
///
/// # Errors
/// Propagates simulation failures.
pub fn ablation_hybrid_modes(lab: &Lab) -> Result<ExperimentReport> {
    let runtime = Runtime::new(&lab.jetson);
    let mut rows = Vec::new();
    let mut full_wins = 0usize;
    for kind in ModelKind::ALL {
        let graph = lab.model(kind);
        let tuner = Tuner::new(&graph, &runtime)?;
        let mut times = Vec::new();
        for hybrid in [
            HybridMode::GpuOnly,
            HybridMode::InterKernelOnly,
            HybridMode::IntraKernelOnly,
            HybridMode::InterAndIntra,
        ] {
            let mut config = ExecutionConfig::edgenn();
            config.hybrid = hybrid;
            let plan = tuner.plan(&graph, &runtime, config)?;
            times.push(runtime.simulate(&graph, &plan)?.total_us);
        }
        if times[3] <= times.iter().copied().fold(f64::INFINITY, f64::min) + 1e-6 {
            full_wins += 1;
        }
        rows.push((kind.name().to_string(), times));
    }
    Ok(ExperimentReport {
        id: "Ablation B".to_string(),
        title: "co-running modes under semantic-aware memory (us)".to_string(),
        columns: vec![
            "gpu-only".to_string(),
            "inter-kernel only".to_string(),
            "intra-kernel only".to_string(),
            "inter+intra (EdgeNN)".to_string(),
        ],
        rows,
        comparisons: vec![Comparison::new(
            "networks where inter+intra is best (of 6)",
            6.0,
            full_wins as f64,
        )],
        notes: vec![
            "The paper's Section IV-C guideline: dependent kernels need intra-kernel \
             co-running, independent kernels need inter-kernel co-running; only the \
             combination covers all six networks."
                .to_string(),
        ],
    })
}

/// Validates Equation (4): the closed-form optimum against an exhaustive
/// sweep of `p_cpu`, across every splittable layer of every network.
///
/// # Errors
/// Propagates profiling failures.
pub fn ablation_popt_sweep(lab: &Lab) -> Result<ExperimentReport> {
    let runtime = Runtime::new(&lab.jetson);
    let mut worst_gap = 0.0f64;
    let mut layers_checked = 0usize;
    for kind in ModelKind::ALL {
        let graph = lab.model(kind);
        for id in graph.topo_order() {
            let node = graph.node(id)?;
            if node.layer().partition_units(&graph.input_shapes(id)?)? < 2 {
                continue;
            }
            let (t_cpu, t_gpu) = runtime.node_times(&graph, id)?;
            let inputs = PartitionInputs {
                t_cpu_us: t_cpu,
                t_gpu_us: t_gpu,
                output_bytes: (node.output_shape().num_elements() * 4) as u64,
                copy_rate_gbps: lab.jetson.memory.copy_bw_gbps,
                sync_overhead_us: 0.0, // the paper's idealized setting
            };
            let decision = optimal_partition(&inputs);
            let mut sweep_best = f64::INFINITY;
            for k in 0..=1000 {
                sweep_best = sweep_best.min(t_total_us(&inputs, k as f64 / 1000.0));
            }
            let gap = (decision.t_total_us - sweep_best) / sweep_best.max(1e-9);
            worst_gap = worst_gap.max(gap);
            layers_checked += 1;
        }
    }
    Ok(ExperimentReport {
        id: "Ablation C".to_string(),
        title: "Equation (4) closed form vs exhaustive p sweep".to_string(),
        columns: vec![],
        rows: vec![],
        comparisons: vec![
            Comparison::measured_only("layers checked", layers_checked as f64),
            Comparison::new("worst relative gap to sweep optimum", 0.0, worst_gap),
        ],
        notes: vec![
            "Eq. (4) is provably optimal for the paper's piecewise-linear cost model; \
             the sweep confirms it to sampling resolution on every layer."
                .to_string(),
        ],
    })
}

/// Tuner-convergence ablation: plan quality after k noisy profiling
/// rounds.
///
/// # Errors
/// Propagates simulation failures.
pub fn ablation_tuner_convergence(lab: &Lab) -> Result<ExperimentReport> {
    let runtime = Runtime::new(&lab.jetson);
    let graph = lab.model(ModelKind::AlexNet);
    let reference = {
        let tuner = Tuner::new(&graph, &runtime)?;
        let plan = tuner.plan(&graph, &runtime, ExecutionConfig::edgenn())?;
        runtime.simulate(&graph, &plan)?.total_us
    };

    // Start from badly corrupted statistics and watch the EMA recover.
    let mut tuner = Tuner::new(&graph, &runtime)?;
    tuner.observe(&graph, &runtime, 0.9, 0xBAD)?; // one wild measurement
    let mut rows = Vec::new();
    let mut final_gap = f64::INFINITY;
    for round in 0..8 {
        let plan = tuner.plan(&graph, &runtime, ExecutionConfig::edgenn())?;
        let t = runtime.simulate(&graph, &plan)?.total_us;
        final_gap = (t - reference) / reference * 100.0;
        rows.push((format!("round {round}"), vec![t, final_gap]));
        tuner.observe(&graph, &runtime, 0.1, round as u64)?;
    }
    Ok(ExperimentReport {
        id: "Ablation D".to_string(),
        title: "adaptive tuner recovery from corrupted statistics (AlexNet)".to_string(),
        columns: vec![
            "plan latency (us)".to_string(),
            "gap to clean plan (%)".to_string(),
        ],
        rows,
        comparisons: vec![Comparison::new(
            "final gap to clean plan (%)",
            0.0,
            final_gap,
        )],
        notes: vec![
            "The EMA feedback loop (paper Section IV-D) re-converges to the clean plan \
             within a few observation rounds even after a 90%-noise measurement."
                .to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_policy_never_loses() {
        let lab = Lab::new();
        let report = ablation_memory_policy(&lab).unwrap();
        for (model, times) in &report.rows {
            let (explicit, managed, semantic) = (times[0], times[1], times[2]);
            // Semantic-aware must match the better pure policy to within
            // 2% (small fixed costs like the prefetched input migration
            // can leave sub-percent ties).
            assert!(
                semantic <= explicit * 1.02 && semantic <= managed * 1.02,
                "{model}: semantic-aware {semantic} vs explicit {explicit} / managed {managed}"
            );
        }
    }

    #[test]
    fn combined_corunning_never_loses() {
        let lab = Lab::new();
        let report = ablation_hybrid_modes(&lab).unwrap();
        for (model, times) in &report.rows {
            let full = times[3];
            for (i, t) in times.iter().enumerate().take(3) {
                assert!(
                    full <= t * 1.02,
                    "{model}: inter+intra ({full}) lost to mode {i} ({t})"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_sweep() {
        let lab = Lab::new();
        let report = ablation_popt_sweep(&lab).unwrap();
        assert!(
            report.comparisons[0].measured > 50.0,
            "should check many layers"
        );
        assert!(
            report.comparisons[1].measured < 1e-4,
            "Eq. (4) must match the sweep, gap {}",
            report.comparisons[1].measured
        );
    }

    #[test]
    fn tuner_recovers_from_bad_statistics() {
        let lab = Lab::new();
        let report = ablation_tuner_convergence(&lab).unwrap();
        let final_gap = report.comparisons[0].measured;
        assert!(
            final_gap.abs() < 5.0,
            "tuner should re-converge to within 5% of the clean plan, got {final_gap}%"
        );
    }
}
