//! The fine-grained adaptive inference tuning approach (paper
//! Section IV-D).
//!
//! The tuner:
//! 1. partitions the network into sub-tasks by layers and builds the DAG
//!    (the fork-join segments of the graph's [`Program`], which the
//!    engine and the simulator walk too);
//! 2. **profiles** each sub-task on both processors ("we first use the CPU
//!    and the GPU to calculate the whole layer separately and record
//!    their execution time");
//! 3. applies the closed-form intra-kernel optimum (Equations 1-4) to
//!    chain layers and enumerates inter-kernel branch assignments for
//!    fork-join regions;
//! 4. chooses each array's allocation strategy semantically, with the
//!    cost refinement;
//! 5. **adapts**: each execution feeds measured times back into
//!    exponential moving averages, and the plan is regenerated, so the
//!    strategy tracks the device's real behaviour across runs.

use edgenn_nn::graph::{Graph, NodeId, Segment};
use edgenn_nn::layer::LayerClass;
use edgenn_sim::AllocStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::assign::{optimal_assignment, BranchAssignment, BranchCost};
use crate::partition::{optimal_partition, PartitionInputs};
use crate::plan::{
    Assignment, ExecutionConfig, ExecutionPlan, HybridMode, MemoryPolicy, NodePlan, TuneObjective,
};
use crate::runtime::{kernel_desc, Runtime};
use crate::schedule::Program;
use crate::semantics::{decide, refine_by_cost, ArrayRole};
use crate::Result;

/// Execution context of a solo (non-co-run) kernel under a memory policy's
/// GPU-side bandwidth factor.
fn solo_policy_ctx(bw_factor: f64) -> edgenn_sim::processor::ExecutionContext {
    edgenn_sim::processor::ExecutionContext {
        bandwidth_factor: bw_factor,
        contention_factor: 1.0,
        compute_factor: 1.0,
    }
}

/// Profiled per-node statistics (exponential moving averages).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeStats {
    /// EMA of the CPU solo time (us).
    pub t_cpu_us: f64,
    /// EMA of the GPU solo time (us).
    pub t_gpu_us: f64,
    /// Number of profiling observations folded in.
    pub samples: u32,
}

/// Residency of a chain's incoming data when the DP starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainStart {
    /// The network input: written by the host.
    Host,
    /// A fork-join join point: both processors just synchronized.
    Synced,
}

/// The inputs the tuner fed to the Equation (1)-(4) closed form for one
/// node: contended solo times and the merge model. Kept for decision
/// provenance so an `explain` consumer can re-derive the optimum.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EqInputs {
    /// CPU time under co-run contention (us) — Eq. (1)'s CPU term.
    pub t_cpu_corun_us: f64,
    /// GPU time under co-run contention and the policy's zero-copy
    /// bandwidth penalty (us) — Eq. (1)'s GPU term.
    pub t_gpu_corun_us: f64,
    /// Output bytes an explicit merge would copy — Eq. (3)'s volume.
    pub output_bytes: u64,
    /// Explicit copy bandwidth (GB/s) of the merge model.
    pub copy_rate_gbps: f64,
    /// Per-split synchronization overhead (us).
    pub sync_overhead_us: f64,
}

/// One candidate the tuner priced for a node, kept for provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateCost {
    /// Candidate label ("cpu", "gpu", "output split 40% cpu", ...).
    pub label: String,
    /// Predicted execution time (us) under the active memory policy.
    pub predicted_us: f64,
    /// True for the candidate the plan settled on.
    pub chosen: bool,
}

/// Per-node candidate costs considered by the chain DP.
#[derive(Debug, Clone)]
struct NodeCandidates {
    /// GPU solo time under the active memory policy (us).
    t_gpu_us: f64,
    /// CPU solo time (us).
    t_cpu_us: f64,
    /// Intra-kernel co-run candidate, when the layer is splittable and
    /// Eq. (4) yields an interior optimum.
    split: Option<SplitCandidate>,
    /// The closed-form inputs, when the layer was splittable at all.
    eq: Option<EqInputs>,
    /// Activation bytes the node reads (handoff sizing).
    input_bytes: u64,
}

/// One viable intra-kernel split.
#[derive(Debug, Clone)]
struct SplitCandidate {
    cpu_fraction: f64,
    t_total_us: f64,
    alloc: AllocStrategy,
    /// True for the input-channel (partial-sum) split, false for the
    /// output-unit split.
    by_input: bool,
}

/// One row of a plan explanation: what the tuner measured and chose for
/// a node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeExplanation {
    /// Node id.
    pub node: usize,
    /// Layer name.
    pub name: String,
    /// Layer class tag.
    pub class: String,
    /// Profiled CPU solo time (EMA, us).
    pub t_cpu_us: f64,
    /// Profiled GPU solo time (EMA, us).
    pub t_gpu_us: f64,
    /// The assignment the plan settled on.
    pub assignment: Assignment,
    /// The output allocation strategy.
    pub output_alloc: AllocStrategy,
    /// Predicted time of the chosen candidate (us).
    pub predicted_us: f64,
    /// Every candidate the tuner priced, including the rejected ones.
    pub candidates: Vec<CandidateCost>,
    /// The Eq. (1)-(4) inputs, when the layer was splittable.
    pub eq_inputs: Option<EqInputs>,
    /// One-line justification of the decision.
    pub rationale: String,
}

/// The adaptive tuner.
#[derive(Debug, Clone)]
pub struct Tuner {
    stats: Vec<NodeStats>,
    /// EMA smoothing factor in (0, 1]: weight of the newest observation.
    alpha: f64,
}

impl Tuner {
    /// Creates a tuner and takes the initial profiling measurements
    /// (jitter-free).
    ///
    /// # Errors
    /// Propagates workload failures from profiling.
    pub fn new(graph: &Graph, runtime: &Runtime<'_>) -> Result<Self> {
        let mut tuner = Self {
            stats: Vec::with_capacity(graph.len()),
            alpha: 0.4,
        };
        for id in graph.topo_order() {
            let (t_cpu_us, t_gpu_us) = runtime.node_times(graph, id)?;
            tuner.stats.push(NodeStats {
                t_cpu_us,
                t_gpu_us,
                samples: 1,
            });
        }
        Ok(tuner)
    }

    /// Per-node statistics.
    pub fn stats(&self) -> &[NodeStats] {
        &self.stats
    }

    /// Restores a tuner from previously exported statistics (an on-device
    /// deployment persists its profile across restarts instead of
    /// re-measuring from scratch).
    ///
    /// # Errors
    /// Returns [`crate::CoreError::PlanMismatch`] when the statistics do
    /// not cover `graph` exactly.
    pub fn from_stats(graph: &Graph, stats: Vec<NodeStats>) -> Result<Self> {
        let tuner = Self { stats, alpha: 0.4 };
        tuner.check_covers(graph)?;
        Ok(tuner)
    }

    /// Fails unless the statistics cover `graph` node for node.
    fn check_covers(&self, graph: &Graph) -> Result<()> {
        if self.stats.len() == graph.len() {
            return Ok(());
        }
        Err(crate::CoreError::PlanMismatch {
            reason: format!(
                "tuner statistics cover {} nodes, graph '{}' has {}",
                self.stats.len(),
                graph.name(),
                graph.len()
            ),
        })
    }

    /// Folds one more profiling run into the statistics. `jitter` and
    /// `seed` model measurement noise of a real run (the adaptive feedback
    /// loop the paper describes: "performance statistics are collected to
    /// adjust the execution strategy adaptively").
    ///
    /// # Errors
    /// Propagates workload failures from profiling.
    pub fn observe(
        &mut self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        jitter: f64,
        seed: u64,
    ) -> Result<()> {
        self.check_covers(graph)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for id in graph.topo_order() {
            let (mut t_cpu, mut t_gpu) = runtime.node_times(graph, id)?;
            if jitter > 0.0 {
                t_cpu *= 1.0 + jitter * rng.gen_range(-1.0..=1.0);
                t_gpu *= 1.0 + jitter * rng.gen_range(-1.0..=1.0);
            }
            let s = &mut self.stats[id.index()];
            s.t_cpu_us += self.alpha * (t_cpu - s.t_cpu_us);
            if t_gpu.is_finite() {
                s.t_gpu_us += self.alpha * (t_gpu - s.t_gpu_us);
            }
            s.samples += 1;
            let (ema_cpu, ema_gpu, round) = (s.t_cpu_us, s.t_gpu_us, s.samples);
            if let Some(rec) = runtime.observer() {
                let node = graph.node(id)?;
                if node.layer().class() != LayerClass::Input {
                    let name = node.layer().name();
                    rec.sample(format!("ema_cpu_us/{name}"), f64::from(round), ema_cpu);
                    if ema_gpu.is_finite() {
                        rec.sample(format!("ema_gpu_us/{name}"), f64::from(round), ema_gpu);
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds an execution plan for `graph` under `config`.
    ///
    /// # Errors
    /// Fails on structural decomposition errors or workload failures.
    pub fn plan(
        &self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        config: ExecutionConfig,
    ) -> Result<ExecutionPlan> {
        self.check_covers(graph)?;
        let platform = runtime.platform();
        let default_assignment = match config.hybrid {
            HybridMode::CpuOnly => Assignment::Cpu,
            _ => Assignment::Gpu,
        };
        let mut nodes = vec![
            NodePlan {
                assignment: default_assignment,
                output_alloc: AllocStrategy::Explicit,
                prefetch_inputs: false,
            };
            graph.len()
        ];

        // --- Hybrid-execution decisions -------------------------------
        let program = Program::new(graph)?;
        let allow_intra = platform.has_gpu()
            && matches!(
                config.hybrid,
                HybridMode::IntraKernelOnly | HybridMode::InterAndIntra
            );
        let allow_inter = platform.has_gpu()
            && matches!(
                config.hybrid,
                HybridMode::InterKernelOnly | HybridMode::InterAndIntra
            );

        for (seg, segment) in program.segments().iter().enumerate() {
            match segment {
                Segment::Chain(chain) => {
                    if allow_intra {
                        // The first chain starts at the input node (data on
                        // the host); later chains start at a join, where the
                        // processors have just synchronized.
                        let start = if seg == 0 {
                            ChainStart::Host
                        } else {
                            ChainStart::Synced
                        };
                        let _ =
                            self.decide_chain(graph, runtime, &config, chain, start, &mut nodes)?;
                    }
                }
                Segment::Parallel { branches, .. } => {
                    // The fine-grained adaptive choice: evaluate the
                    // inter-kernel assignment (whole branches to
                    // processors) against the intra-kernel treatment
                    // (branches sequential, each layer splittable) and
                    // keep the cheaper region plan.
                    let inter = allow_inter.then(|| nodes.clone());
                    let mut intra_cost = 0.0;
                    if allow_intra {
                        for branch in branches {
                            intra_cost += self.decide_chain(
                                graph,
                                runtime,
                                &config,
                                branch,
                                ChainStart::Synced,
                                &mut nodes,
                            )?;
                        }
                    }
                    if let Some(mut inter_nodes) = inter {
                        let inter_cost = self.decide_branches(
                            graph,
                            &config,
                            branches,
                            &mut inter_nodes,
                            platform,
                        );
                        if !allow_intra || inter_cost < intra_cost {
                            nodes = inter_nodes;
                        }
                    }
                }
            }
        }

        // --- Memory decisions ------------------------------------------
        match config.memory_policy {
            MemoryPolicy::AllExplicit => {}
            MemoryPolicy::AllManaged => {
                for node in &mut nodes {
                    node.output_alloc = AllocStrategy::Managed;
                }
            }
            MemoryPolicy::SemanticAware => {
                self.decide_memory(graph, runtime, &program, &mut nodes)?;
            }
        }

        let plan = ExecutionPlan { config, nodes };
        plan.validate(graph)?;
        Ok(plan)
    }

    /// Explains a plan node by node: profiled times, every candidate the
    /// planner priced (with the rejected costs), the Eq. (1)-(4) inputs,
    /// and a one-line rationale — the "why" behind every decision.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::PlanMismatch`] when the plan or the
    /// statistics do not cover `graph`.
    pub fn explain(
        &self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        plan: &ExecutionPlan,
    ) -> Result<Vec<NodeExplanation>> {
        plan.validate(graph)?;
        self.check_covers(graph)?;
        let has_gpu = runtime.platform().has_gpu();
        let mut rows = Vec::with_capacity(graph.len().saturating_sub(1));
        for id in graph.topo_order().skip(1) {
            let node = graph.node(id)?;
            let stats = self.stats[id.index()];
            let assignment = plan.nodes[id.index()].assignment;
            let output_alloc = plan.nodes[id.index()].output_alloc;

            // Re-derive the candidate costs the planner weighed (the
            // policy-adjusted GPU time and the launch-aware split).
            let cand = if has_gpu {
                Some(self.node_candidates(graph, runtime, &plan.config, id)?)
            } else {
                None
            };
            let t_cpu = cand.as_ref().map_or(stats.t_cpu_us, |c| c.t_cpu_us);
            let t_gpu = cand.as_ref().map_or(stats.t_gpu_us, |c| c.t_gpu_us);
            let split = cand.as_ref().and_then(|c| c.split.clone());

            let mut candidates = vec![CandidateCost {
                label: "cpu".to_string(),
                predicted_us: t_cpu,
                chosen: matches!(assignment, Assignment::Cpu),
            }];
            if has_gpu {
                candidates.push(CandidateCost {
                    label: "gpu".to_string(),
                    predicted_us: t_gpu,
                    chosen: matches!(assignment, Assignment::Gpu),
                });
            }
            if let Some(s) = &split {
                candidates.push(CandidateCost {
                    label: format!(
                        "{} split {:.0}% cpu",
                        if s.by_input {
                            "input-channel"
                        } else {
                            "output"
                        },
                        s.cpu_fraction * 100.0
                    ),
                    predicted_us: s.t_total_us,
                    chosen: assignment.is_corun(),
                });
            }
            let predicted_us = candidates
                .iter()
                .find(|c| c.chosen)
                .map_or_else(|| t_cpu.min(t_gpu), |c| c.predicted_us);
            let rationale = rationale_line(assignment, t_cpu, t_gpu, split.as_ref(), output_alloc);
            rows.push(NodeExplanation {
                node: id.index(),
                name: node.layer().name().to_string(),
                class: node.layer().class().tag().to_string(),
                t_cpu_us: stats.t_cpu_us,
                t_gpu_us: stats.t_gpu_us,
                assignment,
                output_alloc,
                predicted_us,
                candidates,
                eq_inputs: cand.and_then(|c| c.eq),
                rationale,
            });
        }
        Ok(rows)
    }

    /// Runs the adaptive loop: observe -> re-plan, `iterations` times,
    /// returning the final plan and the predicted makespan after each
    /// iteration (for convergence studies).
    ///
    /// # Errors
    /// Propagates planning/simulation failures.
    pub fn adapt(
        &mut self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        config: ExecutionConfig,
        iterations: usize,
        jitter: f64,
    ) -> Result<(ExecutionPlan, Vec<f64>)> {
        let mut history = Vec::with_capacity(iterations);
        let mut plan = self.plan(graph, runtime, config)?;
        for round in 0..iterations {
            let report = runtime.simulate(graph, &plan)?;
            history.push(report.total_us);
            self.observe(graph, runtime, jitter, round as u64 + 1)?;
            plan = self.plan(graph, runtime, config)?;
            if let Some(rec) = runtime.observer() {
                rec.instant("plan");
            }
        }
        Ok((plan, history))
    }

    /// Computes the per-processor candidate costs for one node.
    fn node_candidates(
        &self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        config: &ExecutionConfig,
        id: NodeId,
    ) -> Result<NodeCandidates> {
        let node = graph.node(id)?;
        let stats = self.stats[id.index()];
        let memory = &runtime.platform().memory;
        let desc = kernel_desc(graph, id)?;
        let solo = edgenn_sim::processor::ExecutionContext::default();
        let bw_factor = match config.memory_policy {
            MemoryPolicy::AllExplicit => 1.0,
            _ => memory.managed_bw_factor,
        };
        let gpu_spec = runtime.platform().gpu.as_ref().expect("requires a GPU");
        let policy_factor = crate::runtime::weighted_bw_factor(&desc, bw_factor);

        // GPU solo time under the policy's zero-copy access penalty (the
        // CPU reads the same DRAM either way, so its solo time is the EMA).
        let t_gpu = stats.t_gpu_us
            * gpu_spec.kernel_time_us(&desc, &solo_policy_ctx(policy_factor))
            / gpu_spec.kernel_time_us(&desc, &solo);
        let t_cpu = stats.t_cpu_us;

        // Split candidate. Equation (4)'s closed form assumes kernel time
        // scales linearly with the partition fraction; real kernels carry
        // a fixed launch overhead, so the tuner takes Eq. (4)'s optimum as
        // the candidate and *evaluates* it (and the measurement-corrected
        // endpoints) with the full launch-aware kernel model the runtime
        // will charge.
        let shapes = graph.input_shapes(id)?;
        let units = node.layer().partition_units(&shapes)?;
        let (split, eq) = if units >= 2 {
            let cpu_spec = &runtime.platform().cpu;
            let cpu_corun = edgenn_sim::processor::ExecutionContext {
                bandwidth_factor: 1.0,
                contention_factor: memory.corun_contention_factor,
                compute_factor: 1.0,
            };
            let gpu_corun = edgenn_sim::processor::ExecutionContext {
                bandwidth_factor: policy_factor,
                contention_factor: memory.corun_contention_factor,
                compute_factor: 1.0,
            };
            // Measurement feedback: EMA / analytic ratio corrects the
            // model toward observed behaviour.
            let ema_cpu = stats.t_cpu_us / cpu_spec.kernel_time_us(&desc, &solo).max(1e-9);
            let ema_gpu = stats.t_gpu_us / gpu_spec.kernel_time_us(&desc, &solo).max(1e-9);
            let v_o = (node.output_shape().num_elements() * 4) as u64;
            let boundary_us = memory.thrash_time_us(v_o.min(128 << 10));

            // Launch-aware evaluation of a split at fraction p under one
            // merge model; returns the predicted total time.
            let evaluate = |p: f64, explicit_merge: bool| -> f64 {
                let t_c = cpu_spec
                    .kernel_time_us(&crate::runtime::scale_desc(&desc, p), &cpu_corun)
                    * ema_cpu;
                let t_g = gpu_spec
                    .kernel_time_us(&crate::runtime::scale_desc(&desc, 1.0 - p), &gpu_corun)
                    * ema_gpu;
                let merge = if explicit_merge {
                    memory.copy_time_us((v_o as f64 * p) as u64)
                } else {
                    boundary_us
                };
                t_c.max(t_g) + merge + config.sync_overhead_us
            };

            // Eq. (4) closed-form optimum on the contended times.
            let t_cpu_co = stats.t_cpu_us * cpu_spec.kernel_time_us(&desc, &cpu_corun)
                / cpu_spec.kernel_time_us(&desc, &solo);
            let t_gpu_co = stats.t_gpu_us * gpu_spec.kernel_time_us(&desc, &gpu_corun)
                / gpu_spec.kernel_time_us(&desc, &solo);
            let explicit_decision = optimal_partition(&PartitionInputs {
                t_cpu_us: t_cpu_co,
                t_gpu_us: t_gpu_co,
                output_bytes: v_o,
                copy_rate_gbps: memory.copy_bw_gbps,
                sync_overhead_us: config.sync_overhead_us,
            });
            let managed_decision = optimal_partition(&PartitionInputs {
                t_cpu_us: t_cpu_co,
                t_gpu_us: t_gpu_co,
                output_bytes: 0,
                copy_rate_gbps: memory.copy_bw_gbps,
                sync_overhead_us: config.sync_overhead_us + boundary_us,
            });

            let mut best: Option<SplitCandidate> = None;
            let candidates: &[(f64, bool)] = match config.memory_policy {
                MemoryPolicy::AllExplicit => &[(explicit_decision.p_cpu, true)],
                MemoryPolicy::AllManaged => &[(managed_decision.p_cpu, false)],
                MemoryPolicy::SemanticAware => &[
                    (explicit_decision.p_cpu, true),
                    (managed_decision.p_cpu, false),
                ],
            };
            for &(p_raw, explicit_merge) in candidates {
                if p_raw <= 0.0 || p_raw >= 1.0 {
                    continue;
                }
                // Snap to whole partition units, as the runtime will.
                let cpu_units = ((p_raw * units as f64).round() as usize).clamp(1, units - 1);
                let p = cpu_units as f64 / units as f64;
                let t = evaluate(p, explicit_merge);
                if best.as_ref().is_none_or(|b| t < b.t_total_us) {
                    best = Some(SplitCandidate {
                        cpu_fraction: p,
                        t_total_us: t,
                        alloc: if explicit_merge {
                            AllocStrategy::Explicit
                        } else {
                            AllocStrategy::Managed
                        },
                        by_input: false,
                    });
                }
            }

            // The paper's Section IV-D split: by input channels, each
            // processor producing a full-size partial sum. Both sides
            // write every output page, so the merge is an explicit copy
            // of the whole output (a managed array would thrash — the
            // Section IV-B race-condition case).
            let in_channels = node.layer().input_channels(&shapes)?;
            if in_channels >= 2 && config.memory_policy != MemoryPolicy::AllManaged {
                let merge_full = memory.copy_time_us(v_o);
                let p_raw = if t_cpu_co + t_gpu_co > 0.0 {
                    t_gpu_co / (t_cpu_co + t_gpu_co)
                } else {
                    0.0
                };
                if p_raw > 0.0 && p_raw < 1.0 {
                    let cpu_channels =
                        ((p_raw * in_channels as f64).round() as usize).clamp(1, in_channels - 1);
                    let p = cpu_channels as f64 / in_channels as f64;
                    let t_c = cpu_spec
                        .kernel_time_us(&crate::runtime::scale_desc_input(&desc, p), &cpu_corun)
                        * ema_cpu;
                    let t_g = gpu_spec.kernel_time_us(
                        &crate::runtime::scale_desc_input(&desc, 1.0 - p),
                        &gpu_corun,
                    ) * ema_gpu;
                    let t = t_c.max(t_g) + merge_full + config.sync_overhead_us;
                    if best.as_ref().is_none_or(|b| t < b.t_total_us) {
                        best = Some(SplitCandidate {
                            cpu_fraction: p,
                            t_total_us: t,
                            alloc: AllocStrategy::Explicit,
                            by_input: true,
                        });
                    }
                }
            }
            let eq = EqInputs {
                t_cpu_corun_us: t_cpu_co,
                t_gpu_corun_us: t_gpu_co,
                output_bytes: v_o,
                copy_rate_gbps: memory.copy_bw_gbps,
                sync_overhead_us: config.sync_overhead_us,
            };
            (best, Some(eq))
        } else {
            (None, None)
        };

        let input_bytes = desc.bytes_in;
        Ok(NodeCandidates {
            t_gpu_us: t_gpu,
            t_cpu_us: t_cpu,
            split,
            eq,
            input_bytes,
        })
    }

    /// Assigns a whole chain with a dynamic program over per-node states
    /// {GPU, CPU, Split}, charging a cross-processor handoff whenever the
    /// data's residency changes between consecutive layers. Returns the
    /// DP's predicted cost for the chain (us), which the fork-join logic
    /// compares against the inter-kernel alternative.
    ///
    /// The paper's greedy per-layer rule (Eq. 4) ignores handoffs; the DP
    /// generalizes it and collapses to it when handoffs are free.
    fn decide_chain(
        &self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        config: &ExecutionConfig,
        chain: &[NodeId],
        start: ChainStart,
        nodes: &mut [NodePlan],
    ) -> Result<f64> {
        const GPU: usize = 0;
        const CPU: usize = 1;
        // State 2 is the intra-kernel split.

        let memory = &runtime.platform().memory;
        let handoff = |bytes: u64| -> f64 {
            match config.memory_policy {
                MemoryPolicy::AllExplicit => memory.copy_time_us(bytes),
                _ => memory.migration_time_us(bytes, false),
            }
        };
        // Location after each state: GPU -> device, CPU -> host, Split -> both.
        let needs_handoff = |prev_state: usize, state: usize| -> bool {
            matches!((prev_state, state), (GPU, CPU) | (CPU, GPU))
        };

        // Collect decidable nodes (skip the input pseudo-node).
        let ids: Vec<NodeId> = chain
            .iter()
            .copied()
            .filter(|id| {
                graph
                    .node(*id)
                    .is_ok_and(|n| n.layer().class() != LayerClass::Input)
            })
            .collect();
        if ids.is_empty() {
            return Ok(0.0);
        }
        let candidates: Vec<NodeCandidates> = ids
            .iter()
            .map(|id| self.node_candidates(graph, runtime, config, *id))
            .collect::<Result<_>>()?;

        // Objective weighting: under TuneObjective::Energy a state's cost
        // is time x (base + the marginal power of the processors it
        // occupies); under Latency the weights are all 1.
        let power = runtime.platform().power;
        let weight = |state: usize| -> f64 {
            match config.objective {
                TuneObjective::Latency => 1.0,
                TuneObjective::Energy => match state {
                    GPU => power.base_w + power.gpu_dynamic_w,
                    CPU => power.base_w + power.cpu_dynamic_w,
                    _ => power.base_w + power.cpu_dynamic_w + power.gpu_dynamic_w,
                },
            }
        };
        let bus_weight = match config.objective {
            TuneObjective::Latency => 1.0,
            TuneObjective::Energy => power.base_w,
        };

        let inf = f64::INFINITY;
        let mut cost = vec![[inf; 3]; ids.len()];
        let mut back = vec![[0usize; 3]; ids.len()];
        for (i, cand) in candidates.iter().enumerate() {
            let node_cost = [
                cand.t_gpu_us * weight(GPU),
                cand.t_cpu_us * weight(CPU),
                cand.split
                    .as_ref()
                    .map_or(inf, |s| s.t_total_us * weight(2)),
            ];
            for state in 0..3 {
                if node_cost[state].is_infinite() {
                    continue;
                }
                if i == 0 {
                    // Entering the chain: the input resides per `start`.
                    let entry = match (start, state) {
                        (ChainStart::Host, GPU) => handoff(candidates[0].input_bytes),
                        (ChainStart::Host, _) => 0.0,
                        (ChainStart::Synced, _) => 0.0,
                    };
                    cost[0][state] = node_cost[state] + entry * bus_weight;
                } else {
                    for prev in 0..3 {
                        if cost[i - 1][prev].is_infinite() {
                            continue;
                        }
                        let mut t = cost[i - 1][prev] + node_cost[state];
                        if needs_handoff(prev, state) {
                            t += handoff(cand.input_bytes) * bus_weight;
                        }
                        if t < cost[i][state] {
                            cost[i][state] = t;
                            back[i][state] = prev;
                        }
                    }
                }
            }
        }

        // Backtrack from the cheapest terminal state (prefer the GPU on
        // ties: the chain's consumer usually lives there).
        let last = ids.len() - 1;
        let mut state = (0..3)
            .min_by(|&a, &b| cost[last][a].partial_cmp(&cost[last][b]).unwrap())
            .unwrap_or(GPU);
        let chain_cost = cost[last][state];
        for i in (0..ids.len()).rev() {
            let idx = ids[i].index();
            match state {
                GPU => nodes[idx].assignment = Assignment::Gpu,
                CPU => nodes[idx].assignment = Assignment::Cpu,
                _ => {
                    let split = candidates[i]
                        .split
                        .as_ref()
                        .expect("split state implies candidate");
                    nodes[idx].assignment = if split.by_input {
                        Assignment::SplitInput {
                            cpu_fraction: split.cpu_fraction,
                        }
                    } else {
                        Assignment::Split {
                            cpu_fraction: split.cpu_fraction,
                        }
                    };
                    if config.memory_policy == MemoryPolicy::SemanticAware {
                        nodes[idx].output_alloc = split.alloc;
                    }
                }
            }
            if i > 0 {
                state = back[i][state];
            }
        }
        Ok(chain_cost)
    }

    /// Inter-kernel decision for one fork-join region. Returns the
    /// predicted region cost (us).
    fn decide_branches(
        &self,
        graph: &Graph,
        config: &ExecutionConfig,
        branches: &[Vec<NodeId>],
        nodes: &mut [NodePlan],
        platform: &edgenn_sim::Platform,
    ) -> f64 {
        let costs: Vec<BranchCost> = branches
            .iter()
            .map(|branch| {
                let t_cpu: f64 = branch
                    .iter()
                    .map(|id| self.stats[id.index()].t_cpu_us)
                    .sum();
                let t_gpu: f64 = branch
                    .iter()
                    .map(|id| self.stats[id.index()].t_gpu_us)
                    .sum();
                let output_bytes = branch.last().map_or(0, |id| {
                    graph
                        .node(*id)
                        .map_or(0, |n| (n.output_shape().num_elements() * 4) as u64)
                });
                BranchCost {
                    t_cpu_us: t_cpu,
                    t_gpu_us: t_gpu,
                    output_bytes,
                }
            })
            .collect();

        // Merge-cost model for the CPU branch's output at the join: an
        // explicit copy under the naive policy, a zero-copy coherence
        // handoff (no data movement on the integrated SoC) otherwise.
        let (merge_rate_gbps, merge_fixed_us) = match config.memory_policy {
            MemoryPolicy::AllExplicit => (
                platform.memory.copy_bw_gbps,
                platform.memory.copy_latency_us,
            ),
            _ => (
                1e3 / platform.memory.page_migration_us_per_mb.max(1e-3),
                platform.memory.page_fault_overhead_us,
            ),
        };
        let decision = match config.objective {
            TuneObjective::Latency => optimal_assignment(
                &costs,
                merge_rate_gbps,
                merge_fixed_us,
                config.sync_overhead_us,
            ),
            TuneObjective::Energy => {
                // Energy-weight the branch times so the enumeration
                // minimizes energy: a co-run region draws both processors'
                // power for its makespan.
                let p = platform.power;
                let weighted: Vec<BranchCost> = costs
                    .iter()
                    .map(|c| BranchCost {
                        t_cpu_us: c.t_cpu_us * (p.base_w + p.cpu_dynamic_w),
                        t_gpu_us: c.t_gpu_us * (p.base_w + p.gpu_dynamic_w),
                        output_bytes: c.output_bytes,
                    })
                    .collect();
                optimal_assignment(
                    &weighted,
                    merge_rate_gbps,
                    merge_fixed_us * p.base_w,
                    config.sync_overhead_us * p.base_w,
                )
            }
        };
        match decision.assignment {
            BranchAssignment::AllGpu => {}
            BranchAssignment::AllCpu => {
                for &id in branches.iter().flatten() {
                    nodes[id.index()].assignment = Assignment::Cpu;
                }
            }
            BranchAssignment::Split { cpu_branch } => {
                for &id in &branches[cpu_branch] {
                    nodes[id.index()].assignment = Assignment::Cpu;
                }
            }
        }
        decision.t_total_us
    }

    /// Semantic memory decisions (with cost refinement) for every node.
    fn decide_memory(
        &self,
        graph: &Graph,
        runtime: &Runtime<'_>,
        program: &Program,
        nodes: &mut [NodePlan],
    ) -> Result<()> {
        // Branch-boundary nodes: last node of each non-empty branch.
        let mut branch_tail = vec![false; graph.len()];
        for seg in 0..program.segments().len() {
            for tail in program.branches(seg).iter().filter_map(|b| b.last()) {
                branch_tail[tail.index()] = true;
            }
        }

        let gpu_bw = runtime
            .platform()
            .gpu
            .as_ref()
            .map_or(runtime.platform().cpu.mem_bw_gbps, |g| g.mem_bw_gbps);

        for id in graph.topo_order() {
            let node = graph.node(id)?;
            let idx = id.index();
            let role = if node.layer().class() == LayerClass::Input {
                ArrayRole::NetworkInput
            } else if nodes[idx].assignment.is_corun() {
                // Already decided by the partition candidate comparison.
                continue;
            } else if id == graph.output_id() {
                ArrayRole::NetworkOutput
            } else if branch_tail[idx] {
                ArrayRole::BranchBoundary
            } else {
                ArrayRole::ChainActivation
            };
            let base = decide(role);
            let refined = if node.layer().class() == LayerClass::Input {
                base
            } else {
                let desc = kernel_desc(graph, id)?;
                let kernel_memory_us = desc.total_bytes() as f64 / (gpu_bw * 1e3);
                refine_by_cost(
                    base,
                    &runtime.platform().memory,
                    kernel_memory_us,
                    desc.bytes_out,
                    node.layer().class(),
                )
            };
            nodes[idx].output_alloc = refined.strategy;
            nodes[idx].prefetch_inputs = refined.prefetch;
        }
        Ok(())
    }
}

/// One-line justification for a node's assignment given the candidate
/// costs the planner weighed.
fn rationale_line(
    assignment: Assignment,
    t_cpu_us: f64,
    t_gpu_us: f64,
    split: Option<&SplitCandidate>,
    alloc: AllocStrategy,
) -> String {
    match assignment {
        Assignment::Cpu => {
            if t_cpu_us <= t_gpu_us {
                format!("CPU solo {t_cpu_us:.1} us beats GPU {t_gpu_us:.1} us; output {alloc}")
            } else {
                format!(
                    "on the CPU by a region decision (branch overlap or handoff avoidance) \
                     despite GPU solo {t_gpu_us:.1} us < CPU {t_cpu_us:.1} us; output {alloc}"
                )
            }
        }
        Assignment::Gpu => {
            let split_note = match split {
                Some(s) => format!("; split rejected at {:.1} us", s.t_total_us),
                None => "; no viable split".to_string(),
            };
            if t_gpu_us <= t_cpu_us {
                format!(
                    "GPU solo {t_gpu_us:.1} us beats CPU {t_cpu_us:.1} us{split_note}; \
                     output {alloc}"
                )
            } else {
                format!(
                    "kept on the GPU by a region decision despite CPU solo {t_cpu_us:.1} us \
                     < GPU {t_gpu_us:.1} us; output {alloc}"
                )
            }
        }
        Assignment::Split { cpu_fraction } | Assignment::SplitInput { cpu_fraction } => {
            let kind = if matches!(assignment, Assignment::SplitInput { .. }) {
                "input-channel"
            } else {
                "output"
            };
            match split {
                Some(s) => format!(
                    "co-run ({kind} split, {:.0}% cpu) predicted {:.1} us beats \
                     GPU {t_gpu_us:.1} us and CPU {t_cpu_us:.1} us; output {alloc}",
                    cpu_fraction * 100.0,
                    s.t_total_us
                ),
                None => format!(
                    "co-run ({kind} split, {:.0}% cpu) chosen over GPU {t_gpu_us:.1} us \
                     and CPU {t_cpu_us:.1} us; output {alloc}",
                    cpu_fraction * 100.0
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};

    fn setup(kind: ModelKind) -> (Graph, edgenn_sim::Platform) {
        (build(kind, ModelScale::Paper), jetson_agx_xavier())
    }

    #[test]
    fn edgenn_plan_uses_both_processors_and_zero_copy() {
        let (graph, platform) = setup(ModelKind::AlexNet);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        assert!(plan.corun_count() > 0, "AlexNet fc layers should co-run");
        assert!(
            plan.managed_count() > plan.nodes.len() / 2,
            "most arrays zero-copy"
        );
    }

    #[test]
    fn fc_layers_corun_but_large_convs_do_not() {
        // Table I's headline: AlexNet fc layers benefit from hybrid
        // execution; AlexNet conv layers do not.
        let (graph, platform) = setup(ModelKind::AlexNet);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        for (idx, node) in graph.nodes().iter().enumerate() {
            match node.layer().class() {
                LayerClass::Fc => assert!(
                    plan.nodes[idx].assignment.is_corun(),
                    "{} should co-run",
                    node.layer().name()
                ),
                LayerClass::Conv => assert!(
                    !matches!(plan.nodes[idx].assignment, Assignment::Cpu),
                    "{} should not move wholly to the CPU",
                    node.layer().name()
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn gpu_only_config_never_corun() {
        let (graph, platform) = setup(ModelKind::SqueezeNet);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::baseline_gpu())
            .unwrap();
        assert_eq!(plan.corun_count(), 0);
        assert!(plan
            .nodes
            .iter()
            .all(|n| !matches!(n.assignment, Assignment::Cpu)));
        assert_eq!(plan.managed_count(), 0, "baseline is all-explicit");
    }

    #[test]
    fn inter_kernel_only_moves_whole_branches() {
        let (graph, platform) = setup(ModelKind::SqueezeNet);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::inter_kernel_only())
            .unwrap();
        assert_eq!(plan.corun_count(), 0, "no intra-kernel splits allowed");
        // Some branch moved to the CPU.
        let cpu_nodes = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.assignment, Assignment::Cpu))
            .count();
        assert!(cpu_nodes > 0, "fire-module branches should use the CPU");
    }

    #[test]
    fn cpu_only_platform_plans_cpu_everywhere() {
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::cpu_only())
            .unwrap();
        assert!(plan
            .nodes
            .iter()
            .all(|n| matches!(n.assignment, Assignment::Cpu)));
        let report = runtime.simulate(&graph, &plan).unwrap();
        assert!(report.total_us > 0.0);
    }

    #[test]
    fn observe_updates_statistics() {
        let (graph, platform) = setup(ModelKind::LeNet);
        let runtime = Runtime::new(&platform);
        let mut tuner = Tuner::new(&graph, &runtime).unwrap();
        let before = tuner.stats()[1];
        tuner.observe(&graph, &runtime, 0.3, 42).unwrap();
        let after = tuner.stats()[1];
        assert_eq!(after.samples, before.samples + 1);
        assert_ne!(
            after.t_cpu_us, before.t_cpu_us,
            "jittered observation shifts the EMA"
        );
    }

    #[test]
    fn adaptive_loop_converges_under_noise() {
        let (graph, platform) = setup(ModelKind::AlexNet);
        let runtime = Runtime::new(&platform);
        let mut tuner = Tuner::new(&graph, &runtime).unwrap();
        let (plan, history) = tuner
            .adapt(&graph, &runtime, ExecutionConfig::edgenn(), 6, 0.15)
            .unwrap();
        assert_eq!(history.len(), 6);
        // Re-planning from the converged stats yields the same plan.
        let replanned = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        assert_eq!(replanned.corun_count(), plan.corun_count());
    }

    #[test]
    fn explanations_cover_every_layer_and_match_the_plan() {
        let (graph, platform) = setup(ModelKind::AlexNet);
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        let rows = tuner.explain(&graph, &runtime, &plan).unwrap();
        assert_eq!(rows.len(), graph.len() - 1);
        for row in &rows {
            assert!(row.t_cpu_us > 0.0 && row.t_gpu_us > 0.0, "{}", row.name);
            assert_eq!(row.assignment, plan.nodes[row.node].assignment);
            assert!(!row.rationale.is_empty(), "{} lacks a rationale", row.name);
            assert!(
                row.candidates.len() >= 2,
                "{} lists too few candidates",
                row.name
            );
            assert!(
                row.candidates.iter().filter(|c| c.chosen).count() <= 1,
                "{} marks several candidates chosen",
                row.name
            );
            assert!(row.predicted_us > 0.0, "{}", row.name);
        }
        // Every co-run fc layer is visible in the explanation, carries the
        // Eq. (1)-(4) inputs, and shows the rejected solo candidates.
        let corun: Vec<_> = rows
            .iter()
            .filter(|r| r.class == "fc" && r.assignment.is_corun())
            .collect();
        assert!(
            !corun.is_empty(),
            "AlexNet's fc layers should show as co-run"
        );
        for row in corun {
            let eq = row.eq_inputs.expect("splittable layer records Eq. inputs");
            assert!(eq.t_cpu_corun_us > 0.0 && eq.t_gpu_corun_us > 0.0);
            let rejected: Vec<_> = row.candidates.iter().filter(|c| !c.chosen).collect();
            assert!(
                rejected.len() >= 2,
                "{} should show rejected solo costs",
                row.name
            );
            assert!(row.rationale.contains("co-run"), "{}", row.rationale);
        }
        // A plan from another graph is rejected.
        let other = build(ModelKind::LeNet, ModelScale::Paper);
        assert!(tuner.explain(&other, &runtime, &plan).is_err());
    }

    #[test]
    fn observe_and_adapt_emit_provenance_events() {
        use edgenn_obs::Recorder;

        let (graph, platform) = setup(ModelKind::AlexNet);
        let recorder = Recorder::new();
        let runtime = Runtime::with_observer(&platform, recorder.clone());
        let mut tuner = Tuner::new(&graph, &runtime).unwrap();
        tuner
            .adapt(&graph, &runtime, ExecutionConfig::edgenn(), 3, 0.1)
            .unwrap();

        // EMA evolution: one counter track per layer and processor, one
        // sample per observed round.
        let samples = recorder.counter_samples();
        let ema_tracks: std::collections::BTreeSet<_> = samples
            .iter()
            .filter(|s| s.track.starts_with("ema_"))
            .map(|s| s.track.clone())
            .collect();
        assert_eq!(
            ema_tracks.len(),
            2 * (graph.len() - 1),
            "cpu+gpu track per layer"
        );
        let fc_cpu: Vec<_> = samples
            .iter()
            .filter(|s| s.track.starts_with("ema_cpu_us/fc"))
            .collect();
        assert!(fc_cpu.len() >= 3, "one EMA sample per adaptation round");

        // Plan regenerations are marked.
        let regen = recorder
            .metrics()
            .counter_value("edgenn_plan_events_total")
            .unwrap_or(0.0);
        assert_eq!(regen, 3.0, "one plan-regeneration marker per round");
    }

    #[test]
    fn stats_round_trip_preserves_plans() {
        let (graph, platform) = setup(ModelKind::SqueezeNet);
        let runtime = Runtime::new(&platform);
        let mut tuner = Tuner::new(&graph, &runtime).unwrap();
        tuner.observe(&graph, &runtime, 0.1, 5).unwrap();
        let original = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();

        // Persist and restore the statistics (e.g. across a device reboot).
        let json = serde_json::to_string(tuner.stats()).unwrap();
        let stats: Vec<NodeStats> = serde_json::from_str(&json).unwrap();
        let restored = Tuner::from_stats(&graph, stats).unwrap();
        let replanned = restored
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        assert_eq!(
            replanned, original,
            "restored stats must reproduce the plan"
        );

        // Mismatched statistics are rejected.
        let other = build(ModelKind::LeNet, ModelScale::Paper);
        assert!(Tuner::from_stats(&other, tuner.stats().to_vec()).is_err());
    }

    #[test]
    fn energy_objective_trades_latency_for_energy() {
        // Energy-aware tuning must never burn more energy than the
        // latency-optimal plan; it may be slower.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let mut better_somewhere = false;
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Paper);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            let fast = runtime
                .simulate(
                    &graph,
                    &tuner
                        .plan(&graph, &runtime, ExecutionConfig::edgenn())
                        .unwrap(),
                )
                .unwrap();
            let frugal = runtime
                .simulate(
                    &graph,
                    &tuner
                        .plan(&graph, &runtime, ExecutionConfig::edgenn_energy_aware())
                        .unwrap(),
                )
                .unwrap();
            assert!(
                frugal.energy.energy_mj <= fast.energy.energy_mj * 1.02,
                "{kind}: energy plan used more energy ({} vs {} mJ)",
                frugal.energy.energy_mj,
                fast.energy.energy_mj
            );
            if frugal.energy.energy_mj < fast.energy.energy_mj * 0.98 {
                better_somewhere = true;
            }
        }
        assert!(
            better_somewhere,
            "the energy objective should matter on some network"
        );
    }

    #[test]
    fn plans_validate_for_all_models_and_configs() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let configs = [
            ExecutionConfig::edgenn(),
            ExecutionConfig::baseline_gpu(),
            ExecutionConfig::memory_only(),
            ExecutionConfig::hybrid_only(),
            ExecutionConfig::inter_kernel_only(),
        ];
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Paper);
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            for config in configs {
                let plan = tuner.plan(&graph, &runtime, config).unwrap();
                plan.validate(&graph).unwrap();
                let report = runtime.simulate(&graph, &plan).unwrap();
                assert!(report.total_us > 0.0, "{kind} {config:?}");
            }
        }
    }
}
