//! A model under test: its uncompiled reference graph, the graph the
//! engine runs, the tuned plan, and seeded inputs with reference
//! outputs; plus the timed set-up that builds it.

use std::time::Instant;

use edgenn_core::plan::{ExecutionConfig, ExecutionPlan, Precision};
use edgenn_core::runtime::functional::Executor;
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::Tuner;
use edgenn_nn::graph::{compile, CompileOptions, Graph};
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_tensor::Tensor;

use crate::trace::Tracer;
use crate::verify::{F32_TOL, INT8_TOL};

/// Which model, in which precision, and whether the engine runs it
/// compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The bundled model (always at Tiny scale).
    pub kind: ModelKind,
    /// Plan precision.
    pub precision: Precision,
    /// Run the graph compiler before tuning (the serving front end
    /// runs uncompiled graphs, the other workloads compiled ones).
    pub compiled: bool,
    /// Engine calls made during set-up, after which timing starts.
    pub warmup: usize,
    /// Inputs per warm-up call (1 = `execute`, more = `batch_execute`).
    pub warmup_batch: usize,
}

impl Spec {
    /// Output tolerance against the f32 reference.
    #[must_use]
    pub fn tol(&self) -> f32 {
        match self.precision {
            Precision::F32 => F32_TOL,
            Precision::Int8 => INT8_TOL,
        }
    }

    /// Compiler options: int8 plans also need int8 weight packing.
    #[must_use]
    pub fn compile_options(&self) -> CompileOptions {
        match self.precision {
            Precision::F32 => CompileOptions::default(),
            Precision::Int8 => CompileOptions::int8(),
        }
    }

    /// The execution config whose tuned plan the workload runs.
    #[must_use]
    pub fn config(&self) -> ExecutionConfig {
        match self.precision {
            Precision::F32 => ExecutionConfig::edgenn(),
            Precision::Int8 => ExecutionConfig::edgenn_int8(),
        }
    }
}

/// A built, tuned model.
#[derive(Debug)]
pub struct Subject {
    /// What was built.
    pub spec: Spec,
    /// The model as constructed: the correctness reference.
    pub raw: Graph,
    /// The graph the engine runs.
    pub graph: Graph,
    /// The tuned plan for `graph`.
    pub plan: ExecutionPlan,
}

/// Wall time of one set-up, whole and by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything below, end to end (s).
    pub total_s: f64,
    /// Tuner construction plus planning (ms).
    pub tune_ms: f64,
}

/// Seeded inputs with their f32 reference outputs.
#[derive(Debug)]
pub struct Inputs {
    /// Input tensors, cycled through by the workloads.
    pub pool: Vec<Tensor>,
    /// `raw.forward` of each input.
    pub refs: Vec<Tensor>,
}

impl Inputs {
    /// `count` inputs for `raw` drawn from `seed`.
    ///
    /// # Errors
    /// Fails when the reference forward pass fails.
    pub fn new(raw: &Graph, seed: u64, count: usize) -> Result<Self, String> {
        let dims = raw.input_shape().dims().to_vec();
        let pool: Vec<Tensor> = (0..count as u64)
            .map(|i| {
                Tensor::random(
                    &dims,
                    1.0,
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i),
                )
            })
            .collect();
        let refs = pool
            .iter()
            .map(|x| {
                raw.forward(x)
                    .map_err(|e| format!("reference forward: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { pool, refs })
    }
}

/// Builds, compiles, tunes and warms `spec` once, recording each step
/// as a span. Set-up ends when the warm-up calls return.
///
/// # Errors
/// Fails when any step fails.
pub fn set_up(spec: Spec, tracer: &mut Tracer) -> Result<(Subject, SetupTimes), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let (subject, _) = tracer.timed("bench.setup", 0, |t| -> Result<Subject, String> {
        let ((raw, built), _) = t.timed("nn.build", 0, |_| {
            (
                build(spec.kind, ModelScale::Tiny),
                build(spec.kind, ModelScale::Tiny),
            )
        });
        let graph = if spec.compiled {
            t.timed("nn.compile", 0, |_| {
                compile(&built, &spec.compile_options())
            })
            .0
            .map_err(|e| format!("compile {}: {e}", spec.kind))?
            .0
        } else {
            built
        };
        let platform = jetson_agx_xavier();
        let (plan, tune_us) = t.timed("core.tune", 0, |_| {
            let runtime = Runtime::new(&platform);
            Tuner::new(&graph, &runtime)
                .and_then(|tuner| tuner.plan(&graph, &runtime, spec.config()))
                .map_err(|e| format!("tune {}: {e}", spec.kind))
        });
        let plan = plan?;
        times.tune_ms = tune_us / 1e3;
        let warm: Vec<Tensor> = (0..spec.warmup_batch as u64)
            .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 0xACE + i))
            .collect();
        if spec.precision == Precision::Int8 {
            t.timed("nn.calibrate", 0, |_| {
                edgenn_nn::graph::calibrate(&graph, &warm[..1])
            })
            .0
            .map_err(|e| format!("calibrate {}: {e}", spec.kind))?;
        }
        let exec = t
            .timed("core.executor_new", 0, |_| Executor::new(&graph))
            .0
            .map_err(|e| format!("executor {}: {e}", spec.kind))?;
        t.timed("core.warmup", 0, |_| -> Result<(), String> {
            for _ in 0..spec.warmup {
                let r = if spec.warmup_batch == 1 {
                    exec.execute(&plan, &warm[0]).map(|_| ())
                } else {
                    exec.batch_execute(&plan, &warm).map(|_| ())
                };
                r.map_err(|e| format!("warm-up {}: {e}", spec.kind))?;
            }
            Ok(())
        })
        .0?;
        drop(exec);
        Ok(Subject {
            spec,
            raw,
            graph,
            plan,
        })
    });
    times.total_s = start.elapsed().as_secs_f64();
    Ok((subject?, times))
}
