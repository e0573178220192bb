//! The Tiny functional twin: where a faulted run is checked bit for bit.
//!
//! The paper's premise is that partition → compute → merge reproduces
//! the single-device output. A [`Twin`] holds one model at Paper scale,
//! where the analytic model prices each rung's plan, and at Tiny scale,
//! where the functional engine runs it, together with inputs and their
//! fault-free outputs. The serving dispatcher executes its batches on a
//! twin, and the fault storm (`edgenn_check::storm`) reruns its rounds.

use edgenn_core::plan::{ExecutionConfig, ExecutionPlan};
use edgenn_core::runtime::functional::{self, Executor, FaultInjector};
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::Tuner;
use edgenn_core::{CoreError, Result};
use edgenn_nn::graph::Graph;
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_sim::FaultPlan;
use edgenn_tensor::Tensor;

/// One rung of a twin's plan ladder, tuned at both scales.
#[derive(Debug, Clone)]
pub struct Rung {
    /// The Paper-scale plan the analytic model prices.
    pub plan: ExecutionPlan,
    /// The analytic latency of [`Rung::plan`] (us).
    pub predicted_us: f64,
    /// The Tiny-scale plan the functional engine executes.
    pub tiny_plan: ExecutionPlan,
    /// The fault-free Tiny output for each of the twin's inputs.
    pub references: Vec<Tensor>,
}

/// One model at Paper and Tiny scale: its plan ladder, its inputs and
/// their fault-free references.
#[derive(Debug)]
pub struct Twin {
    /// The model.
    pub kind: ModelKind,
    /// The Paper-scale graph.
    pub paper: Graph,
    /// The Tiny-scale graph.
    pub tiny: Graph,
    /// The plan ladder, in the order [`Twin::push`] added the rungs.
    pub rungs: Vec<Rung>,
    /// The Tiny inputs, one per seed given to [`Twin::new`].
    pub inputs: Vec<Tensor>,
}

impl Twin {
    /// Builds `kind` at both scales with one uniform `[-1, 1)` input per
    /// seed in `input_seeds`, and no rungs yet.
    #[must_use]
    pub fn new(kind: ModelKind, input_seeds: &[u64]) -> Self {
        let tiny = build(kind, ModelScale::Tiny);
        let inputs = input_seeds
            .iter()
            .map(|&seed| Tensor::random(tiny.input_shape().dims(), 1.0, seed))
            .collect();
        Self {
            kind,
            paper: build(kind, ModelScale::Paper),
            tiny,
            rungs: Vec::new(),
            inputs,
        }
    }

    /// Appends a rung: of the `candidates`, the config whose Paper-scale
    /// plan the analytic model prices fastest (the first on a tie). The
    /// rung's Tiny plan is tuned under the same config, and its
    /// fault-free output is computed for every input.
    ///
    /// # Errors
    /// `candidates` is empty, or a plan or a reference run failed.
    pub fn push(&mut self, runtime: &Runtime<'_>, candidates: &[ExecutionConfig]) -> Result<()> {
        let tuner = Tuner::new(&self.paper, runtime)?;
        let mut best: Option<(ExecutionConfig, ExecutionPlan, f64)> = None;
        for &config in candidates {
            let plan = tuner.plan(&self.paper, runtime, config)?;
            let predicted_us = runtime.simulate(&self.paper, &plan)?.total_us;
            if best.as_ref().is_none_or(|b| predicted_us < b.2) {
                best = Some((config, plan, predicted_us));
            }
        }
        let (config, plan, predicted_us) = best.ok_or_else(|| CoreError::Internal {
            reason: "a rung needs a candidate config".to_string(),
        })?;
        let tiny_plan = Tuner::new(&self.tiny, runtime)?.plan(&self.tiny, runtime, config)?;
        let references = self
            .inputs
            .iter()
            .map(|input| Ok(functional::execute(&self.tiny, &tiny_plan, input)?.output))
            .collect::<Result<_>>()?;
        self.rungs.push(Rung {
            plan,
            predicted_us,
            tiny_plan,
            references,
        });
        Ok(())
    }

    /// Executes rung `rung`'s Tiny plan as one batch over the inputs at
    /// the indices `inputs`, and compares each output bit for bit with
    /// its reference. With `faults = Some((seed, max_retries))`, the run
    /// is armed with `FaultPlan::from_seed(seed, tiny.len())` and a
    /// per-kernel retry budget of `max_retries`.
    ///
    /// # Errors
    /// The executor could not be built or the batch failed to run.
    ///
    /// # Panics
    /// `rung` or an input index is out of range.
    pub fn run(
        &self,
        rung: usize,
        inputs: &[usize],
        faults: Option<(u64, u32)>,
    ) -> Result<Vec<bool>> {
        let rung = &self.rungs[rung];
        let batch: Vec<Tensor> = inputs.iter().map(|&i| self.inputs[i].clone()).collect();
        let mut exec = Executor::new(&self.tiny)?;
        if let Some((seed, max_retries)) = faults {
            let plan = FaultPlan::from_seed(seed, self.tiny.len());
            let injector = FaultInjector::from_plan(&plan, self.tiny.len(), max_retries);
            exec = exec.with_faults(injector);
        }
        let outcomes = exec.batch_execute(&rung.tiny_plan, &batch)?;
        Ok(inputs
            .iter()
            .zip(&outcomes)
            .map(|(&i, outcome)| outcome.output.approx_eq(&rung.references[i], 0.0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rung_keeps_the_fastest_candidate_and_survives_faults_bitwise() {
        let platform = edgenn_sim::platforms::jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let configs = [ExecutionConfig::baseline_gpu(), ExecutionConfig::cpu_only()];
        let mut twin = Twin::new(ModelKind::LeNet, &[3, 4]);
        for config in configs {
            twin.push(&runtime, &[config]).unwrap();
        }
        twin.push(&runtime, &configs).unwrap();
        let fastest = twin.rungs[0].predicted_us.min(twin.rungs[1].predicted_us);
        assert_eq!(twin.rungs[2].predicted_us, fastest);
        assert!(twin.push(&runtime, &[]).is_err());
        assert_eq!(twin.rungs[2].references.len(), 2);
        assert_eq!(twin.run(2, &[1, 0, 1], None).unwrap(), [true; 3]);
        for seed in 0..8 {
            assert_eq!(twin.run(0, &[0, 1], Some((seed, 2))).unwrap(), [true; 2]);
        }
    }
}
