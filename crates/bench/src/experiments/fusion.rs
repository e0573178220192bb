//! Fusion ablation: ReLU fusion (an optimization beyond the paper) on top
//! of EdgeNN. Launch overheads are a first-order cost on the integrated
//! GPU, so folding activations into their producers pays most on the
//! launch-bound networks (LeNet) and least on the compute-bound ones
//! (VGG).

use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_core::Result;
use edgenn_nn::graph::{compile, CompileOptions, Passes};

use crate::experiments::Lab;
use crate::report::{Comparison, ExperimentReport};

/// Runs the fusion ablation.
///
/// # Errors
/// Propagates simulation failures.
pub fn ablation_fusion(lab: &Lab) -> Result<ExperimentReport> {
    let runtime = Runtime::new(&lab.jetson);
    let mut rows = Vec::new();
    let mut lenet_gain = 0.0;
    let mut vgg_gain = 0.0;

    let fuse_only = CompileOptions {
        passes: Passes::FuseOnly,
        prepack_f32: false,
        prepack_int8: false,
    };
    for kind in ModelKind::ALL {
        let graph = lab.model(kind);
        let (fused, _) = compile(&graph, &fuse_only)?;

        let run = |g: &edgenn_nn::graph::Graph| -> Result<f64> {
            let tuner = Tuner::new(g, &runtime)?;
            let plan = tuner.plan(g, &runtime, ExecutionConfig::edgenn())?;
            Ok(runtime.simulate(g, &plan)?.total_us)
        };
        let unfused_us = run(&graph)?;
        let fused_us = run(&fused)?;
        let gain = (unfused_us - fused_us) / unfused_us * 100.0;
        if kind == ModelKind::LeNet {
            lenet_gain = gain;
        }
        if kind == ModelKind::Vgg16 {
            vgg_gain = gain;
        }
        rows.push((
            kind.name().to_string(),
            vec![
                unfused_us / 1e3,
                fused_us / 1e3,
                gain,
                (graph.len() - fused.len()) as f64,
            ],
        ));
    }

    Ok(ExperimentReport {
        id: "Ablation E".to_string(),
        title: "ReLU fusion on top of EdgeNN (reproduction extension)".to_string(),
        columns: vec![
            "unfused (ms)".to_string(),
            "fused (ms)".to_string(),
            "gain (%)".to_string(),
            "ReLUs fused".to_string(),
        ],
        rows,
        comparisons: vec![
            Comparison::measured_only("LeNet gain from fusion (%)", lenet_gain),
            Comparison::measured_only("VGG gain from fusion (%)", vgg_gain),
        ],
        notes: vec![
            "Launch-bound networks gain the most; fused layers remain splittable by \
             output channels, so hybrid execution composes with fusion."
                .to_string(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_never_hurts_and_helps_launch_bound_nets_most() {
        let lab = Lab::new();
        let report = ablation_fusion(&lab).unwrap();
        for (model, values) in &report.rows {
            // Fusing changes the tuner's per-node cost profile, so plans
            // can shift by a fraction of a percent in either direction on
            // branch-heavy networks; beyond that, fusion must not hurt.
            assert!(
                values[2] > -1.0,
                "{model}: fusion must not hurt ({}%)",
                values[2]
            );
            assert!(values[3] > 0.0, "{model}: some ReLUs must fuse");
        }
        let lenet = report.comparisons[0].measured;
        let vgg = report.comparisons[1].measured;
        assert!(
            lenet > vgg,
            "the launch-bound LeNet ({lenet}%) must gain more than VGG ({vgg}%)"
        );
    }
}
