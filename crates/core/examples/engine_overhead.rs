//! Engine overhead per request: what the functional engine adds on top
//! of the kernels it runs. The engine call alternates, call by call,
//! with a bare loop that calls each node's `Layer::forward_into` on its
//! whole units, with the engine's int8 choice, into preallocated
//! outputs; the example prints both arms' p50 and their difference for
//! each of 3 rounds, and asserts the two arms' outputs are bitwise
//! equal.
//!
//! Both workloads of the benchmark are built as it builds them:
//! compiled, tuned for the Jetson AGX Xavier, int8 calibrated.
//! - Tiny SqueezeNet, f32 plan, one `execute` per call;
//! - Tiny VGG-16, int8 plan, one `batch_execute` of 8 inputs per call.
//!
//! ```text
//! cargo run --release -p edgenn-core --example engine_overhead
//! ```

use std::time::Instant;

use edgenn_core::plan::{ExecutionConfig, ExecutionPlan, Precision};
use edgenn_core::prelude::*;
use edgenn_core::runtime::functional::Executor;
use edgenn_nn::graph::{calibrate, compile, CompileOptions, Graph, NodeId};
use edgenn_nn::layer::{LayerClass, Part};
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_tensor::Tensor;

/// Rounds per workload.
const ROUNDS: usize = 3;
/// Most inputs any node of the bundled models reads.
const MAX_ARITY: usize = 8;

/// A node as the bare loop runs it.
struct Step {
    id: NodeId,
    inputs: Vec<NodeId>,
    units: usize,
    int8: bool,
}

/// The graph's nodes in order, with a preallocated output each.
struct Bare<'g> {
    graph: &'g Graph,
    steps: Vec<Step>,
    outs: Vec<Option<Tensor>>,
}

impl<'g> Bare<'g> {
    fn new(graph: &'g Graph, precision: Precision) -> Self {
        let steps: Vec<Step> = graph
            .topo_order()
            .filter(|&id| graph.node(id).unwrap().layer().class() != LayerClass::Input)
            .map(|id| {
                let node = graph.node(id).unwrap();
                let layer = node.layer();
                let shapes = graph.input_shapes(id).unwrap();
                assert!(node.inputs().len() <= MAX_ARITY);
                Step {
                    id,
                    inputs: node.inputs().to_vec(),
                    units: layer.partition_units(&shapes).unwrap(),
                    // The engine's choice under a plan that splits nothing.
                    int8: precision == Precision::Int8
                        && layer.int8_ready()
                        && layer.int8_worthwhile(),
                }
            })
            .collect();
        let outs = graph
            .nodes()
            .iter()
            .map(|node| Some(Tensor::zeros(node.output_shape().dims())))
            .collect();
        Self { graph, steps, outs }
    }

    /// One input through every node; the network output stays in
    /// `outs`.
    fn run(&mut self, input: &Tensor) {
        let input_id = self.graph.input_id();
        for step in &self.steps {
            let mut out = self.outs[step.id.index()].take().unwrap();
            let mut inputs = [input; MAX_ARITY];
            for (slot, &from) in inputs.iter_mut().zip(&step.inputs) {
                if from != input_id {
                    *slot = self.outs[from.index()].as_ref().unwrap();
                }
            }
            let part = Part::Units {
                range: 0..step.units,
                int8: step.int8,
                relu: false,
            };
            let layer = self.graph.node(step.id).unwrap().layer();
            layer
                .forward_into(&inputs[..step.inputs.len()], part, out.as_mut_slice())
                .unwrap();
            self.outs[step.id.index()] = Some(out);
        }
    }

    fn output(&self) -> &Tensor {
        self.outs[self.graph.output_id().index()].as_ref().unwrap()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One workload: `batch` inputs per call (1 = `execute`), `calls` calls
/// per arm and round.
fn measure(kind: ModelKind, precision: Precision, batch: usize, calls: usize) {
    let (options, config) = match precision {
        Precision::F32 => (CompileOptions::default(), ExecutionConfig::edgenn()),
        Precision::Int8 => (CompileOptions::int8(), ExecutionConfig::edgenn_int8()),
    };
    let graph = compile(&build(kind, ModelScale::Tiny), &options).unwrap().0;
    let platform = jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    let plan: ExecutionPlan = Tuner::new(&graph, &runtime)
        .unwrap()
        .plan(&graph, &runtime, config)
        .unwrap();
    let dims = graph.input_shape().dims().to_vec();
    if precision == Precision::Int8 {
        calibrate(&graph, &[Tensor::random(&dims, 1.0, 0xACE)]).unwrap();
    }
    let inputs: Vec<Tensor> = (0..batch as u64)
        .map(|i| Tensor::random(&dims, 1.0, 0xB0 + i))
        .collect();
    let executor = Executor::new(&graph).unwrap();
    let mut bare = Bare::new(&graph, precision);
    let engine = || {
        if batch == 1 {
            vec![executor.execute(&plan, &inputs[0]).unwrap()]
        } else {
            executor.batch_execute(&plan, &inputs).unwrap()
        }
    };
    for (input, outcome) in inputs.iter().zip(engine()) {
        bare.run(input);
        assert_eq!(
            bits(bare.output()),
            bits(&outcome.output),
            "{kind} {precision}"
        );
    }
    let what = match batch {
        1 => format!("{kind} {precision} execute"),
        n => format!("{kind} {precision} batch_execute of {n}"),
    };
    for round in 1..=ROUNDS {
        let (mut engine_us, mut bare_us) = (Vec::new(), Vec::new());
        for _ in 0..calls {
            let start = Instant::now();
            std::hint::black_box(engine());
            engine_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            for input in &inputs {
                bare.run(input);
            }
            std::hint::black_box(bare.output());
            bare_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let (engine_p50, bare_p50) = (p50(&mut engine_us), p50(&mut bare_us));
        println!(
            "{what:<36} round {round}: engine {engine_p50:>8.2} us, bare {bare_p50:>8.2} us, \
             engine - bare {:>6.2} us",
            engine_p50 - bare_p50
        );
    }
}

fn main() {
    measure(ModelKind::SqueezeNet, Precision::F32, 1, 20_000);
    measure(ModelKind::Vgg16, Precision::Int8, 8, 2_500);
}
