//! Output bits: one FNV-1a hash of every output bit per Tiny model and
//! precision, so a kernel change can be checked for bitwise-identical
//! outputs against another commit with one command per checkout.
//!
//! Each model is compiled, tuned for the Jetson AGX Xavier (the int8
//! plans calibrated on the first input) and run by `batch_execute` over
//! the same 16 seeded inputs, so inputs 2-16 run in the session and node
//! buffers the first one left.
//!
//! ```bash
//! cargo run --release --example output_bits
//! ```
//!
//! `examples/output_bits.txt` holds the hashes every kernel variant must
//! print; CI diffs the output against it under each, so a change that
//! moves an output bit shows as a diff of that file.

use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_core::runtime::functional::Executor;
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::Tuner;
use edgenn_nn::graph::{calibrate, compile, CompileOptions};
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_tensor::Tensor;

/// Inputs per model, and the seed they are drawn from.
const INPUTS: u64 = 16;
const SEED: u64 = 0x0B17_5EED;

/// 64-bit FNV-1a over the little-endian bits of every value.
fn fnv1a(values: impl Iterator<Item = f32>) -> u64 {
    values
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    for kind in ModelKind::ALL {
        for precision in [Precision::F32, Precision::Int8] {
            let (options, config) = match precision {
                Precision::F32 => (CompileOptions::default(), ExecutionConfig::edgenn()),
                Precision::Int8 => (CompileOptions::int8(), ExecutionConfig::edgenn_int8()),
            };
            let (graph, _) = compile(&build(kind, ModelScale::Tiny), &options)?;
            let plan = Tuner::new(&graph, &runtime)?.plan(&graph, &runtime, config)?;
            let dims = graph.input_shape().dims().to_vec();
            let inputs: Vec<Tensor> = (0..INPUTS)
                .map(|i| Tensor::random(&dims, 1.0, SEED + i))
                .collect();
            if precision == Precision::Int8 {
                calibrate(&graph, &inputs[..1])?;
            }
            let outcomes = Executor::new(&graph)?.batch_execute(&plan, &inputs)?;
            let hash = fnv1a(
                outcomes
                    .iter()
                    .flat_map(|o| o.output.as_slice().iter().copied()),
            );
            let name = precision.to_string();
            println!("{:<11} {name:<5} {hash:016x}", kind.name());
        }
    }
    Ok(())
}
