//! Inference serving: steady-state throughput, latency-vs-energy plans,
//! and a chrome-trace dump of the schedule.
//!
//! The paper evaluates single inferences; a deployed AIoT service runs a
//! stream of them. This example simulates a back-to-back request stream
//! under three plans (latency-tuned EdgeNN, energy-tuned EdgeNN, GPU-only
//! baseline) and writes the EdgeNN schedule as a Chrome trace.
//!
//! ```bash
//! cargo run --release --example serving_pipeline
//! ```

use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_sim::chrome_trace_entries;
use edgenn_sim::platforms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jetson = platforms::jetson_agx_xavier();
    let runtime = Runtime::new(&jetson);
    let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
    let tuner = Tuner::new(&graph, &runtime)?;
    let requests = 32;

    println!(
        "serving {requests} SqueezeNet requests on {}:\n",
        jetson.name
    );
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12}",
        "plan", "thruput/s", "p-last ms", "power W", "mJ/request"
    );

    let configs = [
        ("edgenn (latency)", ExecutionConfig::edgenn()),
        (
            "edgenn (energy-aware)",
            ExecutionConfig::edgenn_energy_aware(),
        ),
        ("gpu-only baseline", ExecutionConfig::baseline_gpu()),
    ];
    for (name, config) in configs {
        let plan = tuner.plan(&graph, &runtime, config)?;
        let stream = runtime.simulate_stream(&graph, &plan, requests)?;
        println!(
            "{:<26} {:>12.1} {:>12.2} {:>10.2} {:>12.2}",
            name,
            stream.throughput_per_s,
            stream.finish_times_us.last().unwrap() / 1e3,
            stream.energy.avg_power_w,
            stream.energy.energy_mj / requests as f64,
        );
    }

    // Open-loop serving: Poisson arrivals at rising load.
    let plan = tuner.plan(&graph, &runtime, ExecutionConfig::edgenn())?;
    let single = runtime.simulate(&graph, &plan)?;
    let capacity = 1e6 / single.total_us;
    println!(
        "
open-loop latency under Poisson arrivals (capacity ~{capacity:.1} req/s):"
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "load", "p50 ms", "p95 ms", "p99 ms"
    );
    for frac in [0.25, 0.5, 0.75, 0.9] {
        let report = runtime.simulate_poisson_stream(&graph, &plan, capacity * frac, 64, 42)?;
        println!(
            "{:>11.0}% {:>10.2} {:>10.2} {:>10.2}",
            frac * 100.0,
            report.p50_us / 1e3,
            report.p95_us / 1e3,
            report.p99_us / 1e3
        );
    }

    // Dump the single-inference EdgeNN schedule for chrome://tracing.
    let plan = tuner.plan(&graph, &runtime, ExecutionConfig::edgenn())?;
    let report = runtime.simulate(&graph, &plan)?;
    let path = std::env::temp_dir().join("edgenn_squeezenet_trace.json");
    let entries = serde_json::Value::Array(chrome_trace_entries(&report.events, &[]));
    std::fs::write(&path, serde_json::to_string_pretty(&entries)?)?;
    println!(
        "\nschedule trace ({} events) written to {} — load it in chrome://tracing",
        report.events.len(),
        path.display()
    );
    Ok(())
}
