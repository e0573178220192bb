//! `edgenn` — command-line front end for the EdgeNN reproduction.
//!
//! ```text
//! edgenn simulate --model alexnet --platform jetson [--config edgenn]
//!                 [--scale paper|tiny] [--json] [--layers]
//!                 [--faults SPEC|SEED] [--max-retries N] [--deadline-us F]
//!                 [--trace-out FILE] [--metrics-out FILE]
//! edgenn explain  --model alexnet --platform jetson [--config edgenn]
//! edgenn plan     --model alexnet --platform jetson [--config edgenn]
//! edgenn compare  --model alexnet --platform jetson
//!                 [--trace-out FILE] [--metrics-out FILE]
//! edgenn storm    [--model all] [--platform jetson] [--seed 42] [--runs 100]
//! edgenn serve    [--seed 42] [--duration-ms 1000] [--check] [--json]
//! edgenn siege    [--seed 42] [--duration-us 60000] [--no-faults] [--json]
//! edgenn models
//! edgenn platforms
//! ```

mod args;

use std::process::ExitCode;

use args::{parse_model, parse_platform, Options};
use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_nn::graph::{compile, CompileOptions, CompileReport};
use edgenn_nn::models::{build, ModelScale};
use edgenn_obs::{Labels, ProfileSummary, Recorder};
use edgenn_sim::chrome_trace_entries;
use edgenn_sim::Platform;

const USAGE: &str = "\
edgenn — EdgeNN (ICDE 2023) reproduction CLI

USAGE:
    edgenn simulate  --model M --platform P [--config C] [--scale paper|tiny]
                     [--json] [--layers] [--trace-out FILE] [--metrics-out FILE]
                     [--faults SPEC|SEED] [--max-retries N] [--deadline-us F]
    edgenn explain   --model M --platform P [--config C] [--json]
    edgenn plan      --model M --platform P [--config C] [--explain]
    edgenn compare   --model M --platform P [--trace-out FILE] [--metrics-out FILE]
    edgenn check     --model M --platform P [--config C] [--scale paper|tiny]
                     [--json] [--lenient]
    edgenn compile   --model M [--platform P] [--config C] [--scale paper|tiny]
                     [--json] [--dump] [--out FILE] [--prepack|--no-prepack]
    edgenn analyze   --model M --platform P [--config C] [--scale paper|tiny]
                     [--json] [--functional]
    edgenn profile   <model> --platform P [--config C] [--scale paper|tiny]
                     [--runs N] [--json] [--perfetto FILE]
    edgenn storm     [--model M|all] [--platform P] [--config C] [--seed N]
                     [--runs N] [--max-retries N] [--deadline-us F]
                     [--replay-seed N] [--inject-failure I]
                     [--json] [--out FILE]
    edgenn serve     [--seed N] [--duration-ms N] [--platform P]
                     [--queue-capacity N] [--max-batch N] [--max-delay-us F]
                     [--check] [--json] [--out FILE]
    edgenn siege     [--seed N] [--duration-us F] [--platform P]
                     [--queue-capacity N] [--max-batch N] [--max-delay-us F]
                     [--no-faults] [--max-retries N] [--json] [--out FILE]
    edgenn inspect   --model M [--scale paper|tiny]
    edgenn models
    edgenn platforms

MODELS:     fcnn lenet alexnet vgg squeezenet resnet
PLATFORMS:  jetson (jetson-xavier) rpi phone server apu apple
CONFIGS:    edgenn baseline cpu-only memory-only hybrid-only inter-only energy

COMPILATION:
    Every command taking [--model M] first runs the graph compiler
    (identity elimination, activation fusion, constant folding,
    slice/concat cancellation, DCE, fixpoint) so the tuner plans over the
    optimized DAG; pass --no-compile to work on the raw builder graph.
    Weight prepacking into GEMM panel layouts happens at tiny scale
    (where the functional engine actually runs); paper-scale weights stay
    lazy/analytic unless --prepack forces packing.

COMPILE:
    Runs the compiler alone, prints per-pass node/edge deltas, and
    re-verifies the rewrite: EC06x rewrite-legality codes (interface
    preserved, fused-node partial-range contract, no orphans, report
    consistency) plus the full tier-A graph check; with --platform, the
    tier-B profile/plan checks run on the compiled graph too.
    --dump      also print the compiled graph's layer table
    --json      machine-readable report (passes, deltas, diagnostics)
    --out FILE  write the JSON report to FILE (used by ci.sh archiving)
    Exit status is non-zero when any error-severity diagnostic fires.

PRECISION:
    Every command taking [--config C] also takes [--precision f32|int8]
    (default f32). int8 runs the quantized conv/dense kernels (per-channel
    symmetric weights, per-tensor affine activations, requantize epilogue)
    inside the functional engine and sizes footprint and tier-D certified
    bounds with the int8 sidecar; activations between nodes stay f32.

OBSERVABILITY:
    --trace-out FILE    Perfetto/chrome://tracing trace with counter tracks
                        (bandwidth, outstanding managed pages, EMA evolution)
    --metrics-out FILE  JSON metrics snapshot (counters, gauges, p50/p95/p99
                        latency histograms from a serving run)

CHECK:
    Runs the edgenn-check static verifier: graph dataflow (tier A), plan
    legality on the target platform (tier B), then a simulated trace through
    the happens-before race detector plus report accounting (tier C).
    Diagnostics carry stable EC0xx codes (see docs/diagnostics.md).
    --json      machine-readable report instead of the table
    --lenient   downgrade the accounting codes EC030/EC031 to warnings
                (plotting pipelines that accept a clamped copy proportion)
    Exit status is non-zero when any error-severity diagnostic fires.

ANALYZE:
    Runs the edgenn-check tier-D ownership/liveness analyzer: the plan is
    lowered into the slot/arena operation schedule the functional engine
    executes, abstract-interpreted against the zero-copy
    contract (EC050-EC059, see docs/diagnostics.md), and a certified
    peak-memory bound is derived and checked against the platform's DRAM.
    The worker-pool schedule explorer then exhaustively enumerates every
    queue/steal/reclaim interleaving of a scenario matrix (CHESS-style
    bounded preemptions), asserting the pool contract on each.
    --json        machine-readable report (liveness table, bound, explorer)
    --functional  also execute the model through the real functional
                  engine and gate measured bytes against the certified
                  bound (slots must equal certified, arena must not
                  exceed it)
    Exit status is non-zero on any EC05x error, explorer violation, or
    conformance failure.

FAULTS:
    --faults takes either a bare integer (a seed for a reproducible random
    fault plan) or a spec of semicolon-separated clauses:
        kernel:<node>x<count>         kernel failures before success (or inf)
        bw:<start>-<end>@<factor>     bandwidth degradation window, factor (0,1)
        thermal:<start>-<end>@<factor> thermal throttle window, factor (0,1)
        stall:<start>-<end>@<factor>  page-migration stalls, factor > 1
        oom:<fraction>                co-tenant DRAM pressure in [0,1)
    Example: --faults 'kernel:3xinf;bw:0-500@0.5;oom:0.8'
    --max-retries N    per-node retry budget before CPU fallback (default 3)
    --deadline-us F    latency budget; overruns degrade the hybrid plan to a
                       single processor mid-run

PROFILE:
    Runs the model through the real functional engine with the always-on
    flight recorder enabled, keeps the fastest of --runs (default 3)
    measured requests, and verifies the recorded spans through the tier-C
    checker (occupancy, causal ordering) before reporting. Prints per-stage
    p50/p99 (node, pack, compute, merge, queue wait) and a per-node
    predicted-vs-measured table against the analytic simulation. Defaults
    to --scale tiny: the functional engine runs on the host CPU, so
    measured times characterize engine behaviour, not target latency.
    --runs N          measured requests after one warm-up (default 3)
    --json            machine-readable profile instead of the tables
    --perfetto FILE   one Chrome trace with the simulated timeline (pid 1)
                      next to the measured flight recording (pid 3)

STORM:
    Monte-Carlo resilience sweep: per run, a seeded random fault plan is
    injected into the analytic simulation (recovery log gated by the EC04x
    checker) and into a functional execution whose output must stay bitwise
    identical to the fault-free reference. Reports survival rate and p99
    degraded latency per model; exit status is non-zero below 100% survival.
    Every failing or deadline-degraded round's seed is archived in the JSON
    summary (failed_seeds / degraded_seeds) so any round is reproducible.
    --out FILE         also writes the JSON summary to FILE
    --replay-seed N    re-run exactly one round with seed N, verbosely
                       (paste a seed from failed_seeds to debug it)
    --inject-failure I force round index I to fail (tests the seed
                       archiving path end to end)

SERVE / SIEGE:
    The multi-tenant serving front-end (edgenn-serve): per-tenant
    token-bucket admission with in-flight caps, a bounded pending set,
    weighted-fair dynamic batching into Executor::batch_execute, and an
    SLO guard that degrades hybrid -> single-processor -> int8 before it
    sheds. Every decision is a typed event in the admission log
    (docs/serving.md). Both commands drive the same dispatcher.
    serve  runs it against the wall clock for --duration-ms; --check
           replays the log through the EC07x admission-log checker
           afterwards.
    siege  is the deterministic gate: a seeded closed+open-loop load
           generator in virtual time with the fault injector armed
           (disable with --no-faults). Formed batches execute for real
           and must reproduce the fault-free reference bitwise; the
           admission log always replays through the EC07x checker. Exit
           status is non-zero if any admitted request is lost, any output
           diverges, the queue bound breaks, or the checker objects.
    Both write the shared JSON report (tenant tails, survival, shed rate,
    fairness spread, checker verdict) with --json / --out FILE.";

fn main() -> ExitCode {
    let options = Options::parse(std::env::args().skip(1));
    let result = match options.positional(0) {
        Some("simulate") => cmd_simulate(&options),
        Some("explain") => cmd_explain(&options),
        Some("plan") => cmd_plan(&options),
        Some("compare") => cmd_compare(&options),
        Some("check") => cmd_check(&options),
        Some("compile") => cmd_compile(&options),
        Some("analyze") => cmd_analyze(&options),
        Some("profile") => cmd_profile(&options),
        Some("storm") => cmd_storm(&options),
        Some("serve") => cmd_serve(&options),
        Some("siege") => cmd_siege(&options),
        Some("inspect") => cmd_inspect(&options),
        Some("models") => cmd_models(),
        Some("platforms") => {
            cmd_platforms();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Output sinks requested on the command line (`--trace-out` /
/// `--metrics-out`; `--trace` is kept as an alias of `--trace-out`).
struct ObsOutputs<'o> {
    trace_out: Option<&'o str>,
    metrics_out: Option<&'o str>,
    recorder: Option<Recorder>,
}

impl<'o> ObsOutputs<'o> {
    fn from_options(
        options: &'o Options,
        graph_name: &str,
        platform: &Platform,
    ) -> Result<Self, String> {
        for key in ["trace-out", "trace", "metrics-out"] {
            if options.has(key) && options.value(key).is_none() {
                return Err(format!("--{key} requires a file path"));
            }
        }
        let trace_out = options
            .value("trace-out")
            .or_else(|| options.value("trace"));
        let metrics_out = options.value("metrics-out");
        let recorder = (trace_out.is_some() || metrics_out.is_some()).then(|| {
            Recorder::with_labels(
                Labels::new()
                    .with("model", graph_name)
                    .with("platform", &platform.name)
                    .with("policy", options.value("config").unwrap_or("edgenn")),
            )
        });
        Ok(Self {
            trace_out,
            metrics_out,
            recorder,
        })
    }

    fn wanted(&self) -> bool {
        self.recorder.is_some()
    }

    fn runtime<'a>(&self, platform: &'a Platform) -> Runtime<'a> {
        match &self.recorder {
            Some(rec) => Runtime::with_observer(platform, rec.clone()),
            None => Runtime::new(platform),
        }
    }

    fn write_trace(&self, events: &[edgenn_sim::TraceEvent]) -> Result<(), String> {
        let Some(path) = self.trace_out else {
            return Ok(());
        };
        let extra = self
            .recorder
            .as_ref()
            .map(edgenn_obs::Recorder::counter_samples)
            .unwrap_or_default();
        let entries = serde_json::Value::Array(chrome_trace_entries(events, &extra));
        let json = serde_json::to_string_pretty(&entries).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
        Ok(())
    }

    fn write_metrics(&self) -> Result<(), String> {
        let Some(path) = self.metrics_out else {
            return Ok(());
        };
        let rec = self
            .recorder
            .as_ref()
            .expect("metrics-out implies a recorder");
        let json =
            serde_json::to_string_pretty(&rec.metrics().to_json()).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        for warning in rec.warnings() {
            eprintln!("warning: {warning}");
        }
        eprintln!("metrics snapshot written to {path}");
        Ok(())
    }
}

/// A model ready to run: built at the requested scale and, unless
/// `--no-compile` was passed, optimized by the graph compiler (the
/// tuner then plans over the rewritten DAG). `report` is `None` only
/// for raw graphs.
struct LoadedModel {
    graph: edgenn_nn::graph::Graph,
    report: Option<CompileReport>,
}

fn parse_scale(options: &Options, default: &str) -> Result<ModelScale, String> {
    match options.value("scale").unwrap_or(default) {
        "paper" => Ok(ModelScale::Paper),
        "tiny" => Ok(ModelScale::Tiny),
        other => Err(format!("unknown scale '{other}' (expected paper|tiny)")),
    }
}

/// Compiler options for one invocation. Prepacking materializes weights,
/// and paper-scale graphs are analytic-only (their weights are lazy by
/// design), so packing defaults on at tiny scale — where the functional
/// engine actually executes — and off at paper scale; `--prepack` /
/// `--no-prepack` override. `--precision int8` also packs the quantized
/// sidecar.
fn compile_options(options: &Options, scale: ModelScale) -> Result<CompileOptions, String> {
    let int8 = match options.value("precision") {
        Some(name) => args::parse_precision(name)? == edgenn_core::plan::Precision::Int8,
        None => false,
    };
    let mut copts = if int8 {
        CompileOptions::int8()
    } else {
        CompileOptions::default()
    };
    let prepack = if options.has("prepack") {
        true
    } else if options.has("no-prepack") {
        false
    } else {
        scale == ModelScale::Tiny
    };
    if !prepack {
        copts.prepack_f32 = false;
        copts.prepack_int8 = false;
    }
    Ok(copts)
}

/// Compiles `raw` (honoring `--no-compile`) and refuses to hand out a
/// graph whose rewrite fails the EC06x legality checks.
fn compile_loaded(
    options: &Options,
    scale: ModelScale,
    raw: edgenn_nn::graph::Graph,
) -> Result<LoadedModel, String> {
    if options.has("no-compile") {
        return Ok(LoadedModel {
            graph: raw,
            report: None,
        });
    }
    let copts = compile_options(options, scale)?;
    let (graph, report) = compile(&raw, &copts).map_err(|e| format!("compile: {e}"))?;
    let diags = edgenn_check::check_compiled(&raw, &graph, &report);
    if !diags.is_empty() {
        let mut msg = format!(
            "graph compiler produced an illegal rewrite of {} ({} finding(s)):\n",
            raw.name(),
            diags.len()
        );
        for d in &diags {
            msg.push_str(&format!("  {d}\n"));
        }
        return Err(msg);
    }
    Ok(LoadedModel {
        graph,
        report: Some(report),
    })
}

/// The flags that choose, compile and plan a model. The gate commands
/// accept these plus their own ([`ensure_model_flags`]).
const MODEL_FLAGS: [&str; 8] = [
    "model",
    "scale",
    "platform",
    "config",
    "precision",
    "no-compile",
    "prepack",
    "no-prepack",
];

/// Errors on the first flag outside [`MODEL_FLAGS`] and `own`.
fn ensure_model_flags(options: &Options, own: &[&str]) -> Result<(), String> {
    options.ensure_known(&[&MODEL_FLAGS[..], own].concat())
}

fn required_graph(options: &Options) -> Result<LoadedModel, String> {
    let model = parse_model(options.value("model").ok_or("--model is required")?)?;
    let scale = parse_scale(options, "paper")?;
    compile_loaded(options, scale, build(model, scale))
}

/// Records a compile report's passes (one per pass run, across fixpoint
/// iterations) and its prepack stage into the recorder, so compiler work
/// shows up in exported metrics next to the simulator's counters.
fn record_compile_report(rec: &Recorder, report: &CompileReport) {
    for p in &report.passes {
        let eliminated = p.nodes_before.saturating_sub(p.nodes_after) as u64;
        rec.compiler_pass(p.rewrites as u64, eliminated, 0);
    }
    if report.prepacked_nodes > 0 {
        rec.compiler_pass(report.prepacked_nodes as u64, 0, report.prepacked_bytes);
    }
}

fn cmd_simulate(options: &Options) -> Result<(), String> {
    let LoadedModel {
        graph,
        report: compile_report,
    } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;

    let obs = ObsOutputs::from_options(options, graph.name(), &platform)?;
    if let (Some(rec), Some(report)) = (&obs.recorder, &compile_report) {
        record_compile_report(rec, report);
    }
    let runtime = obs.runtime(&platform);
    let mut tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    let plan = if obs.wanted() {
        // Run the adaptive loop so the EMA counter tracks and the plan
        // regeneration markers appear in the exported trace.
        let (plan, _) = tuner
            .adapt(&graph, &runtime, config, 3, 0.05)
            .map_err(|e| e.to_string())?;
        plan
    } else {
        tuner
            .plan(&graph, &runtime, config)
            .map_err(|e| e.to_string())?
    };
    let decisions = tuner
        .explain(&graph, &runtime, &plan)
        .map_err(|e| e.to_string())?;

    if options.has("faults") {
        let spec = options
            .value("faults")
            .ok_or("--faults requires a seed or a fault spec")?;
        let faults = parse_faults(spec, graph.len())?;
        let rcfg = resilience_config(options)?;
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &rcfg)
            .map_err(|e| e.to_string())?;
        let report = outcome.report.with_decisions(decisions);
        obs.write_trace(&report.events)?;
        obs.write_metrics()?;
        if options.has("json") {
            let mut m = serde_json::Map::new();
            m.insert(
                "report",
                serde_json::to_value(&report).map_err(|e| e.to_string())?,
            );
            m.insert(
                "recovery",
                serde_json::to_value(&outcome.recovery).map_err(|e| e.to_string())?,
            );
            println!(
                "{}",
                serde_json::to_string_pretty(&serde_json::Value::Object(m))
                    .map_err(|e| e.to_string())?
            );
            return Ok(());
        }
        println!(
            "{} on {} under fault injection ({})",
            report.model,
            report.platform,
            faults.describe()
        );
        println!(
            "  latency      : {:.3} ms (degraded)",
            report.total_us / 1e3
        );
        let rec = &outcome.recovery;
        println!("  injected     : {} fault(s)", rec.faults_injected);
        println!(
            "  recovery     : {} retrie(s), {} fallback(s), {} deadline degradation(s)",
            rec.retries, rec.fallbacks, rec.deadline_degradations
        );
        if rec.gpu_lost {
            println!("  gpu          : lost (permanent kernel fault; suffix fell back to CPU)");
        }
        for event in &rec.events {
            println!(
                "    t={:>9.1} us  n{:<3} {:?} -> {:?} (attempt {})",
                event.t_us, event.node, event.cause, event.action, event.attempt
            );
        }
        return Ok(());
    }

    let report = runtime
        .simulate(&graph, &plan)
        .map_err(|e| e.to_string())?
        .with_decisions(decisions);

    obs.write_trace(&report.events)?;
    if obs.metrics_out.is_some() {
        // A short serving run feeds the request-latency histogram so the
        // snapshot carries meaningful p50/p95/p99.
        runtime
            .simulate_stream(&graph, &plan, 32)
            .map_err(|e| e.to_string())?;
    }
    obs.write_metrics()?;

    if options.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!("{} on {}", report.model, report.platform);
    println!("  latency      : {:.3} ms", report.total_us / 1e3);
    println!("  avg power    : {:.2} W", report.energy.avg_power_w);
    println!(
        "  energy       : {:.3} mJ/inference",
        report.energy.energy_mj
    );
    println!(
        "  utilization  : CPU {:.0}% / GPU {:.0}%",
        report.energy.cpu_utilization * 100.0,
        report.energy.gpu_utilization * 100.0
    );
    println!(
        "  breakdown    : kernel {:.0} us, copies {:.0} us, migrations {:.0} us, \
         thrash {:.0} us, sync {:.0} us",
        report.summary.kernel_us,
        report.summary.copy_us,
        report.summary.migration_us,
        report.summary.thrash_us,
        report.summary.sync_us
    );
    println!(
        "  plan         : {} co-run layers, {} zero-copy arrays",
        plan.corun_count(),
        plan.managed_count()
    );
    let footprint = edgenn_core::footprint::footprint(&graph, &plan).map_err(|e| e.to_string())?;
    println!(
        "  memory       : {:.1} MiB peak ({:.1} MiB weights + {:.1} MiB activations)",
        footprint.peak_mib(),
        footprint.weight_bytes as f64 / (1 << 20) as f64,
        footprint.peak_activation_bytes as f64 / (1 << 20) as f64
    );
    if options.has("layers") {
        println!(
            "\n  {:<22} {:>12} {:>10} {:>10}  assignment",
            "layer", "start us", "kernel", "memory"
        );
        for layer in &report.layers {
            println!(
                "  {:<22} {:>12.1} {:>10.1} {:>10.1}  {:?}",
                layer.name, layer.start_us, layer.kernel_us, layer.memory_us, layer.assignment
            );
        }
    }
    Ok(())
}

/// Compact rendering of an assignment for the decision tables.
fn assignment_cell(assignment: &edgenn_core::plan::Assignment) -> String {
    use edgenn_core::plan::Assignment;
    match assignment {
        Assignment::Cpu => "cpu".to_string(),
        Assignment::Gpu => "gpu".to_string(),
        Assignment::Split { cpu_fraction } => {
            format!("split {:.0}%c", cpu_fraction * 100.0)
        }
        Assignment::SplitInput { cpu_fraction } => {
            format!("split-in {:.0}%c", cpu_fraction * 100.0)
        }
    }
}

fn cmd_explain(options: &Options) -> Result<(), String> {
    let LoadedModel {
        graph,
        report: compile_report,
    } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;

    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    let plan = tuner
        .plan(&graph, &runtime, config)
        .map_err(|e| e.to_string())?;
    let report = runtime.simulate(&graph, &plan).map_err(|e| e.to_string())?;
    let rows = tuner
        .explain(&graph, &runtime, &plan)
        .map_err(|e| e.to_string())?;

    if options.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    // Simulated per-layer wall time, keyed by node id.
    let mut simulated = vec![f64::NAN; graph.len()];
    for layer in &report.layers {
        simulated[layer.node] = layer.total_us();
    }

    println!(
        "{} on {} — per-layer tuner decisions",
        graph.name(),
        platform.name
    );
    println!(
        "{:<22} {:<6} {:<13} {:>11} {:>11} {:<9}  rationale",
        "layer", "class", "assignment", "predicted", "simulated", "memory"
    );
    for row in &rows {
        let sim = simulated
            .get(row.node)
            .copied()
            .filter(|t| t.is_finite())
            .map_or_else(|| "—".to_string(), |t| format!("{t:.1}"));
        println!(
            "{:<22} {:<6} {:<13} {:>11.1} {:>11} {:<9}  {}",
            row.name,
            row.class,
            assignment_cell(&row.assignment),
            row.predicted_us,
            sim,
            row.output_alloc.to_string(),
            row.rationale
        );
    }
    println!(
        "\ntotal: predicted {:.1} us over {} layers, simulated end-to-end {:.1} us",
        rows.iter().map(|r| r.predicted_us).sum::<f64>(),
        rows.len(),
        report.total_us
    );
    if let Some(c) = &compile_report {
        println!(
            "compiler: {} -> {} nodes ({} pass rewrite(s) over {} iteration(s), \
             {} node(s) / {} byte(s) prepacked)",
            c.nodes_pre,
            c.nodes_post,
            c.passes.iter().map(|p| p.rewrites).sum::<usize>(),
            c.iterations,
            c.prepacked_nodes,
            c.prepacked_bytes
        );
    }
    Ok(())
}

fn cmd_plan(options: &Options) -> Result<(), String> {
    let LoadedModel { graph, .. } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    let plan = tuner
        .plan(&graph, &runtime, config)
        .map_err(|e| e.to_string())?;
    if options.has("explain") {
        let rows = tuner
            .explain(&graph, &runtime, &plan)
            .map_err(|e| e.to_string())?;
        println!(
            "{:<24} {:<8} {:>12} {:>12}  decision",
            "layer", "class", "t_cpu us", "t_gpu us"
        );
        for row in rows {
            println!(
                "{:<24} {:<8} {:>12.1} {:>12.1}  {} / {}",
                row.name,
                row.class,
                row.t_cpu_us,
                row.t_gpu_us,
                assignment_cell(&row.assignment),
                row.output_alloc
            );
        }
        return Ok(());
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&plan).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_compare(options: &Options) -> Result<(), String> {
    let LoadedModel { graph, .. } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let obs = ObsOutputs::from_options(options, graph.name(), &platform)?;
    let runtime = obs.runtime(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;

    let configs: &[(&str, ExecutionConfig)] = &[
        ("baseline (gpu, explicit)", ExecutionConfig::baseline_gpu()),
        ("memory-only (zero-copy)", ExecutionConfig::memory_only()),
        ("hybrid-only (explicit)", ExecutionConfig::hybrid_only()),
        ("inter-kernel only", ExecutionConfig::inter_kernel_only()),
        ("edgenn", ExecutionConfig::edgenn()),
        (
            "edgenn (energy-aware)",
            ExecutionConfig::edgenn_energy_aware(),
        ),
        ("cpu-only", ExecutionConfig::cpu_only()),
    ];

    println!("{} on {}", graph.name(), platform.name);
    println!(
        "{:<26} {:>12} {:>10} {:>12}",
        "config", "latency ms", "power W", "energy mJ"
    );
    let mut baseline_us = None;
    let mut traced_events: Option<Vec<edgenn_sim::TraceEvent>> = None;
    for (name, config) in configs {
        if !platform.has_gpu() && *name != "cpu-only" {
            continue;
        }
        let plan = tuner
            .plan(&graph, &runtime, *config)
            .map_err(|e| e.to_string())?;
        let report = runtime.simulate(&graph, &plan).map_err(|e| e.to_string())?;
        // Trace the headline edgenn run (or the first run when edgenn
        // never executes, e.g. on CPU-only platforms).
        if traced_events.is_none() || *name == "edgenn" {
            traced_events = Some(report.events.clone());
        }
        let delta = match baseline_us {
            None => {
                baseline_us = Some(report.total_us);
                String::new()
            }
            Some(base) => format!(
                "  ({:+.1}% vs baseline)",
                (report.total_us - base) / base * 100.0
            ),
        };
        println!(
            "{:<26} {:>12.3} {:>10.2} {:>12.3}{delta}",
            name,
            report.total_us / 1e3,
            report.energy.avg_power_w,
            report.energy.energy_mj
        );
    }
    if let Some(events) = &traced_events {
        obs.write_trace(events)?;
    }
    obs.write_metrics()?;
    Ok(())
}

fn cmd_check(options: &Options) -> Result<(), String> {
    ensure_model_flags(options, &["json", "lenient"])?;
    let LoadedModel { graph, .. } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;

    let mut report = edgenn_check::CheckReport::default();

    // Tier A: the graph itself.
    report.extend(edgenn_check::check_graph(&graph));

    // Tier B: the profile the tuner plans from, then the plan it emits.
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    report.extend(edgenn_check::check_profile(tuner.stats()));
    let plan = tuner
        .plan(&graph, &runtime, config)
        .map_err(|e| e.to_string())?;
    report.extend(edgenn_check::check_plan(&graph, &plan, &platform));

    // Tier C: one simulated inference, its trace through the
    // happens-before detector, and the report's accounting invariants.
    let sim_report = runtime.simulate(&graph, &plan).map_err(|e| e.to_string())?;
    report.extend(edgenn_check::check_trace_events(
        &sim_report.events,
        &platform,
    ));
    report.extend(edgenn_check::check_report(&sim_report));

    if options.has("lenient") {
        report.downgrade_accounting();
    }

    if options.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render_table());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "check failed: {} error(s) on {} x {}",
            report.error_count(),
            graph.name(),
            platform.name
        ))
    }
}

fn cmd_compile(options: &Options) -> Result<(), String> {
    ensure_model_flags(options, &["json", "dump", "out"])?;
    let model = parse_model(options.value("model").ok_or("--model is required")?)?;
    let scale = parse_scale(options, "paper")?;
    let raw = build(model, scale);
    let copts = compile_options(options, scale)?;
    let (compiled, report) = compile(&raw, &copts).map_err(|e| format!("compile: {e}"))?;

    // Re-verify the rewrite: EC06x legality, then the full tier-A graph
    // check on the result.
    let mut check = edgenn_check::CheckReport::default();
    check.extend(edgenn_check::check_compiled(&raw, &compiled, &report));
    check.extend(edgenn_check::check_graph(&compiled));

    // With a platform, the compiled graph must also plan cleanly (tier B).
    let platform = match options.value("platform") {
        Some(name) => Some(parse_platform(name)?),
        None => None,
    };
    if let Some(p) = &platform {
        let config = args::resolve_config(options)?;
        let runtime = Runtime::new(p);
        let tuner = Tuner::new(&compiled, &runtime).map_err(|e| e.to_string())?;
        check.extend(edgenn_check::check_profile(tuner.stats()));
        let plan = tuner
            .plan(&compiled, &runtime, config)
            .map_err(|e| e.to_string())?;
        check.extend(edgenn_check::check_plan(&compiled, &plan, p));
    }

    if options.has("json") || options.value("out").is_some() {
        let mut m = serde_json::Map::new();
        m.insert("model", serde_json::Value::from(raw.name()));
        m.insert(
            "platform",
            platform.as_ref().map_or(serde_json::Value::Null, |p| {
                serde_json::Value::from(p.name.as_str())
            }),
        );
        m.insert(
            "scale",
            serde_json::Value::from(options.value("scale").unwrap_or("paper")),
        );
        m.insert(
            "nodes_pre",
            serde_json::Value::from(report.nodes_pre as u64),
        );
        m.insert(
            "nodes_post",
            serde_json::Value::from(report.nodes_post as u64),
        );
        m.insert(
            "edges_pre",
            serde_json::Value::from(report.edges_pre as u64),
        );
        m.insert(
            "edges_post",
            serde_json::Value::from(report.edges_post as u64),
        );
        m.insert(
            "iterations",
            serde_json::Value::from(report.iterations as u64),
        );
        m.insert(
            "prepacked_bytes",
            serde_json::Value::from(report.prepacked_bytes),
        );
        m.insert(
            "prepacked_nodes",
            serde_json::Value::from(report.prepacked_nodes as u64),
        );
        let passes = report
            .passes
            .iter()
            .map(|p| {
                let mut row = serde_json::Map::new();
                row.insert("pass", serde_json::Value::from(p.pass));
                row.insert("iteration", serde_json::Value::from(p.iteration as u64));
                row.insert(
                    "nodes_before",
                    serde_json::Value::from(p.nodes_before as u64),
                );
                row.insert("nodes_after", serde_json::Value::from(p.nodes_after as u64));
                row.insert(
                    "edges_before",
                    serde_json::Value::from(p.edges_before as u64),
                );
                row.insert("edges_after", serde_json::Value::from(p.edges_after as u64));
                row.insert("rewrites", serde_json::Value::from(p.rewrites as u64));
                serde_json::Value::Object(row)
            })
            .collect::<Vec<_>>();
        m.insert("passes", serde_json::Value::Array(passes));
        m.insert("check", check.to_json());
        m.insert("clean", serde_json::Value::from(check.is_clean()));
        emit_summary(options, "compile report", &serde_json::Value::Object(m))?;
    } else {
        println!(
            "{} ({}) — compiled in {} iteration(s): {} -> {} nodes, {} -> {} edges",
            raw.name(),
            options.value("scale").unwrap_or("paper"),
            report.iterations,
            report.nodes_pre,
            report.nodes_post,
            report.edges_pre,
            report.edges_post
        );
        println!(
            "{:<18} {:>5} {:>12} {:>12} {:>9}",
            "pass", "iter", "nodes", "edges", "rewrites"
        );
        for p in &report.passes {
            println!(
                "{:<18} {:>5} {:>5} -> {:<4} {:>5} -> {:<4} {:>9}",
                p.pass,
                p.iteration,
                p.nodes_before,
                p.nodes_after,
                p.edges_before,
                p.edges_after,
                p.rewrites
            );
        }
        println!(
            "prepack: {} node(s), {} byte(s) packed into kernel layouts",
            report.prepacked_nodes, report.prepacked_bytes
        );
        if !check.diagnostics.is_empty() {
            print!("{}", check.render_table());
        }
        if options.has("dump") {
            print!("\n{}", compiled.summary());
        }
    }

    if check.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "compile verification failed: {} error(s) on {}",
            check.error_count(),
            raw.name()
        ))
    }
}

fn cmd_analyze(options: &Options) -> Result<(), String> {
    use edgenn_core::runtime::sched_explore;

    ensure_model_flags(options, &["json", "functional"])?;
    let LoadedModel { graph, .. } = required_graph(options)?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;

    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    let plan = tuner
        .plan(&graph, &runtime, config)
        .map_err(|e| e.to_string())?;

    // Tier D: static ownership/liveness over the lowered schedule.
    let report = edgenn_check::check_ownership(&graph, &plan, &platform);

    // Pool schedule explorer: every interleaving of the scenario matrix.
    let matrix = sched_explore::default_matrix();
    let mut interleavings = 0u64;
    let mut states = 0u64;
    let mut explorer_violations: Vec<String> = Vec::new();
    for cfg in &matrix {
        let result = sched_explore::explore(cfg);
        interleavings += result.interleavings;
        states += result.states;
        if !result.is_clean() {
            explorer_violations.push(format!("{cfg:?}: {:?}", result.violations));
        }
    }

    // Optional conformance gate: the engine holds every slot to session
    // end, so measured slots must equal the certified slots, and the
    // measured arena must stay under the certified arena.
    let functional = if options.has("functional") {
        let input = edgenn_tensor::Tensor::random(graph.input_shape().dims(), 1.0, 7);
        let outcome = edgenn_core::runtime::functional::execute(&graph, &plan, &input)
            .map_err(|e| e.to_string())?;
        let measured_slot = outcome.engine.slot_bytes;
        let measured_arena = outcome.engine.arena_fresh_bytes;
        let conforms =
            measured_slot == report.bound.slot_bytes && measured_arena <= report.bound.arena_bytes;
        // Infinite (null in JSON) when the run measured no arena.
        let ratio = report.bound.arena_bytes as f64 / measured_arena as f64;
        Some((measured_slot, measured_arena, ratio, conforms))
    } else {
        None
    };

    let explorer_clean = explorer_violations.is_empty();
    let measured_conforms = functional.is_none_or(|(_, _, _, ok)| ok);

    if options.has("json") {
        let mut m = serde_json::Map::new();
        m.insert("model", serde_json::Value::from(graph.name()));
        m.insert("platform", serde_json::Value::from(platform.name.as_str()));
        m.insert(
            "config",
            serde_json::Value::from(options.value("config").unwrap_or("edgenn")),
        );
        m.insert(
            "scale",
            serde_json::Value::from(options.value("scale").unwrap_or("paper")),
        );
        m.insert(
            "ownership",
            serde_json::to_value(&report).map_err(|e| e.to_string())?,
        );
        m.insert("clean", serde_json::Value::from(report.is_clean()));
        let mut ex = serde_json::Map::new();
        ex.insert("scenarios", serde_json::Value::from(matrix.len() as u64));
        ex.insert("interleavings", serde_json::Value::from(interleavings));
        ex.insert("states", serde_json::Value::from(states));
        ex.insert(
            "violations",
            serde_json::to_value(&explorer_violations).map_err(|e| e.to_string())?,
        );
        ex.insert("clean", serde_json::Value::from(explorer_clean));
        m.insert("explorer", serde_json::Value::Object(ex));
        if let Some((slot, arena, ratio, conforms)) = functional {
            let mut f = serde_json::Map::new();
            f.insert("measured_slot_bytes", serde_json::Value::from(slot));
            f.insert("measured_arena_fresh_bytes", serde_json::Value::from(arena));
            f.insert(
                "certified_slot_bytes",
                serde_json::Value::from(report.bound.slot_bytes),
            );
            f.insert(
                "certified_arena_bytes",
                serde_json::Value::from(report.bound.arena_bytes),
            );
            f.insert("certified_to_measured_arena", ratio.into());
            f.insert("conforms", serde_json::Value::from(conforms));
            m.insert("functional", serde_json::Value::Object(f));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Object(m))
                .map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{} on {} — tier-D ownership/liveness analysis ({} abstract ops)",
            graph.name(),
            platform.name,
            report.ops
        );
        print!("{}", report.render_table(&graph));
        let margin = platform.dram_bytes.saturating_sub(report.bound.total_bytes);
        println!(
            "dram margin   : {:.1} MiB of {:.1} MiB free under the certified bound",
            margin as f64 / (1 << 20) as f64,
            platform.dram_bytes as f64 / (1 << 20) as f64
        );
        for d in &report.diagnostics {
            println!("  {d}");
        }
        println!(
            "pool explorer : {} scenario(s), {} interleaving(s), {} state(s): {}",
            matrix.len(),
            interleavings,
            states,
            if explorer_clean {
                "all invariants hold".to_string()
            } else {
                format!("{} violation(s)", explorer_violations.len())
            }
        );
        for v in &explorer_violations {
            println!("  {v}");
        }
        if let Some((slot, arena, ratio, conforms)) = functional {
            println!(
                "functional    : measured slots {} / certified {}, measured arena {} / \
                 certified {} (certified/measured {:.2}) — {}",
                slot,
                report.bound.slot_bytes,
                arena,
                report.bound.arena_bytes,
                ratio,
                if conforms {
                    "slots = certified, arena \u{2264} certified"
                } else {
                    "MEASURED DOES NOT CONFORM"
                }
            );
        }
    }

    if report.is_clean() && explorer_clean && measured_conforms {
        Ok(())
    } else {
        Err(format!(
            "analyze failed on {} x {}: {} EC05x error(s), {} explorer violation(s){}",
            graph.name(),
            platform.name,
            report
                .diagnostics
                .iter()
                .filter(|d| d.severity == edgenn_check::Severity::Error)
                .count(),
            explorer_violations.len(),
            if measured_conforms {
                String::new()
            } else {
                ", measured bytes do not conform to the certified bound".to_string()
            }
        ))
    }
}

/// Resolves a `--faults` argument: a bare integer is a seed for a
/// reproducible random plan, anything else goes through the spec
/// grammar (see `FaultPlan::parse`).
fn parse_faults(spec: &str, nodes: usize) -> Result<edgenn_sim::FaultPlan, String> {
    if let Ok(seed) = spec.parse::<u64>() {
        return Ok(edgenn_sim::FaultPlan::from_seed(seed, nodes));
    }
    edgenn_sim::FaultPlan::parse(spec)
}

/// Builds the resilience policy from `--max-retries` / `--deadline-us`.
fn resilience_config(options: &Options) -> Result<ResilienceConfig, String> {
    let mut cfg = ResilienceConfig::default();
    cfg.max_retries = options.parsed("max-retries")?.unwrap_or(cfg.max_retries);
    cfg.deadline_us = options.parsed("deadline-us")?;
    Ok(cfg)
}

/// Runs the functional engine under the flight recorder and reports the
/// measured timeline next to the analytic prediction.
fn cmd_profile(options: &Options) -> Result<(), String> {
    use edgenn_core::runtime::functional::Executor;
    use edgenn_obs::flight;
    use edgenn_tensor::Tensor;

    ensure_model_flags(options, &["runs", "json", "perfetto"])?;
    let model_name = options
        .positional(1)
        .or_else(|| options.value("model"))
        .ok_or("profile needs a model: edgenn profile <model> --platform P")?;
    let model = parse_model(model_name)?;
    let scale = parse_scale(options, "tiny")?;
    let LoadedModel { graph, .. } = compile_loaded(options, scale, build(model, scale))?;
    let platform = parse_platform(options.value("platform").ok_or("--platform is required")?)?;
    let config = args::resolve_config(options)?;
    let runs: usize = match options.value("runs") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--runs expects a positive integer, got '{v}'"))?,
        None => 3,
    };
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }

    // Predicted timeline: the analytic simulator on the target platform.
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime).map_err(|e| e.to_string())?;
    let plan = tuner
        .plan(&graph, &runtime, config)
        .map_err(|e| e.to_string())?;
    let predicted = runtime.simulate(&graph, &plan).map_err(|e| e.to_string())?;

    // Measured timeline: real functional runs with the recorder on.
    // One warm-up populates the scratch arena and the worker pool, then
    // the fastest of `runs` recorded requests is kept.
    flight::enable();
    let executor = Executor::new(&graph).map_err(|e| e.to_string())?;
    let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
    executor.execute(&plan, &input).map_err(|e| e.to_string())?;
    let mut kept: Option<(Vec<flight::SpanRecord>, flight::SpanRecord, ProfileSummary)> = None;
    for _ in 0..runs {
        let outcome = executor.execute(&plan, &input).map_err(|e| e.to_string())?;
        let window = outcome
            .engine
            .profile
            .ok_or("the recorder opened no request window")?;
        let records = window.records();
        let root = records
            .iter()
            .find(|r| r.kind == flight::SpanKind::Request)
            .copied()
            .ok_or("the recorder captured no request span (ring overflow?)")?;
        let wall = root.end_ns - root.start_ns;
        if kept
            .as_ref()
            .is_none_or(|(_, best, _)| wall < best.end_ns - best.start_ns)
        {
            kept = Some((records, root, window.summary()));
        }
    }
    let (slice, root, profile) = kept.expect("runs >= 1 always keeps a request");
    let wall_us = (root.end_ns - root.start_ns) as f64 / 1e3;

    // Gate: the measured spans must satisfy the same tier-C invariants
    // the simulator's traces are held to.
    let diags = edgenn_check::check_flight_records(&slice);
    if !diags.is_empty() {
        let mut msg = format!(
            "recorded timeline failed the tier-C flight check ({} finding(s)):\n",
            diags.len()
        );
        for d in &diags {
            msg.push_str(&format!("  {d}\n"));
        }
        return Err(msg);
    }

    let mut nodes = edgenn_obs::flight::node_profiles(&slice);
    nodes.sort_by_key(|n| n.node);
    let layer_of = |node: u32| {
        predicted
            .layers
            .iter()
            .find(|l| l.node == node as usize)
            .map(|l| (l.name.clone(), l.kernel_us + l.memory_us))
    };

    if options.value("perfetto").is_some() {
        write_profile_trace(options, &predicted.events, &slice, root.start_ns, &graph)?;
    } else if options.has("perfetto") {
        return Err("--perfetto requires a file path".to_string());
    }

    if options.has("json") {
        let mut m = serde_json::Map::new();
        m.insert("model", serde_json::Value::from(graph.name()));
        m.insert("platform", serde_json::Value::from(platform.name.as_str()));
        m.insert(
            "config",
            serde_json::Value::from(options.value("config").unwrap_or("edgenn")),
        );
        m.insert(
            "scale",
            serde_json::Value::from(options.value("scale").unwrap_or("tiny")),
        );
        m.insert("runs", serde_json::Value::from(runs as f64));
        m.insert("wall_us", serde_json::Value::from(wall_us));
        m.insert(
            "predicted_total_us",
            serde_json::Value::from(predicted.total_us),
        );
        m.insert("flight_check", serde_json::Value::from("clean"));
        m.insert("profile", profile.to_value());
        let node_values = nodes
            .iter()
            .map(|n| {
                let mut v = n.to_value();
                if let serde_json::Value::Object(map) = &mut v {
                    if let Some((name, predicted_us)) = layer_of(n.node) {
                        map.insert("layer", serde_json::Value::from(name));
                        map.insert("predicted_us", serde_json::Value::from(predicted_us));
                    }
                }
                v
            })
            .collect::<Vec<_>>();
        m.insert("nodes", serde_json::Value::Array(node_values));
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Object(m))
                .map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "profiled {} ({}) on {} — {} run(s), fastest request {:.1} us",
        graph.name(),
        options.value("scale").unwrap_or("tiny"),
        platform.name,
        runs,
        wall_us
    );
    println!(
        "flight check : clean ({} spans, {} dropped from the request's window)",
        profile.span_count, profile.dropped
    );
    println!(
        "\n  {:<12} {:>6} {:>12} {:>10} {:>10} {:>10}",
        "stage", "count", "total us", "p50 us", "p99 us", "max us"
    );
    for stage in &profile.stages {
        println!(
            "  {:<12} {:>6} {:>12.1} {:>10.1} {:>10.1} {:>10.1}",
            stage.stage, stage.count, stage.total_us, stage.p50_us, stage.p99_us, stage.max_us
        );
    }
    println!(
        "\n  predicted = analytic model of {}; measured = host functional engine",
        platform.name
    );
    println!(
        "  {:<5} {:<22} {:>12} {:>12} {:>9} {:>10} {:>9} {:>9}",
        "node",
        "layer",
        "predicted us",
        "measured us",
        "pack us",
        "compute us",
        "merge us",
        "queue us"
    );
    for n in &nodes {
        let (name, predicted_us) =
            layer_of(n.node).unwrap_or_else(|| (format!("n{}", n.node), 0.0));
        println!(
            "  {:<5} {:<22} {:>12.1} {:>12.1} {:>9.1} {:>10.1} {:>9.1} {:>9.1}",
            n.node,
            name,
            predicted_us,
            n.wall_us,
            n.pack_us,
            n.compute_us,
            n.merge_us,
            n.queue_wait_us
        );
    }
    Ok(())
}

/// Writes one Chrome trace holding the simulated timeline (pid 1, with
/// its counter tracks on pid 1/2) next to the measured flight recording
/// (pid 3, one thread row per worker), then parses the written file back
/// to guarantee downstream tooling can load it.
fn write_profile_trace(
    options: &Options,
    predicted_events: &[edgenn_sim::TraceEvent],
    slice: &[edgenn_obs::SpanRecord],
    t0_ns: u64,
    graph: &edgenn_nn::graph::Graph,
) -> Result<(), String> {
    use edgenn_obs::{chrome, flight};

    let path = options.value("perfetto").expect("caller checked");
    let mut entries = chrome_trace_entries(predicted_events, &[]);
    entries.push(chrome::process_name(1, "simulated (analytic model)"));
    entries.push(chrome::process_name(3, "measured (flight recorder)"));
    let name_of = |n: u32| {
        graph.nodes().get(n as usize).map_or_else(
            || format!("n{n}"),
            |node| format!("n{n} {}", node.layer().name()),
        )
    };
    entries.extend(flight::chrome_entries(slice, 3, t0_ns, &name_of));
    let json = serde_json::to_string_pretty(&serde_json::Value::Array(entries))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    let reread = std::fs::read_to_string(path).map_err(|e| format!("re-reading {path}: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&reread).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let serde_json::Value::Array(checked) = parsed else {
        return Err(format!("{path}: a Chrome trace must be a JSON array"));
    };
    let measured_spans = checked
        .iter()
        .filter(|e| e["pid"] == 3.0 && e["ph"] == "X")
        .count();
    if measured_spans == 0 {
        return Err(format!("{path}: no measured spans made it into the trace"));
    }
    eprintln!(
        "merged trace written to {path} ({} entries, {} measured spans; load in Perfetto)",
        checked.len(),
        measured_spans
    );
    Ok(())
}

/// The seeded fault storm (`edgenn_check::storm`): flag parsing and
/// rendering only.
fn cmd_storm(options: &Options) -> Result<(), String> {
    options.ensure_known(&[
        "model",
        "platform",
        "config",
        "precision",
        "seed",
        "runs",
        "max-retries",
        "deadline-us",
        "replay-seed",
        "inject-failure",
        "json",
        "out",
    ])?;
    let platform = parse_platform(options.value("platform").unwrap_or("jetson"))?;
    // A CPU-only storm still exercises the window and OOM fault classes.
    let config = args::resolve_config_on(options, &platform)?;
    let cfg = edgenn_check::StormConfig {
        platform,
        models: match options.value("model") {
            None | Some("all") => ModelKind::ALL.to_vec(),
            Some(name) => vec![parse_model(name)?],
        },
        config,
        seed: options.parsed("seed")?.unwrap_or(42),
        runs: options.parsed("runs")?.unwrap_or(100),
        resilience: resilience_config(options)?,
        inject_failure: options.parsed("inject-failure")?,
    };
    let (name, max_retries) = (&cfg.platform.name, cfg.resilience.max_retries);
    if let Some(seed) = options.parsed::<u64>("replay-seed")? {
        println!("storm replay: seed {seed} on {name}, retry budget {max_retries}");
        let report = edgenn_check::storm::replay(&cfg, seed)?;
        for m in &report.models {
            match m.failures.first() {
                None => println!(
                    "{:<12} ok: {:.3} ms degraded ({:.3} ms clean), {} fault(s), {} retr(y/ies), \
                     {} fallback(s), {} deadline degradation(s)",
                    m.model,
                    m.p50_degraded_us.unwrap_or(f64::NAN) / 1e3,
                    m.clean_us / 1e3,
                    m.faults_injected,
                    m.retries,
                    m.fallbacks,
                    m.deadline_degradations,
                ),
                Some(failure) => {
                    let (_, why) = failure.split_once(": ").unwrap_or_default();
                    println!("{:<12} FAILED: {why}", m.model);
                }
            }
        }
        let failures: Vec<String> = report.models.into_iter().flat_map(|m| m.failures).collect();
        if failures.is_empty() {
            return Ok(());
        }
        return Err(format!("replay failed:\n  {}", failures.join("\n  ")));
    }

    let report = edgenn_check::run_storm(&cfg)?;
    let json_wanted = options.has("json");
    if !json_wanted {
        println!(
            "fault storm: {} run(s)/model on {name}, base seed {}, retry budget {max_retries}",
            cfg.runs, cfg.seed
        );
        println!(
            "{:<12} {:>9} {:>9} {:>11} {:>11} {:>8} {:>10}",
            "model", "survived", "injected", "clean ms", "p99 ms", "retries", "fallbacks"
        );
        for m in &report.models {
            println!(
                "{:<12} {:>6}/{:<2} {:>9} {:>11.3} {:>11.3} {:>8} {:>10}",
                m.model,
                m.survived,
                m.runs,
                m.faults_injected,
                m.clean_us / 1e3,
                m.p99_degraded_us.unwrap_or(f64::NAN) / 1e3,
                m.retries,
                m.fallbacks
            );
        }
    }
    let summary = serde_json::to_value(&report).map_err(|e| e.to_string())?;
    emit_summary(options, "storm summary", &summary)?;
    if !json_wanted {
        println!(
            "survival: {}/{} ({:.1}%)",
            report.total_survived,
            report.total_runs,
            report.survival_rate * 100.0
        );
    }
    report.gate()
}

/// Writes `summary` to `--out`, naming the file on stderr as `what`
/// unless `--json` is set, and prints it to stdout under `--json`.
fn emit_summary(options: &Options, what: &str, summary: &serde_json::Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(summary).map_err(|e| e.to_string())?;
    if let Some(path) = options.value("out") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        if !options.has("json") {
            eprintln!("{what} written to {path}");
        }
    }
    if options.has("json") {
        println!("{text}");
    }
    Ok(())
}

/// Renders the shared serve/siege report: per-tenant outcome and tail
/// table, then the run summary.
fn render_serve_report(report: &edgenn_serve::SiegeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>8} {:>8} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "tenant",
        "weight",
        "arrived",
        "admitted",
        "rejected",
        "shed",
        "completed",
        "p50 ms",
        "p99 ms",
        "p999 ms"
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "{:<12} {:>6.1} {:>8} {:>8} {:>8} {:>5} {:>9} {:>9.3} {:>9.3} {:>9.3}",
            t.name,
            t.weight,
            t.arrived,
            t.admitted,
            t.rejected,
            t.shed,
            t.completed,
            t.p50_us / 1e3,
            t.p99_us / 1e3,
            t.p999_us / 1e3,
        );
    }
    let _ = writeln!(
        out,
        "batches        : {} ({} degraded)",
        report.batches, report.degraded_batches
    );
    let _ = writeln!(out, "survival       : {:.4}", report.survival);
    let _ = writeln!(out, "shed rate      : {:.4}", report.shed_rate);
    let _ = writeln!(out, "fairness spread: {:.3}", report.fairness_spread);
    let _ = writeln!(
        out,
        "queue high-water: {}/{}",
        report.high_water, report.queue_capacity
    );
    out
}

/// Replays a serving run's admission log through the EC07x checker;
/// the replay parameters travel on the report itself.
fn serve_check(report: &edgenn_serve::SiegeReport) -> edgenn_check::CheckReport {
    let params = edgenn_check::ServeCheckParams {
        weights: report.weights.clone(),
        queue_capacity: report.queue_capacity,
        max_batch: report.max_batch,
        models: report.models.len(),
    };
    let mut check = edgenn_check::CheckReport::default();
    check.extend(edgenn_check::check_admission_log(&report.log, &params));
    check
}

/// Shared `serve`/`siege` epilogue: JSON assembly (`--json` / `--out`),
/// then the exit gate — non-zero on any lost request, bitwise
/// divergence, queue-bound breach, or EC07x checker error.
fn serve_epilogue(
    options: &Options,
    command: &str,
    report: &edgenn_serve::SiegeReport,
    check: Option<&edgenn_check::CheckReport>,
    extra: Vec<(&'static str, serde_json::Value)>,
) -> Result<(), String> {
    let serde_json::Value::Object(mut summary) = report.to_value() else {
        return Err("serve report did not serialize to an object".to_string());
    };
    for (key, value) in extra {
        summary.insert(key.to_string(), value);
    }
    if let Some(check) = check {
        summary.insert("checker".to_string(), check.to_json());
    }
    let summary = serde_json::Value::Object(summary);
    emit_summary(options, &format!("{command} report"), &summary)?;
    let checker_errors = check.map_or(0, edgenn_check::CheckReport::error_count);
    if report.gate_clean() && checker_errors == 0 {
        return Ok(());
    }
    let mut message = format!(
        "{command} gate failed: survival {:.4}, {} lost, {} bitwise failure(s), \
         queue high-water {}/{}, {} checker error(s)",
        report.survival,
        report.lost,
        report.bitwise_failures.len(),
        report.high_water,
        report.queue_capacity,
        checker_errors
    );
    for failure in report.bitwise_failures.iter().take(5) {
        message.push_str("\n  ");
        message.push_str(failure);
    }
    if let Some(check) = check {
        for d in check
            .diagnostics
            .iter()
            .filter(|d| d.severity == edgenn_check::Severity::Error)
            .take(5)
        {
            message.push_str("\n  ");
            message.push_str(d.code);
            message.push_str(": ");
            message.push_str(&d.message);
        }
    }
    Err(message)
}

/// The wall-clock serving loop: seeded client threads feed the shared
/// dispatcher (admission, bounded pending set, weighted-fair batching,
/// SLO guard), and each batch executes for real.
fn cmd_serve(options: &Options) -> Result<(), String> {
    options.ensure_known(&[
        "seed",
        "duration-ms",
        "platform",
        "queue-capacity",
        "max-batch",
        "max-delay-us",
        "check",
        "json",
        "out",
    ])?;
    let seed = options.parsed("seed")?.unwrap_or(42);
    let duration_ms = options.parsed("duration-ms")?.unwrap_or(1000);
    let mut cfg = edgenn_serve::ServeConfig::demo(seed, duration_ms);
    if let Some(v) = options.value("platform") {
        cfg.platform = parse_platform(v)?;
    }
    cfg.queue_capacity = options
        .parsed("queue-capacity")?
        .unwrap_or(cfg.queue_capacity);
    cfg.policy.max_batch = options.parsed("max-batch")?.unwrap_or(cfg.policy.max_batch);
    cfg.policy.max_delay_us = options
        .parsed("max-delay-us")?
        .unwrap_or(cfg.policy.max_delay_us);
    let report = edgenn_serve::run_server(&cfg, None)?;
    let check = if options.has("check") {
        Some(serve_check(&report))
    } else {
        None
    };
    if !options.has("json") {
        println!(
            "serve: seed {seed}, {duration_ms} ms wall clock, {} tenant(s) x {} model(s) on {}",
            cfg.tenants.len(),
            cfg.models.len(),
            cfg.platform.name,
        );
        print!("{}", render_serve_report(&report));
        if let Some(check) = &check {
            if check.is_clean() {
                println!("EC07x check    : clean");
            } else {
                println!("EC07x check    : {} error(s)", check.error_count());
            }
        }
    }
    serve_epilogue(
        options,
        "serve",
        &report,
        check.as_ref(),
        vec![
            ("seed", serde_json::Value::from(seed)),
            ("duration_ms", serde_json::Value::from(duration_ms)),
        ],
    )
}

/// The deterministic fault-injected load gate: seeded virtual-time load
/// over the full serving pipeline, real batch executions gated bitwise,
/// admission log replayed through the EC07x checker.
fn cmd_siege(options: &Options) -> Result<(), String> {
    options.ensure_known(&[
        "seed",
        "duration-us",
        "platform",
        "queue-capacity",
        "max-batch",
        "max-delay-us",
        "no-faults",
        "max-retries",
        "json",
        "out",
    ])?;
    let seed = options.parsed("seed")?.unwrap_or(42);
    let mut cfg = edgenn_serve::SiegeConfig::ci(seed);
    cfg.duration_us = options.parsed("duration-us")?.unwrap_or(cfg.duration_us);
    if let Some(v) = options.value("platform") {
        cfg.platform = parse_platform(v)?;
    }
    cfg.queue_capacity = options
        .parsed("queue-capacity")?
        .unwrap_or(cfg.queue_capacity);
    cfg.policy.max_batch = options.parsed("max-batch")?.unwrap_or(cfg.policy.max_batch);
    cfg.policy.max_delay_us = options
        .parsed("max-delay-us")?
        .unwrap_or(cfg.policy.max_delay_us);
    cfg.faults &= !options.has("no-faults");
    cfg.max_retries = options.parsed("max-retries")?.unwrap_or(cfg.max_retries);
    let report = edgenn_serve::run_siege(&cfg, None)?;
    let check = serve_check(&report);
    if !options.has("json") {
        println!(
            "siege: seed {seed}, {:.0} ms virtual, {} tenant(s) x {} model(s) on {}, faults {}",
            cfg.duration_us / 1e3,
            cfg.tenants.len(),
            cfg.models.len(),
            cfg.platform.name,
            if cfg.faults { "armed" } else { "off" },
        );
        print!("{}", render_serve_report(&report));
        if check.is_clean() {
            println!(
                "EC07x check    : clean ({} events)",
                report.log.events.len()
            );
        } else {
            println!("EC07x check    : {} error(s)", check.error_count());
        }
    }
    serve_epilogue(
        options,
        "siege",
        &report,
        Some(&check),
        vec![
            ("seed", serde_json::Value::from(seed)),
            ("duration_us", serde_json::Value::from(cfg.duration_us)),
            ("faults", serde_json::Value::from(cfg.faults)),
        ],
    )
}

fn cmd_inspect(options: &Options) -> Result<(), String> {
    let LoadedModel { graph, .. } = required_graph(options)?;
    print!("{}", graph.summary());
    let structure = graph.structure().map_err(|e| e.to_string())?;
    if structure.is_pure_chain() {
        println!(
            "
structure: pure chain"
        );
    } else {
        println!(
            "
structure: {} fork-join region(s)",
            structure.parallel_segment_count()
        );
    }
    Ok(())
}

fn cmd_models() -> Result<(), String> {
    println!(
        "{:<12} {:>10} {:>12} {:>8}  structure",
        "model", "layers", "GFLOPs", "params"
    );
    for kind in ModelKind::ALL {
        let graph = build(kind, ModelScale::Paper);
        let structure = graph.structure().map_err(|e| e.to_string())?;
        let desc = if structure.is_pure_chain() {
            "chain".to_string()
        } else {
            format!("{} fork-join regions", structure.parallel_segment_count())
        };
        println!(
            "{:<12} {:>10} {:>12.2} {:>7.1}M  {desc}",
            kind.name(),
            graph.len() - 1,
            graph.total_flops() as f64 / 1e9,
            graph.param_bytes() as f64 / 4e6,
        );
    }
    Ok(())
}

fn cmd_platforms() {
    let platforms = [
        edgenn_sim::platforms::jetson_agx_xavier(),
        edgenn_sim::platforms::raspberry_pi_4(),
        edgenn_sim::platforms::dimensity_8100(),
        edgenn_sim::platforms::rtx_2080ti_server(),
        edgenn_sim::platforms::amd_embedded_apu(),
        edgenn_sim::platforms::apple_silicon_m1(),
    ];
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>10}  kind",
        "platform", "cpu GFLOPS", "gpu GFLOPS", "price", "max W"
    );
    for p in platforms {
        let gpu = p
            .gpu
            .as_ref()
            .map_or_else(|| "—".into(), |g| format!("{:.0}", g.peak_gflops));
        let kind = if p.is_integrated() {
            "integrated"
        } else if p.has_gpu() {
            "discrete"
        } else {
            "cpu-only"
        };
        println!(
            "{:<22} {:>12.0} {:>12} {:>8} {:>10.1}  {kind}",
            p.name,
            p.cpu.peak_gflops,
            gpu,
            format!("${}", p.price_usd),
            p.power.power_w(1.0, 1.0),
        );
    }
}
