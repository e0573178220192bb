//! The functional-engine benchmark behind `BENCH_functional.json`.
//!
//! Measures, per bundled model (Tiny scale): the reference
//! single-threaded forward pass, the hybrid functional engine
//! ([`edgenn_core::runtime::functional::Executor`]) under the tuned
//! EdgeNN plan, and the batched steady state, together with the engine's
//! own overhead counters (pool tasks, queue wait, scratch-arena bytes).
//!
//! The JSON this emits is committed as a performance trajectory and
//! gated in CI: absolute times are machine-specific, so the gate
//! compares the **hybrid/reference ratio** (engine overhead relative to
//! raw kernel cost on the same machine) against the committed baseline,
//! with a configurable slack. The ratio still depends on how many cores
//! the engine's workers get, so every row records its core count and
//! the gate only compares rows taken at the same one.

use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_core::runtime::functional::{Executor, FunctionalOutcome};
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::Tuner;
use edgenn_nn::graph::CompileOptions;
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_obs::flight;
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Schema identifier written into (and required from) the JSON file.
/// `v2` added the flight-recorder overhead columns (`flight_ns`,
/// `flight_dropped`); `v3` added the per-row `precision` field (each
/// model now carries an f32 and an int8 row, both measured against the
/// same f32 single-threaded reference) and the `int8_layers` engine
/// counter; `v4` runs the engine arms on the **compiled** graph
/// (fusion/folding/DCE + compile-time weight prepacking) against the
/// uncompiled single-threaded reference — `speedup` measures the full
/// stack, not just the engine — and adds the per-row
/// `nodes_pre`/`nodes_post` compiler deltas plus the `packed_bytes` and
/// `int8_gated` counters; `v5` adds the per-row `cores` field (the core
/// count the row was measured on) so one file can hold a baseline per
/// core count. The vendored serde derive has no field defaults, so an
/// older file fails to parse and must be regenerated with `run`.
pub const SCHEMA: &str = "edgenn-bench-functional/v5";

/// Engine-overhead counters mirrored from the last measured run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Tasks completed by pool workers.
    pub pool_tasks: u64,
    /// Tasks reclaimed and run inline by the joining thread.
    pub inline_tasks: u64,
    /// Nanoseconds tasks spent queued before starting.
    pub queue_wait_ns: u64,
    /// Scratch bytes that needed fresh heap allocation (steady state: 0).
    pub arena_fresh_bytes: u64,
    /// Scratch bytes served from the warm arena without allocating.
    pub arena_reused_bytes: u64,
    /// Layer executions that took the quantized int8 kernel path (0 on
    /// f32 rows; on int8 rows, `int8_layers + int8_gated` must be
    /// positive — every bundled model carries int8-capable layers).
    pub int8_layers: u64,
    /// Int8-capable layer executions an int8 plan deliberately kept in
    /// f32 because quantization loses on that layer shape (per-call
    /// quantize/requantize overhead beats the halved weight traffic on
    /// small dense layers — the committed FCNN int8 regression).
    pub int8_gated: u64,
    /// Weight bytes packed into GEMM/qgemm panel layouts at compile
    /// time, so steady-state inference does zero weight-packing work.
    pub packed_bytes: u64,
}

/// One model's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRow {
    /// Model name (`fcnn`, `lenet5`, ...).
    pub model: String,
    /// Engine precision this row measured. Both rows of a model share
    /// the same f32 `reference_ns`, so the int8 row's `speedup` answers
    /// the paper-relevant question — does quantized hybrid execution
    /// beat the f32 baseline — not whether it beats a quantized one.
    pub precision: Precision,
    /// Cores the process could run on when this row was measured
    /// (`available_parallelism`, which honours a `taskset` affinity
    /// mask). The engine spawns one worker per core beyond the driver,
    /// so rows from different core counts are different baselines.
    pub cores: usize,
    /// Best-of-N ns/iter of the reference single-threaded `graph.forward`.
    pub reference_ns: f64,
    /// Best-of-N ns/iter of the hybrid functional engine (warm session).
    pub hybrid_ns: f64,
    /// Best-of-N ns/iter of the same hybrid run with the flight
    /// recorder enabled — the always-on profiling cost, gated by
    /// [`overhead_gate`] against `hybrid_ns`.
    pub flight_ns: f64,
    /// Span records the recorder's rings overwrote during the
    /// `flight_ns` measurement (wrap-around, never blocking).
    pub flight_dropped: u64,
    /// Best-of-N ns/inference inside one `batch_execute` call.
    pub batch_ns: f64,
    /// Node count of the raw builder graph (incl. the input pseudo-node).
    pub nodes_pre: usize,
    /// Node count after the graph compiler's rewrite pipeline — the
    /// graph every timed arm actually executed. Must be < `nodes_pre`:
    /// every bundled model carries fusible activations or identities.
    pub nodes_post: usize,
    /// `reference_ns / hybrid_ns` (> 1 means the engine beats reference).
    pub speedup: f64,
    /// Engine counters of the final steady-state run.
    pub engine: EngineCounters,
}

/// The whole benchmark file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Must equal [`SCHEMA`].
    pub schema: String,
    /// Timed iterations per measurement.
    pub iters: u32,
    /// Per-model rows: one per [`ModelKind`] and precision for each core
    /// count measured.
    pub models: Vec<ModelRow>,
}

impl BenchReport {
    /// `self` with the rows of `older` that were measured on core counts
    /// `self` did not measure — how one file accumulates a baseline per
    /// core count. Rows are only carried over between reports of equal
    /// `iters`, so every row of a file shares one measurement budget.
    #[must_use]
    pub fn merged_over(mut self, older: &BenchReport) -> BenchReport {
        if older.schema == self.schema && older.iters == self.iters {
            let mut rows: Vec<ModelRow> = older
                .models
                .iter()
                .filter(|old| self.models.iter().all(|new| new.cores != old.cores))
                .cloned()
                .collect();
            rows.append(&mut self.models);
            self.models = rows;
        }
        self
    }
}

/// Cores this process may run on — the figure rows are keyed by.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Best (minimum) per-iteration time. The minimum is the standard
/// noise-robust estimator on shared machines: scheduler preemption and
/// background load only ever add time, so the fastest observed
/// iteration is the closest to the code's true cost — and the ratio of
/// two minima is stable enough to gate on where means are not.
fn best_ns<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f()); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9
}

/// One timed call of `f`, folded into the running minimum `best`.
fn fold_best<T>(best: &mut f64, mut f: impl FnMut() -> T) {
    let start = std::time::Instant::now();
    std::hint::black_box(f());
    *best = best.min(start.elapsed().as_secs_f64());
}

/// Runs the full measurement. `iters` trades precision for wall time
/// (CI smoke mode passes a small count).
///
/// # Panics
/// Panics when a bundled model fails to plan or execute — that is a bug,
/// not a measurement outcome.
#[must_use]
pub fn measure(iters: u32) -> BenchReport {
    // The recorder is process-global: make sure the recorder-off
    // columns really measure with it off, whatever ran before us.
    flight::disable();
    let platform = jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    let cores = host_cores();
    let mut models = Vec::new();
    for kind in ModelKind::ALL {
        // Compile before tuning: the tuner plans over the rewritten DAG,
        // and both precisions' weights are packed once, here, so the
        // timed engine runs below do zero weight-packing work. The
        // reference arm stays the *uncompiled* single-threaded forward
        // — built fresh so it shares no prepacked layers with the
        // compiled graph — and the speedup therefore measures the full
        // stack (compiler + engine) against naive execution of the
        // model as constructed.
        let raw = build(kind, ModelScale::Tiny);
        let (graph, creport) =
            edgenn_nn::graph::compile(&build(kind, ModelScale::Tiny), &CompileOptions::int8())
                .expect("compile");
        let tuner = Tuner::new(&graph, &runtime).expect("tuner");
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
        let executor = Executor::new(&graph).expect("executor");
        let plans: Vec<_> = [Precision::F32, Precision::Int8]
            .into_iter()
            .map(|precision| {
                let mut config = ExecutionConfig::edgenn();
                config.precision = precision;
                (
                    precision,
                    tuner.plan(&graph, &runtime, config).expect("plan"),
                )
            })
            .collect();

        // Every timed arm of one model — the shared f32 single-threaded
        // reference plus each precision's hybrid time recorder-off and
        // recorder-on — is folded from ONE alternating loop. The arms
        // share every iteration's machine conditions, so slow drift
        // (thermal throttle, a noisy CI neighbour arriving between
        // phases) cancels out of the speedup and overhead ratios instead
        // of masquerading as engine cost or recorder tax — which it
        // measurably does when the arms run as separate phases. The
        // recorder-on arm records node/pack/compute/queue spans into the
        // per-worker rings; its delta over recorder-off is the always-on
        // profiling tax that `overhead_gate` bounds.
        flight::disable();
        std::hint::black_box(raw.forward(&input).expect("reference")); // warmup
                                                                       // Records each recorder-on request lost from its own window.
        let window_drops =
            |outcome: &FunctionalOutcome| outcome.engine.profile.as_ref().map_or(0, |p| p.dropped);
        let mut dropped = [0u64; 2];
        for (pi, (_, plan)) in plans.iter().enumerate() {
            std::hint::black_box(executor.execute(plan, &input).expect("hybrid")); // warmup, off
            flight::enable();
            let warm = executor.execute(plan, &input).expect("hybrid"); // warmup, on
            dropped[pi] += window_drops(&warm);
            flight::disable();
        }
        let mut reference = f64::INFINITY;
        let mut off_on = [[f64::INFINITY; 2]; 2]; // [precision][recorder off, on]
        for _ in 0..iters {
            fold_best(&mut reference, || raw.forward(&input).expect("reference"));
            for (pi, (_, plan)) in plans.iter().enumerate() {
                fold_best(&mut off_on[pi][0], || {
                    executor.execute(plan, &input).expect("hybrid")
                });
                flight::enable();
                fold_best(&mut off_on[pi][1], || {
                    let on = executor.execute(plan, &input).expect("hybrid");
                    dropped[pi] += window_drops(&on);
                });
                flight::disable();
            }
        }
        let reference_ns = reference * 1e9;

        for (pi, (precision, plan)) in plans.iter().enumerate() {
            // Batched steady state: one pool spin-up for the whole batch.
            let batch: Vec<Tensor> = (0..4)
                .map(|i| Tensor::random(graph.input_shape().dims(), 1.0, 20 + i))
                .collect();
            let batch_ns = best_ns(iters.div_ceil(4), || {
                executor.batch_execute(plan, &batch).expect("batch")
            }) / batch.len() as f64;

            // A final warm run for the steady-state engine counters.
            let outcome = executor.execute(plan, &input).expect("stats run");
            let e = outcome.engine;
            let hybrid_ns = off_on[pi][0] * 1e9;
            models.push(ModelRow {
                model: kind.name().to_string(),
                precision: *precision,
                cores,
                reference_ns,
                hybrid_ns,
                flight_ns: off_on[pi][1] * 1e9,
                flight_dropped: dropped[pi],
                batch_ns,
                nodes_pre: creport.nodes_pre,
                nodes_post: creport.nodes_post,
                speedup: reference_ns / hybrid_ns,
                engine: EngineCounters {
                    pool_tasks: e.pool_tasks,
                    inline_tasks: e.inline_tasks,
                    queue_wait_ns: e.queue_wait_ns,
                    arena_fresh_bytes: e.arena_fresh_bytes,
                    arena_reused_bytes: e.arena_reused_bytes,
                    int8_layers: outcome.int8_layers as u64,
                    int8_gated: outcome.int8_gated as u64,
                    packed_bytes: creport.prepacked_bytes,
                },
            });
        }
    }
    BenchReport {
        schema: SCHEMA.to_string(),
        iters,
        models,
    }
}

/// Validates a parsed report against the schema expectations.
///
/// # Errors
/// Returns a human-readable description of the first violation.
pub fn validate(report: &BenchReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!(
            "schema mismatch: expected {SCHEMA:?}, got {:?}",
            report.schema
        ));
    }
    if report.iters == 0 {
        return Err("iters must be positive".to_string());
    }
    if report.models.is_empty() {
        return Err("no model rows".to_string());
    }
    for (i, row) in report.models.iter().enumerate() {
        if row.model.is_empty() {
            return Err("empty model name".to_string());
        }
        if row.cores == 0 {
            return Err(format!("{}: cores must be positive", row.model));
        }
        if report.models[..i]
            .iter()
            .any(|r| r.model == row.model && r.precision == row.precision && r.cores == row.cores)
        {
            return Err(format!(
                "{} ({}, {} cores): duplicate row",
                row.model, row.precision, row.cores
            ));
        }
        for (field, value) in [
            ("reference_ns", row.reference_ns),
            ("hybrid_ns", row.hybrid_ns),
            ("flight_ns", row.flight_ns),
            ("batch_ns", row.batch_ns),
            ("speedup", row.speedup),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{}: {field} must be finite and > 0", row.model));
            }
        }
        let recomputed = row.reference_ns / row.hybrid_ns;
        if (row.speedup - recomputed).abs() > 1e-6 * recomputed.abs() {
            return Err(format!(
                "{}: speedup {} inconsistent with reference/hybrid = {recomputed}",
                row.model, row.speedup
            ));
        }
        if row.nodes_post >= row.nodes_pre {
            return Err(format!(
                "{}: compiler removed nothing ({} -> {} nodes) — every bundled \
                 model carries fusible activations or identities",
                row.model, row.nodes_pre, row.nodes_post
            ));
        }
        match row.precision {
            Precision::Int8 if row.engine.int8_layers + row.engine.int8_gated == 0 => {
                return Err(format!(
                    "{}: int8 row ran no quantized layers and gated none — every \
                     bundled model carries int8-capable conv/dense layers",
                    row.model
                ));
            }
            Precision::F32 if row.engine.int8_layers > 0 || row.engine.int8_gated > 0 => {
                return Err(format!(
                    "{}: f32 row reports {} int8 / {} gated layer executions",
                    row.model, row.engine.int8_layers, row.engine.int8_gated
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Models whose baseline reference pass is faster than this are exempt
/// from the gate. Below a few tens of microseconds the minimum-of-N
/// estimator still carries scheduler-jitter noise comparable to the
/// measurement itself (a single preempted cache line moves a 2 µs model
/// by double-digit percents), so ratios on such models flap under CI
/// load. The larger models are the meaningful regression detectors.
pub const GATE_NOISE_FLOOR_NS: f64 = 20_000.0;

/// One row [`gate`] judges: the measured hybrid/reference ratio, the
/// baseline row's ratio, and the limit the measured one may not exceed.
#[derive(Debug, Clone)]
pub struct GateRow<'a> {
    /// The measured row.
    row: &'a ModelRow,
    /// Its hybrid/reference ratio.
    ratio: f64,
    /// The baseline row's hybrid/reference ratio.
    baseline: f64,
    /// `baseline * (1 + slack)`.
    limit: f64,
}

impl GateRow<'_> {
    /// True when the measured ratio exceeds the limit.
    fn fails(&self) -> bool {
        self.ratio > self.limit
    }
}

impl std::fmt::Display for GateRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:<5} {} cores  ratio {:.3}  baseline {:.3}  limit {:.3}  {}",
            self.row.model,
            self.row.precision.to_string(),
            self.row.cores,
            self.ratio,
            self.baseline,
            self.limit,
            if self.fails() { "FAIL" } else { "ok" }
        )
    }
}

/// The rows [`gate`] judges, in measured order: every model present in
/// `measured` and `baseline` at the same precision and core count, except
/// those whose baseline reference time sits under
/// [`GATE_NOISE_FLOOR_NS`], which are too noise-dominated to gate.
///
/// # Errors
/// Refuses a measurement taken on a core count the baseline has no rows
/// for (the ratio of a two-core run says nothing about a one-core
/// baseline).
pub fn gate_rows<'a>(
    measured: &'a BenchReport,
    baseline: &BenchReport,
    slack: f64,
) -> Result<Vec<GateRow<'a>>, String> {
    let mut unknown: Vec<usize> = measured
        .models
        .iter()
        .map(|m| m.cores)
        .filter(|&cores| baseline.models.iter().all(|b| b.cores != cores))
        .collect();
    unknown.sort_unstable();
    unknown.dedup();
    if !unknown.is_empty() {
        return Err(format!(
            "the baseline has no rows measured on {unknown:?} cores; record them \
             with `bench_functional run` on such a host (or under `taskset`) \
             before gating"
        ));
    }
    let mut rows = Vec::new();
    for new in &measured.models {
        let Some(old) = baseline
            .models
            .iter()
            .find(|m| m.model == new.model && m.precision == new.precision && m.cores == new.cores)
        else {
            continue; // model/precision added since the baseline: nothing to gate
        };
        if old.reference_ns < GATE_NOISE_FLOOR_NS {
            continue; // sub-floor model: timer jitter dwarfs the signal
        }
        let baseline = old.hybrid_ns / old.reference_ns;
        rows.push(GateRow {
            row: new,
            ratio: new.hybrid_ns / new.reference_ns,
            baseline,
            limit: baseline * (1.0 + slack),
        });
    }
    Ok(rows)
}

/// Gates `measured` against `baseline`: the hybrid/reference ratio
/// (machine-independent engine overhead) of every row [`gate_rows`]
/// judges must not exceed the baseline's ratio by more than `slack`
/// (0.25 = 25%).
///
/// # Errors
/// Returns [`gate_rows`]' refusal, or a description of every regressed
/// model.
pub fn gate(measured: &BenchReport, baseline: &BenchReport, slack: f64) -> Result<(), String> {
    let failures: Vec<String> = gate_rows(measured, baseline, slack)?
        .iter()
        .filter(|r| r.fails())
        .map(|r| {
            format!(
                "{} ({}, {} cores): hybrid/reference ratio {:.3} exceeds \
                 baseline {:.3} by more than {:.0}%",
                r.row.model,
                r.row.precision,
                r.row.cores,
                r.ratio,
                r.baseline,
                slack * 100.0
            )
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Bounds the always-on recorder's cost: summed across every model row,
/// the recorder-on time must stay within `budget` (0.05 = 5%) of the
/// recorder-off time. The sum is gated rather than each row because the
/// recorder's cost is tens of nanoseconds per span — on a microsecond
/// model that is a real percentage but far below timer jitter, while
/// the aggregate (dominated by the larger models) is stable under CI
/// load. Per-row numbers stay in the report for inspection.
///
/// # Errors
/// Returns a description of the aggregate overshoot.
pub fn overhead_gate(report: &BenchReport, budget: f64) -> Result<(), String> {
    let off: f64 = report.models.iter().map(|m| m.hybrid_ns).sum();
    let on: f64 = report.models.iter().map(|m| m.flight_ns).sum();
    if off <= 0.0 {
        return Err("no recorder-off time to compare against".to_string());
    }
    let overhead = on / off - 1.0;
    if overhead > budget {
        return Err(format!(
            "flight recorder overhead {:.1}% exceeds the {:.1}% budget \
             (recorder on {on:.0} ns vs off {off:.0} ns summed over {} models)",
            overhead * 100.0,
            budget * 100.0,
            report.models.len()
        ));
    }
    Ok(())
}

/// Gates flight-recorder ring sizing: no measured row may have dropped
/// records — one request writes a small share of one fixed ring, so any
/// drop means a request now writes more records than a ring holds.
///
/// # Errors
/// Returns a description of every overflowing row.
pub fn drop_gate(report: &BenchReport) -> Result<(), String> {
    let failures: Vec<String> = report
        .models
        .iter()
        .filter(|m| m.flight_dropped > 0)
        .map(|m| {
            format!(
                "{} ({}): {} flight records dropped",
                m.model, m.precision, m.flight_dropped
            )
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("flight rings overflowed — {}", failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(model: &str, reference_ns: f64, hybrid_ns: f64) -> ModelRow {
        ModelRow {
            model: model.to_string(),
            precision: Precision::F32,
            cores: 1,
            reference_ns,
            hybrid_ns,
            flight_ns: hybrid_ns * 1.02,
            flight_dropped: 0,
            batch_ns: hybrid_ns,
            nodes_pre: 14,
            nodes_post: 10,
            speedup: reference_ns / hybrid_ns,
            engine: EngineCounters::default(),
        }
    }

    fn int8_row(model: &str, reference_ns: f64, hybrid_ns: f64) -> ModelRow {
        let mut r = row(model, reference_ns, hybrid_ns);
        r.precision = Precision::Int8;
        r.engine.int8_layers = 4;
        r
    }

    fn report(rows: Vec<ModelRow>) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            iters: 3,
            models: rows,
        }
    }

    #[test]
    fn validate_accepts_a_consistent_report() {
        let r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        assert_eq!(validate(&r), Ok(()));
    }

    #[test]
    fn validate_rejects_schema_and_value_violations() {
        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.schema = "other/v9".to_string();
        assert!(validate(&r).unwrap_err().contains("schema"));

        let r = report(vec![]);
        assert!(validate(&r).unwrap_err().contains("no model rows"));

        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].hybrid_ns = -1.0;
        assert!(validate(&r).is_err());

        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].speedup = 9.0;
        assert!(validate(&r).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn gate_passes_within_slack_and_fails_beyond_it() {
        let baseline = report(vec![row("resnet18", 50_000.0, 100_000.0)]); // ratio 2.0
        let ok = report(vec![row("resnet18", 50_000.0, 120_000.0)]); // ratio 2.4 < 2.5
        assert_eq!(gate(&ok, &baseline, 0.25), Ok(()));
        let bad = report(vec![row("resnet18", 50_000.0, 130_000.0)]); // ratio 2.6 > 2.5
        assert!(gate(&bad, &baseline, 0.25)
            .unwrap_err()
            .contains("resnet18"));
    }

    fn on_cores(mut r: ModelRow, cores: usize) -> ModelRow {
        r.cores = cores;
        r
    }

    #[test]
    fn gate_compares_rows_at_the_same_core_count_only() {
        let baseline = report(vec![
            row("resnet18", 50_000.0, 50_000.0),               // 1 core: 1.0
            on_cores(row("resnet18", 50_000.0, 100_000.0), 2), // 2 cores: 2.0
        ]);
        // 2.2 is within 25% of the two-core baseline...
        let two = report(vec![on_cores(row("resnet18", 50_000.0, 110_000.0), 2)]);
        assert_eq!(gate(&two, &baseline, 0.25), Ok(()));
        // ...but not of the one-core baseline.
        let one = report(vec![row("resnet18", 50_000.0, 110_000.0)]);
        let err = gate(&one, &baseline, 0.25).unwrap_err();
        assert!(err.contains("1 cores"), "{err}");
    }

    #[test]
    fn gate_refuses_a_core_count_the_baseline_lacks() {
        let baseline = report(vec![row("resnet18", 50_000.0, 50_000.0)]);
        let measured = report(vec![on_cores(row("resnet18", 50_000.0, 50_000.0), 4)]);
        let err = gate(&measured, &baseline, 0.25).unwrap_err();
        assert!(err.contains("[4] cores"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_cores_and_duplicate_rows() {
        let r = report(vec![on_cores(row("fcnn", 4000.0, 2000.0), 0)]);
        assert!(validate(&r).unwrap_err().contains("cores"));
        let r = report(vec![
            row("fcnn", 4000.0, 2000.0),
            row("fcnn", 4000.0, 2100.0),
        ]);
        assert!(validate(&r).unwrap_err().contains("duplicate"));
        let r = report(vec![
            row("fcnn", 4000.0, 2000.0),
            on_cores(row("fcnn", 4000.0, 2100.0), 2),
        ]);
        assert_eq!(validate(&r), Ok(()));
    }

    #[test]
    fn merging_keeps_other_core_counts_and_replaces_this_one() {
        let older = report(vec![
            row("vgg16", 50_000.0, 40_000.0),
            on_cores(row("vgg16", 50_000.0, 90_000.0), 2),
        ]);
        let newer = report(vec![on_cores(row("vgg16", 50_000.0, 45_000.0), 2)]);
        let merged = newer.merged_over(&older);
        assert_eq!(validate(&merged), Ok(()));
        assert_eq!(merged.models.len(), 2);
        let two = merged.models.iter().find(|m| m.cores == 2).unwrap();
        assert_eq!(
            two.hybrid_ns, 45_000.0,
            "this run's rows replace its core count"
        );
        // Reports of a different measurement budget are never mixed.
        let mut smoke = report(vec![on_cores(row("vgg16", 50_000.0, 45_000.0), 2)]);
        smoke.iters = 16;
        assert_eq!(smoke.merged_over(&older).models.len(), 1);
    }

    #[test]
    fn gate_rows_report_ratio_baseline_and_limit() {
        let baseline = report(vec![
            row("resnet18", 50_000.0, 100_000.0), // ratio 2.0
            row("fcnn", 2000.0, 2000.0),          // under the noise floor
        ]);
        let measured = report(vec![
            row("resnet18", 50_000.0, 130_000.0),
            row("fcnn", 2000.0, 20_000.0),
        ]);
        let rows = gate_rows(&measured, &baseline, 0.25).unwrap();
        assert_eq!(rows.len(), 1, "sub-floor rows are not gated");
        let r = &rows[0];
        assert_eq!((r.ratio, r.baseline, r.limit), (2.6, 2.0, 2.5));
        assert!(r.fails());
        assert_eq!(
            r.to_string(),
            "resnet18     f32   1 cores  ratio 2.600  baseline 2.000  limit 2.500  FAIL"
        );
        let ok = report(vec![int8_row("resnet18", 50_000.0, 40_000.0)]);
        let baseline = report(vec![int8_row("resnet18", 50_000.0, 50_000.0)]);
        assert_eq!(
            gate_rows(&ok, &baseline, 0.25).unwrap()[0].to_string(),
            "resnet18     int8  1 cores  ratio 0.800  baseline 1.000  limit 1.250  ok"
        );
    }

    #[test]
    fn gate_skips_models_under_the_noise_floor() {
        // Baseline reference 2 µs < 20 µs floor: even a 10x blow-up in
        // the measured ratio must not fail the gate.
        let baseline = report(vec![row("fcnn", 2000.0, 2000.0)]);
        let measured = report(vec![row("fcnn", 2000.0, 20_000.0)]);
        assert_eq!(gate(&measured, &baseline, 0.25), Ok(()));
    }

    #[test]
    fn gate_ignores_models_missing_from_the_baseline() {
        let baseline = report(vec![row("fcnn", 1000.0, 1000.0)]);
        let measured = report(vec![row("brand_new", 1000.0, 9000.0)]);
        assert_eq!(gate(&measured, &baseline, 0.25), Ok(()));
    }

    #[test]
    fn overhead_gate_bounds_the_aggregate_recorder_tax() {
        // Rows at +2% each: aggregate 2% < 5% budget.
        let r = report(vec![
            row("fcnn", 4000.0, 2000.0),
            row("resnet18", 900_000.0, 800_000.0),
        ]);
        assert_eq!(overhead_gate(&r, 0.05), Ok(()));

        // Blow up the dominant model's recorder-on time: aggregate busts.
        let mut bad = r.clone();
        bad.models[1].flight_ns = bad.models[1].hybrid_ns * 1.20;
        let err = overhead_gate(&bad, 0.05).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // A tiny model regressing hard must NOT fail the aggregate: it
        // is exactly the noise the per-row gate would flap on.
        let mut noisy = r;
        noisy.models[0].flight_ns = noisy.models[0].hybrid_ns * 3.0;
        assert_eq!(overhead_gate(&noisy, 0.05), Ok(()));
    }

    #[test]
    fn validate_checks_int8_rows_ran_quantized_layers() {
        let mut r = report(vec![int8_row("fcnn", 4000.0, 2000.0)]);
        assert_eq!(validate(&r), Ok(()));
        r.models[0].engine.int8_layers = 0;
        assert!(validate(&r).unwrap_err().contains("no quantized layers"));

        // A fully gated int8 row is legal: the gate deliberately keeps
        // shapes where quantization loses (FCNN's small dense layers) in
        // f32, and that decision must be representable in the report.
        r.models[0].engine.int8_gated = 4;
        assert_eq!(validate(&r), Ok(()));

        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].engine.int8_layers = 3;
        assert!(validate(&r).unwrap_err().contains("f32 row"));

        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].engine.int8_gated = 2;
        assert!(validate(&r).unwrap_err().contains("f32 row"));
    }

    #[test]
    fn validate_requires_the_compiler_to_have_removed_nodes() {
        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].nodes_post = r.models[0].nodes_pre;
        assert!(validate(&r).unwrap_err().contains("removed nothing"));
    }

    #[test]
    fn gate_matches_rows_by_model_and_precision() {
        // The f32 row regresses 3x but only the int8 row exists in the
        // baseline at that ratio: rows must never cross precisions.
        let baseline = report(vec![
            row("resnet18", 50_000.0, 200_000.0),     // f32 ratio 4.0
            int8_row("resnet18", 50_000.0, 50_000.0), // int8 ratio 1.0
        ]);
        let measured = report(vec![
            row("resnet18", 50_000.0, 220_000.0),      // 4.4 < 4.0 * 1.25
            int8_row("resnet18", 50_000.0, 100_000.0), // 2.0 > 1.0 * 1.25
        ]);
        let err = gate(&measured, &baseline, 0.25).unwrap_err();
        assert!(err.contains("int8"), "{err}");
        assert!(!err.contains("f32"), "{err}");
    }

    #[test]
    fn drop_gate_names_every_overflowing_row() {
        let mut r = report(vec![
            row("vgg16", 50_000.0, 50_000.0),
            int8_row("vgg16", 50_000.0, 50_000.0),
        ]);
        assert_eq!(drop_gate(&r), Ok(()));
        r.models[1].flight_dropped = 5115;
        let err = drop_gate(&r).unwrap_err();
        assert!(err.contains("vgg16 (int8): 5115"), "{err}");
    }

    #[test]
    fn validate_rejects_nonpositive_flight_time() {
        let mut r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        r.models[0].flight_ns = 0.0;
        assert!(validate(&r).unwrap_err().contains("flight_ns"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![row("fcnn", 4000.0, 2000.0)]);
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(validate(&back), Ok(()));
        assert_eq!(back.models[0].model, "fcnn");
    }
}
