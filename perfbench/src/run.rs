//! The three workloads, the traced run's layer probes, and the metrics
//! each produces.
//!
//! An untraced run measures the end-to-end metrics with the tracer off.
//! A traced run alternates traced and untraced blocks of the workload's
//! own loop (their p50 ratio is `bench.trace_tax`), then probes every
//! layer from the benchmark's own code, with each call kept as a span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_core::runtime::functional::{Executor, FunctionalOutcome};
use edgenn_core::runtime::Runtime;
use edgenn_core::tuner::Tuner;
use edgenn_nn::graph::{calibrate, compile, Graph};
use edgenn_nn::layer::Layer;
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_obs::flight;
use edgenn_serve::{run_server, BatchPolicy, LoadMode, ServeConfig, TenantConfig, TenantLoad};
use edgenn_sim::platforms::jetson_agx_xavier;
use edgenn_tensor::Tensor;

use crate::serve_stages::{self, ServeStages};
use crate::speed::{self, Scaler, Timeline};
use crate::stats::{mean, median, quantile, Blocks, BLOCK_CALLS, QUIET_Q};
use crate::subject::{set_up, Inputs, SetupTimes, Spec, Subject};
use crate::trace::Tracer;
use crate::verify::Tally;

/// Set-ups of a traced run; the per-layer set-up figures are their
/// medians.
pub const SETUPS: usize = 9;
/// Distinct inputs each engine workload cycles through.
pub const INPUT_POOL: usize = 32;
/// The tail percentile reported as `latency_p99_us`.
pub const TAIL_Q: f64 = 0.99;
/// Metrics an untraced run prints and writes to its result file but
/// leaves out of the last line's JSON, because `BENCHMARK.json` does not
/// gate them. On a shared host a core is sometimes taken away for
/// milliseconds at a time; in such a stretch four stream runs of the
/// same binary read a p99 of 0.37 to 5.4 ms while the p50 held, so the
/// p90 is gated and the p99 only printed.
pub const PRINTED_ONLY: [&str; 1] = ["latency_p99_us"];
/// Windows of equal duration an untraced engine run's calls are cut
/// into; one more set-up runs before each window but the first.
pub const WINDOWS: usize = 40;
/// Calls per second of an untraced engine run that are recorded; each
/// call is followed by two runs of the probe kernel, so no workload
/// comes near it.
pub const MAX_CALLS_PER_S: f64 = 8_000.0;
/// Calls per block when a traced run alternates traced and untraced
/// blocks of the workload's loop.
const BLOCK: usize = 16;

/// Serve workload: offered rate per tenant (requests/s).
pub const SERVE_RATE_RPS: f64 = 300.0;
/// Serve workload: relative SLO of every request (µs).
pub const SERVE_SLO_US: f64 = 1_000_000.0;
/// Serve workload: `run_server` calls per untraced run; each is one
/// set-up sample and the request latencies of all are pooled.
pub const SERVE_SEGMENTS: usize = 3;
/// Serve workload: extra 50 ms `run_server` calls per untraced run
/// that only contribute `setup_s` samples.
pub const SERVE_SETUP_EXTRA: usize = 27;
/// Serve workload: the catalog.
pub const SERVE_MODELS: [ModelKind; 2] = [ModelKind::LeNet, ModelKind::AlexNet];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller: `Executor::execute` on one Tiny
    /// SqueezeNet input at a time, tuned EdgeNN f32 plan.
    Stream,
    /// Closed loop, one caller: `Executor::batch_execute` of 8 Tiny
    /// VGG-16 inputs, int8 EdgeNN plan.
    Batch,
    /// Open loop through `edgenn_serve::run_server`: two Poisson
    /// tenants over a LeNet + AlexNet catalog.
    Serve,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` gates the first two (see the
    /// README for why not serve).
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Batch, Workload::Serve];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream-squeezenet-f32",
            Workload::Batch => "batch-vgg16-int8",
            Workload::Serve => "serve-lenet-alexnet",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The model the workload runs and its traced run probes. For serve,
    /// whose server builds its own models, it is the catalog's heavier
    /// model, which takes most dispatcher time.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            Workload::Stream => Spec {
                kind: ModelKind::SqueezeNet,
                precision: Precision::F32,
                compiled: true,
                warmup: 20,
                warmup_batch: 1,
            },
            Workload::Batch => Spec {
                kind: ModelKind::Vgg16,
                precision: Precision::Int8,
                compiled: true,
                warmup: 3,
                warmup_batch: 8,
            },
            Workload::Serve => Spec {
                kind: ModelKind::AlexNet,
                precision: Precision::F32,
                compiled: false,
                warmup: 20,
                warmup_batch: 1,
            },
        }
    }

    /// Inputs per engine call of the workload's loop (serve: the
    /// server's `max_batch`).
    #[must_use]
    pub fn unit(self) -> usize {
        match self {
            Workload::Stream => 1,
            Workload::Batch => 8,
            Workload::Serve => 4,
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// How it was obtained (sample count, base of a ratio, ...).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted, failed and wrong.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

/// Runs `workload` for about `seconds` of measurement.
///
/// # Errors
/// Fails when set-up or a measurement step fails, or when too few
/// samples support a tail percentile.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    // The flight recorder stays off except while `obs.recorder_tax`
    // measures it.
    flight::disable();
    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    let metrics = match (workload, traced) {
        (Workload::Serve, false) => serve_e2e(seed, seconds, &mut tally, &mut tracer)?,
        (_, false) => engine_e2e(workload, seed, seconds, &mut tally, &mut tracer)?,
        (_, true) => traced_run(workload, seed, seconds, &mut tally, &mut tracer)?,
    };
    Ok(RunResult {
        tally,
        metrics,
        tracer,
    })
}

/// `SETUPS` set-ups of `spec`; returns the last subject and every
/// set-up's times.
fn set_up_many(spec: Spec, tracer: &mut Tracer) -> Result<(Subject, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (subject, t) = set_up(spec, tracer)?;
        times.push(t);
        last = Some(subject);
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// One engine workload's executor, subject and inputs.
struct Engine<'a> {
    exec: &'a Executor<'a>,
    subject: &'a Subject,
    inputs: &'a Inputs,
    unit: usize,
}

/// Latencies of one loop, split by whether the tracer was on.
#[derive(Default)]
struct Loop {
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
}

impl Engine<'_> {
    /// The set-ups warmed the process; this warms the executor's own
    /// scratch arenas, untimed and unverified.
    fn warm(&self, tracer: &mut Tracer) {
        let mut scratch = Tally::default();
        for i in 0..2 {
            self.call(i, &mut scratch, tracer);
        }
    }

    /// Call `i` of the loop: one `execute` (unit 1) or one
    /// `batch_execute` of `unit` consecutive pool inputs, each output
    /// checked. Returns the call's µs and its outcomes.
    fn call(
        &self,
        i: usize,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> (f64, Vec<FunctionalOutcome>) {
        let plan = &self.subject.plan;
        let n = self.inputs.pool.len();
        let start = (i * self.unit) % n;
        let range = start..start + self.unit;
        let req = i as u64 + 1;
        let (result, us) = if self.unit == 1 {
            tracer.timed("core.execute", req, |_| {
                self.exec
                    .execute(plan, &self.inputs.pool[start])
                    .map(|o| vec![o])
            })
        } else {
            tracer.timed("core.batch_execute", req, |_| {
                self.exec
                    .batch_execute(plan, &self.inputs.pool[range.clone()])
            })
        };
        let tol = self.subject.spec.tol();
        match result {
            Ok(outcomes) => {
                for (o, r) in outcomes.iter().zip(&self.inputs.refs[range]) {
                    tally.check(&o.output, r, tol);
                }
                (us, outcomes)
            }
            Err(_) => {
                for _ in 0..self.unit {
                    tally.errored();
                }
                (us, Vec::new())
            }
        }
    }

    /// Calls back to back for `seconds`, alternating blocks of calls
    /// with the tracer on and off.
    fn interleaved(&self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) -> Loop {
        let was_on = tracer.on();
        let mut out = Loop::default();
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut i = 0;
        loop {
            if start.elapsed() >= budget {
                break;
            }
            let traced = (i / BLOCK).is_multiple_of(2);
            tracer.set_on(traced);
            let (us, _) = self.call(i, tally, tracer);
            if traced {
                out.traced_us.push(us);
            } else {
                out.untraced_us.push(us);
            }
            i += 1;
        }
        tracer.set_on(was_on);
        out
    }

    /// Calls back to back for `seconds`, cut into [`WINDOWS`] windows
    /// of equal duration; `between` runs untimed before every window but
    /// the first. Each call's time is scaled to nominal host speed with
    /// the exponent fitted to the run (see [`crate::speed`]), which is
    /// returned too.
    fn windowed(
        &self,
        seconds: f64,
        tally: &mut Tally,
        tracer: &mut Tracer,
        scaler: &mut Scaler,
        between: &mut dyn FnMut(&mut Tracer, &mut Scaler) -> Result<(), String>,
    ) -> Result<(Blocks, f64), String> {
        let span = Duration::from_secs_f64(seconds / WINDOWS as f64);
        // Every call's raw time, probe and verified outputs are kept for
        // the fit (see [`MAX_CALLS_PER_S`]). The
        // buffer is written through up front, so the memory it adds to
        // `peak_rss_mb` does not depend on the call rate.
        let mut calls = vec![(1.0_f32, 1.0_f32, 1.0_f32); (seconds * MAX_CALLS_PER_S) as usize];
        std::hint::black_box(&mut calls);
        let mut n = 0;
        let mut i = 0;
        for k in 0..WINDOWS {
            if k > 0 {
                between(tracer, scaler)?;
            }
            scaler.reprobe();
            let start = Instant::now();
            while start.elapsed() < span {
                let before = tally.verified();
                let (us, _) = self.call(i, tally, tracer);
                let probe = scaler.around();
                if n < calls.len() {
                    let verified = tally.verified() - before;
                    calls[n] = (us as f32, probe as f32, verified as f32);
                    n += 1;
                }
                i += 1;
            }
        }
        let calls = &calls[..n];
        let alpha = speed::fit_alpha(calls);
        let mut blocks = Blocks::default();
        for &(us, probe, verified) in calls {
            blocks.push(
                speed::scaled(us.into(), probe.into(), alpha),
                verified as u64,
            );
        }
        Ok((blocks, alpha))
    }
}

fn peak_rss_metric() -> Result<Metric, String> {
    Ok(metric(
        "peak_rss_mb",
        crate::host::peak_rss_mb()?,
        "MB",
        "VmHWM at workload end",
    ))
}

/// `latency_p50_us`, `latency_p90_us` and `latency_p99_us` of the calls
/// in `blocks`.
fn latency_metrics(blocks: &Blocks, unit_name: &str) -> Result<Vec<Metric>, String> {
    let note = format!(
        "per {unit_name}, scaled; 20th percentile over {} blocks of {BLOCK_CALLS} calls \
         ({} beyond each p99) of each block's",
        blocks.full(),
        crate::stats::beyond(BLOCK_CALLS, TAIL_Q)
    );
    Ok(vec![
        metric(
            "latency_p50_us",
            blocks.percentile(0.5, "latency")?,
            "us",
            format!("{note} p50"),
        ),
        metric(
            "latency_p90_us",
            blocks.percentile(0.9, "latency")?,
            "us",
            format!("{note} p90"),
        ),
        metric(
            "latency_p99_us",
            blocks.percentile(TAIL_Q, "latency")?,
            "us",
            format!("{note} p99"),
        ),
    ])
}

/// One set-up of `spec`, its time scaled by probes just before and after.
fn scaled_set_up(
    spec: Spec,
    tracer: &mut Tracer,
    scaler: &mut Scaler,
) -> Result<(Subject, f64), String> {
    scaler.reprobe();
    let (subject, t) = set_up(spec, tracer)?;
    Ok((subject, scaler.scale(t.total_s)))
}

fn engine_e2e(
    w: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let spec = w.spec();
    let mut scaler = Scaler::new();
    let (subject, first) = scaled_set_up(spec, tracer, &mut scaler)?;
    let mut setup = vec![first];
    let inputs = Inputs::new(&subject.raw, seed, INPUT_POOL)?;
    let exec = Executor::new(&subject.graph).map_err(|e| e.to_string())?;
    let engine = Engine {
        exec: &exec,
        subject: &subject,
        inputs: &inputs,
        unit: w.unit(),
    };
    engine.warm(tracer);
    // One more set-up before each window spreads the set-up samples over
    // the run.
    let (blocks, alpha) = engine.windowed(seconds, tally, tracer, &mut scaler, &mut |t, sc| {
        setup.push(scaled_set_up(spec, t, sc)?.1);
        Ok(())
    })?;
    let unit_name = if w.unit() == 1 {
        format!("execute, alpha {alpha:.3}")
    } else {
        format!("batch_execute of {}, alpha {alpha:.3}", w.unit())
    };
    let mut metrics = vec![metric(
        "setup_s",
        quantile(&setup, QUIET_Q),
        "s",
        format!(
            "20th percentile of {} set-ups spread over the run, scaled",
            setup.len()
        ),
    )];
    metrics.extend(latency_metrics(&blocks, &unit_name)?);
    metrics.push(metric(
        "throughput_ips",
        blocks.throughput()?,
        "inf/s",
        format!(
            "80th percentile over blocks of verified outputs per second of scaled call time; {} in {:.2} s \
             in all, alpha {alpha:.3}",
            blocks.verified, blocks.secs
        ),
    ));
    metrics.push(peak_rss_metric()?);
    Ok(metrics)
}

/// The serve workload's scenario for one `run_server` call.
#[must_use]
pub fn serve_config(seed: u64, duration_ms: u64) -> ServeConfig {
    let tenant = |name: &str, weight: f64| TenantLoad {
        tenant: TenantConfig {
            name: name.to_string(),
            weight,
            // Admission is sized never to bind at the offered rate: the
            // workload measures queueing and batching, not refusals.
            rate_per_s: SERVE_RATE_RPS * 4.0,
            burst: 64.0,
            max_in_flight: 256,
        },
        mode: LoadMode::Open {
            rate_rps: SERVE_RATE_RPS,
        },
        slo_us: Some(SERVE_SLO_US),
        models: Vec::new(),
    };
    ServeConfig {
        seed,
        duration_ms,
        tenants: vec![tenant("tenant-a", 2.0), tenant("tenant-b", 1.0)],
        models: SERVE_MODELS.to_vec(),
        queue_capacity: 256,
        policy: BatchPolicy {
            max_batch: Workload::Serve.unit(),
            max_delay_us: 1_000.0,
        },
        platform: jetson_agx_xavier(),
    }
}

/// One `run_server` call and what the benchmark derives from it.
struct Segment {
    stages: ServeStages,
    /// Arrival-to-completion time of each completed request, scaled to
    /// nominal host speed (µs).
    scaled_latency_us: Vec<f64>,
    /// Wall time not covered by the event log, the server's set-up,
    /// scaled to nominal host speed.
    setup_s: f64,
    /// Configured arrival-generation time.
    duration_s: f64,
    /// Admitted requests that never completed.
    lost: usize,
    /// Outputs that differed from the server's fault-free reference.
    bitwise: usize,
}

fn serve_segment(
    seed: u64,
    duration_ms: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Segment, String> {
    let config = serve_config(seed, duration_ms);
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    // The server's threads cannot be interleaved with probes, so a
    // second thread probes beside them.
    let (report, probes) = Timeline::around(start, || run_server(&config, None));
    let report = report?;
    let wall_s = start.elapsed().as_secs_f64();
    let end_ns = tracer.now_ns();
    let stages = serve_stages::derive(&report.log);
    // The event log's clock starts when the server's set-up ends.
    let t0_s = wall_s - stages.last_us / 1e6;
    let scaled_latency_us = serve_stages::timelines(&report.log)
        .iter()
        .map(|tl| {
            let (from, to) = (t0_s + tl.arrived_us / 1e6, t0_s + tl.done_us / 1e6);
            (tl.done_us - tl.arrived_us) * probes.factor(from, to)
        })
        .collect();
    let bitwise = report.bitwise_failures.len() as u64;
    tally.attempted += stages.arrived as u64;
    tally.failed += (stages.rejected + stages.shed + report.lost) as u64 + bitwise;
    tally.wrong += report.lost as u64 + bitwise;
    let setup_s = t0_s * probes.factor(0.0, t0_s);
    if tracer.on() {
        let root = tracer.record("serve.run_server", 0, 0, start_ns, end_ns);
        let t0_ns = end_ns.saturating_sub((stages.last_us * 1e3) as u64);
        tracer.record("serve.setup", root, 0, start_ns, t0_ns);
        let at = |us: f64| t0_ns + (us * 1e3) as u64;
        for tl in serve_stages::timelines(&report.log) {
            let req = tl.req + 1;
            let r = tracer.record(
                "serve.request",
                root,
                req,
                at(tl.arrived_us),
                at(tl.done_us),
            );
            tracer.record(
                "serve.queue_wait",
                r,
                req,
                at(tl.admitted_us),
                at(tl.enqueued_us),
            );
            tracer.record(
                "serve.batch_wait",
                r,
                req,
                at(tl.enqueued_us),
                at(tl.formed_us),
            );
            tracer.record("serve.exec", r, req, at(tl.formed_us), at(tl.done_us));
        }
    }
    Ok(Segment {
        stages,
        scaled_latency_us,
        setup_s,
        duration_s: duration_ms as f64 / 1e3,
        lost: report.lost,
        bitwise: report.bitwise_failures.len(),
    })
}

/// Pooled figures of several segments.
struct Pooled {
    within_slo: usize,
    log_s: f64,
    arrived: usize,
    offered: f64,
}

impl Pooled {
    /// Arrivals over the arrivals the rate and duration scheduled: how
    /// far the open-loop clients kept to their schedule.
    fn arrival_ratio(&self) -> f64 {
        self.arrived as f64 / self.offered
    }
}

fn pool_segments(segments: &[Segment]) -> Pooled {
    let tenants = 2.0;
    Pooled {
        within_slo: segments.iter().map(|s| s.stages.within_slo).sum(),
        log_s: segments.iter().map(|s| s.stages.last_us / 1e6).sum(),
        arrived: segments.iter().map(|s| s.stages.arrived).sum(),
        offered: segments
            .iter()
            .map(|s| SERVE_RATE_RPS * tenants * s.duration_s)
            .sum(),
    }
}

fn segment_ms(seconds: f64, parts: usize) -> u64 {
    ((seconds * 1e3 / parts as f64).round() as u64).max(50)
}

fn segment_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

fn serve_e2e(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let ms = segment_ms(seconds, SERVE_SEGMENTS);
    let mut segments = Vec::with_capacity(SERVE_SEGMENTS);
    let mut setup = Vec::new();
    for k in 0..SERVE_SEGMENTS {
        let seg = serve_segment(segment_seed(seed, k), ms, tally, tracer)?;
        setup.push(seg.setup_s);
        segments.push(seg);
        // Short extra calls after each measured one add set-up samples
        // spread over the run without adding measured load.
        for j in 0..SERVE_SETUP_EXTRA / SERVE_SEGMENTS {
            let extra = SERVE_SEGMENTS + k * SERVE_SETUP_EXTRA + j;
            setup.push(serve_segment(segment_seed(seed, extra), 50, tally, tracer)?.setup_s);
        }
    }
    let pooled = pool_segments(&segments);
    let mut blocks = Blocks::default();
    for &us in segments.iter().flat_map(|seg| &seg.scaled_latency_us) {
        blocks.push(us, 1);
    }
    let mut metrics = vec![metric(
        "setup_s",
        quantile(&setup, QUIET_Q),
        "s",
        format!(
            "20th percentile over {} run_server calls of wall time not covered by the event log, scaled",
            setup.len()
        ),
    )];
    metrics.extend(latency_metrics(&blocks, "request, arrival to completion")?);
    metrics.push(metric(
        "throughput_ips",
        pooled.within_slo as f64 / pooled.log_s,
        "inf/s",
        format!(
            "goodput: {} of {} arrivals completed within the {} ms SLO in {:.2} s; arrival ratio {:.3}",
            pooled.within_slo,
            pooled.arrived,
            SERVE_SLO_US / 1e3,
            pooled.log_s,
            pooled.arrival_ratio()
        ),
    ));
    metrics.push(peak_rss_metric()?);
    let count = |f: &dyn Fn(&Segment) -> usize| segments.iter().map(f).sum::<usize>();
    metrics.last_mut().expect("peak_rss_mb pushed").note = format!(
        "VmHWM at workload end; rejected {}, shed {}, lost {}, bitwise failures {}",
        count(&|s| s.stages.rejected),
        count(&|s| s.stages.shed),
        count(&|s| s.lost),
        count(&|s| s.bitwise)
    );
    Ok(metrics)
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Layer classes in `LayerClass::tag()` order of the per-class replay.
pub const CLASSES: [&str; 6] = ["conv", "fc", "pool", "act", "norm", "combine"];

fn class_span(tag: &str) -> &'static str {
    match tag {
        "conv" => "nn.conv",
        "fc" => "nn.fc",
        "pool" => "nn.pool",
        "act" => "nn.act",
        "norm" => "nn.norm",
        "combine" => "nn.combine",
        _ => "nn.other",
    }
}

/// Runs one layer as the engine would for an unsplit node: the int8
/// kernel where the plan is int8 and the layer has a worthwhile one,
/// the f32 kernel otherwise.
fn run_layer(layer: &dyn Layer, inputs: &[&Tensor], int8: bool) -> Result<Tensor, String> {
    if int8 && layer.int8_ready() && layer.int8_worthwhile() {
        let shapes: Vec<_> = inputs.iter().map(|t| t.shape()).collect();
        let units = layer.partition_units(&shapes).map_err(|e| e.to_string())?;
        if units > 0 {
            return layer
                .forward_partial_int8(inputs, 0..units, false)
                .map_err(|e| e.to_string());
        }
    }
    layer.forward(inputs).map_err(|e| e.to_string())
}

/// One node-by-node replay of `graph` through `Node::layer()`,
/// returning µs per layer class (in [`CLASSES`] order).
fn replay(
    graph: &Graph,
    input: &Tensor,
    int8: bool,
    req: u64,
    tracer: &mut Tracer,
) -> Result<[f64; 6], String> {
    let mut per_class = [0.0; 6];
    let (result, _) = tracer.timed("nn.replay", req, |t| -> Result<Tensor, String> {
        let mut outputs: Vec<Option<Tensor>> = vec![None; graph.len()];
        outputs[0] = Some(input.clone());
        for (idx, node) in graph.nodes().iter().enumerate().skip(1) {
            let inputs: Vec<&Tensor> = node
                .inputs()
                .iter()
                .map(|id| outputs[id.index()].as_ref().ok_or("inputs out of order"))
                .collect::<Result<_, _>>()?;
            let tag = node.layer().class().tag();
            let (out, us) = t.timed(class_span(tag), req, |_| {
                run_layer(node.layer(), &inputs, int8)
            });
            if let Some(c) = CLASSES.iter().position(|&x| x == tag) {
                per_class[c] += us;
            }
            outputs[idx] = Some(out?);
        }
        outputs[graph.output_id().index()]
            .take()
            .ok_or_else(|| "replay produced no output".to_string())
    });
    result?;
    Ok(per_class)
}

/// Conv FLOPs of one forward pass of `graph`, from graph arithmetic.
fn conv_flops(graph: &Graph) -> u64 {
    graph
        .nodes()
        .iter()
        .filter(|n| n.layer().class().tag() == "conv")
        .map(|n| {
            let shapes: Vec<_> = n
                .inputs()
                .iter()
                .map(|i| graph.nodes()[i.index()].output_shape())
                .collect();
            n.layer().workload(&shapes).map_or(0, |w| w.flops)
        })
        .sum()
}

/// Repeats `f` until `budget` has passed and at least `min` calls ran
/// (at most `max`); returns each call's result.
fn repeat<R>(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || start.elapsed() < budget) {
        out.push(f(out.len()));
    }
    out
}

/// The core/nn/tensor/obs figures of one subject.
struct EngineLayers {
    execute_us: f64,
    forward_us: f64,
    batch_per_inf_us: f64,
    batch_n: usize,
    pool_tasks: f64,
    inline_tasks: f64,
    queue_wait_us: f64,
    corun_layers: f64,
    parallel_regions: f64,
    slot_kb: f64,
    arena_fresh_kb: f64,
    int8_layers: f64,
    int8_gated: f64,
    executor_new_us: f64,
    compile_ms: f64,
    calibrate_ms: f64,
    class_us: [f64; 6],
    conv_flops: u64,
    recorder_tax: f64,
    flight_dropped: u64,
}

/// Probes every engine-side layer of `engine`'s subject within about
/// `budget_s`.
fn engine_probes(
    w: Workload,
    engine: &Engine<'_>,
    budget_s: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<EngineLayers, String> {
    let step = Duration::from_secs_f64(budget_s / 6.0);
    let subject = engine.subject;
    let spec = subject.spec;
    let int8 = spec.precision == Precision::Int8;
    let input = &engine.inputs.pool[0];

    // core: single executes, and batches of the workload's size (8 for
    // the single-stream workload, whose batch gain this compares).
    let single = Engine { unit: 1, ..*engine };
    let singles = repeat(step, 20, 3_000, |i| single.call(i, tally, tracer));
    let execute_us = median(&singles.iter().map(|s| s.0).collect::<Vec<_>>());
    let batch_n = if w.unit() == 1 { 8 } else { w.unit() };
    let batched = Engine {
        unit: batch_n,
        ..*engine
    };
    let batches = repeat(step, 10, 1_000, |i| batched.call(i, tally, tracer));
    let batch_per_inf_us =
        median(&batches.iter().map(|b| b.0).collect::<Vec<_>>()) / batch_n as f64;
    // Engine counters come from the workload's own call: outcomes of
    // `execute` for the single-stream workload, of `batch_execute`
    // otherwise; each outcome is one inference.
    let outcomes: Vec<&FunctionalOutcome> = if w.unit() == 1 {
        singles.iter().flat_map(|s| s.1.iter()).collect()
    } else {
        batches.iter().flat_map(|b| b.1.iter()).collect()
    };
    let counter = |f: &dyn Fn(&FunctionalOutcome) -> f64| {
        median(&outcomes.iter().map(|o| f(o)).collect::<Vec<_>>())
    };

    // nn: the uncompiled reference forward, then the per-class replay
    // of the graph the engine runs.
    let forwards = repeat(step, 20, 300, |i| {
        tracer
            .timed("nn.forward", i as u64 + 1, |_| subject.raw.forward(input))
            .1
    });
    let replays = repeat(step, 10, 100, |i| {
        replay(&subject.graph, input, int8, i as u64 + 1, tracer)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut class_us = [0.0; 6];
    for (c, slot) in class_us.iter_mut().enumerate() {
        *slot = median(&replays.iter().map(|r| r[c]).collect::<Vec<_>>());
    }

    // core: executor construction, as the server pays it per batch.
    let news = repeat(step / 2, 50, 300, |_| {
        tracer
            .timed("core.executor_new", 0, |_| {
                Executor::new(&subject.graph).map(drop)
            })
            .1
    });

    // nn: compile and calibrate on fresh copies, so the engine's graph
    // keeps the parameters its set-up stamped.
    let compiles = repeat(step / 4, 3, 20, |_| {
        let raw = build(spec.kind, ModelScale::Tiny);
        tracer
            .timed("nn.compile", 0, |_| compile(&raw, &spec.compile_options()))
            .1
    });
    let calibrates = repeat(step / 4, 3, 20, |_| -> Result<f64, String> {
        let raw = build(spec.kind, ModelScale::Tiny);
        let graph = if spec.compiled {
            compile(&raw, &spec.compile_options())
                .map_err(|e| e.to_string())?
                .0
        } else {
            raw
        };
        Ok(tracer
            .timed("nn.calibrate", 0, |_| {
                calibrate(&graph, std::slice::from_ref(input))
            })
            .1)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    // obs: the flight recorder's cost on `execute`, arms interleaved.
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut dropped = 0;
    repeat(step, 20, 500, |i| {
        off.push(single.call(i, tally, tracer).0);
        flight::enable();
        let (us, outcomes) = single.call(i, tally, tracer);
        flight::disable();
        on.push(us);
        // Records the rings overwrote inside this request's own window:
        // the executor sizes them so one request always fits.
        dropped += outcomes
            .iter()
            .filter_map(|o| o.engine.profile.as_ref())
            .map(|p| p.dropped)
            .sum::<u64>();
    });

    Ok(EngineLayers {
        execute_us,
        forward_us: median(&forwards),
        batch_per_inf_us,
        batch_n,
        pool_tasks: counter(&|o| o.engine.pool_tasks as f64),
        inline_tasks: counter(&|o| o.engine.inline_tasks as f64),
        queue_wait_us: counter(&|o| o.engine.queue_wait_ns as f64 / 1e3),
        corun_layers: counter(&|o| o.corun_layers as f64),
        parallel_regions: counter(&|o| o.parallel_regions as f64),
        slot_kb: counter(&|o| o.engine.slot_bytes as f64 / 1024.0),
        arena_fresh_kb: mean(
            &outcomes
                .iter()
                .map(|o| o.engine.arena_fresh_bytes as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
        int8_layers: counter(&|o| o.int8_layers as f64),
        int8_gated: counter(&|o| o.int8_gated as f64),
        executor_new_us: median(&news),
        compile_ms: median(&compiles) / 1e3,
        calibrate_ms: median(&calibrates) / 1e3,
        class_us,
        conv_flops: conv_flops(&subject.graph),
        recorder_tax: median(&on) / median(&off),
        flight_dropped: dropped,
    })
}

/// The serve-side figures of a traced run.
struct ServeLayers {
    stages: ServeStages,
    tax_ratio: f64,
    arrival_ratio: f64,
    simulate_ms: f64,
    tune_ms: f64,
}

/// Replays the planning the server's set-up does for its catalog (a
/// paper-scale and a Tiny tuner per plan rung, and one simulation of
/// each paper-scale plan), returning (tune ms, simulate ms) summed.
fn serve_setup_replay(tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let platform = jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    let (mut tune_us, mut sim_us) = (0.0, 0.0);
    for kind in SERVE_MODELS {
        let paper = build(kind, ModelScale::Paper);
        let tiny = build(kind, ModelScale::Tiny);
        let mut rungs = vec![
            ExecutionConfig::edgenn(),
            ExecutionConfig::baseline_gpu(),
            ExecutionConfig::cpu_only(),
        ];
        if tiny.nodes().iter().any(|n| n.layer().int8_worthwhile()) {
            rungs.push(ExecutionConfig::edgenn_int8());
        }
        for config in rungs {
            for graph in [&paper, &tiny] {
                let (plan, us) = tracer.timed("core.tune", 0, |_| {
                    Tuner::new(graph, &runtime).and_then(|t| t.plan(graph, &runtime, config))
                });
                tune_us += us;
                let plan = plan.map_err(|e| format!("tune {kind}: {e}"))?;
                if std::ptr::eq(graph, &paper) {
                    let (report, us) =
                        tracer.timed("sim.simulate", 0, |_| runtime.simulate(graph, &plan));
                    report.map_err(|e| format!("simulate {kind}: {e}"))?;
                    sim_us += us;
                }
            }
        }
    }
    Ok((tune_us / 1e3, sim_us / 1e3))
}

/// p50 µs of a warm `batch_execute` of `size` Tiny `kind` inputs under
/// the plan the server's hybrid rung runs.
fn direct_batch_us(kind: ModelKind, size: usize, tracer: &mut Tracer) -> Result<f64, String> {
    let spec = Spec {
        kind,
        ..Workload::Serve.spec()
    };
    let mut quiet = Tracer::new(false);
    let (subject, _) = set_up(spec, &mut quiet)?;
    let inputs: Vec<Tensor> = (0..size as u64)
        .map(|i| Tensor::random(subject.graph.input_shape().dims(), 1.0, 0xD1 + i))
        .collect();
    let exec = Executor::new(&subject.graph).map_err(|e| e.to_string())?;
    let times = repeat(Duration::from_millis(100), 15, 200, |i| {
        tracer
            .timed("core.batch_execute", i as u64 + 1, |_| {
                exec.batch_execute(&subject.plan, &inputs).map(drop)
            })
            .1
    });
    Ok(median(&times))
}

/// Serving tax: summed exec time of the hybrid batches in `stages` over
/// a direct `batch_execute` of the same model and size.
fn serve_tax(stages: &ServeStages, tracer: &mut Tracer) -> Result<f64, String> {
    let mut direct: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let (mut served, mut alone) = (0.0, 0.0);
    for b in stages
        .batches
        .iter()
        .filter(|b| !b.degraded && b.completed > 0)
    {
        let key = (b.model, b.completed);
        let us = match direct.get(&key) {
            Some(&us) => us,
            None => {
                let us = direct_batch_us(SERVE_MODELS[b.model], b.completed, tracer)?;
                direct.insert(key, us);
                us
            }
        };
        served += b.exec_us();
        alone += us;
    }
    Ok(if alone > 0.0 { served / alone } else { 0.0 })
}

/// One traced `run_server` call of `seconds`, and when `compare` is set
/// one untraced call as long after it; returns the traced call's figures
/// and the traced over untraced request p50 (1 without the second call).
fn serve_probe(
    seed: u64,
    seconds: f64,
    compare: bool,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(ServeLayers, f64), String> {
    let ms = segment_ms(seconds, 1);
    let traced = serve_segment(segment_seed(seed, 0), ms, tally, tracer)?;
    let trace_tax = if compare {
        tracer.set_on(false);
        let untraced = serve_segment(segment_seed(seed, 1), ms, tally, tracer);
        tracer.set_on(true);
        median(&traced.stages.latency_us) / median(&untraced?.stages.latency_us)
    } else {
        1.0
    };
    let arrival_ratio = pool_segments(std::slice::from_ref(&traced)).arrival_ratio();
    let tax_ratio = serve_tax(&traced.stages, tracer)?;
    let (tune_ms, simulate_ms) = serve_setup_replay(tracer)?;
    Ok((
        ServeLayers {
            stages: traced.stages,
            tax_ratio,
            arrival_ratio,
            simulate_ms,
            tune_ms,
        },
        trace_tax,
    ))
}

fn traced_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let (subject, setups) = set_up_many(w.spec(), tracer)?;
    let inputs = Inputs::new(&subject.raw, seed, INPUT_POOL)?;
    let exec = Executor::new(&subject.graph).map_err(|e| e.to_string())?;
    let engine = Engine {
        exec: &exec,
        subject: &subject,
        inputs: &inputs,
        unit: if w == Workload::Serve { 1 } else { w.unit() },
    };
    engine.warm(tracer);
    // The workload's own loop, traced and untraced blocks interleaved,
    // or for serve alternating traced and untraced server runs.
    let (serve, trace_tax, trace_note) = if w == Workload::Serve {
        let (serve, tax) = serve_probe(seed, seconds * 0.3, true, tally, tracer)?;
        (
            serve,
            tax,
            "request p50, a traced vs an untraced run_server call",
        )
    } else {
        let run = engine.interleaved(seconds * 0.25, tally, tracer);
        let tax = median(&run.traced_us) / median(&run.untraced_us);
        let (serve, _) = serve_probe(seed, seconds * 0.2, false, tally, tracer)?;
        (
            serve,
            tax,
            "call p50, traced vs untraced blocks interleaved",
        )
    };
    let budget = if w == Workload::Serve { 0.3 } else { 0.35 };
    let e = engine_probes(w, &engine, seconds * budget, tally, tracer)?;
    let tune_ms = if w == Workload::Serve {
        serve.tune_ms
    } else {
        median(&setups.iter().map(|s| s.tune_ms).collect::<Vec<_>>())
    };
    Ok(per_layer(w, &e, &serve, tune_ms, trace_tax, trace_note))
}

/// Why the per-class replay reports no `nn.fc_us` or `nn.norm_us`.
pub const DROPPED_CLASSES: &str = "nn.fc_us and nn.norm_us are not reported: Tiny SqueezeNet has \
     no fc layer and neither it nor Tiny VGG-16 has a norm layer, so they would read a constant 0 \
     there; their time is in the nn.fc and nn.norm rows of the self-time table";

/// Per-class metrics the traced run reports, by [`CLASSES`] index (see
/// [`DROPPED_CLASSES`]).
const REPORTED_CLASSES: [(usize, &str); 4] = [
    (0, "nn.conv_us"),
    (2, "nn.pool_us"),
    (3, "nn.act_us"),
    (5, "nn.combine_us"),
];

fn per_layer(
    w: Workload,
    e: &EngineLayers,
    s: &ServeLayers,
    tune_ms: f64,
    trace_tax: f64,
    trace_note: &str,
) -> Vec<Metric> {
    let model = w.spec().kind.name();
    let st = &s.stages;
    let mut v = vec![
        metric(
            "core.execute_us",
            e.execute_us,
            "us",
            format!("p50 execute, {model}"),
        ),
        metric(
            "core.engine_overhead_us",
            e.execute_us - e.forward_us,
            "us",
            "core.execute_us - nn.forward_us",
        ),
        metric(
            "core.batch_per_inf_us",
            e.batch_per_inf_us,
            "us",
            format!("p50 batch_execute of {} / {}", e.batch_n, e.batch_n),
        ),
        metric(
            "core.batch_gain",
            e.execute_us / e.batch_per_inf_us,
            "ratio",
            "core.execute_us / core.batch_per_inf_us",
        ),
        metric(
            "core.pool_tasks",
            e.pool_tasks,
            "count",
            "median per inference",
        ),
        metric(
            "core.inline_tasks",
            e.inline_tasks,
            "count",
            "median per inference",
        ),
        metric(
            "core.queue_wait_us",
            e.queue_wait_us,
            "us",
            "median per inference",
        ),
        metric(
            "core.corun_layers",
            e.corun_layers,
            "count",
            "median per inference",
        ),
        metric(
            "core.parallel_regions",
            e.parallel_regions,
            "count",
            "median per inference",
        ),
        metric(
            "core.slot_kb",
            e.slot_kb,
            "KiB",
            "median engine.slot_bytes per inference",
        ),
        metric(
            "core.arena_fresh_kb",
            e.arena_fresh_kb,
            "KiB",
            "mean per inference, 0 when warm",
        ),
        metric(
            "core.int8_layers",
            e.int8_layers,
            "count",
            "median per inference",
        ),
        metric(
            "core.int8_gated",
            e.int8_gated,
            "count",
            "median per inference",
        ),
        metric(
            "core.executor_new_us",
            e.executor_new_us,
            "us",
            "p50 Executor::new",
        ),
        metric("core.tune_ms", tune_ms, "ms", "Tuner::new + plan"),
        metric(
            "nn.compile_ms",
            e.compile_ms,
            "ms",
            "median compile of a fresh Tiny build",
        ),
        metric(
            "nn.calibrate_ms",
            e.calibrate_ms,
            "ms",
            "median calibrate, one sample",
        ),
        metric(
            "nn.forward_us",
            e.forward_us,
            "us",
            "p50 uncompiled Graph::forward",
        ),
    ];
    for (c, name) in REPORTED_CLASSES {
        v.push(metric(
            name,
            e.class_us[c],
            "us",
            "p50 per replay, summed over the class",
        ));
    }
    v.extend([
        metric(
            "tensor.conv_gflops",
            if e.class_us[0] > 0.0 {
                e.conv_flops as f64 / (e.class_us[0] * 1e3)
            } else {
                0.0
            },
            "GFLOP/s",
            format!(
                "computed: {} conv FLOPs from graph arithmetic / nn.conv_us",
                e.conv_flops
            ),
        ),
        metric(
            "serve.queue_wait_us",
            median(&st.queue_wait_us),
            "us",
            "p50 admitted -> enqueued",
        ),
        metric(
            "serve.batch_wait_us",
            median(&st.batch_wait_us),
            "us",
            "p50 enqueued -> batch formed",
        ),
        metric(
            "serve.exec_us",
            median(&st.exec_us),
            "us",
            "p50 batch formed -> completed",
        ),
        metric(
            "serve.tax_ratio",
            s.tax_ratio,
            "ratio",
            "served hybrid batch exec / direct batch_execute of same model and size",
        ),
        metric(
            "serve.batch_size_mean",
            st.batch_size_mean(),
            "count",
            "members per batch",
        ),
        metric(
            "serve.dispatcher_busy",
            st.dispatcher_busy(),
            "ratio",
            "summed batch exec / log span",
        ),
        metric(
            "serve.reject_ratio",
            st.reject_ratio(),
            "ratio",
            "rejected / arrived",
        ),
        metric(
            "serve.shed_ratio",
            st.shed_ratio(),
            "ratio",
            "shed / admitted",
        ),
        metric(
            "serve.degraded_ratio",
            st.degraded_ratio(),
            "ratio",
            "degraded / admitted",
        ),
        metric(
            "serve.arrival_ratio",
            s.arrival_ratio,
            "ratio",
            "arrivals / (rate x duration)",
        ),
        metric(
            "sim.simulate_ms",
            s.simulate_ms,
            "ms",
            "Runtime::simulate calls of the serve set-up",
        ),
        metric(
            "obs.recorder_tax",
            e.recorder_tax,
            "ratio",
            "p50 execute, recorder on / off",
        ),
        metric(
            "obs.flight_dropped",
            e.flight_dropped as f64,
            "count",
            "records overwritten inside recorder-on request windows",
        ),
        metric("bench.trace_tax", trace_tax, "ratio", trace_note),
    ]);
    v
}
