//! Self-tests of the benchmark's own helpers: percentiles and the
//! ten-beyond rule, block percentiles, host speed scaling, self time,
//! Chrome-trace tracks, VmHWM parsing, serve stage derivation, error
//! counting and the comparison guard.

use edgenn_perfbench::compare::{check_comparable, compare, Identity};
use edgenn_perfbench::host::parse_vm_hwm_kb;
use edgenn_perfbench::serve_stages::{derive, timelines};
use edgenn_perfbench::speed::{fit_alpha, scaled, Timeline, NOMINAL_US};
use edgenn_perfbench::stats::{beyond, percentile, sorted, Blocks, BLOCK_CALLS, MIN_BEYOND};
use edgenn_perfbench::trace::{chrome_json, self_table, self_time_ns, Span, Tracer};
use edgenn_perfbench::verify::{Tally, F32_TOL, INT8_TOL};
use edgenn_serve::{AdmissionLog, PlanVariant, RejectReason, ServeEventKind};
use edgenn_tensor::Tensor;
use serde_json::Value;

#[test]
fn percentile_is_nearest_rank() {
    let v = sorted(&(1..=100).map(f64::from).collect::<Vec<_>>());
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
    // A block of the fewest calls a p99 needs leaves ten beyond it.
    assert_eq!(beyond(BLOCK_CALLS, 0.99), MIN_BEYOND);
}

#[test]
fn block_percentiles_are_medians_over_full_blocks() {
    // The fewest calls whose p99 has ten beyond it.
    assert_eq!(beyond(BLOCK_CALLS, 0.99), MIN_BEYOND);
    assert_eq!(beyond(BLOCK_CALLS - 1, 0.99), MIN_BEYOND - 1);
    let mut b = Blocks::default();
    assert!(b
        .percentile(0.5, "lat")
        .unwrap_err()
        .contains("no full block"));
    // Three blocks of 1..=1000 µs; the second has a host stall that makes
    // its slowest 50 calls 100 times slower.
    for block in 0..3 {
        for i in 1..=BLOCK_CALLS {
            let us = i as f64;
            b.push(
                if block == 1 && i > 950 {
                    us * 100.0
                } else {
                    us
                },
                2,
            );
        }
    }
    b.push(5.0, 1); // a partial block counts for throughput only
    assert_eq!(b.full(), 3);
    assert_eq!(b.calls, 3 * BLOCK_CALLS as u64 + 1);
    assert_eq!(b.verified, 6 * BLOCK_CALLS as u64 + 1);
    assert_eq!(b.percentile(0.5, "lat"), Ok(500.0));
    // The stalled block's p99 is 99,000 µs; the median ignores it.
    assert_eq!(b.percentile(0.99, "lat"), Ok(990.0));
    let sum = 3.0 * (BLOCK_CALLS * (BLOCK_CALLS + 1) / 2) as f64 + 5.0;
    let stalled: f64 = (951..=BLOCK_CALLS).map(|i| i as f64 * 99.0).sum();
    assert!((b.secs - (sum + stalled) / 1e6).abs() < 1e-9);
    // Throughput too is the median block's: 2000 outputs in 0.5005 s.
    let quiet = 2.0 * BLOCK_CALLS as f64 / ((BLOCK_CALLS * (BLOCK_CALLS + 1) / 2) as f64 / 1e6);
    assert!((b.throughput().unwrap() - quiet).abs() < 1e-6);
}

#[test]
fn host_speed_scaling_cancels_a_uniform_slowdown() {
    // A call between probes at nominal speed keeps its time; one made
    // while the host ran twice as slow is halved.
    assert_eq!(scaled(1000.0, NOMINAL_US, 1.0), 1000.0);
    assert_eq!(scaled(1000.0, 2.0 * NOMINAL_US, 1.0), 500.0);

    let tl = Timeline::from_probes(vec![
        (0.0, NOMINAL_US),
        (1.0, 2.0 * NOMINAL_US),
        (2.0, 2.0 * NOMINAL_US),
        (3.0, NOMINAL_US),
    ]);
    assert_eq!(tl.factor(0.9, 2.1), 0.5, "mean of the probes in the span");
    assert_eq!(tl.factor(-1.0, 0.5), 1.0);
    assert_eq!(tl.factor(2.9, 3.5), 1.0);
    assert_eq!(tl.factor(0.0, 1.0), 2.0 / 3.0);
    // No probe in the span: the nearest one.
    assert_eq!(tl.factor(1.2, 1.3), 0.5);
    assert_eq!(tl.factor(2.8, 2.9), 1.0);
    assert_eq!(Timeline::default().factor(0.0, 1.0), 1.0);
}

#[test]
fn the_scaling_exponent_is_fitted_to_how_much_the_calls_slowed() {
    assert_eq!(scaled(100.0, NOMINAL_US, 0.5), 100.0);
    assert!((scaled(100.0, 4.0 * NOMINAL_US, 0.5) - 50.0).abs() < 1e-9);
    // Calls that take 100 µs at full-speed probes and 200 µs at probes
    // four times slower: alpha = ln 2 / ln 4 = 0.5, and both read 100.
    let mut calls = Vec::new();
    for i in 0..1000 {
        let wobble = (i % 5) as f32 * 0.01;
        calls.push((100.0 + wobble, NOMINAL_US as f32, 1.0));
        calls.push((200.0 + wobble, 4.0 * NOMINAL_US as f32, 1.0));
    }
    let alpha = fit_alpha(&calls);
    assert!((alpha - 0.5).abs() < 1e-3, "{alpha}");
    assert!((scaled(200.0, 4.0 * NOMINAL_US, alpha) - 100.0).abs() < 0.1);
    // A run that never left full speed gives no slope: alpha 1.
    let fast: Vec<_> = calls.iter().copied().filter(|c| c.1 < 30.0).collect();
    assert_eq!(fit_alpha(&fast), 1.0);
    assert_eq!(fit_alpha(&[]), 1.0);
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "x",
        req: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let parent = span(1, 0, 0, 100);
    // [10,40) and [30,60) overlap: together they cover [10,60) = 50.
    // [90,120) is clipped to the parent's end: covers 10.
    let a = span(2, 1, 10, 40);
    let b = span(3, 1, 30, 60);
    let c = span(4, 1, 90, 120);
    assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 50 - 10);
    assert_eq!(self_time_ns(&parent, &[]), 100);
    // Children covering everything leave no self time.
    let all = span(5, 1, 0, 100);
    assert_eq!(self_time_ns(&parent, &[&a, &all]), 0);
}

#[test]
fn self_table_groups_by_name() {
    let mut t = Tracer::new(true);
    t.timed("outer", 1, |t| {
        t.timed("inner", 1, |_| std::hint::black_box(0));
        t.timed("inner", 1, |_| std::hint::black_box(0));
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    assert!(spans
        .iter()
        .filter(|s| s.name == "inner")
        .all(|s| s.parent == outer.id && s.req == 1));
    let rows = self_table(spans);
    assert_eq!(rows.len(), 2);
    let inner = rows.iter().find(|r| r.name == "inner").unwrap();
    assert_eq!(inner.count, 2);
    assert_eq!(inner.self_ns, inner.total_ns);
    let outer_row = rows.iter().find(|r| r.name == "outer").unwrap();
    assert_eq!(outer_row.self_ns, outer_row.total_ns - inner.total_ns);

    let mut off = Tracer::new(false);
    let (v, us) = off.timed("outer", 0, |_| 7);
    assert_eq!(v, 7);
    assert!(us >= 0.0);
    assert!(off.spans().is_empty());
}

#[test]
fn chrome_trace_puts_overlapping_requests_on_separate_tracks() {
    let spans = vec![
        span(1, 0, 0, 100),
        span(2, 1, 10, 50),
        span(3, 0, 40, 80), // overlaps span 1 without nesting in it
    ];
    let trace = chrome_json(&spans);
    let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
    assert_eq!(events.len(), 3);
    let tid = |id: f64| {
        events
            .iter()
            .find(|e| e["args"]["id"].as_f64() == Some(id))
            .and_then(|e| e["tid"].as_f64())
            .unwrap()
    };
    assert_eq!(tid(1.0), tid(2.0), "a child nests on its parent's track");
    assert_ne!(tid(1.0), tid(3.0), "a partial overlap needs its own track");
    assert!(events.iter().all(|e| e["ph"] == "X"));
}

#[test]
fn vm_hwm_is_parsed_from_proc_status() {
    let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(5120));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t 4000 kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn serve_stages_come_from_a_hand_built_log() {
    let mut log = AdmissionLog::default();
    let arrive = |log: &mut AdmissionLog, t, req, tenant| {
        log.push(
            t,
            ServeEventKind::Arrived {
                req,
                tenant,
                model: 0,
            },
        );
    };
    arrive(&mut log, 0.0, 0, 0);
    log.push(0.0, ServeEventKind::Admitted { req: 0, tenant: 0 });
    arrive(&mut log, 5.0, 1, 1);
    log.push(5.0, ServeEventKind::Admitted { req: 1, tenant: 1 });
    arrive(&mut log, 6.0, 2, 1);
    log.push(
        6.0,
        ServeEventKind::Rejected {
            req: 2,
            tenant: 1,
            reason: RejectReason::QueueFull,
            retry_after_us: 100.0,
        },
    );
    for (t, req, tenant) in [(20.0, 0, 0), (25.0, 1, 1)] {
        log.push(
            t,
            ServeEventKind::Enqueued {
                req,
                tenant,
                model: 0,
                depth: 1,
            },
        );
    }
    log.push(
        100.0,
        ServeEventKind::BatchFormed {
            batch: 0,
            model: 0,
            variant: PlanVariant::Hybrid,
            members: vec![0, 1],
            oldest_wait_us: 100.0,
            vtime: vec![1.0, 1.0],
            backlogged: Vec::new(),
        },
    );
    log.push(
        100.0,
        ServeEventKind::Shed {
            req: 1,
            tenant: 1,
            reason: RejectReason::DeadlineUnmeetable,
        },
    );
    log.push(
        400.0,
        ServeEventKind::Completed {
            req: 0,
            tenant: 0,
            batch: 0,
            latency_us: 400.0,
            deadline_us: Some(300.0),
            degraded: false,
        },
    );

    let s = derive(&log);
    assert_eq!((s.arrived, s.admitted, s.rejected, s.shed), (3, 2, 1, 1));
    assert_eq!((s.completed, s.within_slo, s.degraded), (1, 0, 0));
    assert_eq!(s.queue_wait_us, vec![20.0, 20.0]);
    assert_eq!(s.batch_wait_us, vec![80.0, 75.0]);
    assert_eq!(s.exec_us, vec![300.0]);
    assert_eq!(s.latency_us, vec![400.0]);
    assert_eq!(s.batches.len(), 1);
    let b = &s.batches[0];
    assert_eq!((b.size, b.completed, b.degraded), (2, 1, false));
    assert_eq!(b.exec_us(), 300.0);
    assert_eq!(s.last_us, 400.0);
    assert_eq!(s.batch_size_mean(), 2.0);
    assert_eq!(s.dispatcher_busy(), 300.0 / 400.0);
    assert_eq!(s.reject_ratio(), 1.0 / 3.0);
    assert_eq!(s.shed_ratio(), 0.5);

    let tl = timelines(&log);
    assert_eq!(tl.len(), 1, "only completed requests have a timeline");
    assert_eq!(
        (
            tl[0].arrived_us,
            tl[0].enqueued_us,
            tl[0].formed_us,
            tl[0].done_us
        ),
        (0.0, 20.0, 100.0, 400.0)
    );
}

#[test]
fn error_ratio_counts_a_corrupted_output() {
    let reference = Tensor::random(&[4, 4], 1.0, 3);
    let mut tally = Tally::default();
    assert!(tally.check(&reference.clone(), &reference, F32_TOL));
    let mut corrupted = reference.clone();
    corrupted.as_mut_slice()[5] += 0.5;
    assert!(!tally.check(&corrupted, &reference, F32_TOL));
    // Within the int8 tolerance, a small int8 rounding error passes.
    let mut rounded = reference.clone();
    rounded.as_mut_slice()[0] += INT8_TOL / 2.0;
    assert!(tally.check(&rounded, &reference, INT8_TOL));
    tally.errored();
    assert_eq!(tally.attempted, 4);
    assert_eq!(tally.failed, 2);
    assert_eq!(tally.wrong, 2);
    assert_eq!(tally.verified(), 2);
    assert_eq!(tally.error_ratio(), 0.5);
    assert!(!tally.correct());
    assert_eq!(Tally::default().error_ratio(), 0.0);
}

fn result(cores: u64, arch: &str, p50: f64) -> Value {
    let text = format!(
        r#"{{"workload": "stream-squeezenet-f32", "seed": 1, "trace": false,
            "host": {{"cores": {cores}, "arch": "{arch}", "commit": "abc"}},
            "metrics": {{"latency_p50_us": {{"value": {p50}, "unit": "us"}}}}}}"#
    );
    Value::parse_json(&text).unwrap()
}

#[test]
fn compare_refuses_results_from_another_core_count_or_arch() {
    let table = compare(&result(2, "avx2", 100.0), &result(2, "avx2", 110.0)).unwrap();
    assert!(
        table.contains("latency_p50_us") && table.contains("1.100"),
        "{table}"
    );
    let err = compare(&result(1, "avx2", 100.0), &result(2, "avx2", 100.0)).unwrap_err();
    assert!(err.contains("core counts differ"), "{err}");
    let err = compare(&result(2, "avx2", 100.0), &result(2, "avx512", 100.0)).unwrap_err();
    assert!(err.contains("arch"), "{err}");

    let id = |trace| Identity {
        workload: "w".to_string(),
        trace,
        cores: 2,
        arch: "avx2".to_string(),
    };
    assert!(check_comparable(&id(false), &id(true)).is_err());
    assert!(check_comparable(&id(false), &id(false)).is_ok());
}
