//! Measures the functional execution engine and maintains
//! `BENCH_functional.json` (see `docs/perf.md` for how to read it).
//!
//! ```bash
//! taskset -c 0 cargo run --release -p edgenn-bench --bin bench_functional -- run
//! cargo run --release -p edgenn-bench --bin bench_functional -- run
//! cargo run -p edgenn-bench --bin bench_functional -- run --smoke --out /tmp/b.json
//! cargo run -p edgenn-bench --bin bench_functional -- validate BENCH_functional.json
//! cargo run -p edgenn-bench --bin bench_functional -- gate /tmp/b.json BENCH_functional.json --slack 0.25
//! cargo run --release -p edgenn-bench --bin bench_functional -- overhead --smoke --budget 0.05
//! ```

use std::process::ExitCode;

use edgenn_bench::functional_bench::{
    drop_gate, gate, gate_rows, measure, overhead_gate, validate, BenchReport,
};

const FULL_ITERS: u32 = 60;
const SMOKE_ITERS: u32 = 16;
/// The overhead gate judges a ≤5% ratio of two minima, so even its
/// smoke mode needs enough iterations for both arms to catch a clean
/// (unpreempted) run each; 16 is not reliably enough on a busy CI box.
/// The interleaved arms cost well under a millisecond per pair, so a
/// large count stays cheap.
const OVERHEAD_SMOKE_ITERS: u32 = 144;
const DEFAULT_OUT: &str = "BENCH_functional.json";
const DEFAULT_SLACK: f64 = 0.25;
const DEFAULT_OVERHEAD_BUDGET: f64 = 0.05;

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut iters = FULL_ITERS;
    let mut out = DEFAULT_OUT.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => iters = SMOKE_ITERS,
            "--out" => out = it.next().ok_or("--out needs a path")?.clone(),
            other => return Err(format!("unknown run flag {other:?}")),
        }
    }
    let measured = measure(iters);
    validate(&measured)?;
    for row in &measured.models {
        println!(
            "{:<12} {:<5} {} cores  reference {:>10.1} ns  hybrid {:>10.1} ns  \
             batch {:>10.1} ns  speedup {:>5.2}x",
            row.model,
            row.precision.to_string(),
            row.cores,
            row.reference_ns,
            row.hybrid_ns,
            row.batch_ns,
            row.speedup
        );
    }
    // The file keeps one row set per core count: rows another core count
    // recorded there (with the same iteration budget) survive this run.
    let report = match load(&out) {
        Ok(older) => measured.merged_over(&older),
        Err(_) => measured,
    };
    validate(&report)?;
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Measures recorder-off vs recorder-on on this machine and gates the
/// aggregate flight-recorder overhead, and that no recorder-on request
/// lost a record from its own window. `--out` additionally writes the
/// measured report (same schema as `run`) for inspection.
fn overhead(args: &[String]) -> Result<(), String> {
    let mut iters = FULL_ITERS;
    let mut budget = DEFAULT_OVERHEAD_BUDGET;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => iters = OVERHEAD_SMOKE_ITERS,
            "--budget" => {
                budget = it
                    .next()
                    .ok_or("--budget needs a fraction")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
            }
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            other => return Err(format!("unknown overhead flag {other:?}")),
        }
    }
    let report = measure(iters);
    validate(&report)?;
    for row in &report.models {
        println!(
            "{:<12} {:<5} recorder off {:>10.1} ns  on {:>10.1} ns  overhead {:>6.2}%  dropped {}",
            row.model,
            row.precision.to_string(),
            row.hybrid_ns,
            row.flight_ns,
            (row.flight_ns / row.hybrid_ns - 1.0) * 100.0,
            row.flight_dropped
        );
    }
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    drop_gate(&report)?;
    overhead_gate(&report, budget)?;
    println!("overhead gate ok (budget {budget}); no flight records dropped");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "overhead" => overhead(rest),
        Some((cmd, rest)) if cmd == "validate" => match rest {
            [path] => load(path).and_then(|r| validate(&r)).map(|()| {
                println!("{path}: schema ok");
            }),
            _ => Err("usage: validate <path>".to_string()),
        },
        Some((cmd, rest)) if cmd == "drops" => match rest {
            [path] => load(path)
                .and_then(|r| {
                    validate(&r)?;
                    drop_gate(&r)
                })
                .map(|()| println!("{path}: no flight records dropped")),
            _ => Err("usage: drops <path>".to_string()),
        },
        Some((cmd, rest)) if cmd == "gate" => {
            let (paths, flags) = rest.split_at(rest.len().min(2));
            let slack = match flags {
                [] => Ok(DEFAULT_SLACK),
                [flag, value] if flag == "--slack" => {
                    value.parse::<f64>().map_err(|e| e.to_string())
                }
                _ => Err("usage: gate <measured> <baseline> [--slack F]".to_string()),
            };
            match (paths, slack) {
                ([measured, baseline], Ok(slack)) => load(measured)
                    .and_then(|m| load(baseline).map(|b| (m, b)))
                    .and_then(|(m, b)| {
                        validate(&m)?;
                        validate(&b)?;
                        // Every gated row's margin, pass or fail.
                        for row in gate_rows(&m, &b, slack)? {
                            println!("{row}");
                        }
                        gate(&m, &b, slack)
                    })
                    .map(|()| println!("gate ok (slack {slack})")),
                (_, Err(e)) => Err(e),
                _ => Err("usage: gate <measured> <baseline> [--slack F]".to_string()),
            }
        }
        _ => Err("usage: bench_functional <run|overhead|validate|gate|drops> ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_functional: {message}");
            ExitCode::FAILURE
        }
    }
}
