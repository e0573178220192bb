//! `perfbench`: runs one EdgeNN benchmark workload and prints its
//! metrics, or compares two saved results.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! The last line of a run's standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The full result,
//! with host core count, kernel arch, commit and seed, is also written
//! to `<out-dir>/<workload>-seed<n>-trace<t>.json`; a traced run adds a
//! Chrome trace and a self-time table beside it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use edgenn_perfbench::run::{run, Metric, Workload, DROPPED_CLASSES, PRINTED_ONLY};
use edgenn_perfbench::trace::{chrome_json, render_self_table, self_table};
use edgenn_perfbench::{compare, host};
use serde_json::{Map, Value};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload '{name}' (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn metrics_object<'a>(metrics: impl Iterator<Item = &'a Metric>, with_notes: bool) -> Value {
    let mut m = Map::new();
    for x in metrics {
        let mut entry = Map::new();
        entry.insert("value", Value::Number(x.value));
        entry.insert("unit", Value::String(x.unit.to_string()));
        if with_notes {
            entry.insert("note", Value::String(x.note.clone()));
        }
        m.insert(x.name, Value::Object(entry));
    }
    Value::Object(m)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let (cores, arch, commit) = (host::cores(), host::arch(), host::commit());
    println!(
        "# perfbench {} seed={} seconds={} trace={} cores={cores} arch={arch} commit={commit}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = run(w, args.seed, args.seconds, args.trace)?;
    let tally = result.tally;
    for m in &result.metrics {
        println!("{:<26} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<26} {:>14.6} {:<8} {} of {} operations failed, {} wrong outputs",
        "error_ratio",
        tally.error_ratio(),
        "ratio",
        tally.failed,
        tally.attempted,
        tally.wrong
    );

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let stem = format!("{}-seed{}", w.name(), args.seed);
    if args.trace {
        let spans = result.tracer.spans();
        let table = render_self_table(&self_table(spans));
        println!("# {DROPPED_CLASSES}");
        print!("{table}");
        write(
            &args.out_dir.join(format!("{}.selftime.txt", w.name())),
            &table,
        )?;
        write(
            &args.out_dir.join(format!("{}.trace.json", w.name())),
            &chrome_json(spans).to_json_string(),
        )?;
    }
    let mut hostv = Map::new();
    hostv.insert("cores", Value::Number(cores as f64));
    hostv.insert("arch", Value::String(arch.to_string()));
    hostv.insert("commit", Value::String(commit));
    let mut full = Map::new();
    full.insert("workload", Value::String(w.name().to_string()));
    full.insert("seed", Value::Number(args.seed as f64));
    full.insert("seconds", Value::Number(args.seconds));
    full.insert("trace", Value::Bool(args.trace));
    full.insert("host", Value::Object(hostv));
    full.insert("correct", Value::Bool(tally.correct()));
    full.insert("attempted", Value::Number(tally.attempted as f64));
    full.insert("failed", Value::Number(tally.failed as f64));
    full.insert("error_ratio", Value::Number(tally.error_ratio()));
    full.insert("metrics", metrics_object(result.metrics.iter(), true));
    write(
        &args
            .out_dir
            .join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        &Value::Object(full).to_json_string_pretty(),
    )?;

    let mut line = Map::new();
    line.insert("correct", Value::Bool(tally.correct()));
    line.insert("attempted", Value::Number(tally.attempted as f64));
    line.insert("failed", Value::Number(tally.failed as f64));
    let gated = result
        .metrics
        .iter()
        .filter(|m| !PRINTED_ONLY.contains(&m.name));
    line.insert("metrics", metrics_object(gated, false));
    println!("{}", Value::Object(line).to_json_string());
    Ok(tally.correct())
}

/// glibc's `mallopt` parameter fixing the mmap threshold.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Serves every allocation of 1 MiB or more with its own mapping. By
/// default glibc raises that threshold each time such a block is freed,
/// after which large blocks come from per-thread arenas. The serving
/// front end grows its event log from whichever client or dispatcher
/// thread pushes next, so its peak RSS then jumped between about 15 and
/// 20 MB from run to run. Tensors and smaller buffers are unaffected.
fn fixed_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only sets an allocator tuning parameter, takes
    // plain integers, and is called before this process starts any
    // thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

fn main() -> ExitCode {
    fixed_mmap_threshold();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        let paths: Vec<String> = args.collect();
        return match compare::compare_files(&paths) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(args).and_then(|a| bench(&a));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: outputs failed verification");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
