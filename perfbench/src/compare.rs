//! Side-by-side comparison of two saved results.
//!
//! Results are comparable only when taken on the same core count with
//! the same SIMD kernel variant, for the same workload and run kind:
//! the engine's handoff cost depends on the cores it can spread onto,
//! so a baseline recorded on one core says nothing about two.

use serde_json::Value;

/// Host and run identity a comparison must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// Workload name.
    pub workload: String,
    /// Traced or untraced run.
    pub trace: bool,
    /// Host core count.
    pub cores: u64,
    /// Kernel arch name.
    pub arch: String,
}

/// Reads the identity fields of a result.
///
/// # Errors
/// Fails when a field is missing or has the wrong type.
pub fn identity(result: &Value) -> Result<Identity, String> {
    let field = |v: Option<&Value>, name: &str| v.cloned().ok_or(format!("result lacks {name}"));
    let host = field(result.get("host"), "host")?;
    Ok(Identity {
        workload: field(result.get("workload"), "workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        trace: field(result.get("trace"), "trace")?
            .as_bool()
            .ok_or("trace is not a bool")?,
        cores: field(host.get("cores"), "host.cores")?
            .as_u64()
            .ok_or("host.cores is not a count")?,
        arch: field(host.get("arch"), "host.arch")?
            .as_str()
            .ok_or("host.arch is not a string")?
            .to_string(),
    })
}

/// Refuses a pair whose identities differ, naming the first
/// difference.
///
/// # Errors
/// Describes why the two results are not comparable.
pub fn check_comparable(a: &Identity, b: &Identity) -> Result<(), String> {
    if a.cores != b.cores {
        return Err(format!(
            "core counts differ ({} vs {}): a result is comparable only with one from the same core count",
            a.cores, b.cores
        ));
    }
    if a.arch != b.arch {
        return Err(format!("kernel arch differs ({} vs {})", a.arch, b.arch));
    }
    if a.workload != b.workload {
        return Err(format!(
            "workloads differ ({} vs {})",
            a.workload, b.workload
        ));
    }
    if a.trace != b.trace {
        return Err("one result is traced and the other is not".to_string());
    }
    Ok(())
}

/// Renders each metric of `a` beside `b` with the ratio b / a.
///
/// # Errors
/// Fails when the results are not comparable or lack metrics.
pub fn compare(a: &Value, b: &Value) -> Result<String, String> {
    check_comparable(&identity(a)?, &identity(b)?)?;
    let metrics = |v: &Value| {
        v.get("metrics")
            .and_then(Value::as_object)
            .cloned()
            .ok_or_else(|| "result lacks metrics".to_string())
    };
    let (ma, mb) = (metrics(a)?, metrics(b)?);
    let mut out = format!(
        "{:<26} {:>14} {:>14} {:>9} unit\n",
        "metric", "a", "b", "b/a"
    );
    for (name, va) in ma.iter() {
        let value = |v: &Value| v.get("value").and_then(Value::as_f64);
        let (Some(x), Some(y)) = (value(va), mb.get(name).and_then(value)) else {
            continue;
        };
        let unit = va.get("unit").and_then(Value::as_str).unwrap_or("");
        let ratio = if x == 0.0 { f64::NAN } else { y / x };
        out.push_str(&format!(
            "{name:<26} {x:>14.4} {y:>14.4} {ratio:>9.3} {unit}\n"
        ));
    }
    Ok(out)
}

/// [`compare`] over two result files.
///
/// # Errors
/// Fails on a wrong argument count, unreadable or malformed files, or
/// results that are not comparable.
pub fn compare_files(paths: &[String]) -> Result<String, String> {
    let [a, b] = paths else {
        return Err("usage: perfbench compare <result-a.json> <result-b.json>".to_string());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Value::parse_json(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    compare(&load(a)?, &load(b)?)
}
