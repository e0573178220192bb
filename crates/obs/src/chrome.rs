//! Chrome trace-event entries: the JSON-array format Perfetto and
//! `chrome://tracing` load. Every trace the workspace writes (the
//! simulated timeline, the flight recording and the merged profile of
//! both) builds its entries here, so they share one key order.

use serde_json::{Map, Value};

/// An event on thread `tid` of process `pid` at `ts_us`: a complete span
/// (`"ph":"X"`) lasting `dur_us`, or a thread-scoped instant
/// (`"ph":"i"`) when `dur_us` is `None`.
#[must_use]
pub fn event(
    name: String,
    cat: String,
    ts_us: f64,
    dur_us: Option<f64>,
    pid: u64,
    tid: u64,
    args: Map,
) -> Value {
    let mut m = Map::new();
    m.insert("name", Value::from(name));
    m.insert("cat", Value::from(cat));
    m.insert("ph", Value::from(if dur_us.is_some() { "X" } else { "i" }));
    m.insert("ts", Value::from(ts_us));
    match dur_us {
        Some(dur) => m.insert("dur", Value::from(dur)),
        None => m.insert("s", Value::from("t")),
    };
    m.insert("pid", Value::from(pid as f64));
    m.insert("tid", Value::from(tid as f64));
    m.insert("args", Value::Object(args));
    Value::Object(m)
}

/// One sample of counter track `name` on process `pid` (`"ph":"C"`).
#[must_use]
pub fn counter(name: &str, ts_us: f64, value: f64, pid: u64) -> Value {
    let mut args = Map::new();
    args.insert("value", Value::from(value));
    let mut m = Map::new();
    m.insert("name", Value::from(name));
    m.insert("ph", Value::from("C"));
    m.insert("ts", Value::from(ts_us));
    m.insert("pid", Value::from(pid as f64));
    m.insert("args", Value::Object(args));
    Value::Object(m)
}

/// A metadata row naming process `pid` in the trace viewer (`"ph":"M"`).
#[must_use]
pub fn process_name(pid: u64, name: &str) -> Value {
    let mut args = Map::new();
    args.insert("name", Value::from(name));
    let mut m = Map::new();
    m.insert("name", Value::from("process_name"));
    m.insert("ph", Value::from("M"));
    m.insert("pid", Value::from(pid as f64));
    m.insert("args", Value::Object(args));
    Value::Object(m)
}
