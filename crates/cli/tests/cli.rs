//! End-to-end tests of the `edgenn` binary.

use std::process::Command;

fn edgenn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_edgenn"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn models_lists_all_six_benchmarks() {
    let out = edgenn(&["models"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["FCNN", "LeNet", "AlexNet", "VGG", "SqueezeNet", "ResNet"] {
        assert!(text.contains(name), "missing {name}:\n{text}");
    }
    assert!(
        text.contains("fork-join"),
        "SqueezeNet/ResNet structure shown"
    );
}

#[test]
fn platforms_lists_integrated_and_discrete() {
    let out = edgenn(&["platforms"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Jetson AGX Xavier"));
    assert!(text.contains("integrated"));
    assert!(text.contains("discrete"));
    assert!(text.contains("cpu-only"));
}

#[test]
fn simulate_json_is_machine_readable() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "lenet",
        "--platform",
        "jetson",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(report["total_us"].as_f64().unwrap() > 0.0);
    assert_eq!(report["model"], "LeNet");
    assert_eq!(report["platform"], "Jetson AGX Xavier");
}

#[test]
fn simulate_human_output_has_breakdown_and_layers() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "alexnet",
        "--platform",
        "jetson",
        "--layers",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("latency"));
    assert!(text.contains("breakdown"));
    assert!(text.contains("conv1"));
    assert!(text.contains("fc8"));
}

#[test]
fn plan_dump_parses_and_validates() {
    let out = edgenn(&["plan", "--model", "squeezenet", "--platform", "jetson"]);
    assert!(out.status.success());
    let plan: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The plan covers the *compiled* graph: raw SqueezeNet has 67 nodes,
    // and the compiler (fusion + identity elimination + slice
    // cancellation) must remove a substantial fraction of them.
    let nodes = plan["nodes"].as_array().unwrap().len();
    assert!(
        (30..60).contains(&nodes),
        "compiled SqueezeNet should plan 30..60 nodes, got {nodes}"
    );
}

#[test]
fn trace_flag_writes_a_chrome_trace() {
    let path = std::env::temp_dir().join("edgenn_cli_test_trace.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "simulate",
        "--model",
        "lenet",
        "--platform",
        "jetson",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(!trace.as_array().unwrap().is_empty());
    let _ = std::fs::remove_file(&path);
}

/// Runs `simulate --model lenet --platform jetson` with `extra` flags and
/// both exports, returning the metrics snapshot and the Chrome trace.
fn simulate_with_exports(tag: &str, extra: &[&str]) -> (serde_json::Value, serde_json::Value) {
    let dir = std::env::temp_dir();
    let metrics = dir.join(format!("edgenn_cli_test_{tag}_metrics.json"));
    let trace = dir.join(format!("edgenn_cli_test_{tag}_trace.json"));
    let mut args = vec!["simulate", "--model", "lenet", "--platform", "jetson"];
    args.extend_from_slice(extra);
    args.extend([
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let out = edgenn(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |path: &std::path::Path| -> serde_json::Value {
        let json = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
        json
    };
    (read(&metrics), read(&trace))
}

#[test]
fn metrics_out_snapshots_the_labelled_counters_and_trace_tracks() {
    let plain = [
        "edgenn_compiler_bytes_prepacked_total",
        "edgenn_compiler_nodes_eliminated_total",
        "edgenn_compiler_passes_applied_total",
        "edgenn_copy_bytes_total",
        "edgenn_copy_total",
        "edgenn_copy_us_total",
        "edgenn_kernel_total",
        "edgenn_kernel_us_total",
        "edgenn_migration_bytes_total",
        "edgenn_migration_total",
        "edgenn_migration_us_total",
        "edgenn_plan_events_total",
        "edgenn_requests_total",
        "edgenn_stall_total",
        "edgenn_stall_us_total",
    ];
    let faulted = [
        "edgenn_compiler_bytes_prepacked_total",
        "edgenn_compiler_nodes_eliminated_total",
        "edgenn_compiler_passes_applied_total",
        "edgenn_copy_bytes_total",
        "edgenn_copy_total",
        "edgenn_copy_us_total",
        "edgenn_fallbacks_total",
        "edgenn_faults_injected_total",
        "edgenn_kernel_total",
        "edgenn_kernel_us_total",
        "edgenn_migration_bytes_total",
        "edgenn_migration_total",
        "edgenn_migration_us_total",
        "edgenn_plan_events_total",
        "edgenn_requests_total",
        "edgenn_retries_total",
    ];
    for (tag, extra, counters) in [
        ("plain", &[][..], &plain[..]),
        ("faults", &["--faults", "11"][..], &faulted[..]),
    ] {
        let (metrics, trace) = simulate_with_exports(tag, extra);
        let labels = &metrics["labels"];
        assert_eq!(labels["model"], "LeNet", "{tag}");
        assert_eq!(labels["platform"], "Jetson AGX Xavier", "{tag}");
        assert_eq!(labels["policy"], "edgenn", "{tag}");
        let series = |kind: &str| metrics[kind].as_array().unwrap().clone();
        let mut names = Vec::new();
        for kind in ["counters", "gauges", "histograms"] {
            for entry in series(kind) {
                assert_eq!(&entry["labels"], labels, "{tag}: {entry:?}");
                let name = entry["name"].as_str().unwrap();
                assert!(
                    is_prometheus_name(name),
                    "{tag}: {kind} name {name:?} is not a Prometheus metric name"
                );
                if kind == "counters" {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        assert_eq!(names, counters, "{tag}: counter names");
        let counter = |name: &str| {
            series("counters")
                .into_iter()
                .find(|c| c["name"] == name)
                .and_then(|c| c["value"].as_f64())
        };
        let latency = series("histograms")
            .into_iter()
            .find(|h| h["name"] == "edgenn_request_latency_us")
            .expect("a latency histogram");
        assert_eq!(
            counter("edgenn_requests_total"),
            latency["count"].as_f64(),
            "{tag}: one latency observation per request"
        );
        let tracks: Vec<&str> = trace
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == "C")
            .filter_map(|e| e["name"].as_str())
            .collect();
        for prefix in ["ema_cpu_us/", "ema_gpu_us/"] {
            assert!(
                tracks.iter().any(|t| t.starts_with(prefix)),
                "{tag}: no {prefix}* counter track in {tracks:?}"
            );
        }
        for name in ["bandwidth_gbps", "managed_pages_outstanding"] {
            assert!(tracks.contains(&name), "{tag}: no {name} counter track");
        }
        // Each sampled (tuner) track sets a gauge of its own.
        let sampled: std::collections::BTreeSet<&str> = tracks
            .iter()
            .copied()
            .filter(|t| t.starts_with("ema_"))
            .collect();
        let track_gauges = series("gauges")
            .iter()
            .filter(|g| g["name"].as_str().unwrap().starts_with("edgenn_track_"))
            .count();
        assert_eq!(
            track_gauges,
            sampled.len(),
            "{tag}: two tracks share a gauge"
        );
    }
}

/// Whether `name` matches Prometheus's `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_prometheus_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[test]
fn compare_reports_all_configs() {
    let out = edgenn(&["compare", "--model", "fcnn", "--platform", "jetson"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for config in [
        "baseline",
        "memory-only",
        "hybrid-only",
        "edgenn",
        "cpu-only",
    ] {
        assert!(text.contains(config), "missing {config}:\n{text}");
    }
}

#[test]
fn cpu_only_platform_skips_gpu_configs() {
    let out = edgenn(&["compare", "--model", "lenet", "--platform", "rpi"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cpu-only"));
    assert!(
        !text.contains("edgenn (energy-aware)"),
        "no GPU configs on the RPi"
    );
}

#[test]
fn bad_inputs_fail_with_useful_messages() {
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "--platform", "jetson"], "--model is required"),
        (
            &["simulate", "--model", "bert", "--platform", "jetson"],
            "unknown model",
        ),
        (
            &["simulate", "--model", "lenet", "--platform", "ps5"],
            "unknown platform",
        ),
        (
            &[
                "simulate",
                "--model",
                "lenet",
                "--platform",
                "jetson",
                "--config",
                "x",
            ],
            "unknown config",
        ),
        (&["frobnicate"], "unknown command"),
        (&[], "USAGE"),
    ];
    for (args, needle) in cases {
        let out = edgenn(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(
            text.contains(needle),
            "{args:?}: expected '{needle}' in:\n{text}"
        );
    }
}

#[test]
fn siege_gates_clean_and_archives_checked_json() {
    let path = std::env::temp_dir().join("edgenn_cli_test_siege.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "siege",
        "--seed",
        "42",
        "--duration-us",
        "20000",
        "--out",
        path.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["seed"].as_f64(), Some(42.0));
    assert!((report["survival"].as_f64().unwrap() - 1.0).abs() < 1e-12);
    assert_eq!(report["lost"].as_f64(), Some(0.0));
    assert_eq!(report["checker"]["clean"].as_bool(), Some(true));
    assert!(
        !report["events"].as_array().unwrap().is_empty(),
        "the full admission log rides on the archived report"
    );
    let archived: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(archived["survival"], report["survival"]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_runs_realtime_and_check_replays_the_log() {
    let out = edgenn(&[
        "serve",
        "--seed",
        "42",
        "--duration-ms",
        "250",
        "--check",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!((report["survival"].as_f64().unwrap() - 1.0).abs() < 1e-12);
    assert_eq!(report["checker"]["clean"].as_bool(), Some(true));
}

#[test]
fn serve_and_siege_reject_unknown_flags_like_every_command() {
    for command in ["serve", "siege", "storm"] {
        let out = edgenn(&[command, "--frobnicate", "7"]);
        assert!(!out.status.success(), "{command} accepted a stray flag");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(
            text.contains("unknown flag '--frobnicate'"),
            "{command}: {text}"
        );
        assert!(text.contains("--seed"), "{command} suggests its flags");
    }
}

/// The gate commands run with every flag USAGE and ci.sh give them, and
/// exit 1 naming a misspelt one instead of running without it.
fn takes_its_flags_and_rejects_a_misspelt_one(runs: &[&[&str]]) {
    for args in runs {
        let out = edgenn(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
    let mut misspelt = runs[0].to_vec();
    misspelt.extend(["--precison", "int8"]);
    let out = edgenn(&misspelt);
    assert_eq!(out.status.code(), Some(1), "{misspelt:?} ran");
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(
        text.contains("unknown flag '--precison'"),
        "{misspelt:?}: {text}"
    );
}

#[test]
fn compile_takes_its_flags_and_rejects_a_misspelt_one() {
    let dir = std::env::temp_dir().join(format!("edgenn-cli-compile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("lenet.json");
    let base = ["compile", "--model", "lenet", "--platform", "jetson"];
    takes_its_flags_and_rejects_a_misspelt_one(&[
        &[&base[..], &["--config", "edgenn", "--json"]].concat(),
        &[
            &base[..],
            &["--scale", "tiny", "--precision", "int8", "--dump"],
            &["--out", out.to_str().unwrap(), "--prepack"],
        ]
        .concat(),
        &[
            &base[..],
            &["--scale", "tiny", "--no-prepack", "--no-compile"],
        ]
        .concat(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_takes_its_flags_and_rejects_a_misspelt_one() {
    let base = ["check", "--model", "lenet", "--platform", "jetson"];
    takes_its_flags_and_rejects_a_misspelt_one(&[
        &[&base[..], &["--config", "edgenn", "--json"]].concat(),
        &[
            &base[..],
            &["--scale", "tiny", "--precision", "int8", "--lenient"],
        ]
        .concat(),
        &[&base[..], &["--scale", "tiny", "--no-compile"]].concat(),
        &[&base[..], &["--scale", "tiny", "--prepack"]].concat(),
        &[&base[..], &["--scale", "tiny", "--no-prepack"]].concat(),
    ]);
}

#[test]
fn analyze_takes_its_flags_and_rejects_a_misspelt_one() {
    let base = ["analyze", "--model", "lenet", "--platform", "jetson"];
    takes_its_flags_and_rejects_a_misspelt_one(&[
        &[
            &base[..],
            &["--config", "edgenn", "--precision", "int8"],
            &["--scale", "tiny", "--functional", "--json"],
        ]
        .concat(),
        &[&base[..], &["--scale", "tiny", "--no-compile"]].concat(),
        &[&base[..], &["--scale", "tiny", "--prepack"]].concat(),
        &[&base[..], &["--scale", "tiny", "--no-prepack"]].concat(),
    ]);
}

#[test]
fn profile_takes_its_flags_and_rejects_a_misspelt_one() {
    let dir = std::env::temp_dir().join(format!("edgenn-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("lenet.json");
    let base = ["profile", "lenet", "--platform", "jetson", "--runs", "1"];
    takes_its_flags_and_rejects_a_misspelt_one(&[
        &[&base[..], &["--perfetto", trace.to_str().unwrap()]].concat(),
        &[
            &base[..],
            &[
                "--model",
                "lenet",
                "--config",
                "edgenn",
                "--precision",
                "int8",
            ],
            &["--scale", "tiny", "--json", "--no-compile"],
        ]
        .concat(),
        &[&base[..], &["--prepack"]].concat(),
        &[&base[..], &["--no-prepack"]].concat(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn storm_surfaces_the_seed_of_a_forced_failure_and_replays_it() {
    // The forced failure exercises the seed-archiving path end to end:
    // round 1 of base seed 7 is seed 8, which must land in
    // failed_seeds and in the non-zero-exit failure message.
    let out = edgenn(&[
        "storm",
        "--model",
        "fcnn",
        "--platform",
        "apu",
        "--seed",
        "7",
        "--runs",
        "3",
        "--inject-failure",
        "1",
        "--json",
    ]);
    assert!(!out.status.success(), "a forced failure fails the gate");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("seed 8"),
        "failure names its seed: {stderr}"
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let seeds = report["models"][0]["failed_seeds"].as_array().unwrap();
    assert_eq!(seeds.len(), 1);
    assert_eq!(seeds[0].as_f64(), Some(8.0));

    // The archived seed replays verbosely (and, not being a real
    // failure, survives).
    let out = edgenn(&[
        "storm",
        "--model",
        "fcnn",
        "--platform",
        "apu",
        "--seed",
        "7",
        "--replay-seed",
        "8",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("storm replay: seed 8"), "{text}");
    assert!(text.contains("fault(s)"), "recovery detail printed: {text}");
}

#[test]
fn storm_checks_config_and_precision_on_a_gpu_less_platform() {
    for (extra, bad) in [
        ("--precision bogus --config nonsense", "'nonsense'"),
        ("--precision bogus", "'bogus'"),
    ] {
        let args = format!("storm --platform rpi --model lenet --runs 2 {extra}");
        let out = edgenn(&args.split(' ').collect::<Vec<_>>());
        assert!(!out.status.success(), "{args} was accepted");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains(bad), "{args}: expected {bad} in:\n{text}");
    }
}

#[test]
fn inspect_prints_per_layer_table() {
    let out = edgenn(&["inspect", "--model", "vgg"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("conv1_1"));
    assert!(text.contains("fc8"));
    assert!(text.contains("pure chain"));
    let out = edgenn(&["inspect", "--model", "resnet"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fork-join"));
}

#[test]
fn tiny_scale_simulates_quickly() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "resnet",
        "--platform",
        "apple",
        "--scale",
        "tiny",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Apple Silicon"));
}

#[test]
fn profile_emits_a_checked_merged_perfetto_trace() {
    let path = std::env::temp_dir().join("edgenn_cli_test_profile.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "profile",
        "squeezenet",
        "--platform",
        "apu",
        "--runs",
        "2",
        "--perfetto",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("flight check : clean"), "{text}");
    assert!(text.contains("compute"), "stage table present:\n{text}");
    assert!(text.contains("predicted us"), "per-node table present");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let entries = trace.as_array().unwrap();
    let simulated = entries
        .iter()
        .filter(|e| e["pid"] == 1.0 && e["ph"] == "X")
        .count();
    let measured = entries
        .iter()
        .filter(|e| e["pid"] == 3.0 && e["ph"] == "X")
        .count();
    assert!(simulated > 0, "simulated timeline rides on pid 1");
    assert!(measured > 0, "measured flight recording rides on pid 3");
    assert!(
        entries
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "measured (flight recorder)"),
        "process rows are labelled"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profile_json_carries_stages_and_per_node_attribution() {
    let out = edgenn(&[
        "profile",
        "lenet",
        "--platform",
        "jetson",
        "--runs",
        "1",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(profile["flight_check"], "clean");
    assert!(profile["wall_us"].as_f64().unwrap() > 0.0);
    let stages = profile["profile"]["stages"].as_array().unwrap();
    assert!(stages.iter().any(|s| s["stage"] == "request"));
    assert!(stages.iter().any(|s| s["stage"] == "node"));
    let nodes = profile["nodes"].as_array().unwrap();
    assert!(!nodes.is_empty());
    assert!(
        nodes
            .iter()
            .any(|n| n["predicted_us"].as_f64().unwrap_or(0.0) > 0.0),
        "nodes carry the analytic prediction next to the measurement"
    );
}
