//! Minimal hand-rolled argument parsing (no external CLI dependency).

use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_nn::models::ModelKind;
use edgenn_sim::{platforms, Platform};

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default)]
pub struct Options {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses raw arguments. `--key value` pairs become flags; `--key`
    /// followed by another flag (or nothing) becomes a boolean flag.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut options = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next(),
                    _ => None,
                };
                options.flags.push((key.to_string(), value));
            } else {
                options.positional.push(arg);
            }
        }
        options
    }

    /// The nth positional argument.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positional.get(n).map(String::as_str)
    }

    /// The value of `--key`, if present with a value.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses `--key`'s value, when the flag carries one.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| format!("--{key}: {e}"));
        self.value(key).map(parse).transpose()
    }

    /// True when `--key` was passed (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    /// Errors on the first `--flag` outside `known`, so a typo fails
    /// loudly instead of silently falling back to a default.
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), String> {
        for (key, _) in &self.flags {
            if !known.contains(&key.as_str()) {
                return Err(format!(
                    "unknown flag '--{key}' (expected one of: {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }
}

/// Resolves a `--model` name.
pub fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "fcnn" => Ok(ModelKind::Fcnn),
        "lenet" => Ok(ModelKind::LeNet),
        "alexnet" => Ok(ModelKind::AlexNet),
        "vgg" | "vgg16" | "vgg-16" => Ok(ModelKind::Vgg16),
        "squeezenet" => Ok(ModelKind::SqueezeNet),
        "resnet" | "resnet18" | "resnet-18" => Ok(ModelKind::ResNet18),
        other => Err(format!(
            "unknown model '{other}' (expected fcnn|lenet|alexnet|vgg|squeezenet|resnet)"
        )),
    }
}

/// Resolves a `--platform` name.
pub fn parse_platform(name: &str) -> Result<Platform, String> {
    match name.to_ascii_lowercase().as_str() {
        "jetson" | "xavier" | "jetson-xavier" | "jetson-agx-xavier" | "agx-xavier" => {
            Ok(platforms::jetson_agx_xavier())
        }
        "rpi" | "raspberry-pi" | "raspberrypi" => Ok(platforms::raspberry_pi_4()),
        "phone" | "dimensity" | "dimensity-8100" => Ok(platforms::dimensity_8100()),
        "server" | "2080ti" | "rtx-2080ti" => Ok(platforms::rtx_2080ti_server()),
        "apu" | "amd" | "amd-apu" => Ok(platforms::amd_embedded_apu()),
        "apple" | "m1" | "apple-m1" => Ok(platforms::apple_silicon_m1()),
        other => Err(format!(
            "unknown platform '{other}' (expected jetson|rpi|phone|server|apu|apple)"
        )),
    }
}

/// Resolves a `--config` name.
pub fn parse_config(name: &str) -> Result<ExecutionConfig, String> {
    match name.to_ascii_lowercase().as_str() {
        "edgenn" => Ok(ExecutionConfig::edgenn()),
        "baseline" | "gpu-only" => Ok(ExecutionConfig::baseline_gpu()),
        "cpu-only" => Ok(ExecutionConfig::cpu_only()),
        "memory-only" | "zero-copy" => Ok(ExecutionConfig::memory_only()),
        "hybrid-only" => Ok(ExecutionConfig::hybrid_only()),
        "inter-only" | "inter-kernel" => Ok(ExecutionConfig::inter_kernel_only()),
        "energy" | "energy-aware" => Ok(ExecutionConfig::edgenn_energy_aware()),
        other => Err(format!(
            "unknown config '{other}' (expected edgenn|baseline|cpu-only|memory-only|\
             hybrid-only|inter-only|energy)"
        )),
    }
}

/// Resolves a `--precision` name.
pub fn parse_precision(name: &str) -> Result<Precision, String> {
    match name.to_ascii_lowercase().as_str() {
        "f32" | "fp32" | "float" => Ok(Precision::F32),
        "int8" | "i8" | "quantized" => Ok(Precision::Int8),
        other => Err(format!("unknown precision '{other}' (expected f32|int8)")),
    }
}

/// Builds the execution config from `--config` (default `edgenn`) with
/// `--precision` applied on top, so every preset has an int8 variant.
pub fn resolve_config(options: &Options) -> Result<ExecutionConfig, String> {
    let mut config = parse_config(options.value("config").unwrap_or("edgenn"))?;
    if let Some(name) = options.value("precision") {
        config.precision = parse_precision(name)?;
    }
    Ok(config)
}

/// [`resolve_config`] for a command that runs on any platform: on a
/// GPU-less one, where hybrid configs cannot plan, the CPU-only preset
/// stands in at the requested precision. Both flags are checked either
/// way.
pub fn resolve_config_on(
    options: &Options,
    platform: &Platform,
) -> Result<ExecutionConfig, String> {
    let requested = resolve_config(options)?;
    if platform.has_gpu() {
        return Ok(requested);
    }
    let mut config = ExecutionConfig::cpu_only();
    config.precision = requested.precision;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn parses_positionals_and_flags() {
        let o = opts(&[
            "simulate", "--model", "alexnet", "--json", "--trace", "t.json",
        ]);
        assert_eq!(o.positional(0), Some("simulate"));
        assert_eq!(o.value("model"), Some("alexnet"));
        assert!(o.has("json"));
        assert!(!o.has("quiet"));
        assert_eq!(o.value("trace"), Some("t.json"));
    }

    #[test]
    fn parsed_values_name_their_flag_on_error() {
        let o = opts(&["--seed", "7", "--runs", "x"]);
        assert_eq!(o.parsed::<u64>("seed"), Ok(Some(7)));
        assert_eq!(o.parsed::<u64>("absent"), Ok(None));
        let err = o.parsed::<usize>("runs").unwrap_err();
        assert!(err.starts_with("--runs: invalid digit"), "{err}");
    }

    #[test]
    fn last_flag_occurrence_wins() {
        let o = opts(&["--model", "lenet", "--model", "vgg"]);
        assert_eq!(o.value("model"), Some("vgg"));
    }

    #[test]
    fn ensure_known_accepts_listed_flags_and_names_strays() {
        let o = opts(&["siege", "--seed", "7", "--json"]);
        assert!(o.ensure_known(&["seed", "json", "out"]).is_ok());
        let err = o.ensure_known(&["seed", "out"]).unwrap_err();
        assert!(err.contains("unknown flag '--json'"), "{err}");
        assert!(err.contains("--seed"), "suggests the allowed set: {err}");
    }

    #[test]
    fn model_names_resolve() {
        assert_eq!(parse_model("AlexNet").unwrap(), ModelKind::AlexNet);
        assert_eq!(parse_model("vgg-16").unwrap(), ModelKind::Vgg16);
        assert_eq!(parse_model("resnet18").unwrap(), ModelKind::ResNet18);
        assert!(parse_model("bert").is_err());
    }

    #[test]
    fn platform_names_resolve() {
        assert!(parse_platform("jetson").unwrap().is_integrated());
        assert_eq!(
            parse_platform("jetson-xavier").unwrap().name,
            parse_platform("jetson").unwrap().name
        );
        assert!(!parse_platform("rpi").unwrap().has_gpu());
        assert!(parse_platform("apple").unwrap().is_integrated());
        assert!(parse_platform("gameboy").is_err());
    }

    #[test]
    fn precision_flag_overlays_any_config() {
        assert_eq!(parse_precision("INT8").unwrap(), Precision::Int8);
        assert_eq!(parse_precision("fp32").unwrap(), Precision::F32);
        assert!(parse_precision("fp16").is_err());
        let o = opts(&["--config", "cpu-only", "--precision", "int8"]);
        let config = resolve_config(&o).unwrap();
        assert_eq!(config.precision, Precision::Int8);
        assert_eq!(
            resolve_config(&opts(&[])).unwrap().precision,
            Precision::F32,
            "precision defaults to f32"
        );
    }

    #[test]
    fn gpu_less_platforms_plan_cpu_only_at_the_requested_precision() {
        use edgenn_core::plan::HybridMode;
        let rpi = parse_platform("rpi").unwrap();
        let config = resolve_config_on(&opts(&["--precision", "int8"]), &rpi).unwrap();
        assert_eq!(config.hybrid, HybridMode::CpuOnly);
        assert_eq!(config.precision, Precision::Int8);
        let err = resolve_config_on(&opts(&["--config", "nonsense"]), &rpi).unwrap_err();
        assert!(err.contains("'nonsense'"), "{err}");
        let jetson = parse_platform("jetson").unwrap();
        let config = resolve_config_on(&opts(&["--config", "baseline"]), &jetson).unwrap();
        assert_eq!(
            config.hybrid,
            HybridMode::GpuOnly,
            "a GPU keeps the request"
        );
    }

    #[test]
    fn config_names_resolve() {
        use edgenn_core::plan::{HybridMode, TuneObjective};
        assert_eq!(
            parse_config("edgenn").unwrap().hybrid,
            HybridMode::InterAndIntra
        );
        assert_eq!(
            parse_config("baseline").unwrap().hybrid,
            HybridMode::GpuOnly
        );
        assert_eq!(
            parse_config("energy").unwrap().objective,
            TuneObjective::Energy
        );
        assert!(parse_config("warp-speed").is_err());
    }
}
