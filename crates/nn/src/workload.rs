//! Analytic per-layer workload model.

/// Static cost profile of one layer execution.
///
/// The EdgeNN simulator turns this into kernel time with a roofline model:
/// compute time from `flops`, memory time from the byte traffic. The
/// semantic memory planner additionally uses the byte fields to size
/// copies/migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Workload {
    /// Floating-point operations (multiply-accumulate counted as 2).
    pub flops: u64,
    /// Bytes of activation input read.
    pub input_bytes: u64,
    /// Bytes of activation output written.
    pub output_bytes: u64,
    /// Bytes of parameters (weights + biases) read.
    pub weight_bytes: u64,
}

impl Workload {
    /// Total bytes moved through memory by the kernel.
    pub fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes + self.weight_bytes
    }

    /// Arithmetic intensity in FLOPs per byte (0 when no bytes move).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Sums two workloads (used when aggregating a chain of layers).
    pub fn merged(&self, other: &Workload) -> Workload {
        Workload {
            flops: self.flops + other.flops,
            input_bytes: self.input_bytes + other.input_bytes,
            output_bytes: self.output_bytes + other.output_bytes,
            weight_bytes: self.weight_bytes + other.weight_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        Workload {
            flops: 1000,
            input_bytes: 100,
            output_bytes: 60,
            weight_bytes: 40,
        }
    }

    #[test]
    fn totals_and_intensity() {
        let w = sample();
        assert_eq!(w.total_bytes(), 200);
        assert!((w.arithmetic_intensity() - 5.0).abs() < 1e-9);
        assert_eq!(Workload::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn merged_adds_fields() {
        let w = sample().merged(&sample());
        assert_eq!(w.flops, 2000);
        assert_eq!(w.total_bytes(), 400);
    }
}
