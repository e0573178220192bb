//! Output verification and the `error_ratio` tally.
//!
//! Engine outputs are compared against the uncompiled model's reference
//! `Graph::forward` by maximum absolute difference: f32 plans within
//! [`F32_TOL`], int8 plans within [`INT8_TOL`] (the bound the core
//! crate's int8 property tests use).

use edgenn_tensor::Tensor;

/// Tolerance for f32 engine outputs against the f32 reference.
pub const F32_TOL: f32 = 1e-4;
/// Tolerance for int8 engine outputs against the f32 reference.
pub const INT8_TOL: f32 = 0.05;

/// Operations attempted and failed in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (an inference, or a request offered to a
    /// server).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong
    /// output.
    pub failed: u64,
    /// The subset of `failed` whose output was wrong or lost: these make
    /// the run incorrect, where a refusal only makes it fail.
    pub wrong: u64,
}

impl Tally {
    /// Counts one inference whose output is checked against `reference`
    /// within `tol`. Returns whether it passed.
    pub fn check(&mut self, output: &Tensor, reference: &Tensor, tol: f32) -> bool {
        self.attempted += 1;
        let ok = output.approx_eq(reference, tol);
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
        ok
    }

    /// Counts one inference that errored instead of returning.
    pub fn errored(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
    }

    /// Failed operations over attempted ones (0 when none attempted).
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when no output was wrong or lost.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Inferences whose output verified.
    #[must_use]
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }
}
