//! Hostile-oracle fault injection for the BPROM black-box boundary.
//!
//! BPROM's threat model is a *remote* MLaaS classifier queried for
//! confidence vectors — and real endpoints drop requests, rate-limit,
//! quantize probabilities, truncate to top-k, or refuse to return
//! anything but a label. This crate makes that regime reproducible:
//!
//! * **[`FaultyOracle`]** decorates any
//!   [`BlackBoxModel`](bprom_vp::BlackBoxModel) with a seeded, composable
//!   [`FaultPlan`] — [`Transient`] drops, [`RateLimit`] windows,
//!   [`Quantize`]d / [`TopK`]-truncated / [`LabelOnly`] / [`Jitter`]ed
//!   responses, or a [`Stack`] of several.
//! * **[`RetryingOracle`]** absorbs the transient faults with bounded
//!   exponential backoff on a *virtual* clock ([`RetryPolicy`]): no
//!   wall-time is ever slept, but the would-be latency is accounted in
//!   [`bprom_vp::OracleStats`] and telemetry.
//! * **[`AdaptiveOracle`]** models the *adaptive attacker* tier: an
//!   endpoint that runs query-pattern tests (duplicate-rate, batch
//!   cross-row similarity) and answers fabricated-but-consistent
//!   confidences once it suspects it is being probed, tallied as
//!   `evasive_responses` (verdict rule B012).
//! * **Determinism.** Fault draws are keyed on the *content* of each
//!   query (plus a per-content attempt counter), never on arrival order,
//!   so an inspection under fault injection is byte-identical at any
//!   `BPROM_THREADS` setting — the same contract `bprom-par` enforces
//!   for RNG streams. ([`RateLimit`] is the documented exception.)
//!
//! Consumers never deal with faults directly: the plain
//! [`BlackBoxModel::query`](bprom_vp::BlackBoxModel::query) path retries
//! transparently, and a query that exhausts its budget surfaces as the
//! typed [`bprom_vp::VpError::OracleFault`], which CMA-ES candidate
//! evaluation converts into an infinite skip-penalty instead of aborting.
//!
//! # Example
//!
//! ```
//! use bprom_faults::{FaultyOracle, RetryingOracle, RetryPolicy, Stack, Transient, Quantize};
//! use bprom_vp::{BlackBoxModel, QueryOracle};
//! use bprom_nn::models::{mlp, ModelSpec};
//! use bprom_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), bprom_vp::VpError> {
//! let mut rng = Rng::new(0);
//! let oracle = QueryOracle::new(mlp(&ModelSpec::new(3, 8, 5), &mut rng)?, 5);
//! // A hostile endpoint: 20 % request drops, 2-decimal responses.
//! let plan = Stack(vec![
//!     Box::new(Transient { rate: 0.2 }),
//!     Box::new(Quantize { decimals: 2 }),
//! ]);
//! let faulty = FaultyOracle::new(&oracle, plan, 0xBAD);
//! let client = RetryingOracle::new(&faulty, RetryPolicy::default());
//! let batch = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let probs = client.query(&batch)?; // retried transparently
//! assert_eq!(probs.shape(), &[4, 5]);
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod faulty;
mod plan;
mod retry;

pub use adaptive::{AdaptiveConfig, AdaptiveOracle};
pub use faulty::FaultyOracle;
pub use plan::{
    FaultPlan, FaultProfile, Jitter, LabelOnly, Quantize, RateLimit, Stack, TopK, Transient,
};
pub use retry::{RetryPolicy, RetryingOracle};

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::{Rng, Tensor};
    use bprom_vp::{BlackBoxModel, QueryOracle};

    #[test]
    fn env_profile_off_is_passthrough() {
        // BPROM_FAULT_PROFILE is not set inside unit tests (the hostile
        // CI job exercises the other arm end to end); either way the
        // wrapped call must deliver the same confidence matrix.
        let mut rng = Rng::new(0);
        let oracle = QueryOracle::new(mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap(), 5);
        let batch = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let direct = oracle.query(&batch).unwrap();
        let via = FaultProfile::from_env().wrap(&oracle, 42, |o| o.query(&batch).unwrap());
        if FaultProfile::from_env() == FaultProfile::Off {
            assert_eq!(via, direct);
        } else {
            // Hostile: quantized to 3 decimals but still row-normalized
            // to within quantization error.
            assert_eq!(via.shape(), direct.shape());
            for (v, d) in via.data().iter().zip(direct.data()) {
                assert!((v - d).abs() < 1e-3, "{v} vs {d}");
            }
        }
    }
}
