//! Fault plans: the composable "what can go wrong" vocabulary of a
//! hostile oracle.
//!
//! A [`FaultPlan`] makes two decisions per query attempt, both driven by
//! a deterministic per-attempt [`Rng`] handed in by [`FaultyOracle`]:
//! whether to *admit* the request at all ([`FaultPlan::admit`] — a
//! rejection is a retryable [`QueryFault`]), and how to *degrade* the
//! delivered confidence matrix ([`FaultPlan::degrade`] — quantization,
//! top-k truncation, label-only responses, jitter).
//!
//! [`FaultyOracle`]: crate::FaultyOracle

use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, QueryFault};
use std::sync::atomic::{AtomicU64, Ordering};

/// One layer of hostile-endpoint behaviour.
///
/// Implementations must be deterministic in the supplied `rng` (drawn
/// from the plan seed, the query *content*, and the attempt number — see
/// [`crate::FaultyOracle`]); the only sanctioned exception is
/// [`RateLimit`], whose window budget is inherently arrival-ordered.
pub trait FaultPlan: Send + Sync {
    /// Short stable identifier (used in telemetry and reports).
    fn name(&self) -> &'static str;

    /// Admission decision for one query attempt. `Some(fault)` drops the
    /// request before it reaches the model.
    fn admit(&self, rng: &mut Rng) -> Option<QueryFault> {
        let _ = rng;
        None
    }

    /// Degrades a delivered `[n, k]` confidence matrix in place.
    /// Returns `true` if the response was changed.
    fn degrade(&self, rng: &mut Rng, probs: &mut Tensor) -> bool {
        let _ = (rng, probs);
        false
    }
}

/// Drops each query attempt independently with probability `rate`
/// (network transients, server hiccups). The dropped request succeeds on
/// retry with the same independence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transient {
    /// Per-attempt drop probability in `[0, 1)`.
    pub rate: f32,
}

impl FaultPlan for Transient {
    fn name(&self) -> &'static str {
        "transient"
    }

    fn admit(&self, rng: &mut Rng) -> Option<QueryFault> {
        (rng.uniform() < self.rate).then_some(QueryFault::Dropped)
    }
}

/// Token-bucket rate limiting: every window of `budget_per_window`
/// admitted requests is followed by one rejected request, after which the
/// window resets (the retried request lands in the fresh window).
///
/// The budget is consumed in *arrival order* — the one plan whose
/// decisions depend on scheduling rather than on query content, exactly
/// like a real endpoint's limiter. Exclude it from cross-thread
/// determinism tests (see DESIGN.md §5d).
#[derive(Debug)]
pub struct RateLimit {
    /// Requests admitted per window before one is rejected.
    pub budget_per_window: u64,
    arrivals: AtomicU64,
}

impl RateLimit {
    /// A limiter admitting `budget_per_window` requests per window.
    pub fn new(budget_per_window: u64) -> Self {
        RateLimit {
            budget_per_window: budget_per_window.max(1),
            arrivals: AtomicU64::new(0),
        }
    }
}

impl FaultPlan for RateLimit {
    fn name(&self) -> &'static str {
        "rate_limit"
    }

    fn admit(&self, _rng: &mut Rng) -> Option<QueryFault> {
        let seq = self.arrivals.fetch_add(1, Ordering::Relaxed);
        // Positions budget, 2*(budget+1)-1, ... of the arrival sequence
        // are rejected: `budget` admits, one reject, window resets.
        (seq % (self.budget_per_window + 1) == self.budget_per_window)
            .then_some(QueryFault::RateLimited)
    }
}

/// Rounds every probability to `decimals` decimal places — the precision
/// a JSON-serializing MLaaS API typically returns. Rows are *not*
/// renormalized: the consumer sees exactly what the wire carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantize {
    /// Decimal places kept (0 collapses everything to 0/1).
    pub decimals: u32,
}

impl FaultPlan for Quantize {
    fn name(&self) -> &'static str {
        "quantize"
    }

    fn degrade(&self, _rng: &mut Rng, probs: &mut Tensor) -> bool {
        let scale = 10f32.powi(self.decimals as i32);
        for p in probs.data_mut() {
            // `+ 0.0` collapses IEEE `-0.0` (which `round` preserves) to
            // `+0.0`: consumers hash response *bits* (qcache digests,
            // regime feature extraction), so the sign of zero must never
            // depend on the upstream rounding path.
            *p = (*p * scale).round() / scale + 0.0;
        }
        true
    }
}

/// Keeps only each row's `k` largest probabilities and zeroes the rest
/// (APIs that return top-k scores). Ties break toward the lower class
/// index, so the truncation is content-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopK {
    /// Classes kept per row.
    pub k: usize,
}

impl FaultPlan for TopK {
    fn name(&self) -> &'static str {
        "top_k"
    }

    fn degrade(&self, _rng: &mut Rng, probs: &mut Tensor) -> bool {
        let k_classes = probs.shape()[1];
        if self.k >= k_classes {
            return false;
        }
        let rows = probs.shape()[0];
        let data = probs.data_mut();
        for row in 0..rows {
            let slice = &mut data[row * k_classes..(row + 1) * k_classes];
            let mut order: Vec<usize> = (0..k_classes).collect();
            // Stable sort by descending probability: equal values keep
            // index order, making the kept set content-deterministic.
            order.sort_by(|&a, &b| slice[b].total_cmp(&slice[a]));
            for &c in &order[self.k..] {
                slice[c] = 0.0;
            }
        }
        true
    }
}

/// The label-only regime (AEVA's threat model): the response collapses
/// to a one-hot vector at the argmax class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelOnly;

impl FaultPlan for LabelOnly {
    fn name(&self) -> &'static str {
        "label_only"
    }

    fn degrade(&self, _rng: &mut Rng, probs: &mut Tensor) -> bool {
        let k = probs.shape()[1];
        let rows = probs.shape()[0];
        let data = probs.data_mut();
        for row in 0..rows {
            let slice = &mut data[row * k..(row + 1) * k];
            let mut best = 0usize;
            for c in 1..k {
                if slice[c] > slice[best] {
                    best = c;
                }
            }
            slice.fill(0.0);
            slice[best] = 1.0;
        }
        true
    }
}

/// Adds zero-mean Gaussian noise (`sigma`) to every probability, clamps
/// at zero and renormalizes each row — a model serving nondeterministic
/// hardware or an endpoint deliberately fuzzing its confidences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Noise standard deviation.
    pub sigma: f32,
}

impl FaultPlan for Jitter {
    fn name(&self) -> &'static str {
        "jitter"
    }

    fn degrade(&self, rng: &mut Rng, probs: &mut Tensor) -> bool {
        let k = probs.shape()[1];
        let rows = probs.shape()[0];
        let data = probs.data_mut();
        for row in 0..rows {
            let slice = &mut data[row * k..(row + 1) * k];
            let mut sum = 0.0f32;
            for p in slice.iter_mut() {
                *p = (*p + rng.normal() * self.sigma).max(0.0);
                sum += *p;
            }
            if sum > 0.0 {
                for p in slice.iter_mut() {
                    *p /= sum;
                }
            } else {
                slice.fill(1.0 / k as f32);
            }
        }
        true
    }
}

/// Composition of fault plans: admission short-circuits on the first
/// rejecting layer, degradations apply in order (e.g. jitter, then
/// quantize — the wire format is the outermost mangling).
pub struct Stack(pub Vec<Box<dyn FaultPlan>>);

impl Stack {
    /// An empty (fault-free, pass-through) stack.
    pub fn passthrough() -> Self {
        Stack(Vec::new())
    }
}

impl FaultPlan for Stack {
    fn name(&self) -> &'static str {
        "stack"
    }

    fn admit(&self, rng: &mut Rng) -> Option<QueryFault> {
        self.0.iter().find_map(|plan| plan.admit(rng))
    }

    fn degrade(&self, rng: &mut Rng, probs: &mut Tensor) -> bool {
        let mut changed = false;
        for plan in &self.0 {
            changed |= plan.degrade(rng, probs);
        }
        changed
    }
}

/// Env-selected default plan for test suites and CI (`BPROM_FAULT_PROFILE`).
///
/// `hostile` wraps every profile-honoring oracle in a realistically
/// unpleasant endpoint: 10 % transient drops plus 3-decimal quantization.
/// Anything else (or unset) is a pass-through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults: profile-honoring helpers behave as if unwrapped.
    Off,
    /// Transient drops (10 %) + 3-decimal quantization, with retries.
    Hostile,
}

impl FaultProfile {
    /// Reads `BPROM_FAULT_PROFILE` (`"hostile"` selects
    /// [`FaultProfile::Hostile`]; everything else is [`FaultProfile::Off`]).
    pub fn from_env() -> Self {
        match std::env::var("BPROM_FAULT_PROFILE") {
            Ok(v) if v.eq_ignore_ascii_case("hostile") => FaultProfile::Hostile,
            _ => FaultProfile::Off,
        }
    }

    /// The profile's fault plan ([`Stack::passthrough`] when off).
    pub fn plan(&self) -> Stack {
        match self {
            FaultProfile::Off => Stack::passthrough(),
            FaultProfile::Hostile => Stack(vec![
                Box::new(Transient { rate: 0.10 }),
                Box::new(Quantize { decimals: 3 }),
            ]),
        }
    }

    /// The retry policy paired with this profile.
    pub fn retry_policy(&self) -> crate::RetryPolicy {
        crate::RetryPolicy::default()
    }

    /// Runs `f` against `oracle` wrapped in this profile: under
    /// [`FaultProfile::Hostile`] the oracle goes behind the profile's
    /// fault plan (seeded with `seed`) and retry policy; under
    /// [`FaultProfile::Off`] `f` sees it untouched. With
    /// [`FaultProfile::from_env`] this is the hook that lets a whole test
    /// suite run against hostile oracles in CI.
    pub fn wrap<R>(
        self,
        oracle: &dyn BlackBoxModel,
        seed: u64,
        f: impl FnOnce(&dyn BlackBoxModel) -> R,
    ) -> R {
        match self {
            FaultProfile::Off => f(oracle),
            FaultProfile::Hostile => {
                let faulty = crate::FaultyOracle::new(oracle, self.plan(), seed);
                let retrying = crate::RetryingOracle::new(&faulty, self.retry_policy());
                f(&retrying)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_matrix(rows: &[&[f32]]) -> Tensor {
        let k = rows[0].len();
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(data, &[rows.len(), k]).unwrap()
    }

    #[test]
    fn transient_rate_bounds() {
        let mut rng = Rng::new(0);
        let always = Transient { rate: 1.0 };
        let never = Transient { rate: 0.0 };
        for _ in 0..100 {
            assert_eq!(always.admit(&mut rng), Some(QueryFault::Dropped));
            assert_eq!(never.admit(&mut rng), None);
        }
    }

    #[test]
    fn rate_limit_rejects_every_window_boundary() {
        let plan = RateLimit::new(3);
        let mut rng = Rng::new(0);
        let outcomes: Vec<bool> = (0..12).map(|_| plan.admit(&mut rng).is_some()).collect();
        // 3 admits, 1 reject, repeating.
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn quantize_rounds_to_decimals() {
        let mut probs = row_matrix(&[&[0.12345, 0.87655], &[0.5004, 0.4996]]);
        let mut rng = Rng::new(0);
        assert!(Quantize { decimals: 2 }.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.12, 0.88, 0.5, 0.5]);
    }

    #[test]
    fn quantize_zero_decimals_collapses_to_indicator() {
        // `decimals: 0` is the documented degenerate regime: every
        // probability rounds to exactly 0.0 or 1.0 (half away from zero).
        let mut probs = row_matrix(&[&[0.49, 0.51], &[0.5, 0.499999]]);
        let mut rng = Rng::new(0);
        assert!(Quantize { decimals: 0 }.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.0, 1.0, 1.0, 0.0]);
        for &p in probs.data() {
            assert!(p == 0.0 || p == 1.0);
        }
    }

    #[test]
    fn quantize_normalizes_negative_zero() {
        // `-0.0` inputs (and small values rounding down to zero) must
        // leave with a clear sign bit: downstream consumers digest the
        // raw f32 bits of responses.
        let mut probs = row_matrix(&[&[-0.0, 0.0004, 0.9996]]);
        let mut rng = Rng::new(0);
        assert!(Quantize { decimals: 3 }.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.0, 0.0, 1.0]);
        for &p in probs.data() {
            assert_eq!(p.to_bits() & 0x8000_0000, 0, "sign bit must be clear");
        }
    }

    #[test]
    fn top_k_keeps_largest_and_breaks_ties_low() {
        let mut probs = row_matrix(&[&[0.1, 0.4, 0.2, 0.3], &[0.25, 0.25, 0.25, 0.25]]);
        let mut rng = Rng::new(0);
        assert!(TopK { k: 2 }.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.0, 0.4, 0.0, 0.3, 0.25, 0.25, 0.0, 0.0]);
        // k >= classes is a no-op.
        let mut probs = row_matrix(&[&[0.6, 0.4]]);
        assert!(!TopK { k: 5 }.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.6, 0.4]);
    }

    #[test]
    fn label_only_is_one_hot_at_argmax() {
        let mut probs = row_matrix(&[&[0.1, 0.7, 0.2], &[0.5, 0.1, 0.4]]);
        let mut rng = Rng::new(0);
        assert!(LabelOnly.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn jitter_keeps_rows_normalized_and_nonnegative() {
        let mut probs = row_matrix(&[&[0.2, 0.3, 0.5], &[0.9, 0.05, 0.05]]);
        let mut rng = Rng::new(7);
        assert!(Jitter { sigma: 0.1 }.degrade(&mut rng, &mut probs));
        for row in 0..2 {
            let slice = &probs.data()[row * 3..(row + 1) * 3];
            assert!(slice.iter().all(|&p| p >= 0.0));
            let sum: f32 = slice.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {row} sums to {sum}");
        }
    }

    #[test]
    fn stack_composes_admission_and_degradation() {
        let stack = Stack(vec![
            Box::new(Transient { rate: 0.0 }),
            Box::new(Quantize { decimals: 1 }),
            Box::new(TopK { k: 1 }),
        ]);
        let mut rng = Rng::new(0);
        assert_eq!(stack.admit(&mut rng), None);
        let mut probs = row_matrix(&[&[0.61, 0.29, 0.1]]);
        assert!(stack.degrade(&mut rng, &mut probs));
        assert_eq!(probs.data(), &[0.6, 0.0, 0.0]);
        // A rejecting layer short-circuits admission.
        let stack = Stack(vec![
            Box::new(Transient { rate: 1.0 }),
            Box::new(Transient { rate: 0.0 }),
        ]);
        assert_eq!(stack.admit(&mut rng), Some(QueryFault::Dropped));
    }

    #[test]
    fn profile_resolution() {
        // Not set in the test environment unless CI exported it; both
        // arms must at least produce a usable plan.
        let profile = FaultProfile::from_env();
        let _ = profile.plan();
        assert_eq!(FaultProfile::Off.plan().0.len(), 0);
        assert_eq!(FaultProfile::Hostile.plan().0.len(), 2);
    }
}
