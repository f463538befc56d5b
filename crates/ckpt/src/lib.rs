//! Crash-safe checkpointing for the BPROM pipeline.
//!
//! The expensive BPROM phases — shadow training and CMA-ES prompt
//! learning through the black-box boundary — can take thousands of
//! oracle queries. A preempted or OOM-killed audit must not burn its
//! whole query budget: this crate provides the primitives that make
//! *resume* a correctness property rather than a best-effort hack.
//!
//! Four pieces, all `std`-only:
//!
//! - [`SnapshotStore`] — atomic, versioned, checksummed snapshot files.
//!   Writes go to a temp file, are fsynced, then renamed into place, so
//!   a crash leaves either the old snapshot or the new one, never a
//!   torn hybrid. Truncation and corruption surface as typed
//!   [`CkptError`]s, never panics or silent garbage, and the store
//!   falls back to the previous good snapshot when one exists.
//! - [`Encoder`] / [`Decoder`] — a bit-exact binary codec. Floats are
//!   stored via [`f32::to_bits`], so a restored optimizer or model is
//!   *byte-identical* to the one that was snapshotted.
//! - [`Journal`] — an append-only, fsync-per-entry stage journal with
//!   per-entry checksums. A torn tail (the crash interrupted an append)
//!   is detected and dropped; corruption anywhere else is a typed
//!   error.
//! - [`crash_point`] — deterministic crash injection. With
//!   `BPROM_CRASH_AFTER=n` in the environment the process exits with
//!   [`CRASH_EXIT_CODE`] at the `n`-th checkpoint boundary, which lets
//!   CI sweep every kill point exhaustively and assert byte-identical
//!   resume.
//!
//! The determinism contract this enables (see `bprom`'s `fit_ckpt`):
//! a pipeline killed at *any* checkpoint boundary and resumed produces
//! a byte-identical `DetectionReport` to an uninterrupted run, at any
//! `BPROM_THREADS`, including under a hostile `FaultyOracle` stack.

mod codec;
mod crash;
mod error;
mod journal;
mod store;

pub use codec::{Decoder, Encoder};
pub use crash::{crash_point, crossings, reset_crossings, set_crash_after, CRASH_EXIT_CODE};
pub use error::CkptError;
pub use journal::Journal;
pub use store::SnapshotStore;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CkptError>;

/// The FNV-1a 64-bit hash used for snapshot and journal checksums (and
/// run fingerprints). Not cryptographic — it guards against truncation
/// and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
