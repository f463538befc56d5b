//! Crash-safe resume for the BPROM pipeline.
//!
//! The resume model is **deterministic replay + artifact skip**. A
//! checkpointed run records, per completed unit of work (one shadow
//! model, one prompt, one zoo model, the meta forest, one verdict):
//!
//! 1. an **artifact snapshot** holding the unit's outputs plus — for
//!    units that consume the caller's RNG stream directly — the RNG
//!    state at completion, written atomically to the [`SnapshotStore`];
//! 2. a **journal entry** (`stages.journal`) appended *after* the
//!    artifact is durable, marking the unit done.
//!
//! On resume, the caller re-runs the *same seeded program*. Cheap
//! deterministic work (dataset generation, splits, RNG forks, probe
//! sampling) is recomputed identically; when execution reaches a unit
//! whose journal entry exists, the unit's artifact is loaded instead of
//! re-doing the work, and any recorded RNG state is restored so the
//! stream continues exactly where the uninterrupted run would be. A
//! crash *between* artifact write and journal append merely re-runs the
//! unit, which overwrites the artifact with identical bytes.
//!
//! Every unit goes through `journaled`, the one place that owns this
//! protocol.
//!
//! The journal and store live in one directory (the path passed to
//! [`Checkpointer::open`]); a `manifest` snapshot fingerprints the run
//! (config + seed) so a stale directory from a different run is rejected
//! instead of silently splicing mismatched state.

use crate::{BpromError, Result};
use bprom_ckpt::{crash_point, Encoder, Journal, SnapshotStore};
use bprom_nn::Sequential;
use bprom_tensor::{Rng, Tensor};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use bprom_ckpt::Decoder;

/// Coordinates the stage journal and artifact snapshots of one
/// checkpointed pipeline run.
///
/// Thread-safe: the journal and done-set sit behind mutexes so
/// data-parallel stages (shadow training, shadow prompting) can mark
/// units done from worker threads. The [`SnapshotStore`] is already
/// `&self` and atomic per save.
#[derive(Debug)]
pub struct Checkpointer {
    store: SnapshotStore,
    journal: Mutex<Journal>,
    done: Mutex<HashSet<String>>,
}

impl Checkpointer {
    /// Opens (or creates) a checkpoint directory: the snapshot store
    /// plus the `stages.journal` of completed units.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] if the directory cannot be created,
    /// the journal holds corrupt (non-torn-tail) entries, or an entry
    /// is not valid UTF-8.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let store = SnapshotStore::open(&dir)?;
        let (journal, entries) = Journal::open(dir.join("stages.journal"))?;
        let mut done = HashSet::with_capacity(entries.len());
        for entry in entries {
            let unit = String::from_utf8(entry)
                .map_err(|_| BpromError::Ckpt("journal entry is not valid UTF-8".to_string()))?;
            done.insert(unit);
        }
        Ok(Checkpointer {
            store,
            journal: Mutex::new(journal),
            done: Mutex::new(done),
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The underlying snapshot store (for per-generation CMA-ES
    /// snapshots, which bypass the unit journal).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Whether `unit` completed in a previous (or this) process.
    fn is_done(&self, unit: &str) -> bool {
        self.done.lock().expect("done set poisoned").contains(unit)
    }

    /// Marks `unit` complete: appends it to the journal (fsynced), then
    /// crosses the `unit`'s crash point. Call only after the unit's
    /// artifact snapshot is durable.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] on journal I/O failure.
    fn mark_done(&self, unit: &str) -> Result<()> {
        self.journal
            .lock()
            .expect("journal poisoned")
            .append(unit.as_bytes())?;
        self.done
            .lock()
            .expect("done set poisoned")
            .insert(unit.to_string());
        crash_point(unit);
        Ok(())
    }

    /// Writes `unit`'s artifact snapshot atomically.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] on snapshot I/O failure.
    fn save_artifact(&self, unit: &str, enc: Encoder) -> Result<()> {
        self.store.save(unit, &enc.into_bytes())?;
        Ok(())
    }

    /// Loads `unit`'s artifact snapshot, which must exist (the journal
    /// says the unit completed).
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] if the snapshot is missing or fails
    /// validation.
    fn load_artifact(&self, unit: &str) -> Result<Vec<u8>> {
        Ok(self.store.load_required(unit)?)
    }

    /// Guards against resuming into a directory produced by a
    /// *different* run: the first checkpointed run writes a `manifest`
    /// snapshot holding the run fingerprint (config + seed); later
    /// opens must present the same fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] on fingerprint mismatch or I/O
    /// failure.
    pub fn ensure_manifest(&self, fingerprint: u64) -> Result<()> {
        if let Some(bytes) = self.store.load("manifest")? {
            let mut dec = Decoder::new(&bytes);
            let stored = dec.get_u64()?;
            dec.finish()?;
            if stored != fingerprint {
                return Err(BpromError::Ckpt(format!(
                    "checkpoint directory {:?} belongs to a different run \
                     (manifest fingerprint {stored:#018x}, this run {fingerprint:#018x})",
                    self.dir()
                )));
            }
            return Ok(());
        }
        let mut enc = Encoder::new();
        enc.put_u64(fingerprint);
        self.store.save("manifest", &enc.into_bytes())?;
        crash_point("manifest");
        Ok(())
    }
}

/// Runs one journalled unit of work under the resume protocol.
///
/// If `ckpt` journals `unit` as done, the unit's artifact is loaded and
/// handed to `decode`, and the decoder must then be fully consumed.
/// Otherwise `compute` runs; with a checkpointer its result is encoded,
/// the artifact is saved atomically, and only then is the unit journalled
/// (crossing the `unit` crash point). A crash between save and journal
/// re-runs the unit, which rewrites identical bytes.
///
/// `rng` is the stream the unit draws from. `encode` sees it after
/// `compute` and `decode` may rewind it, so a unit that consumes the
/// caller's stream records and restores its position here.
///
/// # Errors
///
/// Propagates `compute` failures, snapshot and journal I/O failures, and
/// typed decode errors (truncated or trailing bytes) as
/// [`BpromError::Ckpt`].
pub(crate) fn journaled<T>(
    ckpt: Option<&Checkpointer>,
    unit: &str,
    rng: &mut Rng,
    compute: impl FnOnce(&mut Rng) -> Result<T>,
    encode: impl FnOnce(&mut Encoder, &T, &Rng),
    decode: impl FnOnce(&mut Decoder<'_>, &mut Rng) -> Result<T>,
) -> Result<T> {
    if let Some(ck) = ckpt.filter(|ck| ck.is_done(unit)) {
        let bytes = ck.load_artifact(unit)?;
        let mut dec = Decoder::new(&bytes);
        let value = decode(&mut dec, rng)?;
        dec.finish()?;
        return Ok(value);
    }
    let value = compute(rng)?;
    if let Some(ck) = ckpt {
        let mut enc = Encoder::new();
        encode(&mut enc, &value, rng);
        ck.save_artifact(unit, enc)?;
        ck.mark_done(unit)?;
    }
    Ok(value)
}

/// Fingerprints a run by its configuration (via `Debug`, which covers
/// every field) and the RNG state at pipeline entry.
pub(crate) fn run_fingerprint(config_debug: &str, rng: &Rng) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str(config_debug);
    let (state, spare) = rng.state();
    enc.put_u64s(&state);
    enc.put_opt_f32(spare);
    bprom_ckpt::fnv1a64(&enc.into_bytes())
}

/// Serializes a trained model's parameters and buffers (visit order).
pub(crate) fn encode_model(enc: &mut Encoder, model: &Sequential) {
    let params = model.export_params();
    enc.put_usize(params.len());
    for p in &params {
        enc.put_usizes(p.shape());
        enc.put_f32s(p.data());
    }
    let buffers = model.export_buffers();
    enc.put_usize(buffers.len());
    for b in &buffers {
        enc.put_f32s(b);
    }
}

/// Restores parameters and buffers written by [`encode_model`] into a
/// structurally identical model (shape-validated by the importers).
pub(crate) fn decode_model_into(dec: &mut Decoder<'_>, model: &mut Sequential) -> Result<()> {
    let n = dec.get_usize()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let shape = dec.get_usizes()?;
        let data = dec.get_f32s()?;
        params.push(
            Tensor::from_vec(data, &shape)
                .map_err(|e| BpromError::Ckpt(format!("bad model tensor in snapshot: {e}")))?,
        );
    }
    model.import_params(&params)?;
    let b = dec.get_usize()?;
    let mut buffers = Vec::with_capacity(b);
    for _ in 0..b {
        buffers.push(dec.get_f32s()?);
    }
    model.import_buffers(&buffers)?;
    Ok(())
}

/// Serializes one tensor: shape, then the exact data bits.
pub(crate) fn encode_tensor(enc: &mut Encoder, t: &Tensor) {
    enc.put_usizes(t.shape());
    enc.put_f32s(t.data());
}

/// Restores a tensor written by [`encode_tensor`].
pub(crate) fn decode_tensor(dec: &mut Decoder<'_>) -> Result<Tensor> {
    let shape = dec.get_usizes()?;
    let data = dec.get_f32s()?;
    Tensor::from_vec(data, &shape)
        .map_err(|e| BpromError::Ckpt(format!("bad tensor in snapshot: {e}")))
}

/// Serializes a dataset (images, labels, label space, name) bit-exactly.
pub(crate) fn encode_dataset(enc: &mut Encoder, ds: &bprom_data::Dataset) {
    encode_tensor(enc, &ds.images);
    enc.put_usizes(&ds.labels);
    enc.put_usize(ds.num_classes);
    enc.put_str(&ds.name);
}

/// Restores a dataset written by [`encode_dataset`]. Routed through the
/// validating constructor so a corrupted payload that still decodes
/// surfaces as a typed error instead of an inconsistent dataset.
pub(crate) fn decode_dataset(dec: &mut Decoder<'_>) -> Result<bprom_data::Dataset> {
    let images = decode_tensor(dec)?;
    let labels = dec.get_usizes()?;
    let num_classes = dec.get_usize()?;
    let name = dec.get_str()?;
    bprom_data::Dataset::new(images, labels, num_classes, name)
        .map_err(|e| BpromError::Ckpt(format!("bad dataset in snapshot: {e}")))
}

/// Serializes the caller's RNG stream position.
pub(crate) fn encode_rng(enc: &mut Encoder, rng: &Rng) {
    let (state, spare) = rng.state();
    enc.put_u64s(&state);
    enc.put_opt_f32(spare);
}

/// Restores an RNG stream position written by [`encode_rng`].
pub(crate) fn decode_rng(dec: &mut Decoder<'_>) -> Result<Rng> {
    let state = dec.get_u64s()?;
    let spare = dec.get_opt_f32()?;
    let state: [u64; 4] = state
        .as_slice()
        .try_into()
        .map_err(|_| BpromError::Ckpt("snapshot holds a malformed RNG state".to_string()))?;
    Ok(Rng::from_state(state, spare))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_nn::{Layer, Mode};
    use std::cell::Cell;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bprom-resume-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn journal_round_trip_marks_units_done() {
        let dir = temp_dir("journal");
        let ck = Checkpointer::open(&dir).unwrap();
        assert!(!ck.is_done("shadow-0"));
        ck.mark_done("shadow-0").unwrap();
        ck.mark_done("shadow-1").unwrap();
        drop(ck);
        let ck = Checkpointer::open(&dir).unwrap();
        assert!(ck.is_done("shadow-0"));
        assert!(ck.is_done("shadow-1"));
        assert!(!ck.is_done("shadow-2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A unit that draws three values from the caller's stream and
    /// records the stream position with them; `calls` counts computes.
    fn draw_unit(ck: Option<&Checkpointer>, calls: &Cell<u32>) -> Result<(Vec<u64>, u64)> {
        let mut rng = Rng::new(5);
        let drawn = journaled(
            ck,
            "draw",
            &mut rng,
            |rng| {
                calls.set(calls.get() + 1);
                Ok((0..3).map(|_| rng.next_u64()).collect::<Vec<u64>>())
            },
            |enc, drawn, rng| {
                enc.put_u64s(drawn);
                encode_rng(enc, rng);
            },
            |dec, rng| {
                let drawn = dec.get_u64s()?;
                *rng = decode_rng(dec)?;
                Ok(drawn)
            },
        )?;
        Ok((drawn, rng.next_u64()))
    }

    #[test]
    fn journaled_unit_restores_value_and_stream_position() {
        let dir = temp_dir("unit");
        let calls = Cell::new(0);
        let plain = draw_unit(None, &calls).unwrap();
        let ck = Checkpointer::open(&dir).unwrap();
        assert_eq!(draw_unit(Some(&ck), &calls).unwrap(), plain);
        assert_eq!(calls.get(), 2, "an unjournalled unit computes");
        drop(ck);
        let ck = Checkpointer::open(&dir).unwrap();
        assert_eq!(draw_unit(Some(&ck), &calls).unwrap(), plain);
        assert_eq!(calls.get(), 2, "a journalled unit restores");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_unit_rejects_malformed_artifacts_typed() {
        let dir = temp_dir("malformed");
        let ck = Checkpointer::open(&dir).unwrap();
        draw_unit(Some(&ck), &Cell::new(0)).unwrap();
        let good = ck.load_artifact("draw").unwrap();
        let mut trailing = good.clone();
        trailing.push(0);
        let truncated = &good[..good.len() - 1];
        for payload in [&trailing[..], truncated] {
            ck.store().save("draw", payload).unwrap();
            let calls = Cell::new(0);
            let err = draw_unit(Some(&ck), &calls).unwrap_err();
            assert!(matches!(err, BpromError::Ckpt(_)), "{err}");
            assert_eq!(calls.get(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unjournalled_artifact_is_recomputed() {
        let dir = temp_dir("orphan");
        let ck = Checkpointer::open(&dir).unwrap();
        // A crash between the artifact save and the journal append leaves
        // a stale artifact the journal never vouched for.
        let mut enc = Encoder::new();
        enc.put_u64s(&[9, 9, 9]);
        encode_rng(&mut enc, &Rng::new(0));
        ck.save_artifact("draw", enc).unwrap();
        let calls = Cell::new(0);
        let plain = draw_unit(None, &calls).unwrap();
        assert_eq!(draw_unit(Some(&ck), &calls).unwrap(), plain);
        assert_eq!(calls.get(), 2);
        assert!(ck.is_done("draw"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_different_run() {
        let dir = temp_dir("manifest");
        let ck = Checkpointer::open(&dir).unwrap();
        ck.ensure_manifest(0xABCD).unwrap();
        ck.ensure_manifest(0xABCD).unwrap();
        let err = ck.ensure_manifest(0x1234).unwrap_err();
        assert!(matches!(err, BpromError::Ckpt(_)), "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_codec_round_trip_preserves_forward() {
        let mut rng = Rng::new(7);
        let spec = ModelSpec::new(3, 8, 4);
        let mut a = mlp(&spec, &mut rng).unwrap();
        let mut b = mlp(&spec, &mut rng).unwrap();
        let probe = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let ya = a.forward(&probe, Mode::Eval).unwrap();
        assert_ne!(ya, b.forward(&probe, Mode::Eval).unwrap());
        let mut enc = Encoder::new();
        encode_model(&mut enc, &a);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        decode_model_into(&mut dec, &mut b).unwrap();
        dec.finish().unwrap();
        assert_eq!(ya, b.forward(&probe, Mode::Eval).unwrap());
    }

    #[test]
    fn rng_codec_round_trip_continues_stream() {
        let mut rng = Rng::new(9);
        rng.next_u64();
        let mut enc = Encoder::new();
        encode_rng(&mut enc, &rng);
        let bytes = enc.into_bytes();
        let expected: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut dec = Decoder::new(&bytes);
        let mut restored = decode_rng(&mut dec).unwrap();
        dec.finish().unwrap();
        let got: Vec<u64> = (0..4).map(|_| restored.next_u64()).collect();
        assert_eq!(got, expected);
    }
}
