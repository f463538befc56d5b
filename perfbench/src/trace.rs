//! Outside-in tracing: an in-memory span recorder and a timing
//! [`BlackBoxModel`] decorator that records one span per oracle call.
//!
//! The benchmark never reaches into the program's own telemetry. It
//! times calls into public functions and wraps the oracle boundary with
//! [`TimedOracle`] at chosen heights of the decorator stack (below the
//! cache, above the cache, above retry). A layer's self time is then the
//! time spent inside its wrapper minus the time spent inside the wrapper
//! directly beneath it.

use bprom_ckpt::{Decoder, Encoder};
use bprom_tensor::Tensor;
use bprom_vp::{BlackBoxModel, OracleStats, QueryOutcome, Result};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// Layer or stage name (e.g. `oracle.below_cache`, `core.train_meta`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The audit (or fit) this span belongs to.
    pub audit: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans in memory; [`Tracer::write_json`] writes them out once
/// the run has ended.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. The span's parent is the
    /// innermost span open on this thread, else `fallback_parent`; `f`
    /// receives the new span's id so work it hands to other threads can
    /// name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        audit: u64,
        fallback_parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .or(fallback_parent);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                audit,
            });
        out
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON array.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"audit\":{}}}{sep}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.audit
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Length of the union of `intervals` (nanoseconds), so concurrent
/// children are not counted twice.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Call, row and busy-time counts of one [`TimedOracle`].
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

impl Tally {
    /// Batches forwarded through the wrapper.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Image rows forwarded through the wrapper.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Summed time spent inside the wrapped oracle, over all threads.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// A [`BlackBoxModel`] decorator that times every call into the oracle
/// beneath it and records it as a span. It forwards every trait method,
/// including the cache and fault hooks whose trait defaults would
/// otherwise drop the inner stack's tallies, so an inspection through it
/// is indistinguishable from one without it.
pub struct TimedOracle<'t, B: BlackBoxModel> {
    inner: B,
    layer: &'static str,
    audit: u64,
    root: Option<u64>,
    tracer: &'t Tracer,
    tally: Tally,
}

impl<B: BlackBoxModel> std::fmt::Debug for TimedOracle<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedOracle")
            .field("layer", &self.layer)
            .field("audit", &self.audit)
            .field("tally", &self.tally)
            .finish()
    }
}

impl<'t, B: BlackBoxModel> TimedOracle<'t, B> {
    /// Wraps `inner`, recording spans named `layer` for `audit` into
    /// `tracer`. `root` is the parent of spans opened on threads where no
    /// enclosing span is open (pool workers running CMA-ES candidates).
    pub fn new(
        inner: B,
        layer: &'static str,
        audit: u64,
        root: Option<u64>,
        tracer: &'t Tracer,
    ) -> Self {
        TimedOracle {
            inner,
            layer,
            audit,
            root,
            tracer,
            tally: Tally::default(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// What this wrapper has counted so far.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    fn timed<R>(&self, batch: &Tensor, call: impl FnOnce(&B) -> R) -> R {
        let start = Instant::now();
        let out = self
            .tracer
            .span(self.layer, self.audit, self.root, |_| call(&self.inner));
        self.tally
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        let rows = batch.shape().first().copied().unwrap_or(0) as u64;
        self.tally.rows.fetch_add(rows, Ordering::Relaxed);
        out
    }
}

impl<B: BlackBoxModel> BlackBoxModel for TimedOracle<'_, B> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        self.timed(batch, |inner| inner.query(batch))
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        self.timed(batch, |inner| inner.try_query_batch(batch))
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn queries_used(&self) -> u64 {
        self.inner.queries_used()
    }

    fn oracle_stats(&self) -> OracleStats {
        self.inner.oracle_stats()
    }

    fn export_cache(&self, enc: &mut Encoder) -> bool {
        self.inner.export_cache(enc)
    }

    fn import_cache(&self, dec: &mut Decoder<'_>) -> Result<()> {
        self.inner.import_cache(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_gaps() {
        assert_eq!(covered_ns(vec![]), 0);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(vec![(20, 25), (0, 10), (2, 3)]), 15);
    }

    #[test]
    fn spans_nest_on_one_thread_and_fall_back_elsewhere() {
        let tracer = Tracer::new();
        tracer.span("outer", 7, None, |outer| {
            tracer.span("inner", 7, None, |_| {});
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("worker", 7, Some(outer), |_| {}));
            });
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("worker").parent, Some(outer.id));
        assert!(spans.iter().all(|s| s.audit == 7 && s.end_ns >= s.start_ns));
    }
}
