//! The one query evaluator: chunked evaluation with zone-map pruning.
//!
//! The paper's headline numbers come from *parallel* index evaluation and
//! histogram computation; this module supplies the intra-query half of that
//! story. Every query, at every thread count, runs here: columns are
//! partitioned into fixed-size row chunks, each carrying a [`Zone`]
//! (min / max / NaN count), and a compiled [`Program`] is evaluated
//! chunk-by-chunk over [`run`] (a small work queue of scoped threads, no
//! external dependencies, which also fans catalog-wide work out over
//! timesteps; at one thread it runs inline). Each predicate slot is bound
//! once per evaluation:
//!
//! * a **scan** slot is answered per chunk: a chunk whose zone proves the
//!   predicate can match **nothing** is pruned to an empty mask without
//!   touching a single row, a chunk whose zone proves **every** row matches
//!   (no NaNs, value interval fully inside the query range) is pruned to a
//!   full mask, and only the remaining chunks are scanned row-by-row;
//! * an **index** slot is answered once over the whole column through its
//!   bitmap index, and the answer is sliced into each chunk's mask.
//!
//! Which slots take the index is decided by one rule,
//! [`ParExec::plan_mode`]: at one thread the planner follows the
//! [`ExecStrategy`] (under `Auto` it binds the index wherever one answers the
//! predicate); at more than one thread every slot is a pruned scan.
//!
//! Per-chunk masks are merged *in chunk order* into one WAH-compressed
//! [`Selection`], so the selected row set is a pure function of the data and
//! the query — independent of thread count, chunk size, pruning and plan.
//! The differential suites in `tests/par_differential.rs`,
//! `tests/compile_differential.rs` and `tests/zone_map_adversarial.rs` pin
//! exactly that: parallel evaluation can never silently mean "different
//! answers".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::compile::{OpCode, PlanMode, PredSource, Program, Root};
use crate::error::{FastBitError, Result};
use crate::index::IndexEncoding;
use crate::query::{ColumnProvider, ExecStrategy, Predicate, QueryExpr, ValueRange};
use crate::selection::Selection;
use crate::wah::{Wah, WahBuilder};

/// Default number of rows per evaluation chunk. Small enough that zone-map
/// pruning has real resolution on clustered data, large enough that the
/// per-chunk bookkeeping (a few hundred mask words) is noise.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// Summary statistics of one chunk of one column: the minimum and maximum
/// over the non-NaN values (±∞ participate) and the number of NaNs.
///
/// A chunk containing only NaNs has `min = +∞ > max = -∞`; every interval
/// test against such an inverted interval is vacuously false, which is
/// exactly the right answer because NaN never satisfies a range predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// Minimum non-NaN value (`+∞` when the chunk is all NaN).
    pub min: f64,
    /// Maximum non-NaN value (`-∞` when the chunk is all NaN).
    pub max: f64,
    /// Number of NaN values in the chunk.
    pub nan_count: u32,
    /// Number of rows in the chunk.
    pub len: u32,
}

/// What a zone proves about a range predicate over its chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row of the chunk can satisfy the range.
    Empty,
    /// Every row of the chunk satisfies the range.
    Full,
    /// The chunk must be scanned row-by-row.
    Scan,
}

impl Zone {
    /// Compute the zone of a value slice.
    pub fn from_slice(values: &[f64]) -> Zone {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut nan_count = 0u32;
        for &v in values {
            if v.is_nan() {
                nan_count += 1;
            } else {
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        }
        Zone {
            min,
            max,
            nan_count,
            len: values.len() as u32,
        }
    }

    /// True when the chunk holds no non-NaN value.
    pub fn all_nan(&self) -> bool {
        self.nan_count as usize == self.len as usize
    }

    /// Classify `range` against this zone.
    ///
    /// `Full` requires a NaN-free chunk whose closed value interval lies
    /// entirely inside the range; `Empty` requires that the interval not
    /// intersect the range at all (an all-NaN chunk has an inverted, hence
    /// empty, interval and is always `Empty`). Everything else must scan.
    pub fn classify(&self, range: &ValueRange) -> ZoneVerdict {
        if self.all_nan() || !range.overlaps_interval(self.min, self.max) {
            return ZoneVerdict::Empty;
        }
        if self.nan_count == 0 && range.contains_interval(self.min, self.max) {
            return ZoneVerdict::Full;
        }
        ZoneVerdict::Scan
    }
}

/// Per-chunk zones of one column at one chunk size.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMaps {
    chunk_rows: usize,
    num_rows: usize,
    zones: Vec<Zone>,
}

impl ZoneMaps {
    /// Build zone maps over `data` with `chunk_rows` rows per chunk (the
    /// final chunk may be shorter). One sequential pass; columns are built
    /// once and cached by their provider, not per query.
    pub fn build(data: &[f64], chunk_rows: usize) -> ZoneMaps {
        let chunk_rows = chunk_rows.max(1);
        let zones = data.chunks(chunk_rows).map(Zone::from_slice).collect();
        ZoneMaps {
            chunk_rows,
            num_rows: data.len(),
            zones,
        }
    }

    /// Rows per chunk this map was built with.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Total rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.zones.len()
    }

    /// The zone of chunk `i`.
    pub fn zone(&self, i: usize) -> &Zone {
        &self.zones[i]
    }

    /// Reassemble a zone map from persisted parts. The caller (the persist
    /// layer) must have validated that `zones` covers `num_rows` rows in
    /// `chunk_rows`-sized chunks.
    pub(crate) fn from_raw_parts(chunk_rows: usize, num_rows: usize, zones: Vec<Zone>) -> ZoneMaps {
        ZoneMaps {
            chunk_rows,
            num_rows,
            zones,
        }
    }

    /// Approximate heap size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.zones.len() * std::mem::size_of::<Zone>()
    }
}

// ---------------------------------------------------------------------------
// Execution configuration and statistics
// ---------------------------------------------------------------------------

/// Lifetime counters of a [`ParExec`]: how many evaluations ran (at every
/// thread count) and how much work the zone maps saved. Exposed by the
/// server's `STATS` verb.
#[derive(Debug, Default)]
pub struct ParStats {
    queries: AtomicU64,
    chunks_pruned_empty: AtomicU64,
    chunks_pruned_full: AtomicU64,
    chunks_scanned: AtomicU64,
}

/// A point-in-time snapshot of [`ParStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStatsSnapshot {
    /// Query evaluations performed.
    pub queries: u64,
    /// Predicate-chunks proven empty by a zone map (no rows touched).
    pub chunks_pruned_empty: u64,
    /// Predicate-chunks proven full by a zone map (no rows touched).
    pub chunks_pruned_full: u64,
    /// Predicate-chunks that had to be scanned row-by-row.
    pub chunks_scanned: u64,
}

impl ParStats {
    fn snapshot(&self) -> ParStatsSnapshot {
        ParStatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            chunks_pruned_empty: self.chunks_pruned_empty.load(Ordering::Relaxed),
            chunks_pruned_full: self.chunks_pruned_full.load(Ordering::Relaxed),
            chunks_scanned: self.chunks_scanned.load(Ordering::Relaxed),
        }
    }
}

/// Per-evaluation chunk tallies. Workers accumulate here so one query's
/// pruning counts can be attached to its trace; the coordinator flushes the
/// totals into the executor's lifetime [`ParStats`] once the chunks finish.
#[derive(Debug, Default)]
struct ChunkTally {
    pruned_empty: AtomicU64,
    pruned_full: AtomicU64,
    scanned: AtomicU64,
}

/// Configuration of the query evaluator: thread count, chunk size and
/// whether zone-map pruning is enabled (disabling it exists for the
/// prune-vs-scan differential tests — results must be identical either way).
#[derive(Debug, Clone)]
pub struct ParExec {
    threads: usize,
    chunk_rows: usize,
    pruning: bool,
    stats: Arc<ParStats>,
}

impl Default for ParExec {
    fn default() -> Self {
        Self::new(1, DEFAULT_CHUNK_ROWS)
    }
}

impl ParExec {
    /// An executor with `threads` workers and `chunk_rows` rows per chunk
    /// (both clamped to at least 1).
    pub fn new(threads: usize, chunk_rows: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_rows: chunk_rows.max(1),
            pruning: true,
            stats: Arc::new(ParStats::default()),
        }
    }

    /// A single-threaded executor (chunks run inline on the caller).
    pub fn sequential() -> Self {
        Self::new(1, DEFAULT_CHUNK_ROWS)
    }

    /// Disable zone-map pruning in chunk-scan plans ([`PlanMode::Chunked`]):
    /// every chunk is scanned. The answer must be byte-identical; only the
    /// work changes.
    pub fn without_pruning(mut self) -> Self {
        self.pruning = false;
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rows per evaluation chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Whether zone-map pruning is enabled.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ParStatsSnapshot {
        self.stats.snapshot()
    }

    /// The index-or-scan rule: how this executor binds predicate slots under
    /// `strategy`. At one thread the slots follow `strategy`
    /// ([`PlanMode::Sequential`]: `Auto` takes the index wherever one
    /// answers the predicate); at more than one thread every slot is a chunk
    /// scan, zone-pruned unless pruning is off. Letting two threads take the
    /// index measured 8.6× slower on the benchmark's `drill_uncached`
    /// workload (p50 41.05 ms against 4.79 ms, seed 42): its unselective
    /// compound predicates cost more through the bitmaps than through a
    /// pruned scan, so the index stays at one thread until the planner
    /// estimates each predicate's cost.
    pub fn plan_mode(&self, strategy: ExecStrategy) -> PlanMode {
        if self.threads == 1 {
            PlanMode::Sequential(strategy)
        } else {
            PlanMode::Chunked {
                pruning: self.pruning,
            }
        }
    }

    /// Register this executor's lifetime counters into a metrics registry:
    /// `vdx_par_queries_total` and `vdx_par_chunks_total` by outcome. The
    /// collectors hold a reference to the shared stats, so clones of this
    /// executor keep feeding them.
    pub fn register_metrics(&self, registry: &obs::Registry) {
        let stats = Arc::clone(&self.stats);
        registry.counter_fn(
            "vdx_par_queries_total",
            "Query evaluations performed by the chunked evaluator.",
            &[],
            move || stats.queries.load(Ordering::Relaxed),
        );
        for (outcome, pick) in [("pruned_empty", 0usize), ("pruned_full", 1), ("scanned", 2)] {
            let stats = Arc::clone(&self.stats);
            registry.counter_fn(
                "vdx_par_chunks_total",
                "Predicate-chunks processed by the chunked engine, by outcome.",
                &[("outcome", outcome)],
                move || {
                    let s = stats.snapshot();
                    [
                        s.chunks_pruned_empty,
                        s.chunks_pruned_full,
                        s.chunks_scanned,
                    ][pick]
                },
            );
        }
    }

    /// Run `work(chunk_index)` for every chunk in `0..num_chunks` over
    /// this executor's threads ([`run`]) and return the results in chunk
    /// order.
    pub fn run_chunks<T, F>(&self, num_chunks: usize, work: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        run(self.threads, num_chunks, work)
    }
}

// ---------------------------------------------------------------------------
// The fan-out
// ---------------------------------------------------------------------------

/// Run `work(i)` for every item `i` in `0..n` on up to `threads` scoped
/// threads pulling items from one atomic counter, and return the results in
/// item order. With one thread (or at most one item) the items run inline on
/// the caller's thread.
///
/// After the first failure no thread takes a new item; items already taken
/// finish. Items are taken in increasing order, so every item below a failing
/// one has run, and the error returned is always that of the lowest failing
/// item, whatever the thread count or interleaving. A panicking item counts
/// as failing with [`FastBitError::Execution`]; the caller's thread carries
/// on.
pub fn run<T, E, F>(threads: usize, n: usize, work: F) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send + From<FastBitError>,
    F: Fn(usize) -> std::result::Result<T, E> + Sync,
{
    let attempt = |i: usize| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i))).unwrap_or_else(|_| {
            Err(FastBitError::Execution(format!("worker panicked on item {i}")).into())
        })
    };
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(attempt).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let (attempt, next, failed) = (&attempt, &next, &failed);
    let mut tagged: Vec<(usize, std::result::Result<T, E>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = attempt(i);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        out.push((i, result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("items' panics are caught"))
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, result)| result).collect()
}

// ---------------------------------------------------------------------------
// Chunk masks
// ---------------------------------------------------------------------------

/// The evaluation result of one chunk: which of its rows match.
///
/// `Empty`/`Full` are the pruned forms; `Bits` is an explicit little-endian
/// word bitmap over the chunk's rows with the padding bits beyond the chunk
/// length held at zero.
#[derive(Debug, Clone, PartialEq)]
pub enum Mask {
    /// No row of the chunk matches.
    Empty,
    /// Every row of the chunk matches.
    Full,
    /// Explicit per-row bitmap (padding bits zero).
    Bits(Vec<u64>),
}

/// Words of a bitmap over `len` rows.
#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// A selection expanded to a dense little-endian word bitmap over its rows.
fn dense_words(selection: &Selection) -> Vec<u64> {
    let mut words = vec![0u64; words_for(selection.num_rows())];
    selection.as_wah().write_dense_words(&mut words);
    words
}

/// The mask of rows `[start, start + len)` of a dense word bitmap. `start`
/// need not be a multiple of 64: each output word joins the tail of one
/// input word with the head of the next.
fn slice_mask(words: &[u64], start: usize, len: usize) -> Mask {
    let (first, shift) = (start / 64, start % 64);
    let mut out: Vec<u64> = (0..words_for(len))
        .map(|i| {
            let low = words[first + i] >> shift;
            match words.get(first + i + 1) {
                Some(next) if shift != 0 => low | next << (64 - shift),
                _ => low,
            }
        })
        .collect();
    mask_padding(&mut out, len);
    Mask::Bits(out).normalized(len)
}

/// Zero the bits at positions `>= len` of the final word.
#[inline]
fn mask_padding(words: &mut [u64], len: usize) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

impl Mask {
    /// Number of set rows given the chunk length.
    pub fn count(&self, len: usize) -> usize {
        match self {
            Mask::Empty => 0,
            Mask::Full => len,
            Mask::Bits(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Collapse an explicit bitmap that turned out all-zero or all-one.
    fn normalized(self, len: usize) -> Mask {
        match &self {
            Mask::Bits(_) => {
                let ones = self.count(len);
                if ones == 0 {
                    Mask::Empty
                } else if ones == len {
                    Mask::Full
                } else {
                    self
                }
            }
            _ => self,
        }
    }

    /// Intersection of two chunk masks.
    pub fn and(self, other: Mask, len: usize) -> Mask {
        match (self, other) {
            (Mask::Empty, _) | (_, Mask::Empty) => Mask::Empty,
            (Mask::Full, m) | (m, Mask::Full) => m,
            (Mask::Bits(mut a), Mask::Bits(b)) => {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x &= *y;
                }
                Mask::Bits(a).normalized(len)
            }
        }
    }

    /// Union of two chunk masks.
    pub fn or(self, other: Mask, len: usize) -> Mask {
        match (self, other) {
            (Mask::Full, _) | (_, Mask::Full) => Mask::Full,
            (Mask::Empty, m) | (m, Mask::Empty) => m,
            (Mask::Bits(mut a), Mask::Bits(b)) => {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x |= *y;
                }
                Mask::Bits(a).normalized(len)
            }
        }
    }

    /// Complement over the chunk's rows.
    pub fn not(self, len: usize) -> Mask {
        match self {
            Mask::Empty => Mask::Full,
            Mask::Full => Mask::Empty,
            Mask::Bits(mut words) => {
                for w in words.iter_mut() {
                    *w = !*w;
                }
                mask_padding(&mut words, len);
                Mask::Bits(words)
            }
        }
    }

    /// Call `f` with every selected local row index, in increasing order.
    pub fn for_each_row(&self, len: usize, mut f: impl FnMut(usize)) {
        match self {
            Mask::Empty => {}
            Mask::Full => {
                for i in 0..len {
                    f(i);
                }
            }
            Mask::Bits(words) => {
                for (wi, &word) in words.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        f(wi * 64 + bit);
                        w &= w - 1;
                    }
                }
            }
        }
    }
}

/// The chunked evaluation result of a whole query: one [`Mask`] per chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMasks {
    chunk_rows: usize,
    num_rows: usize,
    masks: Vec<Mask>,
}

impl ChunkMasks {
    /// Split a whole-dataset selection into the masks of `chunk_rows`-row
    /// chunks (clamped to at least 1).
    pub fn from_selection(selection: &Selection, chunk_rows: usize) -> ChunkMasks {
        let chunk_rows = chunk_rows.max(1);
        let num_rows = selection.num_rows();
        let words = dense_words(selection);
        let masks = (0..num_rows.div_ceil(chunk_rows))
            .map(|chunk| {
                let start = chunk * chunk_rows;
                slice_mask(&words, start, chunk_rows.min(num_rows - start))
            })
            .collect();
        ChunkMasks {
            chunk_rows,
            num_rows,
            masks,
        }
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Total rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.masks.len()
    }

    /// The mask of chunk `i`.
    pub fn mask(&self, i: usize) -> &Mask {
        &self.masks[i]
    }

    /// First row and length of chunk `i`.
    pub fn chunk_span(&self, i: usize) -> (usize, usize) {
        let start = i * self.chunk_rows;
        (start, self.chunk_rows.min(self.num_rows - start))
    }

    /// Number of selected rows across all chunks.
    pub fn count(&self) -> u64 {
        (0..self.num_chunks())
            .map(|i| self.masks[i].count(self.chunk_span(i).1) as u64)
            .sum()
    }

    /// Merge the per-chunk masks, in chunk order, into one WAH-compressed
    /// selection. The output depends only on the logical row set.
    pub fn to_selection(&self) -> Selection {
        let mut builder = WahBuilder::new();
        for i in 0..self.num_chunks() {
            let (_, len) = self.chunk_span(i);
            match &self.masks[i] {
                Mask::Empty => builder.push_run(false, len as u64),
                Mask::Full => builder.push_run(true, len as u64),
                Mask::Bits(_) => {
                    let mut next = 0usize;
                    self.masks[i].for_each_row(len, |row| {
                        builder.push_run(false, (row - next) as u64);
                        builder.push_bit(true);
                        next = row + 1;
                    });
                    builder.push_run(false, (len - next) as u64);
                }
            }
        }
        Selection::from_wah(builder.finish())
    }
}

// ---------------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------------

/// What one evaluation produced.
pub(crate) enum Answer {
    /// A single-predicate program answered by an index: the index's
    /// selection as is.
    Index(Selection),
    /// One mask per chunk.
    Chunks(ChunkMasks),
}

impl Answer {
    /// The answer as one selection.
    pub(crate) fn into_selection(self, program: &Program) -> Result<Selection> {
        match self {
            Answer::Index(selection) => Ok(selection),
            Answer::Chunks(masks) => merge(&masks, program),
        }
    }

    /// The answer as per-chunk masks of `chunk_rows` rows.
    pub(crate) fn into_masks(self, chunk_rows: usize) -> ChunkMasks {
        match self {
            Answer::Index(selection) => ChunkMasks::from_selection(&selection, chunk_rows),
            Answer::Chunks(masks) => masks,
        }
    }

    /// The answer both ways: per-chunk masks of `chunk_rows` rows and one
    /// selection.
    pub(crate) fn into_parts(
        self,
        program: &Program,
        chunk_rows: usize,
    ) -> Result<(ChunkMasks, Selection)> {
        match self {
            Answer::Index(selection) => Ok((
                ChunkMasks::from_selection(&selection, chunk_rows),
                selection,
            )),
            Answer::Chunks(masks) => {
                let selection = merge(&masks, program)?;
                Ok((masks, selection))
            }
        }
    }
}

/// Merge a program's chunk masks into one selection. A combiner root's
/// selection is canonicalized to operator form (OR-ed with zeros), the form
/// the [`crate::testing`] oracle's WAH operations produce, so the words are
/// bit-identical to it; every other root already has the oracle's form.
fn merge(masks: &ChunkMasks, program: &Program) -> Result<Selection> {
    let _combine = obs::span("combine");
    let merged = masks.to_selection();
    if !matches!(program.root(), Root::Ops { .. }) {
        return Ok(merged);
    }
    let zeros = Wah::zeros(masks.num_rows() as u64);
    Ok(Selection::from_wah(zeros.or(merged.as_wah())?))
}

/// Trace label of a planned predicate source.
fn source_name(source: PredSource) -> &'static str {
    match source {
        PredSource::Scan { pruned: true } => "scan+prune",
        PredSource::Scan { pruned: false } => "scan",
        PredSource::Index { .. } => "index",
    }
}

/// Answer an index slot over the whole column, candidate-checking boundary
/// rows against the raw column when it is resident.
fn index_answer(
    pred: &Predicate,
    encoding: IndexEncoding,
    provider: &impl ColumnProvider,
) -> Result<Selection> {
    let index = provider
        .index(&pred.column)
        .ok_or_else(|| FastBitError::UnknownColumn(pred.column.clone()))?;
    let selection = match provider.column(&pred.column) {
        Some(data) => index.evaluate_with(&pred.range, data, encoding)?,
        None => index.evaluate_index_only_with(&pred.range, encoding)?.0,
    };
    crate::index::note_encoding_query(encoding);
    Ok(selection)
}

/// The one query evaluator: bind every slot of `program` under `mode`, then
/// run the chunks over `exec`'s threads. An index slot is answered once over
/// the whole column and sliced into each chunk; a scan slot is zone-pruned
/// and scanned per chunk ([`eval_slot_chunk`]); the slot masks of a chunk
/// combine through the program's op list ([`run_ops_masks`]).
pub(crate) fn run_program(
    program: &Program,
    provider: &impl ColumnProvider,
    exec: &ParExec,
    mode: PlanMode,
) -> Result<Answer> {
    let _eval = obs::span("evaluate");
    let num_rows = provider.num_rows();
    let chunk_rows = exec.chunk_rows();
    // Each plan keeps its own error order: a chunk-scan plan names the
    // first unknown column by name, a sequential one the first by slot.
    if let PlanMode::Chunked { .. } = mode {
        for name in program.expr().columns() {
            if provider.column(&name).is_none() {
                return Err(FastBitError::UnknownColumn(name));
            }
        }
    }
    let sources = program.plan(provider, mode)?;
    // Bind each slot once, on this thread: scan slots resolve their column
    // and zone maps so chunk workers operate on plain slices, index slots
    // are answered whole.
    let mut columns: BTreeMap<String, &[f64]> = BTreeMap::new();
    let mut zones: BTreeMap<String, Option<Arc<ZoneMaps>>> = BTreeMap::new();
    let mut index_words: Vec<Option<Vec<u64>>> = Vec::with_capacity(sources.len());
    for (pred, &source) in program.slots().iter().zip(&sources) {
        let _slot = obs::span("slot");
        obs::note("pred", || pred.to_string());
        obs::note("source", || source_name(source).to_string());
        match source {
            PredSource::Index { encoding, .. } => {
                let selection = index_answer(pred, encoding, provider)?;
                if let Root::Pred(_) = program.root() {
                    exec.stats.queries.fetch_add(1, Ordering::Relaxed);
                    return Ok(Answer::Index(selection));
                }
                index_words.push(Some(dense_words(&selection)));
            }
            PredSource::Scan { pruned } => {
                if !columns.contains_key(&pred.column) {
                    let data = provider
                        .column(&pred.column)
                        .ok_or_else(|| FastBitError::UnknownColumn(pred.column.clone()))?;
                    if data.len() != num_rows {
                        return Err(FastBitError::RowCountMismatch {
                            index_rows: num_rows,
                            data_rows: data.len(),
                        });
                    }
                    let maps = pruned
                        .then(|| provider.zone_maps(&pred.column, chunk_rows))
                        .flatten()
                        .filter(|z| z.chunk_rows() == chunk_rows && z.num_rows() == num_rows);
                    zones.insert(pred.column.clone(), maps);
                    columns.insert(pred.column.clone(), data);
                }
                index_words.push(None);
            }
        }
    }
    let num_chunks = num_rows.div_ceil(chunk_rows);
    exec.stats.queries.fetch_add(1, Ordering::Relaxed);
    let tally = ChunkTally::default();
    let masks = exec.run_chunks(num_chunks, |chunk| {
        let start = chunk * chunk_rows;
        let len = chunk_rows.min(num_rows - start);
        let mut slot_masks = Vec::with_capacity(program.slots().len());
        for (i, pred) in program.slots().iter().enumerate() {
            slot_masks.push(match &index_words[i] {
                Some(words) => slice_mask(words, start, len),
                None => eval_slot_chunk(
                    pred,
                    &sources[i],
                    &columns,
                    &zones,
                    &tally,
                    chunk,
                    start,
                    len,
                )?,
            });
        }
        Ok(run_ops_masks(program, slot_masks, len))
    })?;
    // Flush this query's tallies into the lifetime counters and onto the
    // active trace (the workers ran outside the tracing thread, so the
    // counts attach here, on the coordinating thread).
    let (pe, pf, sc) = (
        tally.pruned_empty.load(Ordering::Relaxed),
        tally.pruned_full.load(Ordering::Relaxed),
        tally.scanned.load(Ordering::Relaxed),
    );
    exec.stats
        .chunks_pruned_empty
        .fetch_add(pe, Ordering::Relaxed);
    exec.stats
        .chunks_pruned_full
        .fetch_add(pf, Ordering::Relaxed);
    exec.stats.chunks_scanned.fetch_add(sc, Ordering::Relaxed);
    obs::count("chunks", num_chunks as u64);
    obs::count("pruned_empty", pe);
    obs::count("pruned_full", pf);
    obs::count("scanned", sc);
    Ok(Answer::Chunks(ChunkMasks {
        chunk_rows,
        num_rows,
        masks,
    }))
}

/// Evaluate `program` into one selection over `exec`'s threads, binding its
/// slots by [`ParExec::plan_mode`] under `strategy`.
pub fn evaluate_program(
    program: &Program,
    provider: &impl ColumnProvider,
    exec: &ParExec,
    strategy: ExecStrategy,
) -> Result<Selection> {
    run_program(program, provider, exec, exec.plan_mode(strategy))?.into_selection(program)
}

/// Evaluate `expr` as a pruned chunk scan over `exec`'s threads and return
/// the per-chunk masks. The expression is compiled to a bytecode
/// [`Program`] first ([`Program::compile`]); callers that hold a cached
/// program should use [`evaluate_chunk_masks_program`] directly.
pub fn evaluate_chunk_masks(
    expr: &QueryExpr,
    provider: &impl ColumnProvider,
    exec: &ParExec,
) -> Result<ChunkMasks> {
    evaluate_chunk_masks_program(&Program::compile(expr), provider, exec)
}

/// Evaluate a compiled [`Program`] as a pruned chunk scan over `exec`'s
/// threads — every slot bound to [`PlanMode::Chunked`], whatever the thread
/// count. Zone maps are taken from the provider when it has them at this
/// chunk size (see [`ColumnProvider::zone_maps`]) and computed on the fly
/// from each chunk's slice otherwise.
pub fn evaluate_chunk_masks_program(
    program: &Program,
    provider: &impl ColumnProvider,
    exec: &ParExec,
) -> Result<ChunkMasks> {
    let mode = PlanMode::Chunked {
        pruning: exec.pruning(),
    };
    Ok(run_program(program, provider, exec, mode)?.into_masks(exec.chunk_rows()))
}

/// Evaluate `expr` as a pruned chunk scan and merge the result into one
/// [`Selection`]. The selected row set is identical to
/// [`crate::compile::evaluate`]'s for every thread count, chunk size, and
/// pruning setting.
pub fn evaluate_chunked(
    expr: &QueryExpr,
    provider: &impl ColumnProvider,
    exec: &ParExec,
) -> Result<Selection> {
    Ok(evaluate_chunk_masks(expr, provider, exec)?.to_selection())
}

/// Evaluate one predicate slot over one chunk: prune through the zone map,
/// or scan the chunk's rows.
#[allow(clippy::too_many_arguments)] // internal chunk-worker plumbing
fn eval_slot_chunk(
    pred: &Predicate,
    source: &PredSource,
    columns: &BTreeMap<String, &[f64]>,
    zones: &BTreeMap<String, Option<Arc<ZoneMaps>>>,
    tally: &ChunkTally,
    chunk: usize,
    start: usize,
    len: usize,
) -> Result<Mask> {
    let data = columns
        .get(pred.column.as_str())
        .ok_or_else(|| FastBitError::UnknownColumn(pred.column.clone()))?;
    let slice = &data[start..start + len];
    if matches!(source, PredSource::Scan { pruned: true }) {
        let zone = match zones.get(pred.column.as_str()) {
            Some(Some(maps)) => *maps.zone(chunk),
            _ => Zone::from_slice(slice),
        };
        match zone.classify(&pred.range) {
            ZoneVerdict::Empty => {
                tally.pruned_empty.fetch_add(1, Ordering::Relaxed);
                return Ok(Mask::Empty);
            }
            ZoneVerdict::Full => {
                tally.pruned_full.fetch_add(1, Ordering::Relaxed);
                return Ok(Mask::Full);
            }
            ZoneVerdict::Scan => {}
        }
    }
    tally.scanned.fetch_add(1, Ordering::Relaxed);
    let mut words = vec![0u64; words_for(len)];
    for (i, &v) in slice.iter().enumerate() {
        if pred.range.contains(v) {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    Ok(Mask::Bits(words).normalized(len))
}

/// Interpret the program's linear op list over this chunk's slot masks. The
/// masks normalize after every op, so the result is a pure function of the
/// chunk's logical row set — byte-identical to what the old per-chunk tree
/// walk produced.
fn run_ops_masks(program: &Program, slot_masks: Vec<Mask>, len: usize) -> Mask {
    match program.root() {
        Root::Pred(s) => {
            return slot_masks
                .into_iter()
                .nth(s as usize)
                .expect("slot in range")
        }
        Root::Const(true) => return Mask::Full,
        Root::Const(false) => return Mask::Empty,
        Root::Ops { .. } => {}
    }
    let mut regs: Vec<Mask> = vec![Mask::Empty; program.num_regs()];
    let take = |regs: &mut Vec<Mask>, i: u16| std::mem::replace(&mut regs[i as usize], Mask::Empty);
    for op in program.ops() {
        match *op {
            OpCode::Load { dst, slot } => regs[dst as usize] = slot_masks[slot as usize].clone(),
            OpCode::LoadConst { dst, ones } => {
                regs[dst as usize] = if ones { Mask::Full } else { Mask::Empty }
            }
            OpCode::AndReg { dst, src } => {
                let (b, a) = (take(&mut regs, src), take(&mut regs, dst));
                regs[dst as usize] = a.and(b, len);
            }
            OpCode::AndSlot { dst, slot } => {
                let a = take(&mut regs, dst);
                regs[dst as usize] = a.and(slot_masks[slot as usize].clone(), len);
            }
            OpCode::OrReg { dst, src } => {
                let (b, a) = (take(&mut regs, src), take(&mut regs, dst));
                regs[dst as usize] = a.or(b, len);
            }
            OpCode::OrSlot { dst, slot } => {
                let a = take(&mut regs, dst);
                regs[dst as usize] = a.or(slot_masks[slot as usize].clone(), len);
            }
            OpCode::Not { dst } => {
                let a = take(&mut regs, dst);
                regs[dst as usize] = a.not(len);
            }
        }
    }
    let Root::Ops { result } = program.root() else {
        unreachable!("leaf roots returned above")
    };
    take(&mut regs, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BitmapIndex;
    use crate::query::{parse_query, Predicate};
    use crate::scan;
    use crate::testing::evaluate_with_strategy;
    use histogram::Binning;
    use std::collections::HashMap;

    struct MemProvider {
        columns: HashMap<String, Vec<f64>>,
        indexes: HashMap<String, BitmapIndex>,
        rows: usize,
    }

    impl MemProvider {
        fn new(columns: Vec<(&str, Vec<f64>)>) -> Self {
            let rows = columns[0].1.len();
            Self {
                columns: columns
                    .into_iter()
                    .map(|(n, d)| (n.to_string(), d))
                    .collect(),
                indexes: HashMap::new(),
                rows,
            }
        }

        /// Give every column a 16-bin equal-width bitmap index.
        fn indexed(mut self) -> Self {
            for (name, data) in &self.columns {
                let index = BitmapIndex::build(data, &Binning::EqualWidth { bins: 16 }).unwrap();
                self.indexes.insert(name.clone(), index);
            }
            self
        }
    }

    impl ColumnProvider for MemProvider {
        fn num_rows(&self) -> usize {
            self.rows
        }
        fn column(&self, name: &str) -> Option<&[f64]> {
            self.columns.get(name).map(|v| v.as_slice())
        }
        fn index(&self, name: &str) -> Option<&BitmapIndex> {
            self.indexes.get(name)
        }
    }

    /// Four columns shaped like the benchmark's drill-down predicates: a
    /// ramp, two periodic columns and one with NaN islands.
    fn drill_columns(n: usize) -> MemProvider {
        let col = |f: &dyn Fn(usize) -> f64| (0..n).map(f).collect::<Vec<f64>>();
        MemProvider::new(vec![
            ("px", col(&|i| i as f64)),
            ("x", col(&|i| (i * 7 % 101) as f64)),
            ("y", col(&|i| (i % 97) as f64 - 48.0)),
            (
                "py",
                col(&|i| {
                    if i % 89 < 5 {
                        f64::NAN
                    } else {
                        (i % 53) as f64
                    }
                }),
            ),
        ])
        .indexed()
    }

    fn ramp(n: usize) -> MemProvider {
        MemProvider::new(vec![("x", (0..n).map(|i| i as f64).collect::<Vec<f64>>())])
    }

    fn full_words(len: usize) -> Vec<u64> {
        let mut words = vec![u64::MAX; words_for(len)];
        mask_padding(&mut words, len);
        words
    }

    #[test]
    fn zone_classify_covers_all_cases() {
        let z = Zone::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(z.classify(&ValueRange::gt(3.0)), ZoneVerdict::Empty);
        assert_eq!(z.classify(&ValueRange::ge(1.0)), ZoneVerdict::Full);
        assert_eq!(z.classify(&ValueRange::gt(1.0)), ZoneVerdict::Scan);
        assert_eq!(z.classify(&ValueRange::lt(0.0)), ZoneVerdict::Empty);
        let nanz = Zone::from_slice(&[f64::NAN, f64::NAN]);
        assert!(nanz.all_nan());
        assert_eq!(nanz.classify(&ValueRange::all()), ZoneVerdict::Empty);
        let mixed = Zone::from_slice(&[1.0, f64::NAN]);
        // The NaN row forces a scan even though [1,1] ⊆ range.
        assert_eq!(mixed.classify(&ValueRange::ge(0.0)), ZoneVerdict::Scan);
    }

    #[test]
    fn zone_maps_partition_the_column() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let maps = ZoneMaps::build(&data, 4);
        assert_eq!(maps.num_chunks(), 3);
        assert_eq!(maps.zone(0).min, 0.0);
        assert_eq!(maps.zone(0).max, 3.0);
        assert_eq!(maps.zone(2).len, 2);
        assert!(maps.size_in_bytes() > 0);
    }

    #[test]
    fn mask_algebra_normalizes_and_iterates() {
        let len = 70;
        let a = Mask::Bits(full_words(len));
        assert_eq!(a.clone().normalized(len), Mask::Full);
        assert_eq!(Mask::Full.and(Mask::Empty, len), Mask::Empty);
        assert_eq!(Mask::Empty.or(Mask::Full, len), Mask::Full);
        assert_eq!(Mask::Full.not(len), Mask::Empty);
        let mut words = vec![0u64; 2];
        words[0] |= 1 << 3;
        words[1] |= 1 << 5; // row 69
        let m = Mask::Bits(words);
        let mut rows = Vec::new();
        m.for_each_row(len, |r| rows.push(r));
        assert_eq!(rows, vec![3, 69]);
        let inv = m.not(len);
        assert_eq!(inv.count(len), 68);
    }

    #[test]
    fn slice_mask_reads_unaligned_spans() {
        let mut words = vec![0u64; 4];
        for bit in (0..256).filter(|b| b % 3 == 0 || b % 64 == 63) {
            words[bit / 64] |= 1 << (bit % 64);
        }
        for (start, len) in [
            (0usize, 64usize),
            (3, 7),
            (60, 10),
            (64, 128),
            (1, 191),
            (31, 225),
        ] {
            let got = slice_mask(&words, start, len);
            let mut rows = Vec::new();
            got.for_each_row(len, |r| rows.push(r));
            let expected: Vec<usize> = (0..len)
                .filter(|r| words[(start + r) / 64] >> ((start + r) % 64) & 1 == 1)
                .collect();
            assert_eq!(rows, expected, "start {start} len {len}");
            assert_eq!(got.count(len), expected.len(), "padding stays zero");
        }
        // All-zero and all-one spans collapse to the pruned forms.
        let ones = vec![u64::MAX; 3];
        assert_eq!(slice_mask(&ones, 5, 130), Mask::Full);
        assert_eq!(slice_mask(&[0u64; 3], 5, 130), Mask::Empty);
    }

    #[test]
    fn one_thread_auto_slices_index_answers_at_any_chunk_size() {
        let p = drill_columns(5000);
        for q in [
            "px > 100 && px < 4000",
            "(px > 40 && y < 5) || (x > 20 && py < 30 && px <= 4500)",
            "!(y >= 10) && x < 50",
            "px > 2500",
        ] {
            let expr = parse_query(q).unwrap();
            let program = Program::compile(&expr);
            let oracle = scan::scan_query(&expr, &p).unwrap();
            let tree = evaluate_with_strategy(&expr.normalized(), &p, ExecStrategy::Auto).unwrap();
            for chunk_rows in [1usize, 31, 64, 4097] {
                let exec = ParExec::new(1, chunk_rows);
                let mode = exec.plan_mode(ExecStrategy::Auto);
                let sources = program.plan(&p, mode).unwrap();
                assert!(
                    sources
                        .iter()
                        .any(|s| matches!(s, PredSource::Index { .. })),
                    "{q}: some slot takes the index"
                );
                let got = evaluate_program(&program, &p, &exec, ExecStrategy::Auto).unwrap();
                assert_eq!(got.to_rows(), oracle.to_rows(), "{q} at {chunk_rows}");
                assert_eq!(got.as_wah(), tree.as_wah(), "{q} words at {chunk_rows}");
                let masks = run_program(&program, &p, &exec, mode)
                    .unwrap()
                    .into_masks(chunk_rows);
                assert_eq!(masks.num_chunks(), 5000usize.div_ceil(chunk_rows));
                assert_eq!(masks.to_selection().to_rows(), oracle.to_rows());
            }
        }
    }

    #[test]
    fn auto_takes_the_index_at_one_thread_only() {
        let p = drill_columns(1000);
        let expr = parse_query("(px > 40 && y < 5) || (x > 20 && py < 30 && px <= 900)").unwrap();
        let program = Program::compile(&expr);
        let sources = |threads: usize| {
            let exec = ParExec::new(threads, DEFAULT_CHUNK_ROWS);
            program
                .plan(&p, exec.plan_mode(ExecStrategy::Auto))
                .unwrap()
        };
        assert_eq!(sources(1).len(), 5);
        assert!(sources(1)
            .iter()
            .all(|s| matches!(s, PredSource::Index { .. })));
        for threads in [2, 4] {
            assert!(
                sources(threads)
                    .iter()
                    .all(|s| *s == PredSource::Scan { pruned: true }),
                "{threads} threads: {:?}",
                sources(threads)
            );
        }
        let exec = ParExec::new(1, DEFAULT_CHUNK_ROWS);
        let scan_only = program
            .plan(&p, exec.plan_mode(ExecStrategy::ScanOnly))
            .unwrap();
        assert!(scan_only
            .iter()
            .all(|s| matches!(s, PredSource::Scan { .. })));
    }

    #[test]
    fn unknown_columns_are_named_as_each_plan_names_them() {
        // A one-thread plan names the first unknown column in slot order,
        // a chunk-scan plan the first by name.
        let p = ramp(100);
        let expr = parse_query("!(zz > 1) && aa > 2").unwrap();
        let program = Program::compile(&expr);
        for (threads, strategy, column) in [
            (1, ExecStrategy::Auto, "zz"),
            (1, ExecStrategy::ScanOnly, "zz"),
            (2, ExecStrategy::Auto, "aa"),
            (2, ExecStrategy::ScanOnly, "aa"),
        ] {
            let exec = ParExec::new(threads, 16);
            assert_eq!(
                evaluate_program(&program, &p, &exec, strategy),
                Err(FastBitError::UnknownColumn(column.into())),
                "{threads} threads, {strategy:?}"
            );
        }
        assert_eq!(
            evaluate_chunked(&expr, &p, &ParExec::new(1, 16)),
            Err(FastBitError::UnknownColumn("aa".into()))
        );
    }

    #[test]
    fn chunked_matches_scan_on_simple_ramp() {
        let p = ramp(1000);
        let expr = QueryExpr::Pred(Predicate::new("x", ValueRange::between(100.0, 900.0)));
        let oracle = scan::scan_query(&expr, &p).unwrap();
        for chunk_rows in [1usize, 31, 64, 1000, 5000] {
            for threads in [1usize, 2, 8] {
                let exec = ParExec::new(threads, chunk_rows);
                let got = evaluate_chunked(&expr, &p, &exec).unwrap();
                assert_eq!(got.to_rows(), oracle.to_rows(), "{chunk_rows}/{threads}");
            }
        }
    }

    #[test]
    fn chunked_result_is_independent_of_threads_and_pruning() {
        let p = ramp(10_000);
        let expr = QueryExpr::pred("x", ValueRange::lt(2500.0)).or(QueryExpr::pred(
            "x",
            ValueRange::ge(7500.0),
        )
        .not());
        let reference = evaluate_chunked(&expr, &p, &ParExec::new(1, 512)).unwrap();
        for exec in [
            ParExec::new(4, 512),
            ParExec::new(8, 512),
            ParExec::new(4, 512).without_pruning(),
        ] {
            let got = evaluate_chunked(&expr, &p, &exec).unwrap();
            // Same chunk size ⇒ the WAH words are bit-for-bit identical.
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn pruning_counters_move() {
        let p = ramp(10_000);
        let exec = ParExec::new(2, 100);
        // Matches everything: every chunk is a full-prune.
        evaluate_chunked(&QueryExpr::pred("x", ValueRange::ge(0.0)), &p, &exec).unwrap();
        // Matches nothing: every chunk is an empty-prune.
        evaluate_chunked(&QueryExpr::pred("x", ValueRange::gt(1e12)), &p, &exec).unwrap();
        let s = exec.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.chunks_pruned_full, 100);
        assert_eq!(s.chunks_pruned_empty, 100);
        assert_eq!(s.chunks_scanned, 0);
    }

    #[test]
    fn unknown_column_errors_even_in_later_operands() {
        let p = ramp(100);
        let exec = ParExec::new(2, 10);
        let expr = QueryExpr::pred("x", ValueRange::gt(1e12))
            .and(QueryExpr::pred("nope", ValueRange::gt(0.0)));
        assert!(matches!(
            evaluate_chunked(&expr, &p, &exec),
            Err(FastBitError::UnknownColumn(_))
        ));
    }

    #[test]
    fn empty_dataset_yields_empty_selection() {
        let p = MemProvider::new(vec![("x", Vec::new())]);
        let expr = QueryExpr::pred("x", ValueRange::gt(0.0));
        let got = evaluate_chunked(&expr, &p, &ParExec::new(4, 16)).unwrap();
        assert_eq!(got.num_rows(), 0);
        assert!(got.is_none_selected());
    }

    #[test]
    fn matches_sequential_evaluator_with_nans_and_infs() {
        let mut x: Vec<f64> = (0..500).map(|i| (i as f64) - 250.0).collect();
        x[10] = f64::NAN;
        x[490] = f64::INFINITY;
        x[491] = f64::NEG_INFINITY;
        let p = MemProvider::new(vec![("x", x)]);
        for expr in [
            QueryExpr::pred("x", ValueRange::gt(-10.0)),
            QueryExpr::pred("x", ValueRange::le(0.0)).not(),
            QueryExpr::pred("x", ValueRange::all()),
        ] {
            let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
            let got = evaluate_chunked(&expr, &p, &ParExec::new(3, 37)).unwrap();
            assert_eq!(got.to_rows(), oracle.to_rows(), "{expr}");
        }
    }

    /// Fails items `1` and `2` of `0..6`, each with its own index. Item 1
    /// fails last: another thread has taken and failed item 2 by then.
    fn fail_one_and_two(i: usize) -> Result<usize> {
        if i == 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if i == 1 || i == 2 {
            Err(FastBitError::Execution(format!("item {i}")))
        } else {
            Ok(i)
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 4] {
            let results = run(threads, 8, |i| Ok::<_, FastBitError>(i * 10)).unwrap();
            assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70], "{threads}");
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        for threads in [1, 2, 4] {
            let seen: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let results = run(threads, 100, |i| {
                seen[i].fetch_add(1, Ordering::SeqCst);
                Ok::<_, FastBitError>(i)
            })
            .unwrap();
            assert_eq!(results.len(), 100);
            assert!(
                seen.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{threads}"
            );
        }
    }

    #[test]
    fn errors_abort_the_run() {
        for threads in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let result = run(threads, 1000, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 5 {
                    Err(FastBitError::Execution("boom".into()))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result, Err(FastBitError::Execution("boom".into())));
            // Nothing is handed out after the failure but the few items
            // other threads took while item 5 ran.
            assert!(ran.load(Ordering::SeqCst) < 1000, "{threads}");
        }
    }

    #[test]
    fn the_lowest_failing_item_wins_at_every_thread_count() {
        for threads in [1, 2, 4] {
            for _ in 0..50 {
                let err = run(threads, 6, fail_one_and_two).unwrap_err();
                assert_eq!(err, FastBitError::Execution("item 1".into()), "{threads}");
            }
        }
    }

    #[test]
    fn more_threads_than_items_runs_every_item() {
        assert_eq!(run(16, 3, Ok::<_, FastBitError>).unwrap(), vec![0, 1, 2]);
        assert!(run(4, 0, Ok::<_, FastBitError>).unwrap().is_empty());
    }

    #[test]
    fn zero_or_one_thread_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let results = run(threads, 3, |i| {
                assert_eq!(std::thread::current().id(), caller, "{threads}");
                Ok::<_, FastBitError>(i)
            })
            .unwrap();
            assert_eq!(results, vec![0, 1, 2], "{threads}");
        }
    }

    #[test]
    fn a_panicking_item_becomes_an_error() {
        for threads in [1, 2, 4] {
            let result = run(threads, 6, |i| {
                if i == 3 {
                    panic!("item {i} panics");
                }
                Ok::<_, FastBitError>(i)
            });
            assert_eq!(
                result,
                Err(FastBitError::Execution("worker panicked on item 3".into())),
                "{threads}"
            );
        }
    }
}
