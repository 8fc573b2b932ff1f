//! Unconditional and conditional histogram computation.
//!
//! The paper's visual pipeline never ships raw particle data downstream; it
//! ships histograms. Two kinds are needed (Section V-A):
//!
//! * **Unconditional histograms** — one-time computation over the whole
//!   dataset, providing the initial context view.
//! * **Conditional histograms** — recomputed every time the user refines the
//!   selection; the condition is a compound Boolean range query. FastBit
//!   evaluates the condition first (producing an intermediate list of hits)
//!   and then bins only the hits, which is why it wins when selections are
//!   small and loses to a straight scan when nearly everything is selected.
//!
//! [`HistogramEngine`] exposes both. Under [`ExecStrategy::Auto`] it takes the
//! FastBit-style indexed path; under [`ExecStrategy::ScanOnly`] it scans like
//! the "Custom" baseline, so the two can be benchmarked against each other as
//! in Figures 11, 12 and 14.
//!
//! Each histogram shape has one body, run over a [`ParExec`]: the condition
//! goes through the one query evaluator ([`crate::par`]) and the binning is
//! chunked across the executor's threads, with per-chunk partial counts
//! merged in chunk order. [`HistogramEngine::hist1d`] and
//! [`HistogramEngine::hist2d`] are those bodies at one thread.

use histogram::{rebin_equal_weight, BinEdges, Hist1D, Hist2D};

use crate::compile::Program;
use crate::error::{FastBitError, Result};
use crate::par::{self, ChunkMasks, ParExec};
use crate::query::{ColumnProvider, ExecStrategy, QueryExpr};
use crate::selection::Selection;

/// How histogram bins should be chosen.
#[derive(Debug, Clone)]
pub enum BinSpec {
    /// `n` uniform (equal-width) bins spanning the data range.
    Uniform(usize),
    /// About `n` adaptive (equal-weight) bins derived from the data
    /// distribution.
    Adaptive(usize),
    /// Explicit, caller-supplied edges.
    Edges(BinEdges),
}

impl BinSpec {
    /// Requested number of bins (exact for uniform/explicit, a target for
    /// adaptive).
    pub fn bins(&self) -> usize {
        match self {
            BinSpec::Uniform(n) | BinSpec::Adaptive(n) => *n,
            BinSpec::Edges(e) => e.num_bins(),
        }
    }
}

/// Histogram computation facade over a [`ColumnProvider`].
pub struct HistogramEngine<'a, P: ColumnProvider> {
    provider: &'a P,
}

impl<'a, P: ColumnProvider> HistogramEngine<'a, P> {
    /// Create an engine reading columns (and indexes) from `provider`.
    pub fn new(provider: &'a P) -> Self {
        Self { provider }
    }

    fn column(&self, name: &str) -> Result<&'a [f64]> {
        self.provider
            .column(name)
            .ok_or_else(|| FastBitError::UnknownColumn(name.to_string()))
    }

    /// Resolve bin edges for `column` under `spec`, optionally restricted to
    /// the rows of `selection` (conditional adaptive binning needs the
    /// selected values' own min/max and distribution, which is exactly the
    /// extra cost the paper observes for adaptive conditional histograms on
    /// large selections).
    pub fn resolve_edges(
        &self,
        column: &str,
        spec: &BinSpec,
        selection: Option<&Selection>,
        strategy: ExecStrategy,
    ) -> Result<BinEdges> {
        match spec {
            BinSpec::Edges(e) => Ok(e.clone()),
            BinSpec::Uniform(n) => match selection {
                None => {
                    // Unconditional: the index already knows the value range.
                    if strategy == ExecStrategy::Auto {
                        if let Some(idx) = self.provider.index(column) {
                            return Ok(BinEdges::uniform(idx.edges().lo(), idx.edges().hi(), *n)?);
                        }
                    }
                    let data = self.column(column)?;
                    Ok(BinEdges::uniform_from_data(data, *n)?)
                }
                Some(sel) => {
                    let data = self.column(column)?;
                    let values = sel.gather(data);
                    if values.is_empty() {
                        return Ok(BinEdges::uniform_from_data(data, *n)?);
                    }
                    Ok(BinEdges::uniform_from_data(&values, *n)?)
                }
            },
            BinSpec::Adaptive(n) => match selection {
                None => {
                    if strategy == ExecStrategy::Auto {
                        if let Some(idx) = self.provider.index(column) {
                            // FastBit derives adaptive bins by merging the
                            // fine index bins so each coarse bin holds about
                            // the same number of records.
                            let fine = Hist1D::from_counts(idx.edges().clone(), idx.bin_counts())?;
                            return Ok(rebin_equal_weight(&fine, *n)?);
                        }
                    }
                    let data = self.column(column)?;
                    Ok(BinEdges::equal_weight_from_data(data, *n)?)
                }
                Some(sel) => {
                    let data = self.column(column)?;
                    let values = sel.gather(data);
                    if values.is_empty() {
                        return Ok(BinEdges::uniform_from_data(data, *n)?);
                    }
                    Ok(BinEdges::equal_weight_from_data(&values, *n)?)
                }
            },
        }
    }

    /// Evaluate the condition of a conditional histogram at one thread
    /// ([`crate::compile::evaluate`]; selected rows identical to the
    /// [`crate::testing`] oracle — pinned by `tests/compile_differential.rs`).
    pub fn evaluate_condition(
        &self,
        condition: &QueryExpr,
        strategy: ExecStrategy,
    ) -> Result<Selection> {
        crate::compile::evaluate(condition, self.provider, strategy)
    }

    /// Evaluate the condition of a conditional histogram over `exec`'s
    /// threads: the per-chunk masks for binning together with the merged
    /// selection for edge resolution.
    pub fn evaluate_condition_par(
        &self,
        condition: &QueryExpr,
        strategy: ExecStrategy,
        exec: &ParExec,
    ) -> Result<EvaluatedCondition> {
        let program = Program::compile(condition);
        let answer = par::run_program(&program, self.provider, exec, exec.plan_mode(strategy))?;
        let (masks, selection) = answer.into_parts(&program, exec.chunk_rows())?;
        Ok(EvaluatedCondition { masks, selection })
    }

    /// Compute a 1D histogram of `column` at one thread.
    pub fn hist1d(
        &self,
        column: &str,
        spec: &BinSpec,
        condition: Option<&QueryExpr>,
        strategy: ExecStrategy,
    ) -> Result<Hist1D> {
        self.hist1d_par(column, spec, condition, strategy, &ParExec::sequential())
    }

    /// Compute a 2D histogram of the pair `(x_column, y_column)` at one
    /// thread — the unit of work for one pair of adjacent parallel-coordinate
    /// axes.
    pub fn hist2d(
        &self,
        x_column: &str,
        y_column: &str,
        x_spec: &BinSpec,
        y_spec: &BinSpec,
        condition: Option<&QueryExpr>,
        strategy: ExecStrategy,
    ) -> Result<Hist2D> {
        let exec = ParExec::sequential();
        let cond = condition
            .map(|c| self.evaluate_condition_par(c, strategy, &exec))
            .transpose()?;
        self.hist2d_with_condition_par(
            x_column,
            y_column,
            x_spec,
            y_spec,
            cond.as_ref(),
            strategy,
            &exec,
        )
    }

    /// Compute a 1D histogram of `column` over `exec`'s threads: the
    /// condition is evaluated chunk-by-chunk and the binning is chunked
    /// across the pool. Bin edges do not depend on the thread count, so the
    /// histogram is identical bin-for-bin at every one.
    pub fn hist1d_par(
        &self,
        column: &str,
        spec: &BinSpec,
        condition: Option<&QueryExpr>,
        strategy: ExecStrategy,
        exec: &ParExec,
    ) -> Result<Hist1D> {
        let cond = condition
            .map(|c| self.evaluate_condition_par(c, strategy, exec))
            .transpose()?;
        let edges =
            self.resolve_edges(column, spec, cond.as_ref().map(|c| &c.selection), strategy)?;

        // Pure-index fast path: an unconditional `Auto` request whose edges
        // coincide with the index reads the counts straight off the bitmaps.
        if strategy == ExecStrategy::Auto && cond.is_none() {
            if let Some(idx) = self.provider.index(column) {
                if idx.edges() == &edges {
                    return Ok(Hist1D::from_counts(edges, idx.bin_counts())?);
                }
            }
        }

        let data = self.column(column)?;
        par_hist1d(edges, data, cond.as_ref().map(|c| &c.masks), exec)
    }

    /// Compute a 2D histogram of `(x_column, y_column)` over `exec`'s
    /// threads under an already evaluated condition, so several axis pairs
    /// can share one evaluation.
    #[allow(clippy::too_many_arguments)] // two columns, two specs, the condition, strategy and exec
    pub fn hist2d_with_condition_par(
        &self,
        x_column: &str,
        y_column: &str,
        x_spec: &BinSpec,
        y_spec: &BinSpec,
        cond: Option<&EvaluatedCondition>,
        strategy: ExecStrategy,
        exec: &ParExec,
    ) -> Result<Hist2D> {
        let selection = cond.map(|c| &c.selection);
        let x_edges = self.resolve_edges(x_column, x_spec, selection, strategy)?;
        let y_edges = self.resolve_edges(y_column, y_spec, selection, strategy)?;
        let xs = self.column(x_column)?;
        let ys = self.column(y_column)?;
        if xs.len() != ys.len() {
            return Err(FastBitError::RowCountMismatch {
                index_rows: xs.len(),
                data_rows: ys.len(),
            });
        }
        if let Some(sel) = selection {
            sel.check_rows(xs.len())?;
        }
        par_hist2d(x_edges, y_edges, xs, ys, cond.map(|c| &c.masks), exec)
    }
}

/// A histogram condition evaluated over a [`ParExec`]: the per-chunk masks
/// (for chunked binning) together with the merged [`Selection`] (for edge
/// resolution and for callers that need the row set).
#[derive(Debug, Clone)]
pub struct EvaluatedCondition {
    /// Per-chunk match masks.
    pub masks: ChunkMasks,
    /// The merged selection.
    pub selection: Selection,
}

impl EvaluatedCondition {
    /// A condition whose rows are already chosen (say, by particle
    /// identifier), split into `exec`'s chunks.
    pub fn from_selection(selection: Selection, exec: &ParExec) -> Self {
        EvaluatedCondition {
            masks: ChunkMasks::from_selection(&selection, exec.chunk_rows()),
            selection,
        }
    }
}

/// The runs of chunks binned into one partial histogram each: one run of
/// every chunk at one thread, where a partial per chunk only adds zeroing
/// and merging (a 2048×2048 2D histogram is 32 MiB of counts, and partials
/// per chunk made one-thread 2D histograms 19× slower); one run per chunk
/// at more threads, so workers balance chunk by chunk.
fn chunk_runs(exec: &ParExec, num_chunks: usize) -> (usize, usize) {
    let per_run = if exec.threads() == 1 {
        num_chunks.max(1)
    } else {
        1
    };
    (num_chunks.div_ceil(per_run), per_run)
}

/// Chunked 1D binning: each run of chunks bins its (selected) rows into a
/// private histogram; partials are merged in chunk order. Counts are exact
/// integer sums, so the result equals the sequential histogram bin-for-bin.
fn par_hist1d(
    edges: BinEdges,
    data: &[f64],
    masks: Option<&ChunkMasks>,
    exec: &ParExec,
) -> Result<Hist1D> {
    if let Some(m) = masks {
        if m.num_rows() != data.len() {
            return Err(FastBitError::RowCountMismatch {
                index_rows: m.num_rows(),
                data_rows: data.len(),
            });
        }
    }
    let chunk_rows = exec.chunk_rows();
    let num_chunks = data.len().div_ceil(chunk_rows);
    let (runs, per_run) = chunk_runs(exec, num_chunks);
    let partials = exec.run_chunks(runs, |run| {
        let mut h = Hist1D::new(edges.clone());
        for chunk in run * per_run..num_chunks.min((run + 1) * per_run) {
            let start = chunk * chunk_rows;
            let len = chunk_rows.min(data.len() - start);
            match masks {
                None => h.accumulate(&data[start..start + len]),
                Some(m) => m.mask(chunk).for_each_row(len, |r| h.push(data[start + r])),
            }
        }
        Ok(h)
    })?;
    let mut partials = partials.into_iter();
    let mut out = partials.next().unwrap_or_else(|| Hist1D::new(edges));
    for p in partials {
        out.merge_counts(&p)?;
    }
    Ok(out)
}

/// Chunked 2D binning; see [`par_hist1d`].
fn par_hist2d(
    x_edges: BinEdges,
    y_edges: BinEdges,
    xs: &[f64],
    ys: &[f64],
    masks: Option<&ChunkMasks>,
    exec: &ParExec,
) -> Result<Hist2D> {
    if let Some(m) = masks {
        if m.num_rows() != xs.len() {
            return Err(FastBitError::RowCountMismatch {
                index_rows: m.num_rows(),
                data_rows: xs.len(),
            });
        }
    }
    let chunk_rows = exec.chunk_rows();
    let num_chunks = xs.len().div_ceil(chunk_rows);
    let (runs, per_run) = chunk_runs(exec, num_chunks);
    let partials = exec.run_chunks(runs, |run| {
        let mut h = Hist2D::new(x_edges.clone(), y_edges.clone());
        for chunk in run * per_run..num_chunks.min((run + 1) * per_run) {
            let start = chunk * chunk_rows;
            let len = chunk_rows.min(xs.len() - start);
            match masks {
                None => h.accumulate(&xs[start..start + len], &ys[start..start + len]),
                Some(m) => m
                    .mask(chunk)
                    .for_each_row(len, |r| h.push(xs[start + r], ys[start + r])),
            }
        }
        Ok(h)
    })?;
    let mut partials = partials.into_iter();
    let mut out = partials
        .next()
        .unwrap_or_else(|| Hist2D::new(x_edges, y_edges));
    for p in partials {
        out.merge_counts(&p)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BitmapIndex;
    use crate::query::ValueRange;
    use histogram::Binning;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;

    struct MemProvider {
        columns: HashMap<String, Vec<f64>>,
        indexes: HashMap<String, BitmapIndex>,
        rows: usize,
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

    fn provider(n: usize) -> MemProvider {
        let mut rng = StdRng::seed_from_u64(42);
        let px: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e11)).collect();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e-3)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let mut columns = HashMap::new();
        let mut indexes = HashMap::new();
        for (name, data) in [("px", px), ("x", x), ("y", y)] {
            indexes.insert(
                name.to_string(),
                BitmapIndex::build(&data, &Binning::EqualWidth { bins: 128 }).unwrap(),
            );
            columns.insert(name.to_string(), data);
        }
        MemProvider {
            columns,
            indexes,
            rows: n,
        }
    }

    #[test]
    fn unconditional_hist2d_engines_agree() {
        let p = provider(5000);
        let engine = HistogramEngine::new(&p);
        let fast = engine
            .hist2d(
                "x",
                "px",
                &BinSpec::Uniform(64),
                &BinSpec::Uniform(64),
                None,
                ExecStrategy::Auto,
            )
            .unwrap();
        let custom = engine
            .hist2d(
                "x",
                "px",
                &BinSpec::Uniform(64),
                &BinSpec::Uniform(64),
                None,
                ExecStrategy::ScanOnly,
            )
            .unwrap();
        assert_eq!(fast.total(), 5000);
        assert_eq!(custom.total(), 5000);
        // Engines may pick marginally different ranges (index boundaries vs
        // exact data min/max), so compare totals and coarse structure.
        assert_eq!(fast.shape(), custom.shape());
    }

    #[test]
    fn conditional_hist_counts_only_hits() {
        let p = provider(8000);
        let engine = HistogramEngine::new(&p);
        let cond = QueryExpr::pred("px", ValueRange::gt(9e10));
        let expected_hits = p.columns["px"].iter().filter(|&&v| v > 9e10).count() as u64;
        for eng in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
            let h = engine
                .hist2d(
                    "x",
                    "px",
                    &BinSpec::Uniform(32),
                    &BinSpec::Uniform(32),
                    Some(&cond),
                    eng,
                )
                .unwrap();
            assert_eq!(h.total(), expected_hits, "engine {eng:?}");
        }
    }

    #[test]
    fn conditional_hist_engines_agree_exactly_with_shared_edges() {
        let p = provider(4000);
        let engine = HistogramEngine::new(&p);
        let cond = QueryExpr::pred("y", ValueRange::between(-10.0, 10.0));
        let edges = BinEdges::uniform(0.0, 1e11, 64).unwrap();
        let spec = BinSpec::Edges(edges);
        let xspec = BinSpec::Edges(BinEdges::uniform(0.0, 1e-3, 64).unwrap());
        let fast = engine
            .hist2d("x", "px", &xspec, &spec, Some(&cond), ExecStrategy::Auto)
            .unwrap();
        let custom = engine
            .hist2d(
                "x",
                "px",
                &xspec,
                &spec,
                Some(&cond),
                ExecStrategy::ScanOnly,
            )
            .unwrap();
        assert_eq!(fast.counts(), custom.counts());
    }

    #[test]
    fn hist1d_pure_index_path_matches_scan() {
        let p = provider(6000);
        let engine = HistogramEngine::new(&p);
        // Ask for edges equal to the index edges: the FastBit path must not
        // touch the raw data and still produce identical counts.
        let idx_edges = p.indexes["px"].edges().clone();
        let fast = engine
            .hist1d(
                "px",
                &BinSpec::Edges(idx_edges.clone()),
                None,
                ExecStrategy::Auto,
            )
            .unwrap();
        let custom = engine
            .hist1d(
                "px",
                &BinSpec::Edges(idx_edges),
                None,
                ExecStrategy::ScanOnly,
            )
            .unwrap();
        assert_eq!(fast.counts(), custom.counts());
    }

    #[test]
    fn adaptive_bins_balance_selected_mass() {
        let p = provider(10_000);
        let engine = HistogramEngine::new(&p);
        let h = engine
            .hist1d("px", &BinSpec::Adaptive(16), None, ExecStrategy::Auto)
            .unwrap();
        assert!(h.num_bins() <= 16 && h.num_bins() >= 4);
        let ideal = h.total() as f64 / h.num_bins() as f64;
        for i in 0..h.num_bins() {
            assert!((h.count(i) as f64) < ideal * 3.0);
        }
    }

    #[test]
    fn empty_selection_produces_empty_histogram() {
        let p = provider(1000);
        let engine = HistogramEngine::new(&p);
        let cond = QueryExpr::pred("px", ValueRange::gt(1e30));
        let h = engine
            .hist2d(
                "x",
                "px",
                &BinSpec::Uniform(16),
                &BinSpec::Uniform(16),
                Some(&cond),
                ExecStrategy::Auto,
            )
            .unwrap();
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let p = provider(100);
        let engine = HistogramEngine::new(&p);
        assert!(engine
            .hist1d("nope", &BinSpec::Uniform(8), None, ExecStrategy::ScanOnly)
            .is_err());
    }

    #[test]
    fn hist1d_par_matches_sequential_bin_for_bin() {
        let p = provider(7000);
        let engine = HistogramEngine::new(&p);
        let cond = QueryExpr::pred("y", ValueRange::between(-30.0, 30.0));
        for exec in [
            ParExec::new(1, 512),
            ParExec::new(4, 512),
            ParExec::new(4, 7001),
        ] {
            for (spec, condition) in [
                (BinSpec::Uniform(64), None),
                (BinSpec::Uniform(64), Some(&cond)),
                (BinSpec::Adaptive(32), Some(&cond)),
            ] {
                for eng in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
                    let seq = engine.hist1d("px", &spec, condition, eng).unwrap();
                    let par = engine
                        .hist1d_par("px", &spec, condition, eng, &exec)
                        .unwrap();
                    assert_eq!(par, seq, "{spec:?} {eng:?}");
                }
            }
        }
    }

    #[test]
    fn hist1d_par_hits_the_pure_index_fast_path() {
        let p = provider(4000);
        let engine = HistogramEngine::new(&p);
        let idx_edges = p.indexes["px"].edges().clone();
        let exec = ParExec::new(2, 256);
        let par = engine
            .hist1d_par(
                "px",
                &BinSpec::Edges(idx_edges.clone()),
                None,
                ExecStrategy::Auto,
                &exec,
            )
            .unwrap();
        let seq = engine
            .hist1d("px", &BinSpec::Edges(idx_edges), None, ExecStrategy::Auto)
            .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn hist2d_par_matches_sequential_bin_for_bin() {
        let p = provider(5000);
        let engine = HistogramEngine::new(&p);
        let cond = QueryExpr::pred("px", ValueRange::gt(5e10));
        let spec = BinSpec::Uniform(48);
        let oracle_sel =
            crate::testing::evaluate_with_strategy(&cond, &p, ExecStrategy::Auto).unwrap();
        let oracle = |selection: Option<&Selection>, strategy| {
            let x_edges = engine
                .resolve_edges("x", &spec, selection, strategy)
                .unwrap();
            let y_edges = engine
                .resolve_edges("px", &spec, selection, strategy)
                .unwrap();
            let (xs, ys) = (&p.columns["x"], &p.columns["px"]);
            match selection {
                Some(sel) => Hist2D::from_data_masked(x_edges, y_edges, xs, ys, sel.iter_rows()),
                None => Hist2D::from_data(x_edges, y_edges, xs, ys),
            }
        };
        for exec in [ParExec::new(1, 333), ParExec::new(3, 333)] {
            let evaluated = engine
                .evaluate_condition_par(&cond, ExecStrategy::Auto, &exec)
                .unwrap();
            assert_eq!(evaluated.selection.to_rows(), oracle_sel.to_rows());
            let par = engine
                .hist2d_with_condition_par(
                    "x",
                    "px",
                    &spec,
                    &spec,
                    Some(&evaluated),
                    ExecStrategy::Auto,
                    &exec,
                )
                .unwrap();
            let expected = oracle(Some(&oracle_sel), ExecStrategy::Auto);
            assert_eq!(par.counts(), expected.counts());
            assert_eq!(par.out_of_range(), expected.out_of_range());
            // Unconditional as well.
            let par_u = engine
                .hist2d_with_condition_par(
                    "x",
                    "px",
                    &spec,
                    &spec,
                    None,
                    ExecStrategy::ScanOnly,
                    &exec,
                )
                .unwrap();
            assert_eq!(
                par_u.counts(),
                oracle(None, ExecStrategy::ScanOnly).counts()
            );
        }
    }
}
