//! The [`DataExplorer`] facade.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use datastore::{Catalog, Dataset, DatasetCache, DatasetCacheConfig};
use fastbit::par::DEFAULT_CHUNK_ROWS;
use fastbit::{
    parse_query, BinSpec, ExecStrategy, IdIndex, ParExec, ParStatsSnapshot, PlanCache,
    PlanCacheStats, QueryExpr, Selection,
};
use histogram::{Binning, Hist2D};
use lwfa::{SimConfig, Simulation};
use pcoords::{AxisSpec, Framebuffer, Layer, ParallelCoordsPlot, PlotConfig, Rgba};

use crate::error::{Result, VdxError};
use crate::pipeline::{Tracker, TrackingOutput};

/// Configuration of a [`DataExplorer`].
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Index or scan: [`ExecStrategy::Auto`] answers queries, histograms
    /// and tracking through the bitmap and identifier indexes (FastBit in
    /// the paper's charts), [`ExecStrategy::ScanOnly`] scans the raw
    /// columns (the "Custom" baseline) even where indexes exist.
    pub engine: ExecStrategy,
    /// Binning strategy used when building bitmap indexes during generation.
    pub index_binning: Binning,
    /// Worker threads used *within* one query/histogram evaluation. Every
    /// thread count runs the one evaluator ([`fastbit::par`]) over
    /// [`fastbit::par::DEFAULT_CHUNK_ROWS`]-row chunks; `threads` sets how
    /// many chunks run at once. Its plan rule
    /// ([`fastbit::ParExec::plan_mode`]) takes the bitmap indexes under
    /// [`ExecStrategy::Auto`] at `1` (the default) and scans zone-pruned
    /// chunks at `> 1`. Every thread count gives identical row sets and
    /// histogram counts.
    pub threads: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            engine: ExecStrategy::Auto,
            index_binning: Binning::EqualWidth { bins: 256 },
            threads: 1,
        }
    }
}

/// A particle selection: the result of a beam-selection query at one
/// timestep.
#[derive(Debug, Clone)]
pub struct BeamSelection {
    /// Timestep the selection was made at.
    pub step: usize,
    /// The query that produced it.
    pub query: QueryExpr,
    /// Identifiers of the selected particles (the set passed to tracking).
    pub ids: Vec<u64>,
}

/// The top-level exploration session over one timestep catalog.
///
/// Every timestep load goes through a [`DatasetCache`] (full column set
/// plus indexes). The catalog and the cache are held behind [`Arc`]s so one
/// catalog and one cache can be shared by many explorers — e.g. one per server
/// worker thread — without cloning the entry table. `DataExplorer` is
/// `Send + Sync`; see the `shared_catalog_is_send_sync` test.
///
/// ```
/// use vdx_core::{DataExplorer, ExplorerConfig};
/// use vdx_core::lwfa::SimConfig;
///
/// let dir = std::env::temp_dir().join(format!("vdx_doc_{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let explorer =
///     DataExplorer::generate(&dir, SimConfig::tiny(), ExplorerConfig::default()).unwrap();
/// let step = *explorer.steps().last().unwrap();
///
/// // Select a beam with a textual compound query, then drill down.
/// let beam = explorer.select(step, "px > 0 && y > -1e9").unwrap();
/// let hist = explorer.histogram1d(step, "px", 32, None).unwrap();
/// assert_eq!(hist.num_bins(), 32);
/// assert!(beam.ids.len() as u64 <= hist.total());
/// let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct DataExplorer {
    catalog: Arc<Catalog>,
    config: ExplorerConfig,
    /// The cache every timestep load goes through.
    cache: Arc<DatasetCache>,
    /// Catalog-wide operations (tracking, temporal histograms) fan their
    /// timesteps out over one thread per available core.
    track_threads: usize,
    /// The query evaluator's executor (thread count, chunk size, lifetime
    /// pruning statistics).
    par: ParExec,
    /// Compiled query programs keyed by [`QueryExpr::cache_key`]. Programs
    /// are provider-independent (planner decisions bind per execution), so
    /// one entry serves every timestep the same query touches.
    plans: Arc<PlanCache>,
}

/// Compiled query programs retained per explorer. Programs are small
/// (a few predicates plus a linear op list), so the cap only matters for
/// pathological workloads that stream unique query shapes.
const PLAN_CACHE_CAPACITY: usize = 64;

impl DataExplorer {
    /// Open an existing catalog directory.
    pub fn open(dir: impl Into<PathBuf>, config: ExplorerConfig) -> Result<Self> {
        let catalog = Catalog::open(dir)?;
        Ok(Self::from_catalog(Arc::new(catalog), config))
    }

    /// Generate a synthetic LWFA dataset into `dir` (running the one-time
    /// index-building preprocessing) and open it.
    pub fn generate(
        dir: impl Into<PathBuf>,
        sim: SimConfig,
        config: ExplorerConfig,
    ) -> Result<Self> {
        let dir = dir.into();
        let mut catalog = Catalog::create(&dir)?;
        Simulation::new(sim).run_to_catalog(&mut catalog, Some(&config.index_binning))?;
        Ok(Self::from_catalog(Arc::new(catalog), config))
    }

    /// Build an explorer over an already opened, shared catalog, with a
    /// dataset cache of its own ([`DatasetCacheConfig::default`]).
    pub fn from_catalog(catalog: Arc<Catalog>, config: ExplorerConfig) -> Self {
        let par = ParExec::new(config.threads, DEFAULT_CHUNK_ROWS);
        Self {
            catalog,
            config,
            cache: Arc::new(DatasetCache::new(DatasetCacheConfig::default())),
            track_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            par,
            plans: Arc::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
        }
    }

    /// Load through `cache`, shared with other explorers, instead of this
    /// explorer's own.
    pub fn with_dataset_cache(mut self, cache: Arc<DatasetCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A shareable handle to the underlying catalog.
    pub fn catalog_arc(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// Load one timestep through the dataset cache: the full column set
    /// with every index.
    pub(crate) fn load_step(&self, step: usize) -> Result<Arc<Dataset>> {
        Ok(self.cache.get_or_load(&self.catalog, step)?)
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExplorerConfig {
        &self.config
    }

    /// The timesteps available.
    pub fn steps(&self) -> Vec<usize> {
        self.catalog.steps()
    }

    /// The query evaluator's executor (thread count, chunk size, stats).
    pub fn par_exec(&self) -> &ParExec {
        &self.par
    }

    /// Lifetime counters of the query evaluator: evaluations run and chunks
    /// pruned/scanned.
    pub fn par_stats(&self) -> ParStatsSnapshot {
        self.par.stats()
    }

    /// Effectiveness counters of the compiled-plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Register this explorer's engine-level collectors — plan cache,
    /// query evaluator, index encoding counters and the attached
    /// write-back store (when present) — into a metrics registry. The dataset
    /// cache registers itself separately (it is shared across explorers).
    pub fn register_metrics(&self, registry: &obs::Registry) {
        self.plans.register_metrics(registry);
        self.par.register_metrics(registry);
        fastbit::register_encoding_metrics(registry);
        self.catalog.register_metrics(registry);
    }

    /// Select particles at `step` with a textual query such as
    /// `"px > 8.872e10"` and return their identifiers.
    pub fn select(&self, step: usize, query: &str) -> Result<BeamSelection> {
        let expr = parse_query(query)?;
        let dataset = self.load_step(step)?;
        let ids = dataset.ids_of(&self.evaluate(&dataset, &expr)?)?;
        Ok(BeamSelection {
            step,
            query: expr,
            ids,
        })
    }

    /// Refine a selection: keep only the particles that also satisfy `query`
    /// at timestep `step`.
    pub fn refine(
        &self,
        selection: &BeamSelection,
        step: usize,
        query: &str,
    ) -> Result<BeamSelection> {
        let expr = parse_query(query)?;
        let ids = self.refine_ids(step, &selection.ids, &expr)?;
        Ok(BeamSelection {
            step,
            query: selection.query.clone().and(expr),
            ids,
        })
    }

    /// The refinement primitive behind [`DataExplorer::refine`]: the subset
    /// of `ids` that also satisfies `expr` at `step`. Exposed for callers
    /// (like the server) that track id sets without a [`BeamSelection`].
    pub fn refine_ids(&self, step: usize, ids: &[u64], expr: &QueryExpr) -> Result<Vec<u64>> {
        let dataset = self.load_step(step)?;
        let by_id = dataset.select_ids(ids)?;
        let by_query = self.evaluate(&dataset, expr)?;
        Ok(dataset.ids_of(&by_id.and(&by_query)?)?)
    }

    /// Evaluate `expr` over `dataset` with the cached program, on this
    /// explorer's executor under its engine.
    fn evaluate(&self, dataset: &Dataset, expr: &QueryExpr) -> Result<Selection> {
        let program = self.plans.get_or_compile(expr);
        Ok(fastbit::par::evaluate_program(
            &program,
            dataset,
            &self.par,
            self.config.engine,
        )?)
    }

    /// Trace a particle set across every timestep, each served from (and
    /// admitted to) the dataset cache.
    pub fn track(&self, ids: &[u64]) -> Result<TrackingOutput> {
        let steps = self.catalog.steps();
        Tracker::new(self.config.engine).track_with(
            &steps,
            |step| Ok(self.cache.get_or_load(&self.catalog, step)?),
            ids,
            self.track_threads,
        )
    }

    /// Matches per tracked particle over every timestep, as `(id, points)`
    /// pairs in ascending id order with ids found nowhere left out: the
    /// `(trace.id, trace.points.len())` of [`DataExplorer::track`], without
    /// the trace points. Under `ExecStrategy::Auto`, each timestep is
    /// counted from an identifier index alone — a resident dataset's, else
    /// the one [`Catalog::load_id_index`] reads — and nothing is admitted
    /// into the cache. Under `ScanOnly` the counts come from
    /// [`DataExplorer::track`].
    pub fn track_counts(&self, ids: &[u64]) -> Result<Vec<(u64, u64)>> {
        if self.config.engine != ExecStrategy::Auto {
            let tracking = self.track(ids)?;
            return Ok(tracking
                .traces
                .iter()
                .map(|t| (t.id, t.points.len() as u64))
                .collect());
        }
        let mut wanted = ids.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let count = |idx: &IdIndex| -> Vec<u64> {
            wanted
                .iter()
                .map(|&id| idx.rows_for(id).count() as u64)
                .collect()
        };
        let steps = self.catalog.steps();
        let per_step = fastbit::par::run(self.track_threads, steps.len(), |i| -> Result<_> {
            Ok(match self.cache.get_resident(steps[i]) {
                Some(dataset) => match dataset.id_index() {
                    Some(idx) => count(idx),
                    None => count(&IdIndex::build(dataset.table().id_column("id")?)),
                },
                None => count(&self.catalog.load_id_index(steps[i])?),
            })
        })?;
        let mut totals = vec![0u64; wanted.len()];
        for counts in per_step {
            for (total, n) in totals.iter_mut().zip(counts) {
                *total += n;
            }
        }
        Ok(wanted
            .into_iter()
            .zip(totals)
            .filter(|&(_, n)| n > 0)
            .collect())
    }

    /// Compute a 1D histogram of `column` at `step` with `bins` uniform
    /// bins, optionally restricted by a `condition` query — the drill-down
    /// primitive the server exposes as its `HIST` operation.
    pub fn histogram1d(
        &self,
        step: usize,
        column: &str,
        bins: usize,
        condition: Option<&str>,
    ) -> Result<histogram::Hist1D> {
        let condition = condition.map(parse_query).transpose()?;
        let dataset = self.load_step(step)?;
        Ok(dataset.hist_engine().hist1d_par(
            column,
            &BinSpec::Uniform(bins),
            condition.as_ref(),
            self.config.engine,
            &self.par,
        )?)
    }

    /// Compute the 2D histograms between adjacent axes of `axes` at `step`,
    /// optionally restricted by `condition`, at `bins` resolution.
    pub fn axis_histograms(
        &self,
        step: usize,
        axes: &[&str],
        bins: usize,
        condition: Option<&str>,
        adaptive: bool,
    ) -> Result<Vec<Hist2D>> {
        if axes.len() < 2 {
            return Err(VdxError::Invalid("need at least two axes".into()));
        }
        let condition = condition.map(parse_query).transpose()?;
        let dataset = self.load_step(step)?;
        let engine = dataset.hist_engine();
        let spec = if adaptive {
            BinSpec::Adaptive(bins)
        } else {
            BinSpec::Uniform(bins)
        };
        // One evaluation of the condition shared by every pair; binning
        // itself is chunked across the pool too.
        let cond = condition
            .as_ref()
            .map(|c| engine.evaluate_condition_par(c, self.config.engine, &self.par))
            .transpose()?;
        axes.windows(2)
            .map(|pair| {
                Ok(engine.hist2d_with_condition_par(
                    pair[0],
                    pair[1],
                    &spec,
                    &spec,
                    cond.as_ref(),
                    self.config.engine,
                    &self.par,
                )?)
            })
            .collect()
    }

    /// Build a [`ParallelCoordsPlot`] whose axes cover the value ranges of
    /// `axes` at timestep `step`.
    pub fn plot_for(
        &self,
        step: usize,
        axes: &[&str],
        plot: PlotConfig,
    ) -> Result<ParallelCoordsPlot> {
        let dataset = self.load_step(step)?;
        let specs: Vec<AxisSpec> = axes
            .iter()
            .map(|&name| {
                dataset
                    .table()
                    .float_column(name)
                    .map(|values| AxisSpec::from_data(name, values))
            })
            .collect::<std::result::Result<_, _>>()?;
        Ok(ParallelCoordsPlot::new(plot, specs))
    }

    /// Render a context + focus histogram-based parallel coordinates view at
    /// `step`: the context layer shows every particle (grey) and the focus
    /// layer shows the particles matching `focus_query` (red), exactly the
    /// composition of the paper's Figures 4, 5 and 10a.
    pub fn render_focus_context(
        &self,
        step: usize,
        axes: &[&str],
        bins: usize,
        focus_query: Option<&str>,
        gamma: f64,
    ) -> Result<Framebuffer> {
        let plot = self.plot_for(step, axes, PlotConfig::default())?;
        let context = self.axis_histograms(step, axes, bins, None, false)?;
        let mut layers = vec![Layer::histograms(context, Rgba::CONTEXT_GRAY).with_gamma(gamma)];
        if let Some(q) = focus_query {
            // Focus views are rendered at higher resolution than the context
            // (smooth drill-down, Section III-A.2).
            let focus = self.axis_histograms(step, axes, bins * 2, Some(q), false)?;
            layers.push(Layer::histograms(focus, Rgba::FOCUS_RED).with_gamma(gamma));
        }
        Ok(plot.render(&layers))
    }

    /// Render a temporal parallel-coordinates plot of the particle set `ids`
    /// over `steps` (one colour per timestep, Figure 9).
    pub fn render_temporal(
        &self,
        ids: &[u64],
        steps: &[usize],
        axes: &[&str],
        bins: usize,
        gamma: f64,
    ) -> Result<Framebuffer> {
        if axes.len() < 2 {
            return Err(VdxError::Invalid("need at least two axes".into()));
        }
        let pairs: Vec<(&str, &str)> = axes.windows(2).map(|w| (w[0], w[1])).collect();
        let temporal = self.temporal_histograms(ids, steps, pairs, bins)?;
        let reference_step = steps.first().copied().unwrap_or(0);
        let plot = self.plot_for(reference_step, axes, PlotConfig::default())?;
        Ok(plot.render_temporal(&temporal.per_timestep, gamma))
    }

    /// Render the traditional polyline parallel coordinates of `step`
    /// restricted to `condition` — the comparison baseline of Figure 2a.
    /// The cost of this rendering grows with the number of selected records.
    pub fn render_polylines(
        &self,
        step: usize,
        axes: &[&str],
        condition: Option<&str>,
    ) -> Result<Framebuffer> {
        let plot = self.plot_for(step, axes, PlotConfig::default())?;
        let dataset = self.load_step(step)?;
        // Evaluate with the configured strategy (not Auto): a cached dataset
        // always carries indexes, and the ScanOnly baseline must keep scanning.
        let selection = match condition {
            Some(q) => {
                let program = self.plans.get_or_compile(&parse_query(q)?);
                Some(fastbit::compile::execute(
                    &program,
                    &*dataset,
                    self.config.engine,
                )?)
            }
            None => None,
        };
        let columns: Vec<Vec<f64>> = axes
            .iter()
            .map(|&name| {
                let values = dataset.table().float_column(name)?;
                Ok(match &selection {
                    Some(sel) => sel.gather(values),
                    None => values.to_vec(),
                })
            })
            .collect::<Result<_>>()?;
        Ok(plot.render(&[Layer::polylines(columns, Rgba::WHITE)]))
    }

    /// Save a rendered image to `path` in PPM format.
    pub fn save_image(&self, image: &Framebuffer, path: &Path) -> Result<()> {
        image.save_ppm(path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdx_core_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_explorer(tag: &str) -> (DataExplorer, PathBuf) {
        explorer_with(tag, 700)
    }

    fn explorer_with(tag: &str, particles: usize) -> (DataExplorer, PathBuf) {
        let dir = temp_dir(tag);
        let mut sim = SimConfig::tiny();
        sim.particles_per_step = particles;
        sim.num_timesteps = 18;
        let config = ExplorerConfig {
            index_binning: Binning::EqualWidth { bins: 32 },
            ..Default::default()
        };
        let explorer = DataExplorer::generate(&dir, sim, config).unwrap();
        (explorer, dir)
    }

    #[test]
    fn generate_open_roundtrip() {
        let (explorer, dir) = small_explorer("roundtrip");
        assert_eq!(explorer.steps().len(), 18);
        drop(explorer);
        let reopened = DataExplorer::open(&dir, ExplorerConfig::default()).unwrap();
        assert_eq!(reopened.steps().len(), 18);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_refine_track_workflow() {
        let (explorer, dir) = small_explorer("workflow");
        let beam = explorer.select(17, "px > 1.5e10").unwrap();
        assert!(!beam.ids.is_empty());
        let refined = explorer.refine(&beam, 16, "y > 0").unwrap();
        assert!(refined.ids.len() <= beam.ids.len());
        let tracks = explorer.track(&beam.ids).unwrap();
        assert_eq!(tracks.traces.len(), beam.ids.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn focus_context_rendering_produces_pixels() {
        let (explorer, dir) = small_explorer("render");
        let image = explorer
            .render_focus_context(15, &["x", "px", "y", "py"], 48, Some("px > 1e10"), 0.8)
            .unwrap();
        assert!(image.coverage(Rgba::BLACK) > 0.01);
        let lines = explorer
            .render_polylines(15, &["x", "px", "y"], Some("px > 1e10"))
            .unwrap();
        assert!(lines.coverage(Rgba::BLACK) > 0.001);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporal_rendering_produces_pixels() {
        let (explorer, dir) = small_explorer("temporal");
        let beam = explorer.select(17, "px > 1.5e10").unwrap();
        let steps: Vec<usize> = (14..18).collect();
        let image = explorer
            .render_temporal(&beam.ids, &steps, &["x", "px", "y"], 32, 0.9)
            .unwrap();
        assert!(image.coverage(Rgba::BLACK) > 0.001);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_catalog_is_send_sync() {
        // The compile-time audit behind the server: one catalog/cache/
        // explorer must be shareable across worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Catalog>();
        assert_send_sync::<datastore::Dataset>();
        assert_send_sync::<datastore::DatasetCache>();
        assert_send_sync::<DataExplorer>();
    }

    #[test]
    fn explorers_share_one_catalog_and_cache() {
        let (explorer, dir) = small_explorer("shared");
        let cache = Arc::new(DatasetCache::new(datastore::DatasetCacheConfig::default()));
        let catalog = explorer.catalog_arc();
        let baseline = explorer.select(17, "px > 1.5e10").unwrap();
        let refined = explorer.refine(&baseline, 16, "y > 0").unwrap();
        assert!(!refined.ids.is_empty() && refined.ids.len() < baseline.ids.len());

        // Index or scan, through the shared cache or an explorer's own: the
        // same ids.
        std::thread::scope(|scope| {
            for engine in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
                for cached in [true, false] {
                    let catalog = Arc::clone(&catalog);
                    let cache = Arc::clone(&cache);
                    let (baseline, refined) = (&baseline, &refined);
                    scope.spawn(move || {
                        let config = ExplorerConfig {
                            engine,
                            ..Default::default()
                        };
                        let mut shared = DataExplorer::from_catalog(catalog, config);
                        if cached {
                            shared = shared.with_dataset_cache(cache);
                        }
                        let beam = shared.select(17, "px > 1.5e10").unwrap();
                        assert_eq!(beam.ids, baseline.ids, "{engine:?}, cached {cached}");
                        let beam = shared.refine(&beam, 16, "y > 0").unwrap();
                        assert_eq!(beam.ids, refined.ids, "{engine:?}, cached {cached}");
                        // Rendering goes through the shared cache too.
                        let hists = shared
                            .axis_histograms(15, &["x", "px"], 16, None, false)
                            .unwrap();
                        assert_eq!(hists.len(), 1);
                    });
                }
            }
        });
        // The cached workers' loads hit the cache after the first.
        let stats = cache.stats();
        assert!(stats.hits + stats.misses > 0);
        assert!(stats.hits > 0, "repeated loads served from cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_explorer_matches_sequential_exactly() {
        // Three chunks of `DEFAULT_CHUNK_ROWS` per step, the last one short,
        // so the chunked engine prunes and combines across chunks.
        let (sequential, dir) = explorer_with("par_vs_seq", 2 * DEFAULT_CHUNK_ROWS + 700);
        let catalog = sequential.catalog_arc();
        let parallel = DataExplorer::from_catalog(
            Arc::clone(&catalog),
            ExplorerConfig {
                threads: 4,
                index_binning: Binning::EqualWidth { bins: 32 },
                ..Default::default()
            },
        );
        assert_eq!(parallel.par_exec().threads(), 4);

        let a = sequential.select(17, "px > 1.5e10 && y > 0").unwrap();
        let b = parallel.select(17, "px > 1.5e10 && y > 0").unwrap();
        assert_eq!(a.ids, b.ids);

        let ra = sequential.refine(&a, 16, "y > 0").unwrap();
        let rb = parallel.refine(&b, 16, "y > 0").unwrap();
        assert_eq!(ra.ids, rb.ids);

        for condition in [None, Some("px > 1e10"), Some("px > 1e30")] {
            let ha = sequential.histogram1d(15, "px", 48, condition).unwrap();
            let hb = parallel.histogram1d(15, "px", 48, condition).unwrap();
            assert_eq!(ha, hb, "condition {condition:?}");
        }

        let axes = ["x", "px", "y"];
        let pa = sequential
            .axis_histograms(15, &axes, 24, Some("px > 1e10"), false)
            .unwrap();
        let pb = parallel
            .axis_histograms(15, &axes, 24, Some("px > 1e10"), false)
            .unwrap();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!(x.counts(), y.counts());
            assert_eq!(x.x_edges(), y.x_edges());
            assert_eq!(x.y_edges(), y.y_edges());
        }

        let stats = parallel.par_stats();
        assert!(stats.queries >= 4, "chunked engine actually ran");
        let chunks = stats.chunks_pruned_empty + stats.chunks_pruned_full + stats.chunks_scanned;
        assert!(
            chunks >= 3 * stats.queries,
            "every evaluation spans three chunks"
        );
        // One evaluator at every thread count: the one-thread explorer ran
        // the same evaluations.
        assert_eq!(sequential.par_stats().queries, stats.queries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_cache_serves_repeated_queries_across_steps() {
        let (explorer, dir) = small_explorer("plan_cache");
        let a = explorer.select(17, "px > 1.5e10 && y > 0").unwrap();
        // Same query, different timestep: one compiled program serves both.
        let b = explorer.select(16, "px > 1.5e10 && y > 0").unwrap();
        assert_ne!(a.step, b.step);
        let stats = explorer.plan_cache_stats();
        assert_eq!(stats.misses, 1, "compiled once");
        assert!(stats.hits >= 1, "second select reused the program");
        assert_eq!(stats.len, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (explorer, dir) = small_explorer("invalid");
        assert!(explorer.select(17, "px >").is_err());
        assert!(explorer
            .axis_histograms(17, &["x"], 16, None, false)
            .is_err());
        assert!(explorer.select(999, "px > 1").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
