//! The measurement harness behind the `figures` and `vdx-workload` binaries.
//!
//! Both binaries build their datasets through this module, so the serial
//! experiments (Figures 11–13) and the parallel experiments (Figures 14–17)
//! use the same synthetic LWFA data and the same preprocessing (bitmap +
//! identifier indexes) as the rest of the workspace. [`Series`] checks,
//! times and records every measured operation into one `BENCH_*.json` file,
//! and [`cli`] rejects a command line the binary cannot honour.

#![deny(missing_docs)]

pub mod workload;

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use datastore::{Catalog, Dataset};
use histogram::Binning;
use lwfa::{SimConfig, Simulation};

/// Number of index bins used by the one-time preprocessing in benchmarks.
pub const INDEX_BINS: usize = 256;

/// Build one in-memory timestep of `particles` particles at a late (beam
/// containing) timestep, with bitmap and identifier indexes attached. This is
/// the workload of the serial experiments (Figures 11–13).
pub fn serial_dataset(particles: usize) -> Dataset {
    let mut config = SimConfig::paper_2d(particles);
    // Run to a timestep where both beams exist and px spans its full range.
    config.num_timesteps = config.beam1_dephasing_step + 2;
    let (tables, _) = Simulation::new(config.clone()).run_to_tables();
    let table = tables.into_iter().last().expect("at least one timestep");
    let step = config.num_timesteps - 1;
    let mut dataset = Dataset::from_table(table, step);
    dataset
        .build_indexes(&Binning::EqualWidth { bins: INDEX_BINS })
        .expect("index construction");
    dataset.build_id_index().expect("id index construction");
    dataset
}

/// A directory under the system temp dir that is removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty `vdx_bench_<tag>_<pid>_<seq>` directory: unique per
    /// process and per call, so nothing an earlier run left behind is read.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("vdx_bench_{tag}_{}_{seq}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Generate a fully indexed on-disk catalog of `timesteps` timestep files
/// with `particles` particles each into a fresh [`TempDir`], which removes
/// the files once the caller drops it.
pub fn catalog_workload(tag: &str, particles: usize, timesteps: usize) -> (Catalog, TempDir) {
    let dir = TempDir::new(tag);
    let mut catalog = Catalog::create(dir.path()).expect("create catalog dir");
    Simulation::new(SimConfig::scaling(particles, timesteps))
        .run_to_catalog(
            &mut catalog,
            Some(&Binning::EqualWidth { bins: INDEX_BINS }),
        )
        .expect("catalog generation");
    (catalog, dir)
}

/// A px threshold that selects approximately `target_hits` records of
/// `dataset` (found by sorting the px column), used to parameterise the
/// conditional-histogram and ID-query experiments by hit count.
pub fn threshold_for_hits(dataset: &Dataset, target_hits: usize) -> f64 {
    let px = dataset
        .table()
        .float_column("px")
        .expect("px column present");
    let mut sorted: Vec<f64> = px.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite momenta"));
    let n = sorted.len();
    let target = target_hits.min(n.saturating_sub(1));
    sorted[n - 1 - target]
}

/// The first `count` particle identifiers of a dataset — the search set for
/// the ID-query experiments.
pub fn id_search_set(dataset: &Dataset, count: usize) -> Vec<u64> {
    let ids = dataset.table().id_column("id").expect("id column present");
    ids.iter()
        .copied()
        .step_by((ids.len() / count.max(1)).max(1))
        .take(count)
        .collect()
}

/// Measure the wall-clock seconds of a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Wall-clock summary of repeated runs of one measured operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeStats {
    /// Arithmetic mean of the sample times, in seconds.
    pub mean_s: f64,
    /// Median of the sample times, in seconds.
    pub median_s: f64,
    /// Number of samples taken.
    pub samples: usize,
}

impl TimeStats {
    /// The stats of one externally measured duration.
    pub fn once(secs: f64) -> Self {
        Self {
            mean_s: secs,
            median_s: secs,
            samples: 1,
        }
    }
}

/// Run `f` `samples` times (at least once) and summarize the wall-clock
/// distribution. Returns the value of the last run alongside the stats so
/// callers can keep using the result like with [`time_it`].
pub fn time_stats<T>(samples: usize, mut f: impl FnMut() -> T) -> (T, TimeStats) {
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let (value, secs) = time_it(&mut f);
        times.push(secs);
        last = Some(value);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median_s = if times.len() % 2 == 1 {
        times[times.len() / 2]
    } else {
        (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2.0
    };
    let mean_s = times.iter().sum::<f64>() / times.len() as f64;
    (
        last.expect("at least one sample"),
        TimeStats {
            mean_s,
            median_s,
            samples,
        },
    )
}

/// One machine-readable benchmark record: which operation was measured, its
/// size parameter (bins, hits, identifiers, nodes, …) and the wall-clock
/// summary. Serialized into the `BENCH_*.json` files that track the
/// performance trajectory across PRs.
#[derive(Debug)]
struct BenchRecord {
    /// Operation name, e.g. `fig11_fastbit_regular`.
    op: String,
    /// The figure's x-axis value for this measurement.
    n: usize,
    /// Timing summary.
    stats: TimeStats,
}

/// One measured series, written as `BENCH_<name>.json`.
///
/// [`Series::measure`] runs an operation once and hands its answer to the
/// caller's check; only an answer that passed is timed and recorded.
/// Durations the code under test measures itself go in through
/// [`Series::record`]. Every record prints one line as it is taken.
#[derive(Debug)]
pub struct Series {
    name: &'static str,
    samples: usize,
    records: Vec<BenchRecord>,
}

impl Series {
    /// Start the series `name`, printing `title` as its header; each
    /// [`measure`](Self::measure) times `samples` runs (at least one).
    pub fn new(name: &'static str, title: &str, samples: usize) -> Self {
        println!("\n== {title} ==");
        Self {
            name,
            samples,
            records: Vec::new(),
        }
    }

    /// Run `f` once and `check` its answer, then time `samples` more runs
    /// and record them as `(op, n)`. Returns the checked answer and the
    /// timing.
    pub fn measure<T>(
        &mut self,
        op: impl Into<String>,
        n: usize,
        mut f: impl FnMut() -> T,
        check: impl FnOnce(&T),
    ) -> (T, TimeStats) {
        let answer = f();
        check(&answer);
        let (_, stats) = time_stats(self.samples, f);
        self.record(op, n, stats);
        (answer, stats)
    }

    /// Record a timing taken elsewhere.
    pub fn record(&mut self, op: impl Into<String>, n: usize, stats: TimeStats) {
        let op = op.into();
        println!(
            "   {op:<28} n={n:<9} median {:>12.6}s  mean {:>12.6}s  x{}",
            stats.median_s, stats.mean_s, stats.samples
        );
        self.records.push(BenchRecord { op, n, stats });
    }

    /// Write `dir/BENCH_<name>.json`.
    pub fn finish(self, dir: &Path) -> std::io::Result<PathBuf> {
        write_bench_json(dir, &format!("BENCH_{}.json", self.name), &self.records)
    }
}

/// Write `records` as a JSON array to `dir/name` (hand-rolled — the
/// container has no serde). Floats use Rust's shortest-roundtrip `Display`,
/// so the files are stable across runs of identical measurements.
fn write_bench_json(dir: &Path, name: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let op = r.op.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "  {{\"op\": \"{op}\", \"n\": {}, \"median_s\": {}, \"mean_s\": {}, \"samples\": {}}}{}\n",
            r.n,
            r.stats.median_s,
            r.stats.mean_s,
            r.stats.samples,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// A binary's command line, checked against its usage line.
///
/// In the usage line, `--flag META` takes a value and a `--flag` followed
/// by another flag is a switch. [`Flags::parse`] rejects any other argument
/// and a flag whose value is missing; [`Flags::num`] and [`Flags::list`]
/// reject values that do not parse.
#[derive(Debug)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Check `args` (without the program name) against `usage`.
    pub fn parse(usage: &str, args: &[String]) -> Result<Self, String> {
        let spec: Vec<&str> = usage
            .split_whitespace()
            .map(|t| t.trim_matches(|c| c == '[' || c == ']'))
            .collect();
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let at = spec
                .iter()
                .position(|t| t.starts_with("--") && t == arg)
                .ok_or_else(|| format!("unknown argument {arg}"))?;
            let value = match spec.get(at + 1).filter(|m| !m.starts_with("--")) {
                Some(meta) => Some(
                    args.next()
                        .ok_or_else(|| format!("{arg} requires a value ({meta})"))?
                        .clone(),
                ),
                None => None,
            };
            given.push((arg.clone(), value));
        }
        Ok(Flags(given))
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value parsed as a number, or `default` when it is absent.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} expects a number, got `{v}`")),
        }
    }

    /// `flag`'s value as numbers separated by `sep`, or `default` when it
    /// is absent.
    pub fn list<T: FromStr>(
        &self,
        flag: &str,
        sep: char,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .split(sep)
                .map(|s| s.parse().ok())
                .collect::<Option<Vec<T>>>()
                .ok_or_else(|| format!("{flag} expects numbers separated by `{sep}`, got `{v}`")),
        }
    }
}

/// Parse this process's arguments against `usage` and build the binary's
/// settings from them. On any error, print `<bin>: <msg>` and the usage
/// line to stderr and exit with status 2, before the binary does any work.
pub fn cli<T>(bin: &str, usage: &str, build: impl FnOnce(&Flags) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    Flags::parse(usage, &args)
        .and_then(|flags| build(&flags))
        .unwrap_or_else(|msg| {
            eprintln!("{bin}: {msg}\nusage: {bin} {usage}");
            std::process::exit(2)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_stats_summarizes_samples() {
        let mut calls = 0;
        let (value, stats) = time_stats(5, || {
            calls += 1;
            calls
        });
        assert_eq!(value, 5);
        assert_eq!(stats.samples, 5);
        assert!(stats.mean_s >= 0.0 && stats.median_s >= 0.0);
        // Zero samples is clamped to one.
        let (_, stats) = time_stats(0, || ());
        assert_eq!(stats.samples, 1);
    }

    #[test]
    fn bench_json_is_written_and_parseable_shape() {
        let dir = TempDir::new("json_test");
        let mut series = Series::new("test", "test series", 3);
        series.record(
            "fig11_fastbit_regular",
            1024,
            TimeStats {
                mean_s: 0.5,
                median_s: 0.25,
                samples: 3,
            },
        );
        series.record("fig11_custom_regular", 2048, TimeStats::once(1.0));
        let path = series.finish(dir.path()).unwrap();
        assert_eq!(path, dir.path().join("BENCH_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("[\n"));
        assert!(body.trim_end().ends_with(']'));
        assert!(body.contains("\"op\": \"fig11_fastbit_regular\""));
        assert!(body.contains("\"n\": 1024"));
        assert!(body.contains("\"median_s\": 0.25"));
        assert_eq!(body.matches('{').count(), 2);
    }

    #[test]
    fn series_checks_the_answer_before_timing_it() {
        let mut series = Series::new("check", "check series", 4);
        let mut runs = 0;
        let (answer, stats) = series.measure(
            "op",
            7,
            || {
                runs += 1;
                42
            },
            |&answer| assert_eq!(answer, 42),
        );
        assert_eq!((answer, stats.samples, runs), (42, 4, 5));
        assert_eq!(series.records.len(), 1);

        // A failed check panics before anything is timed or recorded.
        let mut runs = 0;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            series.measure("bad", 1, || runs += 1, |_| panic!("wrong answer"))
        }));
        assert!(failed.is_err());
        assert_eq!(runs, 1);
        assert_eq!(series.records.len(), 1);
    }

    #[test]
    fn flags_reject_unknown_flags_missing_values_and_bad_numbers() {
        const USAGE: &str = "[--particles N] [--nodes LIST] [--quick] [--out DIR]";
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let flags =
            Flags::parse(USAGE, &args("--quick --particles 9 --nodes 1,2 --out d")).unwrap();
        assert!(flags.switch("--quick"));
        assert_eq!(flags.num("--particles", 0usize), Ok(9));
        assert_eq!(flags.num("--timesteps", 3usize), Ok(3));
        assert_eq!(flags.list("--nodes", ',', vec![8usize]), Ok(vec![1, 2]));
        assert_eq!(flags.value("--out"), Some("d"));

        let err = |line: &str| Flags::parse(USAGE, &args(line)).unwrap_err();
        assert_eq!(err("--sample 3"), "unknown argument --sample");
        assert_eq!(err("--particles"), "--particles requires a value (N)");
        let flags = Flags::parse(USAGE, &args("--particles 8k --nodes 1,x")).unwrap();
        assert_eq!(
            flags.num("--particles", 0usize),
            Err("--particles expects a number, got `8k`".to_string())
        );
        assert!(flags.list::<usize>("--nodes", ',', vec![]).is_err());
    }
    #[test]
    fn serial_dataset_has_indexes_and_beams() {
        let d = serial_dataset(3_000);
        assert_eq!(d.num_particles(), 3_000);
        assert!(!d.indexed_columns().is_empty());
        assert!(d.id_index().is_some());
        // The px column spans thermal background to accelerated beam.
        let px = d.table().float_column("px").unwrap();
        let max = px.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            max > 1e10,
            "beam particles should be present (max px = {max:.3e})"
        );
    }

    #[test]
    fn threshold_for_hits_hits_the_target_roughly() {
        let d = serial_dataset(5_000);
        for target in [10usize, 100, 1000] {
            let t = threshold_for_hits(&d, target);
            let hits = d
                .table()
                .float_column("px")
                .unwrap()
                .iter()
                .filter(|&&v| v > t)
                .count();
            assert!(
                hits >= target / 2 && hits <= target * 2 + 4,
                "target {target}, got {hits}"
            );
        }
    }

    #[test]
    fn id_search_set_is_bounded_and_valid() {
        let d = serial_dataset(2_000);
        let set = id_search_set(&d, 50);
        assert!(set.len() <= 51 && set.len() >= 40);
        let sel = d.select_ids(&set).unwrap();
        assert_eq!(sel.count() as usize, set.len());
    }

    #[test]
    fn catalog_workload_generates_fresh_and_cleans_up() {
        // A catalog an earlier build left at the old, parameter-keyed path
        // (a tenth of the particles) must not be served.
        let stale_dir = std::env::temp_dir().join("vdx_bench_stale_test_300_3");
        std::fs::remove_dir_all(&stale_dir).ok();
        let mut stale = Catalog::create(&stale_dir).unwrap();
        Simulation::new(SimConfig::scaling(30, 3))
            .run_to_catalog(&mut stale, None)
            .unwrap();

        let (catalog, dir) = catalog_workload("stale_test", 300, 3);
        assert_ne!(dir.path(), stale_dir.as_path());
        assert_eq!(catalog.num_timesteps(), 3);
        let step = catalog.steps()[0];
        assert_eq!(catalog.load(step, None, true).unwrap().num_particles(), 300);

        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists(), "the generated catalog is removed on drop");
        std::fs::remove_dir_all(&stale_dir).ok();
    }
}
