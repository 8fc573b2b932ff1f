//! The timed run of one workload: set-up, the untimed pass, the closed-loop
//! measured phase, the workload-property checks, and the end-to-end metrics.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::product::{
    generate_and_ingest, open_catalogs, CatalogRef, Client, DataProfile, Explorer, IngestTimes,
    Stack,
};
use crate::report::{median, percentile, sorted, Outcome, END_TO_END};
use crate::script::{self, Script, Spec};

/// Times set-up is performed in one run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    package.join("out")
}

/// A directory under `out/` unique to this process, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> io::Result<TempDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = out_dir().join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// What one set-up cost, by step; `setup_s` is the sum.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub ingest: IngestTimes,
    /// Binding and spawning every server, connecting every client.
    pub start_s: f64,
    /// `WARM` over the wire: cold loads plus segment write-back.
    pub warm_s: f64,
    /// The untimed pass that fills the caches the workload is about.
    pub prefill_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.ingest.generate_s + self.ingest.ingest_s + self.start_s + self.warm_s + self.prefill_s
    }
}

/// A serving stack over freshly ingested data, warmed, with its clients.
pub struct SetUp {
    pub stack: Stack,
    pub catalogs: Vec<CatalogRef>,
    pub clients: Vec<Client>,
    pub times: SetupTimes,
}

impl SetUp {
    /// Disconnect the clients, stop the stack and wait for its threads.
    pub fn stop(self) -> io::Result<()> {
        drop(self.clients);
        self.stack.shutdown()
    }
}

/// Start a stack over `catalogs`, connect `connections` clients and `WARM`
/// it over the wire; the times returned have `start_s` and `warm_s` set.
pub fn start_warm(
    spec: &Spec,
    catalogs: &[CatalogRef],
    connections: usize,
) -> io::Result<(Stack, Vec<Client>, SetupTimes)> {
    let started = Instant::now();
    let stack = Stack::start(catalogs, &spec.stack)?;
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut client = Client::connect(stack.addr())?;
        if client.request("PING")? != "OK\tPONG" {
            return Err(io::Error::other("PING was not answered"));
        }
        clients.push(client);
    }
    let start_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let warm = clients[0].request("WARM")?;
    let steps = spec.shape.steps;
    if warm != format!("OK\tWARM\t{steps}\t{steps}") {
        return Err(io::Error::other(format!("WARM answered {warm:?}")));
    }
    let times = SetupTimes {
        start_s,
        warm_s: started.elapsed().as_secs_f64(),
        ..Default::default()
    };
    Ok((stack, clients, times))
}

/// Generate, ingest, serve and warm: everything `setup_s` covers except the
/// untimed script pass, which needs the script.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    profile: Option<&mut DataProfile>,
) -> io::Result<SetUp> {
    let (catalogs, ingest) = generate_and_ingest(spec.shape, seed, dir, spec.groups, profile)?;
    let (stack, clients, times) = start_warm(spec, &catalogs, spec.connections)?;
    Ok(SetUp {
        stack,
        catalogs,
        clients,
        times: SetupTimes { ingest, ..times },
    })
}

/// A catalog holding every timestep, for the oracle and the in-process
/// depths: the serving catalog itself, or for a sharded stack a second
/// ingest of the same data into one catalog.
pub fn whole_catalog(spec: &Spec, seed: u64, set_up: &SetUp, dir: &Path) -> io::Result<CatalogRef> {
    if spec.groups == 1 {
        return Ok(set_up.catalogs[0].clone());
    }
    let (mut catalogs, _) = generate_and_ingest(spec.shape, seed, dir, 1, None)?;
    Ok(catalogs.remove(0))
}

/// Build the script of `spec` with an oracle over `whole`. Call it after the
/// serving stack was warmed: the oracle then reads the segments `WARM` wrote
/// and does none of the set-up work that `setup_s` times.
pub fn build_script(spec: &Spec, seed: u64, profile: &DataProfile, whole: &CatalogRef) -> Script {
    let oracle = Explorer::new(whole.clone(), &spec.oracle());
    script::build(spec, seed, profile, &oracle)
}

/// Replay the whole script once on one connection, checking every reply;
/// returns the number of replies that differ from the oracle's.
pub fn prefill(client: &mut Client, script: &Script) -> io::Result<u64> {
    let mut failed = 0;
    for (line, expected) in script.lines.iter().zip(&script.expected) {
        failed += u64::from(client.request(line)? != *expected);
    }
    Ok(failed)
}

/// Bytes in regular files under `dir`.
fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// This process's resident set in MiB, from `/proc/self/status`.
fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Measured {
    /// Per reply: when it arrived (seconds into the phase) and its
    /// send-to-full-reply latency in milliseconds.
    samples: Vec<(f64, f64)>,
    failed: u64,
    forwards_implied: u64,
    /// `VmRSS` in MiB, sampled every 20 ms through the phase.
    rss_mib: Vec<f64>,
}

/// Equal windows the measured time is cut into for `ops_per_s`.
const WINDOWS: usize = 16;

impl Measured {
    /// Replies per second: the median over equal windows of the measured
    /// time, so a transient stall moves one window and not the metric.
    fn ops_per_s(&self) -> f64 {
        let wall = self.samples.iter().map(|s| s.0).fold(0.0, f64::max);
        let mut counts = [0.0; WINDOWS];
        for (arrived, _) in &self.samples {
            counts[((arrived / wall * WINDOWS as f64) as usize).min(WINDOWS - 1)] += 1.0;
        }
        median(&counts) * WINDOWS as f64 / wall
    }

    /// Peak resident set: the median over equal windows of each window's
    /// highest sample. Two catalog-wide requests overlapping for a fifth of
    /// a second lift one window, not the metric; a level that stays up
    /// lifts them all.
    fn peak_rss_mib(&self) -> f64 {
        let peaks: Vec<f64> = self
            .rss_mib
            .chunks(self.rss_mib.len().div_ceil(WINDOWS))
            .map(|window| window.iter().copied().fold(0.0, f64::max))
            .collect();
        median(&peaks)
    }
}

/// The closed loop: every connection takes the next script line off a shared
/// cursor, sends it, waits for the whole reply, checks it, and repeats until
/// `seconds` have passed. If the clock outlasts the script, a workload that
/// is about repeats (`wrap`) starts it over; one that is about never
/// repeating stops there, having done a fixed amount of work.
fn measure(
    clients: &mut [Client],
    script: &Script,
    groups: usize,
    seconds: f64,
    wrap: bool,
) -> Measured {
    let cursor = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let mut measured = Measured {
        samples: Vec::new(),
        failed: 0,
        forwards_implied: 0,
        rss_mib: Vec::new(),
    };
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut rss = Vec::new();
            while !done.load(Ordering::Relaxed) {
                rss.extend(rss_mib());
                std::thread::sleep(Duration::from_millis(20));
            }
            rss
        });
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 16);
                    let (mut failed, mut forwards) = (0, 0);
                    while started.elapsed().as_secs_f64() < seconds {
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        if !wrap && next >= script.lines.len() {
                            break;
                        }
                        let i = next % script.lines.len();
                        let sent = Instant::now();
                        let reply = client.request(&script.lines[i]);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        samples.push((started.elapsed().as_secs_f64(), latency_ms));
                        failed += u64::from(!reply.is_ok_and(|r| r == script.expected[i]));
                        forwards += script.forwards(i, groups);
                    }
                    (samples, failed, forwards)
                })
            })
            .collect();
        for worker in workers {
            let (samples, failed, forwards) = worker.join().expect("client thread panicked");
            measured.samples.extend(samples);
            measured.failed += failed;
            measured.forwards_implied += forwards;
        }
        done.store(true, Ordering::Relaxed);
        measured.rss_mib = sampler.join().expect("sampler panicked");
    });
    measured
}

/// `STATS` counters whose change over the measured phase is reported.
const COUNTERS: [&str; 10] = [
    "evaluations",
    "qc_hits",
    "qc_misses",
    "plan_cache_hits",
    "plan_cache_misses",
    "ds_hits",
    "ds_misses",
    "ds_evictions",
    "cluster_forwards",
    "busy_rejections",
];

/// `after - before` for one counter (absent counts as 0).
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
}

/// `part / (part + rest)`, 0 when nothing was counted.
pub fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// "The workload still does what it says": each workload's defining cache
/// behaviour, read from `STATS` deltas over the measured phase.
fn property_checks(
    spec: &Spec,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    forwards_implied: u64,
) -> Vec<(String, bool)> {
    let d = |key: &str| delta(before, after, key);
    let qc_ratio = share(d("qc_hits"), d("qc_misses"));
    let ds_ratio = share(d("ds_hits"), d("ds_misses"));
    let mut checks = vec![(
        format!("busy_rejections {} == 0", d("busy_rejections")),
        d("busy_rejections") == 0,
    )];
    match spec.name {
        "explore_warm" | "cluster_scatter" => {
            checks.push((
                format!("query-cache hit ratio {qc_ratio:.3} >= 0.8"),
                qc_ratio >= 0.8,
            ));
            checks.push((
                format!("ds_misses {} == 0", d("ds_misses")),
                d("ds_misses") == 0,
            ));
        }
        "drill_uncached" => {
            checks.push((format!("qc_hits {} == 0", d("qc_hits")), d("qc_hits") == 0));
            checks.push((
                format!("plan_cache_hits {} == 0", d("plan_cache_hits")),
                d("plan_cache_hits") == 0,
            ));
        }
        "sweep_cold" => {
            checks.push((
                format!("dataset-cache hit ratio {ds_ratio:.3} <= 0.3"),
                ds_ratio <= 0.3,
            ));
            checks.push((
                format!("ds_evictions {} > 0", d("ds_evictions")),
                d("ds_evictions") > 0,
            ));
        }
        other => unreachable!("no property checks for {other}"),
    }
    if spec.groups > 1 {
        checks.push((
            format!(
                "cluster_forwards {} == {forwards_implied} implied by the script",
                d("cluster_forwards")
            ),
            d("cluster_forwards") == forwards_implied,
        ));
    }
    checks
}

/// What [`prepare`] leaves under its directory for the measuring process.
const SCRIPT_FILE: &str = "script.txt";
const PREPARED_FILE: &str = "prepared.json";

/// The first set-up, done in a process of its own: generate, ingest, serve
/// and `WARM` into `dir/stack` (timed), then build the script with the
/// oracle, and leave script, set-up times and stored bytes in `dir`.
///
/// It is a separate process so that the one that measures starts with a
/// heap nothing has touched: ingest and the oracle free hundreds of MiB that
/// the allocator keeps, in amounts that vary from run to run, and
/// `peak_rss_mb` must be what serving needs, not what set-up left behind.
pub fn prepare(spec: &Spec, seed: u64, dir: &Path) -> io::Result<()> {
    let mut profile = DataProfile::default();
    let first = set_up(spec, seed, &dir.join("stack"), Some(&mut profile))?;
    let stored_bytes = dir_bytes(&dir.join("stack"))?;
    let whole = whole_catalog(spec, seed, &first, &dir.join("whole"))?;
    let times = first.times;
    first.stop()?;
    let script = build_script(spec, seed, &profile, &whole);
    std::fs::write(dir.join(SCRIPT_FILE), script.to_text())?;
    let prepared = Value::obj([
        ("generate_s", Value::Num(times.ingest.generate_s)),
        ("ingest_s", Value::Num(times.ingest.ingest_s)),
        ("rows", Value::Num(times.ingest.rows as f64)),
        ("start_s", Value::Num(times.start_s)),
        ("warm_s", Value::Num(times.warm_s)),
        ("stored_bytes", Value::Num(stored_bytes as f64)),
    ]);
    std::fs::write(dir.join(PREPARED_FILE), prepared.to_string())
}

/// Run [`prepare`] in a child process and read back what it left in `dir`.
fn prepared(spec: &Spec, seed: u64, dir: &Path) -> io::Result<(Script, SetupTimes, u64)> {
    let mut child = Command::new(std::env::current_exe()?);
    child
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .arg("--prepare")
        .arg(dir);
    if spec.quick {
        child.arg("--quick");
    }
    if !child.status()?.success() {
        return Err(io::Error::other("the prepare step failed"));
    }
    let script = Script::from_text(&std::fs::read_to_string(dir.join(SCRIPT_FILE))?);
    let doc = json::parse(&std::fs::read_to_string(dir.join(PREPARED_FILE))?)
        .map_err(io::Error::other)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| io::Error::other(format!("{PREPARED_FILE} lacks {key}")))
    };
    let times = SetupTimes {
        ingest: IngestTimes {
            generate_s: number("generate_s")?,
            ingest_s: number("ingest_s")?,
            rows: number("rows")? as u64,
        },
        start_s: number("start_s")?,
        warm_s: number("warm_s")?,
        prefill_s: 0.0,
    };
    Ok((script, times, number("stored_bytes")? as u64))
}

/// Run `spec` for `seconds` of measured time on data and a script from `seed`.
pub fn run_timed(spec: &Spec, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let tmp = TempDir::new()?;
    let (script, mut times, stored_bytes) = prepared(spec, seed, tmp.path())?;
    let rows = times.ingest.rows;
    // The measured stack: a fresh start over the catalogs the set-up left,
    // warmed from the segments it wrote.
    let catalogs = open_catalogs(&tmp.path().join("stack"), spec.groups)?;
    let (stack, mut clients, _) = start_warm(spec, &catalogs, spec.connections)?;

    let mut attempted = 0;
    let mut failed = 0;
    if spec.prefill {
        let started = Instant::now();
        failed += prefill(&mut clients[0], &script)?;
        attempted += script.lines.len() as u64;
        times.prefill_s = started.elapsed().as_secs_f64();
    }

    let before = stack.counters();
    let measured = measure(&mut clients, &script, spec.groups, seconds, spec.prefill);
    let after = stack.counters();
    if measured.rss_mib.is_empty() {
        return Err(io::Error::other("cannot read VmRSS from /proc/self/status"));
    }
    attempted += measured.samples.len() as u64;
    failed += measured.failed;
    let checks = property_checks(spec, &before, &after, measured.forwards_implied);
    drop(clients);
    stack.shutdown()?;
    // Delete the first set-up's files before setting up again: each set-up
    // then starts from the same empty directory and clean page cache.
    drop((catalogs, tmp));

    // Set up again from nothing, so `setup_s` is a median and not one draw.
    let mut setups = vec![times];
    for _ in 1..SETUPS {
        let again = TempDir::new()?;
        let mut repeat = set_up(spec, seed, again.path(), None)?;
        if spec.prefill {
            let started = Instant::now();
            failed += prefill(&mut repeat.clients[0], &script)?;
            attempted += script.lines.len() as u64;
            repeat.times.prefill_s = started.elapsed().as_secs_f64();
        }
        setups.push(repeat.times);
        repeat.stop()?;
    }

    let latencies = sorted(&measured.samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    let values = [
        median(&setup_totals),
        measured.ops_per_s(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        measured.peak_rss_mib(),
        stored_bytes as f64 / rows as f64,
    ];
    let correct = failed == 0 && checks.iter().all(|(_, held)| *held);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, value, m.unit))
            .collect(),
        detail: Value::obj([
            ("workload", Value::str(spec.name)),
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
            (
                "reply_digest",
                Value::str(format!("{:016x}", script.reply_digest())),
            ),
            ("script_ops", Value::Num(script.lines.len() as f64)),
            ("latency_samples", Value::Num(latencies.len() as f64)),
            ("connections", Value::Num(spec.connections as f64)),
            ("rows_ingested", Value::Num(rows as f64)),
            ("stored_bytes", Value::Num(stored_bytes as f64)),
            (
                "setup_runs_s",
                Value::Arr(setup_totals.iter().map(|&s| Value::Num(s)).collect()),
            ),
            (
                "rss_mib_first_median_peak",
                Value::Arr(
                    [
                        measured.rss_mib[0],
                        median(&measured.rss_mib),
                        measured.rss_mib.iter().copied().fold(0.0, f64::max),
                    ]
                    .map(Value::Num)
                    .to_vec(),
                ),
            ),
            (
                "counters",
                Value::obj(
                    COUNTERS.map(|key| (key, Value::Num(delta(&before, &after, key) as f64))),
                ),
            ),
            (
                "checks",
                Value::obj(checks.into_iter().map(|(k, held)| (k, Value::Bool(held)))),
            ),
        ]),
    })
}
