//! The four workloads and their fixed, seeded request scripts.
//!
//! A script is a list of request lines plus, for each, the reply the
//! in-process oracle gives. It is a pure function of (workload kind, sizes,
//! seed): the data comes from the seed, thresholds come from the data's
//! quantiles, and ids embedded in `REFINE`/`TRACK` lines come from the
//! oracle's earlier replies. `explore_warm` and `cluster_scatter` share one
//! kind and one size, so their scripts are byte-identical.

use std::collections::HashSet;

use crate::product::{DataProfile, Explorer, Shape, StackConfig};

/// The workload names, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    "explore_warm",
    "drill_uncached",
    "sweep_cold",
    "cluster_scatter",
];

/// Which request mix a workload's script is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Browse / drill-down / tracker sessions over a small threshold grid.
    Explore,
    /// Compound queries whose constants never repeat.
    Drill,
    /// Unique per-step queries walking every timestep in cyclic order.
    Sweep,
}

/// Everything that defines one workload. Frozen: changing a number here
/// changes what every later PR is compared on.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The scaled-down sizes of `--quick`.
    pub quick: bool,
    pub kind: Kind,
    pub shape: Shape,
    /// Shard groups: 1 is a single server, more is a router over that many.
    pub groups: usize,
    pub stack: StackConfig,
    /// Closed-loop client connections during the timed phase.
    pub connections: usize,
    /// Requests in the fixed script.
    pub script_ops: usize,
    /// Replay the whole script once, untimed, before measuring (fills the
    /// caches the workload is about). Without it the timed phase starts the
    /// script cold.
    pub prefill: bool,
    /// Requests replayed per depth by the traced run.
    pub trace_ops: usize,
}

const RESIDENT: usize = 4 << 30;

/// The frozen definition of workload `name`; `quick` scales the sizes down
/// for smoke runs and tests without changing any code path.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let resident = StackConfig {
        threads: 1,
        cache_bytes: RESIDENT,
        cache_shards: 8,
    };
    let explore = Spec {
        name: "explore_warm",
        quick,
        kind: Kind::Explore,
        shape: if quick {
            Shape {
                rows: 8_000,
                steps: 8,
            }
        } else {
            Shape {
                rows: 200_000,
                steps: 8,
            }
        },
        groups: 1,
        stack: resident,
        connections: 2,
        script_ops: if quick { 1_000 } else { 1_200 },
        prefill: true,
        trace_ops: if quick { 300 } else { 1_200 },
    };
    Some(match name {
        "explore_warm" => explore,
        "cluster_scatter" => Spec {
            name: "cluster_scatter",
            groups: 3,
            ..explore
        },
        "drill_uncached" => Spec {
            name: "drill_uncached",
            quick,
            kind: Kind::Drill,
            shape: if quick {
                Shape {
                    rows: 20_000,
                    steps: 4,
                }
            } else {
                Shape {
                    rows: 400_000,
                    steps: 4,
                }
            },
            groups: 1,
            stack: StackConfig {
                threads: 2,
                ..resident
            },
            connections: 1,
            script_ops: if quick { 1_000 } else { 2_400 },
            prefill: false,
            trace_ops: if quick { 100 } else { 400 },
        },
        "sweep_cold" => Spec {
            name: "sweep_cold",
            quick,
            kind: Kind::Sweep,
            shape: if quick {
                Shape {
                    rows: 4_000,
                    steps: 32,
                }
            } else {
                Shape {
                    rows: 20_000,
                    steps: 32,
                }
            },
            groups: 1,
            // One shard, so the budget holds 3-4 whole timesteps instead of
            // being split into slices smaller than any one of them.
            stack: StackConfig {
                threads: 1,
                cache_bytes: if quick { 2 << 20 } else { 16 << 20 },
                cache_shards: 1,
            },
            connections: 2,
            script_ops: if quick { 1_000 } else { 1_600 },
            prefill: false,
            trace_ops: if quick { 100 } else { 320 },
        },
        _ => return None,
    })
}

impl Spec {
    /// The configuration of the oracle's explorer: the workload's engine
    /// with every timestep resident, so the oracle never meets the cache
    /// regime under test and costs no more than the requests it checks.
    pub fn oracle(&self) -> StackConfig {
        StackConfig {
            threads: self.stack.threads,
            cache_bytes: RESIDENT,
            cache_shards: 1,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so scripts depend on nothing
/// a product change can touch.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform(0.0, 1.0) < p
    }
}

/// A fixed request script with the oracle's reply to every line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub lines: Vec<String>,
    pub expected: Vec<String>,
}

impl Script {
    /// FNV-1a over every expected reply (newline-terminated) in script
    /// order. A run that reports no failed request received exactly these
    /// bytes for every request it sent.
    pub fn reply_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for reply in &self.expected {
            for byte in reply.bytes().chain(std::iter::once(b'\n')) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Two text lines per request: the request, then its expected reply
    /// (the protocol keeps both free of newlines).
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        for (line, expected) in self.lines.iter().zip(&self.expected) {
            text.push_str(line);
            text.push('\n');
            text.push_str(expected);
            text.push('\n');
        }
        text
    }

    /// The inverse of [`Script::to_text`].
    pub fn from_text(text: &str) -> Script {
        let mut script = Script {
            lines: Vec::new(),
            expected: Vec::new(),
        };
        let mut rows = text.lines();
        while let (Some(line), Some(expected)) = (rows.next(), rows.next()) {
            script.lines.push(line.to_string());
            script.expected.push(expected.to_string());
        }
        script
    }

    /// Backend forwards a router over `groups` shard groups makes for line
    /// `index`: one for a per-step verb, one per group for a fan-out verb.
    pub fn forwards(&self, index: usize, groups: usize) -> u64 {
        match self.lines[index].split('\t').next() {
            Some("SELECT" | "REFINE" | "HIST") => 1,
            Some("TRACK" | "INFO") => groups as u64,
            _ => 0,
        }
    }
}

/// Ids embedded in one `REFINE`/`TRACK` line at most; keeps request lines
/// far below the server's 64 KiB cap.
const MAX_EMBEDDED_IDS: usize = 200;

struct Builder<'a> {
    oracle: &'a Explorer,
    profile: &'a DataProfile,
    shape: Shape,
    rng: Rng,
    script: Script,
    seen: HashSet<String>,
}

impl Builder<'_> {
    /// Append `line`, returning the ids csv of its reply (empty unless the
    /// reply is a `SELECT`/`REFINE` id list).
    fn push(&mut self, line: String) -> String {
        let reply = self.oracle.reply(&line);
        assert!(
            reply.starts_with("OK\t"),
            "script line must succeed on the oracle: {line:?} -> {reply:?}"
        );
        let ids = match reply.split('\t').collect::<Vec<_>>()[..] {
            ["OK", "SELECT" | "REFINE", _, ids] => ids.to_string(),
            _ => String::new(),
        };
        self.script.lines.push(line);
        self.script.expected.push(reply);
        ids
    }

    /// Append `line` unless the script already holds it.
    fn push_unique(&mut self, line: String) -> Option<String> {
        self.seen.insert(line.clone()).then(|| self.push(line))
    }

    fn len(&self) -> usize {
        self.script.lines.len()
    }

    /// A value drawn continuously between the `lo` and `hi` quantiles.
    fn between(&mut self, step: usize, column: &str, lo: f64, hi: f64) -> String {
        let q = self.rng.uniform(lo, hi);
        let (a, b) = (
            self.profile.quantile(step, column, q),
            self.profile.quantile(step, column, (q + 0.002).min(1.0)),
        );
        format!("{:.9e}", self.rng.uniform(a, b.max(a)))
    }

    /// A selective conjunction of `predicates` comparisons, never repeated:
    /// a high `px` cut first, loose cuts on other columns after it.
    fn conjunction(&mut self, step: usize, predicates: usize) -> String {
        let mut query = format!("px > {}", self.between(step, "px", 0.98, 0.998));
        for _ in 1..predicates {
            let column = *self.rng.pick(&["y", "x", "py"]);
            let clause = if self.rng.chance(0.5) {
                format!("{column} > {}", self.between(step, column, 0.02, 0.5))
            } else {
                format!("{column} < {}", self.between(step, column, 0.5, 0.98))
            };
            query = format!("{query} && {clause}");
        }
        query
    }

    /// `predicates` comparisons: one conjunction, or the union of two.
    fn compound(&mut self, step: usize, predicates: usize, union: bool) -> String {
        if union {
            let left = self.conjunction(step, predicates / 2);
            let right = self.conjunction(step, predicates - predicates / 2);
            format!("({left}) || ({right})")
        } else {
            self.conjunction(step, predicates)
        }
    }

    // What a script is made of (which verbs, how many per session, which
    // grid cut, how many predicates) goes by rotation, so every seed draws
    // the same mix and runs on different seeds differ by their data and
    // their constants only. Timesteps, columns and values are drawn.

    fn explore(&mut self, ops: usize) {
        let last = self.shape.steps - 1;
        // The quantized grid: five px cuts per timestep, at fixed quantiles
        // of that timestep so each keeps a known share of the rows whether
        // or not a beam has formed yet. Every session draws from these, so
        // sessions keep re-asking what another already asked.
        let grid: Vec<Vec<String>> = (0..self.shape.steps)
            .map(|step| {
                [0.97, 0.98, 0.99, 0.995, 0.999]
                    .iter()
                    .map(|&q| format!("{:.3e}", self.profile.quantile(step, "px", q)))
                    .collect()
            })
            .collect();
        // Ten browse, seven drill-down and three tracker sessions in twenty.
        let mix = b"bdbtbdbdbbdtbdbdbtbd";
        let (mut browses, mut drills, mut tracks) = (0, 0, 0);
        for session in 0.. {
            if self.len() >= ops {
                break;
            }
            let step = self.rng.below(self.shape.steps);
            match mix[session % mix.len()] {
                // Browse: orientation histograms.
                b'b' => {
                    self.push("INFO".to_string());
                    for _ in 0..2 + browses % 4 {
                        let step = self.rng.below(self.shape.steps);
                        let column = *self.rng.pick(&["px", "x", "y"]);
                        let bins = *self.rng.pick(&[32, 64, 128]);
                        self.push(format!("HIST\t{step}\t{column}\t{bins}"));
                    }
                    if browses % 3 == 0 {
                        self.push("PING".to_string());
                    }
                    browses += 1;
                }
                // Drill-down: SELECT, then REFINEs that narrow its ids. REFINE
                // is never memoized, so its cuts stay on the grid, where the
                // index answers from whole bins in microseconds: an
                // off-grid cut costs milliseconds and would turn the
                // workload into a measure of that one evaluation.
                b'd' => {
                    let cut = &grid[step][drills % 5];
                    let mut ids = self.push(format!("SELECT\t{step}\tpx > {cut}"));
                    for refine in 0..1 + drills % 2 {
                        let tighter = &grid[step][(drills + refine + 1) % 5];
                        let head = first_ids(&ids, MAX_EMBEDDED_IDS).to_string();
                        ids = self.push(format!("REFINE\t{step}\t{head}\tpx > {tighter}"));
                    }
                    if drills % 5 < 3 {
                        self.push(format!("HIST\t{step}\tpx\t64\tpx > {cut}"));
                    }
                    drills += 1;
                }
                // Tracker: a late beam followed across every timestep.
                _ => {
                    let step = last - tracks % 2;
                    let cut = &grid[step][2 + tracks % 3];
                    let ids = self.push(format!("SELECT\t{step}\tpx > {cut}"));
                    for track in 0..1 + tracks % 2 {
                        let take = [5, 10, 20][(tracks + track) % 3];
                        self.push(format!("TRACK\t{}", first_ids(&ids, take)));
                    }
                    tracks += 1;
                }
            }
        }
        self.script.lines.truncate(ops);
        self.script.expected.truncate(ops);
    }

    fn drill(&mut self, ops: usize) {
        // Nine SELECTs, seven conditional HISTs and four REFINEs in twenty.
        let mix = b"shsrshshsrshshsrshsr";
        let mut ids = String::new();
        for turn in 0.. {
            if self.len() >= ops {
                break;
            }
            let step = self.rng.below(self.shape.steps);
            let predicates = 2 + turn % 5;
            let query = self.compound(step, predicates, predicates >= 4 && turn % 2 == 0);
            match mix[turn % mix.len()] {
                b's' => {
                    if let Some(found) = self.push_unique(format!("SELECT\t{step}\t{query}")) {
                        ids = found;
                    }
                }
                b'h' => {
                    let column = *self.rng.pick(&["px", "x", "y", "py"]);
                    let bins = [64, 128, 256][turn % 3];
                    self.push_unique(format!("HIST\t{step}\t{column}\t{bins}\t{query}"));
                }
                _ => {
                    let head = first_ids(&ids, MAX_EMBEDDED_IDS).to_string();
                    self.push_unique(format!("REFINE\t{step}\t{head}\t{query}"));
                }
            }
        }
    }

    fn sweep(&mut self, ops: usize) {
        let last = self.shape.steps - 1;
        let cut = self.profile.quantile(last, "px", 0.99);
        let pool = self
            .oracle
            .reply(&format!("SELECT\t{last}\tpx > {cut:.3e}"));
        let pool: Vec<&str> = pool.rsplit('\t').next().unwrap_or("").split(',').collect();
        assert!(pool.len() >= 16, "the last timestep has a beam to track");
        while self.len() < ops {
            // Cyclic order: with a cache of about three timesteps, every
            // request finds its timestep evicted since the last visit.
            let turn = self.len();
            let step = turn % self.shape.steps;
            if turn % 33 == 32 {
                // One catalog-wide TRACK in 33 requests (3%), never the
                // same id list twice.
                let ids: Vec<&str> = (0..8).map(|_| *self.rng.pick(&pool)).collect();
                self.push_unique(format!("TRACK\t{}", ids.join(",")));
            } else if turn.is_multiple_of(2) {
                let query = self.conjunction(step, 2);
                self.push_unique(format!("SELECT\t{step}\t{query}"));
            } else {
                let column = *self.rng.pick(&["px", "x", "y"]);
                let query = self.conjunction(step, 1 + turn / 2 % 2);
                self.push_unique(format!("HIST\t{step}\t{column}\t64\t{query}"));
            }
        }
    }
}

/// The first `n` entries of an ids csv, byte-for-byte.
fn first_ids(csv: &str, n: usize) -> &str {
    match csv.match_indices(',').nth(n.saturating_sub(1)) {
        Some((end, _)) => &csv[..end],
        None => csv,
    }
}

/// Build the script of `spec` for `seed` against an oracle over the data
/// that `seed` generates.
pub fn build(spec: &Spec, seed: u64, profile: &DataProfile, oracle: &Explorer) -> Script {
    let mut builder = Builder {
        oracle,
        profile,
        shape: spec.shape,
        // The kind, not the workload name, salts the stream: explore_warm
        // and cluster_scatter must draw the same script.
        rng: Rng::new(seed ^ ((spec.kind as u64 + 1) << 56)),
        script: Script {
            lines: Vec::with_capacity(spec.script_ops),
            expected: Vec::with_capacity(spec.script_ops),
        },
        seen: HashSet::new(),
    };
    match spec.kind {
        Kind::Explore => builder.explore(spec.script_ops),
        Kind::Drill => builder.drill(spec.script_ops),
        Kind::Sweep => builder.sweep(spec.script_ops),
    }
    builder.script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_ids_cuts_on_commas() {
        assert_eq!(first_ids("1,22,333", 2), "1,22");
        assert_eq!(first_ids("1,22,333", 3), "1,22,333");
        assert_eq!(first_ids("1,22,333", 9), "1,22,333");
        assert_eq!(first_ids("", 4), "");
    }

    #[test]
    fn scripts_survive_the_trip_through_text() {
        let script = Script {
            lines: vec!["PING".to_string(), "REFINE\t3\t\tpx > 1".to_string()],
            expected: vec!["OK\tPONG".to_string(), "OK\tREFINE\t0\t".to_string()],
        };
        assert_eq!(Script::from_text(&script.to_text()), script);
        assert_eq!(script.forwards(1, 3), 1);
        assert_eq!(script.forwards(0, 3), 0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
        assert!((0..1000).all(|_| (2.0..3.0).contains(&rng.uniform(2.0, 3.0))));
    }
}
