//! Query compilation: from a [`QueryExpr`] tree to a linear bytecode program.
//!
//! A tree-walk evaluator re-dispatches on node kind and re-derives planner
//! decisions — index-vs-scan, equality-vs-range encoding, zone-map pruning —
//! at every node of every evaluation (a chunked one per *chunk*). Deep
//! compound drill-down queries, exactly the workload the paper's interactive
//! exploration loop produces, pay that dispatch cost over and over.
//!
//! [`Program::compile`] normalizes the expression once
//! ([`QueryExpr::normalized`]) and lowers it to a small linear program:
//!
//! * a **slot table** of the distinct predicates (textually identical
//!   predicates share one slot, so common subexpressions are evaluated once);
//! * a **register machine** of AND/OR/NOT ops over bit-mask registers;
//! * a **root** describing how the final selection is produced.
//!
//! Planner decisions are bound per dataset by [`Program::plan`], which
//! resolves every slot to a [`PredSource`] — raw scan (optionally guarded by
//! zone-map pruning) or bitmap-index answer under a cost-selected encoding —
//! and is rendered by the deterministic plan printer ([`Program::explain`])
//! so planner choices are snapshot-testable.
//!
//! Execution is the one evaluator of [`crate::par`]: it binds each slot once
//! (an index slot answered over the whole column, a scan slot zone-pruned per
//! chunk) and interprets the ops over per-chunk masks; [`execute`] is that
//! evaluator at one thread. The determinism invariant, pinned by
//! `tests/compile_differential.rs`, is that the compiled engine selects the
//! same rows as the tree-walk oracle ([`crate::testing`]) and — for
//! normalized expressions — emits bit-identical WAH words. Programs are
//! cached by [`QueryExpr::cache_key`] in a [`PlanCache`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{FastBitError, Result};
use crate::index::IndexEncoding;
use crate::par::{ParExec, DEFAULT_CHUNK_ROWS};
use crate::query::{ColumnProvider, ExecStrategy, Predicate, QueryExpr};
use crate::selection::Selection;

// ---------------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------------

/// One instruction of a compiled query program. Registers and slots are
/// dense small indexes (`u16`), so a deep compound expression compiles to a
/// few dozen bytes of bytecode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// `r[dst] = slots[slot]` — materialize a predicate answer.
    Load {
        /// Destination register.
        dst: u16,
        /// Predicate slot to load.
        slot: u16,
    },
    /// `r[dst] = all-ones / all-zeros` (empty `And`/`Or` operands).
    LoadConst {
        /// Destination register.
        dst: u16,
        /// `true` for all rows selected, `false` for none.
        ones: bool,
    },
    /// `r[dst] &= r[src]`; `src` is dead afterwards.
    AndReg {
        /// Destination (and left operand) register.
        dst: u16,
        /// Right operand register, freed by this op.
        src: u16,
    },
    /// `r[dst] &= slots[slot]` — fused: the predicate answer is combined
    /// without an intermediate register.
    AndSlot {
        /// Destination (and left operand) register.
        dst: u16,
        /// Predicate slot of the right operand.
        slot: u16,
    },
    /// `r[dst] |= r[src]`; `src` is dead afterwards.
    OrReg {
        /// Destination (and left operand) register.
        dst: u16,
        /// Right operand register, freed by this op.
        src: u16,
    },
    /// `r[dst] |= slots[slot]`.
    OrSlot {
        /// Destination (and left operand) register.
        dst: u16,
        /// Predicate slot of the right operand.
        slot: u16,
    },
    /// `r[dst] = !r[dst]` (complement over the covered rows).
    Not {
        /// Register complemented in place.
        dst: u16,
    },
}

impl std::fmt::Display for OpCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OpCode::Load { dst, slot } => write!(f, "r{dst} = load s{slot}"),
            OpCode::LoadConst { dst, ones } => {
                write!(f, "r{dst} = const {}", if ones { "all" } else { "none" })
            }
            OpCode::AndReg { dst, src } => write!(f, "r{dst} &= r{src}"),
            OpCode::AndSlot { dst, slot } => write!(f, "r{dst} &= s{slot}"),
            OpCode::OrReg { dst, src } => write!(f, "r{dst} |= r{src}"),
            OpCode::OrSlot { dst, slot } => write!(f, "r{dst} |= s{slot}"),
            OpCode::Not { dst } => write!(f, "r{dst} = !r{dst}"),
        }
    }
}

/// How the final selection of a program is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Root {
    /// The program is a single predicate; its slot answer *is* the result.
    Pred(u16),
    /// The program is constant (an empty `And` selects all rows, an empty
    /// `Or` selects none).
    Const(bool),
    /// The result is the named register after running the op list.
    Ops {
        /// Register holding the final mask.
        result: u16,
    },
}

// ---------------------------------------------------------------------------
// Planner decisions
// ---------------------------------------------------------------------------

/// How a predicate slot is answered against a concrete dataset — the planner
/// decision previously re-derived inside `query.rs` / `par.rs` per
/// evaluation, now bound once per plan and visible to the plan printer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredSource {
    /// Scan the raw column row-by-row.
    Scan {
        /// Whether a zone-map prune guard is armed: chunks proven all-match
        /// or no-match by their zone are filled without touching rows.
        pruned: bool,
    },
    /// Answer through the column's bitmap index.
    Index {
        /// Encoding chosen by the per-query cost model
        /// ([`crate::BitmapIndex::choose_encoding`]).
        encoding: IndexEncoding,
        /// `true` when the binned bitmaps answer exactly; `false` when
        /// boundary bins / unbinned rows need a candidate check against the
        /// raw column.
        exact: bool,
    },
}

impl std::fmt::Display for PredSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PredSource::Scan { pruned: true } => write!(f, "scan (zone-pruned)"),
            PredSource::Scan { pruned: false } => write!(f, "scan"),
            PredSource::Index { encoding, exact } => {
                let enc = match encoding {
                    IndexEncoding::Equality => "equality",
                    IndexEncoding::Range => "range",
                };
                let check = if exact { "exact" } else { "candidate-check" };
                write!(f, "index (encoding={enc}, {check})")
            }
        }
    }
}

/// The per-slot source rules a plan is bound under;
/// [`ParExec::plan_mode`] picks one per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Indexes where they answer under an [`ExecStrategy`] (`ScanOnly` scans
    /// every slot, guarded by the provider's default zone maps).
    Sequential(ExecStrategy),
    /// Every slot is a chunk scan.
    Chunked {
        /// Zone-map pruning enabled ([`crate::ParExec::pruning`]).
        pruning: bool,
    },
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanMode::Sequential(s) => {
                let s = match s {
                    ExecStrategy::Auto => "auto",
                    ExecStrategy::ScanOnly => "scan-only",
                };
                write!(f, "sequential({s})")
            }
            PlanMode::Chunked { pruning } => {
                write!(f, "chunked(pruning={})", if pruning { "on" } else { "off" })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/// A compiled query: the normalized expression lowered to a slot table of
/// distinct predicates plus a linear register program. Provider-independent
/// (planner decisions are bound later by [`Program::plan`]), so one program
/// is valid for every dataset and is cached by [`QueryExpr::cache_key`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    expr: QueryExpr,
    key: String,
    slots: Vec<Predicate>,
    ops: Vec<OpCode>,
    num_regs: usize,
    root: Root,
}

/// Intermediate value during compilation: a predicate slot, a constant, or a
/// register holding a partial result.
enum Val {
    Slot(u16),
    Const(bool),
    Reg(u16),
}

struct Compiler {
    slots: Vec<Predicate>,
    slot_by_key: HashMap<String, u16>,
    ops: Vec<OpCode>,
    free: Vec<u16>,
    num_regs: u16,
}

impl Compiler {
    fn intern(&mut self, pred: &Predicate) -> u16 {
        let key = pred.to_string();
        if let Some(&slot) = self.slot_by_key.get(&key) {
            return slot;
        }
        let slot = self.slots.len() as u16;
        self.slots.push(pred.clone());
        self.slot_by_key.insert(key, slot);
        slot
    }

    fn alloc(&mut self) -> u16 {
        if let Some(r) = self.free.pop() {
            return r;
        }
        let r = self.num_regs;
        self.num_regs += 1;
        r
    }

    fn reg_of(&mut self, v: Val) -> u16 {
        match v {
            Val::Reg(r) => r,
            Val::Slot(slot) => {
                let dst = self.alloc();
                self.ops.push(OpCode::Load { dst, slot });
                dst
            }
            Val::Const(ones) => {
                let dst = self.alloc();
                self.ops.push(OpCode::LoadConst { dst, ones });
                dst
            }
        }
    }

    fn emit(&mut self, expr: &QueryExpr) -> Val {
        match expr {
            QueryExpr::Pred(p) => Val::Slot(self.intern(p)),
            QueryExpr::Not(inner) => {
                let v = self.emit(inner);
                let dst = self.reg_of(v);
                self.ops.push(OpCode::Not { dst });
                Val::Reg(dst)
            }
            QueryExpr::And(children) => self.emit_nary(children, true),
            QueryExpr::Or(children) => self.emit_nary(children, false),
        }
    }

    /// Lower an n-ary And/Or. Children fold left into the first child's
    /// register; predicate operands fuse as `AndSlot`/`OrSlot` without a
    /// `Load`. Empty combiners become constants (the tree-walk semantics:
    /// `And([])` selects everything, `Or([])` nothing).
    fn emit_nary(&mut self, children: &[QueryExpr], is_and: bool) -> Val {
        if children.is_empty() {
            return Val::Const(is_and);
        }
        let mut acc: Option<u16> = None;
        for child in children {
            let v = self.emit(child);
            match acc {
                None => {
                    if children.len() == 1 {
                        // Single-child combiners pass straight through (the
                        // normalizer unwraps them; this keeps raw trees sane).
                        return v;
                    }
                    acc = Some(self.reg_of(v));
                }
                Some(dst) => match v {
                    Val::Slot(slot) => self.ops.push(if is_and {
                        OpCode::AndSlot { dst, slot }
                    } else {
                        OpCode::OrSlot { dst, slot }
                    }),
                    other => {
                        let src = self.reg_of(other);
                        self.ops.push(if is_and {
                            OpCode::AndReg { dst, src }
                        } else {
                            OpCode::OrReg { dst, src }
                        });
                        self.free.push(src);
                    }
                },
            }
        }
        Val::Reg(acc.expect("non-empty combiner"))
    }
}

impl Program {
    /// Compile `expr`: normalize it, intern its distinct predicates and
    /// lower the Boolean structure to linear bytecode.
    pub fn compile(expr: &QueryExpr) -> Program {
        let normalized = expr.normalized();
        let key = normalized.to_string();
        let mut c = Compiler {
            slots: Vec::new(),
            slot_by_key: HashMap::new(),
            ops: Vec::new(),
            free: Vec::new(),
            num_regs: 0,
        };
        let root = match c.emit(&normalized) {
            Val::Slot(s) => Root::Pred(s),
            Val::Const(b) => Root::Const(b),
            Val::Reg(r) => Root::Ops { result: r },
        };
        Program {
            expr: normalized,
            key,
            slots: c.slots,
            ops: c.ops,
            num_regs: c.num_regs as usize,
            root,
        }
    }

    /// The normalized expression this program evaluates.
    pub fn expr(&self) -> &QueryExpr {
        &self.expr
    }

    /// The cache key ([`QueryExpr::cache_key`]) of the compiled expression.
    pub fn cache_key(&self) -> &str {
        &self.key
    }

    /// The distinct predicates, in first-occurrence (= evaluation) order.
    pub fn slots(&self) -> &[Predicate] {
        &self.slots
    }

    /// The linear op list.
    pub fn ops(&self) -> &[OpCode] {
        &self.ops
    }

    /// Number of mask registers the op list needs.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// How the final selection is produced.
    pub fn root(&self) -> Root {
        self.root
    }

    /// Bind planner decisions against `provider` under `mode`: one
    /// [`PredSource`] per slot, in slot order. Unanswerable predicates
    /// surface the same errors, in the same order, as the tree-walk
    /// evaluator (slot order is evaluation order).
    pub fn plan(&self, provider: &impl ColumnProvider, mode: PlanMode) -> Result<Vec<PredSource>> {
        self.slots
            .iter()
            .map(|pred| plan_predicate(pred, provider, mode))
            .collect()
    }

    /// Render the bound plan as deterministic text for snapshot tests: the
    /// cache key, the mode, every slot with its predicate and source, the op
    /// listing, and the root.
    pub fn explain(&self, provider: &impl ColumnProvider, mode: PlanMode) -> Result<String> {
        let sources = self.plan(provider, mode)?;
        let mut out = String::new();
        writeln!(out, "plan {}", self.key).expect("string write");
        writeln!(out, "mode: {mode}").expect("string write");
        for (i, (pred, source)) in self.slots.iter().zip(&sources).enumerate() {
            writeln!(out, "s{i}: {pred} <- {source}").expect("string write");
        }
        match self.root {
            Root::Pred(s) => writeln!(out, "root: s{s}").expect("string write"),
            Root::Const(b) => {
                writeln!(out, "root: const {}", if b { "all" } else { "none" })
                    .expect("string write");
            }
            Root::Ops { result } => {
                for op in &self.ops {
                    writeln!(out, "  {op}").expect("string write");
                }
                writeln!(out, "root: r{result}").expect("string write");
            }
        }
        Ok(out)
    }
}

/// Resolve one predicate to its [`PredSource`] under `mode`, replicating the
/// decision rules (and error strings) of the tree-walk evaluator
/// (`query::evaluate_predicate`).
fn plan_predicate(
    pred: &Predicate,
    provider: &impl ColumnProvider,
    mode: PlanMode,
) -> Result<PredSource> {
    let data = provider.column(&pred.column);
    let index = provider.index(&pred.column);
    match mode {
        PlanMode::Sequential(ExecStrategy::ScanOnly) => {
            if data.is_none() {
                return Err(FastBitError::UnknownColumn(pred.column.clone()));
            }
            Ok(PredSource::Scan {
                pruned: has_default_zones(provider, &pred.column),
            })
        }
        PlanMode::Sequential(ExecStrategy::Auto) => match (index, data) {
            (Some(index), Some(_)) => {
                let (encoding, exact) = index.plan_range(&pred.range);
                Ok(PredSource::Index { encoding, exact })
            }
            (Some(index), None) if index.answers_exactly(&pred.range) => Ok(PredSource::Index {
                encoding: index.choose_encoding(&pred.range),
                exact: true,
            }),
            (_, Some(_)) => Ok(PredSource::Scan {
                pruned: has_default_zones(provider, &pred.column),
            }),
            _ => Err(FastBitError::UnknownColumn(pred.column.clone())),
        },
        PlanMode::Chunked { pruning } => match data {
            Some(_) => Ok(PredSource::Scan { pruned: pruning }),
            None => Err(FastBitError::UnknownColumn(pred.column.clone())),
        },
    }
}

/// Whether `provider` carries usable zone maps for `column` at the default
/// chunk size — the condition for arming a prune guard under
/// [`PlanMode::Sequential`].
fn has_default_zones(provider: &impl ColumnProvider, column: &str) -> bool {
    provider
        .zone_maps(column, DEFAULT_CHUNK_ROWS)
        .map(|z| z.chunk_rows() == DEFAULT_CHUNK_ROWS && z.num_rows() == provider.num_rows())
        .unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Execute a compiled program against `provider` at one thread: the
/// evaluator of [`crate::par`] at [`ParExec::sequential`]. The selected rows
/// equal the [`crate::testing`] oracle's for the same expression; for the
/// program's (normalized) expression the WAH words are bit-identical too.
pub fn execute(
    program: &Program,
    provider: &impl ColumnProvider,
    strategy: ExecStrategy,
) -> Result<Selection> {
    crate::par::evaluate_program(program, provider, &ParExec::sequential(), strategy)
}

/// Compile `expr` and execute it at one thread, held to the
/// [`crate::testing`] oracle.
pub fn evaluate(
    expr: &QueryExpr,
    provider: &impl ColumnProvider,
    strategy: ExecStrategy,
) -> Result<Selection> {
    execute(&Program::compile(expr), provider, strategy)
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Effectiveness counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered by a cached program.
    pub hits: u64,
    /// Lookups that compiled a fresh program.
    pub misses: u64,
    /// Programs evicted by the capacity limit.
    pub evictions: u64,
    /// Programs currently held.
    pub len: usize,
}

#[derive(Debug)]
struct PlanEntry {
    program: Arc<Program>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    entries: HashMap<String, PlanEntry>,
    tick: u64,
}

/// An LRU cache of compiled programs keyed by [`QueryExpr::cache_key`].
/// Programs are provider-independent, so one entry serves every timestep.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` programs (0 disables caching:
    /// every lookup compiles).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(PlanCacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the program compiled from `expr`, compiling and caching it on a
    /// miss.
    pub fn get_or_compile(&self, expr: &QueryExpr) -> Arc<Program> {
        let _plan = obs::span("plan");
        let key = expr.cache_key();
        {
            let mut inner = self.inner.lock().expect("plan cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("hit", 1);
                return Arc::clone(&entry.program);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::count("hit", 0);
        let program = {
            let _compile = obs::span("compile");
            Arc::new(Program::compile(expr))
        };
        if self.capacity == 0 {
            return program;
        }
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        while inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("full cache is non-empty");
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.entries.insert(
            key,
            PlanEntry {
                program: Arc::clone(&program),
                last_used: tick,
            },
        );
        program
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.inner.lock().expect("plan cache lock").entries.len(),
        }
    }

    /// Register this cache's effectiveness counters into a metrics
    /// registry as `vdx_plan_cache_*` collectors.
    pub fn register_metrics(self: &Arc<Self>, registry: &obs::Registry) {
        for (event, pick) in [("hit", 0usize), ("miss", 1), ("eviction", 2)] {
            let cache = Arc::clone(self);
            registry.counter_fn(
                "vdx_plan_cache_events_total",
                "Plan cache lookups and evictions by outcome.",
                &[("event", event)],
                move || {
                    let s = cache.stats();
                    [s.hits, s.misses, s.evictions][pick]
                },
            );
        }
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_plan_cache_len",
            "Compiled programs currently held by the plan cache.",
            &[],
            move || cache.stats().len as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use std::collections::HashMap as Map;

    struct MemProvider {
        columns: Map<String, Vec<f64>>,
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
                rows,
            }
        }
    }

    impl ColumnProvider for MemProvider {
        fn num_rows(&self) -> usize {
            self.rows
        }
        fn column(&self, name: &str) -> Option<&[f64]> {
            self.columns.get(name).map(|v| v.as_slice())
        }
        fn index(&self, _name: &str) -> Option<&crate::index::BitmapIndex> {
            None
        }
    }

    fn ramp(n: usize) -> MemProvider {
        MemProvider::new(vec![
            ("x", (0..n).map(|i| i as f64).collect::<Vec<f64>>()),
            ("y", (0..n).map(|i| (i % 97) as f64).collect::<Vec<f64>>()),
        ])
    }

    #[test]
    fn duplicate_predicates_share_one_slot() {
        let e = parse_query("(x > 3 && y < 5) || (x > 3 && y > 90)").unwrap();
        let p = Program::compile(&e);
        assert_eq!(p.slots().len(), 3, "x > 3 interned once");
        assert!(matches!(p.root(), Root::Ops { .. }));
    }

    #[test]
    fn single_predicate_compiles_to_leaf_root() {
        let e = parse_query("x > 3").unwrap();
        let p = Program::compile(&e);
        assert_eq!(p.root(), Root::Pred(0));
        assert!(p.ops().is_empty());
    }

    #[test]
    fn double_negation_compiles_like_the_plain_predicate() {
        // normalized() collapses !!p to p: identical cache keys must yield
        // identical programs (the cache shares entries by key).
        let plain = Program::compile(&parse_query("x > 3").unwrap());
        let doubled = Program::compile(&parse_query("!(!(x > 3))").unwrap());
        assert_eq!(plain, doubled);
    }

    #[test]
    fn empty_combiners_compile_to_constants() {
        assert_eq!(
            Program::compile(&QueryExpr::And(Vec::new())).root(),
            Root::Const(true)
        );
        assert_eq!(
            Program::compile(&QueryExpr::Or(Vec::new())).root(),
            Root::Const(false)
        );
        let p = ramp(100);
        let all = execute(
            &Program::compile(&QueryExpr::And(Vec::new())),
            &p,
            ExecStrategy::ScanOnly,
        )
        .unwrap();
        assert_eq!(all.count(), 100);
        let none = execute(
            &Program::compile(&QueryExpr::Or(Vec::new())),
            &p,
            ExecStrategy::ScanOnly,
        )
        .unwrap();
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn registers_are_reused_after_death() {
        // ((a && b) || (c && d)) needs two live registers, not four.
        let e = parse_query("(x > 1 && y > 2) || (x < 90 && y < 80)").unwrap();
        let p = Program::compile(&e);
        assert!(p.num_regs() <= 2, "got {} regs", p.num_regs());
    }

    #[test]
    fn compiled_matches_tree_walk_words() {
        let p = ramp(10_000);
        for q in [
            "x > 100 && x < 9000",
            "(x > 100 && y < 50) || !(x <= 5000)",
            "!(x < 500) && !(y >= 60) && x < 9999",
            "x (-inf, +inf)",
        ] {
            let expr = parse_query(q).unwrap();
            let norm = expr.normalized();
            let oracle =
                crate::testing::evaluate_with_strategy(&norm, &p, ExecStrategy::ScanOnly).unwrap();
            let got = evaluate(&expr, &p, ExecStrategy::ScanOnly).unwrap();
            assert_eq!(got.as_wah(), oracle.as_wah(), "{q}");
        }
    }

    #[test]
    fn plan_cache_hits_and_evicts() {
        let cache = PlanCache::new(2);
        let a = parse_query("x > 1").unwrap();
        let b = parse_query("x > 2").unwrap();
        let c = parse_query("x > 3").unwrap();
        cache.get_or_compile(&a);
        cache.get_or_compile(&a);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        cache.get_or_compile(&b);
        cache.get_or_compile(&c); // evicts the LRU entry
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        // `a` and `!!a` share a key: the second is a hit, not a compile.
        let doubled = QueryExpr::Not(Box::new(QueryExpr::Not(Box::new(c.clone()))));
        let before = cache.stats().hits;
        cache.get_or_compile(&doubled);
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn zero_capacity_plan_cache_never_stores() {
        let cache = PlanCache::new(0);
        let e = parse_query("x > 1").unwrap();
        cache.get_or_compile(&e);
        cache.get_or_compile(&e);
        let s = cache.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn plan_errors_match_tree_walk() {
        let p = ramp(100);
        let expr = parse_query("x > 1 && nope > 2").unwrap();
        let tree =
            crate::testing::evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap_err();
        let compiled = evaluate(&expr, &p, ExecStrategy::ScanOnly).unwrap_err();
        assert_eq!(tree, compiled);
    }

    #[test]
    fn explain_is_deterministic() {
        let p = ramp(100);
        let e = parse_query("(x > 1 && y < 5) || !(x > 1)").unwrap();
        let program = Program::compile(&e);
        let a = program
            .explain(&p, PlanMode::Sequential(ExecStrategy::ScanOnly))
            .unwrap();
        let b = program
            .explain(&p, PlanMode::Sequential(ExecStrategy::ScanOnly))
            .unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with(&format!("plan {}\n", e.cache_key())));
        assert!(a.contains("<- scan"));
    }
}
