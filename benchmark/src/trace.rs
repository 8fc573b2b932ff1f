//! The traced run: the script replayed on one connection at nested depths,
//! each on a fresh identically configured stack, with the benchmark's own
//! spans around each public call.
//!
//! ```text
//! wire (Client::request)
//! └ front (RouterState::handle_line; the same span as dispatch on one server)
//!   └ dispatch (ServerState::handle_line)
//!     ├ parse (protocol::parse_request)
//!     ├ explorer (DataExplorer::{select, refine_ids, histogram1d, track})
//!     │ ├ load (DatasetCache::get_or_load)
//!     │ ├ compile (Program::compile)
//!     │ └ evaluate (compile::execute, or the chunked equivalent)
//!     └ serialize (protocol::*_reply)
//! ```
//!
//! Spans of one request share its script index. A layer's self time is its
//! span minus its children's, paired by index across depths; a request the
//! server answered from its QueryCache (no `evaluations` tick at the
//! dispatch depth) has no explorer, engine or serialize children.

use std::io;
use std::time::Instant;

use crate::json::Value;
use crate::product::{DataProfile, Engine, Explorer};
use crate::report::{percentile, sorted, Outcome, PER_LAYER};
use crate::run::{build_script, delta, out_dir, set_up, share, start_warm, whole_catalog, TempDir};
use crate::script::{Script, Spec};

/// One recorded span; `start_us` is relative to the start of its depth pass.
struct Span {
    name: &'static str,
    parent: &'static str,
    index: usize,
    start_us: f64,
    dur_us: f64,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn add(&mut self, name: &'static str, parent: &'static str, index: usize, at: f64, ns: u64) {
        self.0.push(Span {
            name,
            parent,
            index,
            start_us: at,
            dur_us: ns as f64 / 1e3,
        });
    }

    /// Durations of span `name` by script index (0 where none was recorded).
    fn by_index(&self, name: &str, ops: usize) -> Vec<f64> {
        let mut out = vec![0.0; ops];
        for span in self.0.iter().filter(|s| s.name == name) {
            out[span.index] = span.dur_us;
        }
        out
    }
}

/// The script lines a depth measures: the first `trace_ops`.
fn traced(spec: &Spec, script: &Script) -> usize {
    spec.trace_ops.min(script.lines.len())
}

/// Replay the script through `call`: the whole of it untimed first when the
/// workload prefills (`call` gets `None`), then the traced lines with their
/// script index and their start relative to the pass, in microseconds.
fn replay(
    spec: &Spec,
    script: &Script,
    mut call: impl FnMut(Option<(usize, f64)>, &str) -> io::Result<()>,
) -> io::Result<()> {
    if spec.prefill {
        for line in &script.lines {
            call(None, line)?;
        }
    }
    let started = Instant::now();
    for (i, line) in script.lines.iter().enumerate().take(traced(spec, script)) {
        call(Some((i, started.elapsed().as_secs_f64() * 1e6)), line)?;
    }
    Ok(())
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replay `spec`'s script at every depth and report the per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64) -> io::Result<Outcome> {
    let tmp = TempDir::new()?;
    let mut profile = DataProfile::default();
    let mut serving = set_up(spec, seed, &tmp.path().join("stack"), Some(&mut profile))?;
    let whole = whole_catalog(spec, seed, &serving, &tmp.path().join("whole"))?;
    let script = build_script(spec, seed, &profile, &whole);
    let ops = traced(spec, &script);
    let groups = serving.stack.groups();
    let mut spans = Spans::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |i: usize, reply: &str| {
        attempted += 1;
        failed += u64::from(reply != script.expected[i]);
    };

    // Depth 1, wire: the set-up's own stack and first connection. Counters
    // are read at the same boundary, around the traced lines only.
    let mut reply_bytes = 0usize;
    let mut before = None;
    replay(spec, &script, |traced, line| {
        if matches!(traced, Some((0, _))) {
            before = Some(serving.stack.counters());
        }
        let sent = Instant::now();
        let reply = serving.clients[0].request(line)?;
        if let Some((i, at)) = traced {
            spans.add("wire", "", i, at, sent.elapsed().as_nanos() as u64);
            reply_bytes += reply.len() + 1;
            check(i, &reply);
        }
        Ok(())
    })?;
    let after = serving.stack.counters();
    let before = before.expect("the traced pass ran");
    let (catalogs, times) = (serving.catalogs.clone(), serving.times);
    serving.stop()?;

    // Depth 2, the line handlers without a socket. On a sharded stack the
    // router's handler is `front`, and a single server over the whole
    // catalog gives `dispatch` for the same index.
    let mut evaluated = vec![false; ops];
    let mut handlers = vec![("dispatch", "wire", vec![whole.clone()])];
    if groups > 1 {
        handlers[0].1 = "front";
        handlers.insert(0, ("front", "wire", catalogs));
    }
    for (name, parent, catalogs) in handlers {
        let (stack, clients, _) = start_warm(spec, &catalogs, 1)?;
        replay(spec, &script, |traced, line| {
            let evaluations = stack.evaluations();
            let called = Instant::now();
            let reply = stack.handle_line(line);
            if let Some((i, at)) = traced {
                spans.add(name, parent, i, at, called.elapsed().as_nanos() as u64);
                if name == "dispatch" {
                    evaluated[i] = stack.evaluations() > evaluations;
                }
                check(i, &reply);
            }
            Ok(())
        })?;
        drop(clients);
        stack.shutdown()?;
    }

    // Depth 3, explorer: direct calls, no server and no QueryCache.
    let explorer = Explorer::new(whole.clone(), &spec.stack);
    explorer.warm().map_err(io::Error::other)?;
    replay(spec, &script, |traced, line| {
        let (reply, t) = explorer.reply_timed(line);
        if let Some((i, at)) = traced {
            let parsed = at + micros(t.parse_ns);
            spans.add("parse", "dispatch", i, at, t.parse_ns);
            spans.add("explorer", "dispatch", i, parsed, t.explorer_ns);
            let answered = parsed + micros(t.explorer_ns);
            spans.add("serialize", "dispatch", i, answered, t.serialize_ns);
            check(i, &reply);
        }
        Ok(())
    })?;
    drop(explorer);

    // Depth 4, engine: load, compile and evaluate on their own. It produces
    // selections, not replies, so there is nothing to compare.
    let engine = Engine::new(whole, &spec.stack);
    engine.warm().map_err(io::Error::other)?;
    replay(spec, &script, |traced, line| {
        let t = engine.run(line).map_err(io::Error::other)?;
        if let Some((i, at)) = traced {
            let loaded = at + micros(t.load_ns);
            spans.add("load", "explorer", i, at, t.load_ns);
            spans.add("compile", "explorer", i, loaded, t.compile_ns);
            let compiled = loaded + micros(t.compile_ns);
            spans.add("evaluate", "explorer", i, compiled, t.evaluate_ns);
        }
        Ok(())
    })?;
    drop(engine);

    // Self times, paired by index. A layer total is clamped at zero: depths
    // run on separate stacks, so noise can make a child outlast its parent.
    let wire = spans.by_index("wire", ops);
    let dispatch = spans.by_index("dispatch", ops);
    let front = if groups > 1 {
        spans.by_index("front", ops)
    } else {
        dispatch.clone()
    };
    let gate = |name: &str| -> Vec<f64> {
        let mut values = spans.by_index(name, ops);
        for (value, &ran) in values.iter_mut().zip(&evaluated) {
            if !ran {
                *value = 0.0;
            }
        }
        values
    };
    let parse = spans.by_index("parse", ops);
    let (explorer, serialize) = (gate("explorer"), gate("serialize"));
    let (load, compile, evaluate) = (gate("load"), gate("compile"), gate("evaluate"));
    // Mean microseconds per traced request; what is left of a span after
    // its children is clamped at zero.
    let mean = |total: f64| total.max(0.0) / ops as f64;
    let wire_us = mean(sum(&wire));
    let event_loop_us = mean(sum(&wire) - sum(&front));
    let cluster_us = mean(sum(&front) - sum(&dispatch));
    let dispatch_us = mean(sum(&dispatch) - sum(&parse) - sum(&explorer) - sum(&serialize));
    let explorer_us = mean(sum(&explorer) - sum(&load) - sum(&compile) - sum(&evaluate));
    let (parse_us, serialize_us) = (mean(sum(&parse)), mean(sum(&serialize)));
    let (load_us, compile_us) = (mean(sum(&load)), mean(sum(&compile)));
    let (par_us, exec_us) = if spec.stack.threads > 1 {
        (mean(sum(&evaluate)), 0.0)
    } else {
        (0.0, mean(sum(&evaluate)))
    };
    let layers = [
        ("server.event_loop", event_loop_us),
        ("server.cluster", cluster_us),
        ("server.dispatch", dispatch_us),
        ("server.protocol.parse", parse_us),
        ("server.protocol.serialize", serialize_us),
        ("core.explorer", explorer_us),
        ("datastore.store.load", load_us),
        ("fastbit.compile", compile_us),
        ("fastbit.par", par_us),
        ("fastbit.exec", exec_us),
    ];
    let closure = layers.iter().map(|(_, us)| us).sum::<f64>() / wire_us;

    let d = |key: &str| delta(&before, &after, key);
    let pruned = d("par_chunks_pruned_empty") + d("par_chunks_pruned_full");
    let value_of = |name: &str| -> f64 {
        match name {
            "server.event_loop.self_us" => event_loop_us,
            "server.cluster.self_us" => cluster_us,
            "server.cluster.forwards_per_op" => d("cluster_forwards") as f64 / ops as f64,
            "server.dispatch.self_us" => dispatch_us,
            "server.protocol.parse_us" => parse_us,
            "server.protocol.serialize_us" => serialize_us,
            "server.query_cache.hit_ratio" => share(d("qc_hits"), d("qc_misses")),
            "wire.reply_bytes_per_op" => reply_bytes as f64 / ops as f64,
            "core.explorer.self_us" => explorer_us,
            "fastbit.compile.compile_us" => compile_us,
            "fastbit.compile.plan_hit_ratio" => share(d("plan_cache_hits"), d("plan_cache_misses")),
            "fastbit.par.evaluate_us" => par_us,
            "fastbit.par.chunks_pruned_share" => {
                share(pruned, d("par_chunks_scanned") + d("par_chunks_indexed"))
            }
            "fastbit.index.range_enc_share" => {
                share(d("enc_range_queries"), d("enc_equality_queries"))
            }
            "fastbit.exec.evaluate_us" => exec_us,
            "datastore.store.load_us" => load_us,
            "datastore.cache.hit_ratio" => share(d("ds_hits"), d("ds_misses")),
            "datastore.cache.evictions" => d("ds_evictions") as f64,
            "datastore.catalog.ingest_rows_per_s" => {
                times.ingest.rows as f64 / times.ingest.ingest_s
            }
            "datastore.store.warm_s" => times.warm_s,
            "lwfa.generate_s" => times.ingest.generate_s,
            "trace.wire_mean_us" => wire_us,
            "trace.wire_p50_us" => percentile(&sorted(&wire), 50.0),
            "trace.closure_ratio" => closure,
            other => unreachable!("no value for per-layer metric {other}"),
        }
    };
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, value_of(name), unit))
        .collect();

    let shares = Value::obj(
        layers
            .iter()
            .map(|&(name, us)| (name, Value::Num(us / wire_us))),
    );
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Value::Null,
    };
    let detail = Value::obj([
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(seed as f64)),
        ("traced_ops", Value::Num(ops as f64)),
        (
            "evaluated_ops",
            Value::Num(evaluated.iter().filter(|&&e| e).count() as f64),
        ),
        ("layer_share_of_wire", shares),
    ]);
    let file = Value::obj([
        ("detail", detail.clone()),
        ("metrics", outcome.metrics_value()),
        (
            "verbs",
            Value::Arr(
                script.lines[..ops]
                    .iter()
                    .map(|line| Value::str(line.split('\t').next().unwrap_or("")))
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .0
                    .iter()
                    .map(|s| {
                        Value::obj([
                            ("name", Value::str(s.name)),
                            ("parent", Value::str(s.parent)),
                            ("index", Value::Num(s.index as f64)),
                            ("start_us", Value::Num(s.start_us)),
                            ("dur_us", Value::Num(s.dur_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        out_dir().join(format!("trace_{}.json", spec.name)),
        format!("{file}\n"),
    )?;

    Ok(Outcome { detail, ..outcome })
}
