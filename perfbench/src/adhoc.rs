//! The two ad-hoc workloads: one analyst submits seeded windows of MDX
//! expressions to an engine it owns and waits for each answer; an append
//! batch closes every round of windows.
//!
//! The untraced pass calls `Engine::mdx_many`. The traced pass replays the
//! same rounds on a second, identically built engine with telemetry armed,
//! calling the layers one by one — `parse`, `bind`, `Engine::optimize`,
//! `Engine::execute_plan_degraded` (the executor `mdx_many` runs) — inside
//! spans, and must answer bit for bit as the untraced pass did.

use std::time::Instant;

use starshare_core::{
    bind, parse, CpuCounters, Engine, EngineConfig, HardwareModel, IndexFormat, OptimizerKind,
    Provenance, QueryProfile, QueryResult, SimTime, TelemetryConfig,
};

use crate::inputs::{self, ADHOC_WINDOWS_PER_ROUND};
use crate::layers::Layers;
use crate::report::{
    answered, check_reference, ms, result_digest, set_digest, Checks, Pass, Rounds, Stopwatch,
};
use crate::spans::{Spans, BENCH};
use crate::{Args, Workload};

/// Rounds over which `sim_s_per_query` is taken (every pass runs at
/// least these many).
pub const SIM_ROUNDS: u64 = 4;
/// Answers checked against `reference_eval` per round.
const CHECKS_PER_ROUND: u64 = 2;

/// Builds the workload's cube and engine; returns the engine with its
/// (cube, engine) set-up seconds.
pub fn setup(workload: Workload, telemetry: Option<u64>) -> (Engine, (f64, f64)) {
    let t = Instant::now();
    let cube = match workload {
        Workload::SelectiveCompressed => inputs::clustered_compressed(),
        _ => inputs::paper_scale1(),
    };
    let cube_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut config = match workload {
        Workload::SelectiveCompressed => EngineConfig::paper()
            .compression(true)
            .index_format(IndexFormat::Compressed),
        _ => EngineConfig::new().threads(2),
    }
    .optimizer(OptimizerKind::Gg)
    .result_cache(false);
    if let Some(seed) = telemetry {
        config = config.telemetry(TelemetryConfig::enabled(seed));
    }
    let engine = config.build(cube, HardwareModel::paper_1998());
    (engine, (cube_s, t.elapsed().as_secs_f64()))
}

/// What one window returned.
struct Answer {
    ok: bool,
    sim: SimTime,
    results: Vec<QueryResult>,
}

/// One pass of the closed loop; with `layers` it is the traced replay.
pub fn run_pass(
    mut engine: Engine,
    args: Args,
    rounds: Rounds,
    spans: &mut Spans,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> (Pass, Engine) {
    let (wl, seed) = (args.workload, args.seed);
    let schema = engine.cube().schema.clone();
    let base = engine
        .cube()
        .catalog
        .base_table()
        .expect("cube has a base table");
    let rows_before = engine.cube().catalog.table(base).n_rows();
    let mut appended = 0u64;
    let mut pass = Pass::default();
    let mut clock = Stopwatch::default();
    while rounds.more(pass.rounds, clock.elapsed()) {
        let r = pass.rounds;
        let windows: Vec<Vec<String>> = (0..ADHOC_WINDOWS_PER_ROUND as u64)
            .map(|w| inputs::window(&schema, wl, seed, r, w))
            .collect();
        let batch = inputs::append_batch(&schema, wl, seed, r);
        let check_at: Vec<usize> = (0..CHECKS_PER_ROUND)
            .map(|slot| inputs::check_pick(seed, wl, r, slot, ADHOC_WINDOWS_PER_ROUND))
            .collect();
        let mut round_sim = SimTime::ZERO;
        let mut round_queries = 0u64;

        clock.resume();
        for (w, texts) in windows.iter().enumerate() {
            let t = Instant::now();
            let answer = match layers.as_deref_mut() {
                Some(l) => traced_window(&mut engine, texts, spans, l),
                None => plain_window(&mut engine, texts),
            };
            pass.latencies_ms.push(ms(t.elapsed()));
            pass.attempted += 1;
            pass.failed += u64::from(!answer.ok);
            round_sim += answer.sim;
            round_queries += answer.results.len() as u64;
            pass.digests.push(set_digest(
                answer.results.iter().map(result_digest).collect(),
            ));
            for (slot, _) in check_at.iter().enumerate().filter(|(_, &c)| c == w) {
                clock.pause();
                let i = inputs::check_pick(seed, wl, r, 100 + slot as u64, answer.results.len());
                if let Some(res) = answer.results.get(i) {
                    check_reference(engine.cube(), base, res, checks);
                }
                clock.resume();
            }
        }
        let t = Instant::now();
        let out = spans.time("olap.append_facts", "maintain", || {
            engine.append_facts(&batch)
        });
        pass.append_ms.push(ms(t.elapsed()));
        pass.attempted += 1;
        match out {
            Ok(o) => {
                appended += o.appended;
                round_sim += o.report.sim;
                if let Some(l) = layers.as_deref_mut() {
                    l.appends += 1;
                    l.appended_rows += o.appended;
                    l.patch_sim += o.report.sim;
                }
            }
            Err(e) => {
                eprintln!("append failed: {e}");
                pass.failed += 1;
            }
        }
        clock.pause();
        pass.answered += round_queries;
        pass.round_sim.push(round_sim);
        pass.round_queries.push(round_queries);
        pass.rounds += 1;
    }
    pass.timed = clock.elapsed();
    let rows_after = engine.cube().catalog.table(base).n_rows();
    checks.expect(rows_after == rows_before + appended, || {
        format!("base table went from {rows_before} to {rows_after} rows; {appended} were appended")
    });
    if let Some(l) = layers {
        l.parse = spans.total("mdx.parse");
        l.bind = spans.total("mdx.bind");
        l.plan = spans.total("opt.optimize");
        l.exec_wall = spans.total("exec.execute_plan");
        l.append_wall = spans.total("olap.append_facts");
        l.cache = engine.cache_stats();
        l.cache_bytes = engine.cache_bytes() as u64;
        l.cache_queries = l.planned_queries;
        l.self_time = spans.self_time_by_layer();
        l.timed = pass.timed;
    }
    (pass, engine)
}

/// One window through the engine's MDX entry point.
fn plain_window(engine: &mut Engine, texts: &[String]) -> Answer {
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    match engine.mdx_many(&refs) {
        Ok(out) => Answer {
            ok: out.all_ok(),
            sim: out.report.sim,
            results: answered(out.outcomes),
        },
        Err(e) => {
            eprintln!("window failed: {e}");
            Answer {
                ok: false,
                sim: SimTime::ZERO,
                results: Vec::new(),
            }
        }
    }
}

/// `a - b` field by field: a class's counters without its merge charge.
fn cpu_minus(a: &CpuCounters, b: &CpuCounters) -> CpuCounters {
    CpuCounters {
        hash_builds: a.hash_builds - b.hash_builds,
        hash_probes: a.hash_probes - b.hash_probes,
        agg_updates: a.agg_updates - b.agg_updates,
        tuple_copies: a.tuple_copies - b.tuple_copies,
        predicate_evals: a.predicate_evals - b.predicate_evals,
        bitmap_words: a.bitmap_words - b.bitmap_words,
        bitmap_tests: a.bitmap_tests - b.bitmap_tests,
        index_lookups: a.index_lookups - b.index_lookups,
    }
}

/// The same window, one layer call at a time, each inside a span.
fn traced_window(
    engine: &mut Engine,
    texts: &[String],
    spans: &mut Spans,
    l: &mut Layers,
) -> Answer {
    let failed = |spans: &mut Spans| {
        spans.end();
        Answer {
            ok: false,
            sim: SimTime::ZERO,
            results: Vec::new(),
        }
    };
    spans.begin("window", BENCH);
    let mut ok = true;
    let mut queries = Vec::new();
    for text in texts {
        l.exprs += 1;
        let bound = spans
            .time("mdx.parse", "mdx", || parse(text))
            .map_err(|e| e.to_string())
            .and_then(|expr| {
                spans
                    .time("mdx.bind", "mdx", || bind(&engine.cube().schema, &expr))
                    .map_err(|e| e.to_string())
            });
        match bound {
            Ok(b) => {
                l.bound_queries += b.queries.len() as u64;
                queries.extend(b.queries);
            }
            Err(e) => {
                eprintln!("expression failed: {e}");
                ok = false;
            }
        }
    }
    let plan = match spans.time("opt.optimize", "opt", || {
        engine.optimize(&queries, OptimizerKind::Gg)
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("optimize failed: {e}");
            return failed(spans);
        }
    };
    let exec = spans.time("exec.execute_plan", "exec", || {
        engine.execute_plan_degraded(&plan)
    });
    spans.end();

    l.planned_windows += 1;
    l.classes += plan.classes.len() as u64;
    l.planned_queries += plan.n_queries() as u64;
    l.estimate += plan.estimated_cost;
    l.executed_sim += exec.total.sim;
    l.exec_busy += exec.total.busy;
    l.cpu.merge(&exec.total.cpu);
    l.io.merge(&exec.total.io);
    let model = engine.context().model;
    for (ci, rep) in exec.per_class.iter().enumerate() {
        let merge = exec.merge_cpu.get(ci).copied().unwrap_or_default();
        let p = QueryProfile::executed(
            Provenance::WindowShared,
            &model,
            &rep.io,
            &cpu_minus(&rep.cpu, &merge),
            &merge,
        );
        l.sim_scan += p.scan;
        l.sim_probe += p.probe;
        l.sim_aggregate += p.aggregate;
        l.sim_merge += p.merge;
    }
    Answer {
        ok: ok && exec.results.iter().all(Result::is_ok),
        sim: exec.total.sim,
        results: exec.results.into_iter().flatten().collect(),
    }
}
