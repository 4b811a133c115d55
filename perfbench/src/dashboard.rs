//! The served dashboard: two `starshare-serve` sessions share a server
//! whose result cache holds every panel. One client thread submits both
//! sessions' refreshes, then waits for both; the window closes on their
//! combined expression count. An append batch closes every round of
//! refreshes, and one untimed cold refresh fills the cache first.
//!
//! Answers are checked against `reference_eval` over a separately
//! generated copy of the base table that receives the same appends, so the
//! served (cached, rolled-up, delta-patched) answers meet an independent
//! brute-force evaluation of the cube state each window read.
//!
//! The process runs pinned to one CPU with a one-thread engine, so the
//! serve figures are single-CPU ones (see [`pin_to_one_cpu`]).

use std::time::{Duration, Instant};

use starshare_core::{
    append_facts, bind, parse, Cube, Engine, EngineConfig, HardwareModel, SimTime, TelemetryConfig,
    WindowConfig,
};
use starshare_serve::Server;

use crate::inputs::{self, REFRESHES_PER_ROUND, REFRESH_EXPRS};
use crate::layers::Layers;
use crate::report::{
    answered, check_reference, ms, result_digest, set_digest, Checks, Pass, Rounds, Stopwatch,
};
use crate::spans::{Spans, BENCH};
use crate::{Args, Workload};

/// Rounds over which `sim_s_per_query` is taken (every pass runs at
/// least these many).
pub const SIM_ROUNDS: u64 = 20;
/// Result-cache budget: every panel, drill-up and patched entry fits, so
/// nothing is evicted and every refresh is served from the cache.
const CACHE_BYTES: usize = 64 << 20;
/// Parse/bind probe repeats over one refresh's expressions.
const MDX_PROBE_REPEATS: usize = 50;

/// Pins the calling thread, and every thread it starts afterwards, to the
/// first CPU it may run on. The client thread and the server's coordinator
/// hand each refresh back and forth. Unpinned on a shared 2-vCPU guest,
/// each hand-off woke the other, idle vCPU, and that wake-up cost from well
/// under a millisecond to several: a refresh's p90 read 1.9–3.2 ms across
/// the runs of one set, and its spread over ten seeds reached 0.30. Pinned,
/// with the same seeds interleaved, it read 1.7–1.9 ms.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is 128 writable bytes, the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, 128, allowed.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .expect("the process may run on some CPU");
    let mut one = [0u64; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is 128 readable bytes, the size passed.
    let rc = unsafe { sched_setaffinity(0, 128, one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

/// Builds the cube, the engine and the server; returns the server with
/// its (cube, engine and server) set-up seconds.
pub fn setup(telemetry: Option<u64>) -> (Server, (f64, f64)) {
    pin_to_one_cpu();
    let t = Instant::now();
    let cube = inputs::paper_scale1();
    let cube_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // A long deadline: windows close when both submissions are in.
    let window = WindowConfig::default()
        .max_exprs(REFRESH_EXPRS)
        .max_wait(Duration::from_secs(60));
    // One engine thread, to match the one CPU the process runs on.
    let mut config = EngineConfig::new()
        .threads(1)
        .result_cache(true)
        .cache_bytes(CACHE_BYTES)
        .window(window);
    if let Some(seed) = telemetry {
        config = config.telemetry(TelemetryConfig::enabled(seed));
    }
    let server = Server::start(config.build(cube, HardwareModel::paper_1998()));
    (server, (cube_s, t.elapsed().as_secs_f64()))
}

/// One pass of the closed loop; with `layers` it is the traced replay.
pub fn run_pass(
    server: Server,
    args: Args,
    rounds: Rounds,
    spans: &mut Spans,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> (Pass, Engine) {
    let (wl, seed) = (Workload::DashboardServe, args.seed);
    let mut shadow: Cube = inputs::paper_base_only();
    let shadow_base = shadow.catalog.base_table().expect("base table");
    let schema = shadow.schema.clone();
    let sessions = [server.session("sales"), server.session("ops")];

    // The cold fill: one refresh, untimed, so every later one is served
    // from the cache.
    let cold = inputs::refresh(seed, u64::MAX, 0);
    let tickets: Vec<_> = sessions
        .iter()
        .zip(&cold)
        .map(|(s, e)| s.submit(e))
        .collect();
    for t in tickets {
        let ok = t.and_then(|t| t.wait()).is_ok_and(|r| r.all_ok());
        checks.expect(ok, || "the cold dashboard fill failed".to_owned());
    }
    let stats_before = server.stats();
    let evictions_before = server.metrics().map_or(0, |m| m.registry().cache_evictions);

    let mut pass = Pass::default();
    let mut clock = Stopwatch::default();
    let mut last_window = 0u64;
    while rounds.more(pass.rounds, clock.elapsed()) {
        let r = pass.rounds;
        let refreshes: Vec<[Vec<String>; 2]> = (0..REFRESHES_PER_ROUND as u64)
            .map(|k| inputs::refresh(seed, r, k))
            .collect();
        let batch = inputs::append_batch(&schema, wl, seed, r);
        let check_k = inputs::check_pick(seed, wl, r, 0, REFRESHES_PER_ROUND);
        let check_s = inputs::check_pick(seed, wl, r, 1, 2);
        let mut round_sim = SimTime::ZERO;
        let mut round_queries = 0u64;

        clock.resume();
        for (k, exprs) in refreshes.iter().enumerate() {
            spans.begin("refresh", BENCH);
            let mut pending = Vec::with_capacity(2);
            for (session, e) in sessions.iter().zip(exprs) {
                let t = Instant::now();
                let ticket = spans.time("serve.submit", "serve", || session.submit(e));
                pending.push((t, ticket));
            }
            let mut replies = Vec::with_capacity(2);
            for (t, ticket) in pending {
                let reply = ticket.and_then(|tk| spans.time("serve.wait", "serve", || tk.wait()));
                replies.push((t.elapsed(), reply));
            }
            spans.end();
            for (s, (latency, reply)) in replies.into_iter().enumerate() {
                pass.attempted += 1;
                pass.latencies_ms.push(ms(latency));
                let reply = match reply {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("submission failed: {e}");
                        pass.failed += 1;
                        continue;
                    }
                };
                let info = reply.window.clone();
                if info.window_id != last_window {
                    last_window = info.window_id;
                    round_sim += info.sim;
                    if let Some(l) = layers.as_deref_mut() {
                        l.serve_windows += 1;
                        l.serve_window_wall += info.wall;
                        if info.cache_hits as usize == info.n_queries {
                            l.hit_windows += 1;
                            l.hit_window_wall += info.wall;
                        }
                    }
                }
                if let Some(l) = layers.as_deref_mut() {
                    l.submissions += 1;
                    l.serve_wait += latency.saturating_sub(info.wall);
                }
                pass.failed += u64::from(!reply.all_ok());
                let results = answered(reply.outcomes);
                round_queries += results.len() as u64;
                pass.digests
                    .push(set_digest(results.iter().map(result_digest).collect()));
                if k == check_k && s == check_s {
                    clock.pause();
                    let i = inputs::check_pick(seed, wl, r, 2, results.len());
                    if let Some(res) = results.get(i) {
                        check_reference(&shadow, shadow_base, res, checks);
                    }
                    clock.resume();
                }
            }
        }
        let t = Instant::now();
        let out = spans.time("serve.append", "maintain", || sessions[0].append(&batch));
        pass.append_ms.push(ms(t.elapsed()));
        pass.attempted += 1;
        clock.pause();
        match out {
            Ok(o) => {
                round_sim += o.report.sim;
                if let Some(l) = layers.as_deref_mut() {
                    l.appends += 1;
                    l.appended_rows += o.appended;
                    l.patch_sim += o.report.sim;
                }
                if let Err(e) = append_facts(&mut shadow, &batch) {
                    checks.expect(false, || format!("reference copy rejected an append: {e}"));
                }
            }
            Err(e) => {
                eprintln!("append failed: {e}");
                pass.failed += 1;
            }
        }
        pass.answered += round_queries;
        pass.round_sim.push(round_sim);
        pass.round_queries.push(round_queries);
        pass.rounds += 1;
    }
    pass.timed = clock.elapsed();

    if let Some(l) = layers.as_deref_mut() {
        let s = server.stats();
        l.cache.exact_hits = (s.cache_hits - s.cache_subsumption_hits)
            - (stats_before.cache_hits - stats_before.cache_subsumption_hits);
        l.cache.subsumption_hits = s.cache_subsumption_hits - stats_before.cache_subsumption_hits;
        l.cache.misses = s.cache_misses - stats_before.cache_misses;
        l.cache.patched = s.cache_patched - stats_before.cache_patched;
        l.cache.patch_drops = s.cache_patch_drops - stats_before.cache_patch_drops;
        l.cache.evictions =
            server.metrics().map_or(0, |m| m.registry().cache_evictions) - evictions_before;
    }
    drop(sessions);
    let engine = server.shutdown();
    let base = engine.cube().catalog.base_table().expect("base table");
    let rows = engine.cube().catalog.table(base).n_rows();
    let want = shadow.catalog.table(shadow_base).n_rows();
    checks.expect(rows == want, || {
        format!("served base table holds {rows} rows, the reference copy {want}")
    });
    if let Some(l) = layers {
        l.append_wall = spans.total("serve.append");
        l.cache_bytes = engine.cache_bytes() as u64;
        l.cache_queries = pass.answered;
        l.self_time = spans.self_time_by_layer();
        l.timed = pass.timed;
        // The server parses and binds inside its windows; time the same
        // calls on one refresh's expressions, outside the timed phase.
        let schema = &engine.cube().schema;
        for _ in 0..MDX_PROBE_REPEATS {
            for text in inputs::refresh(seed, 0, 0).iter().flatten() {
                l.exprs += 1;
                let expr = spans.time("mdx.parse", "mdx", || parse(text));
                match expr.map(|e| spans.time("mdx.bind", "mdx", || bind(schema, &e))) {
                    Ok(Ok(b)) => l.bound_queries += b.queries.len() as u64,
                    _ => checks.expect(false, || format!("dashboard expression failed: {text}")),
                }
            }
        }
        l.parse = spans.total("mdx.parse");
        l.bind = spans.total("mdx.bind");
    }
    (pass, engine)
}
