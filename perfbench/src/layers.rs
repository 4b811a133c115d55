//! Per-layer figures of a traced pass, named after the modules they
//! measure. Both workload modules fill one [`Layers`] and print it the
//! same way, so every workload reports every per-layer metric (0 where
//! the layer does no work on that workload).

use std::collections::BTreeMap;
use std::time::Duration;

use starshare_core::{CacheStats, CpuCounters, IoStats, SimTime};

use crate::probe::ProbeRates;
use crate::report::{ms, ratio, Metrics};

#[derive(Debug, Default)]
pub struct Layers {
    // mdx
    pub exprs: u64,
    pub parse: Duration,
    pub bind: Duration,
    pub bound_queries: u64,
    // opt
    pub planned_windows: u64,
    pub plan: Duration,
    pub classes: u64,
    pub planned_queries: u64,
    pub estimate: SimTime,
    pub executed_sim: SimTime,
    // exec and storage (counters of the executed plans)
    pub exec_wall: Duration,
    pub exec_busy: Duration,
    pub cpu: CpuCounters,
    pub io: IoStats,
    pub sim_scan: SimTime,
    pub sim_probe: SimTime,
    pub sim_aggregate: SimTime,
    pub sim_merge: SimTime,
    // exec::cache
    pub cache: CacheStats,
    pub cache_bytes: u64,
    pub cache_queries: u64,
    pub hit_windows: u64,
    pub hit_window_wall: Duration,
    pub patch_sim: SimTime,
    // olap::maintain
    pub appends: u64,
    pub append_wall: Duration,
    pub appended_rows: u64,
    // serve
    pub serve_windows: u64,
    pub serve_window_wall: Duration,
    pub serve_wait: Duration,
    pub submissions: u64,
    // setup
    pub cube_s: f64,
    pub engine_s: f64,
    // the trace itself
    pub self_time: BTreeMap<&'static str, Duration>,
    pub timed: Duration,
    pub untraced_timed: Duration,
    pub probes: Option<ProbeRates>,
}

/// Layers whose self time is reported; the benchmark's own bookkeeping
/// (`bench`) is what the coverage figure leaves out.
const LAYERS: [(&str, &str); 5] = [
    ("mdx", "self.mdx_pct"),
    ("opt", "self.opt_pct"),
    ("exec", "self.exec_pct"),
    ("maintain", "self.maintain_pct"),
    ("serve", "self.serve_pct"),
];

impl Layers {
    /// Empty figures carrying the (cube, engine) set-up seconds.
    pub fn with_setup((cube_s, engine_s): (f64, f64)) -> Self {
        Layers {
            cube_s,
            engine_s,
            ..Layers::default()
        }
    }

    /// Share of the timed phase covered by layer spans' self time.
    pub fn coverage(&self) -> f64 {
        let covered: Duration = LAYERS
            .iter()
            .filter_map(|(layer, _)| self.self_time.get(layer))
            .sum();
        ratio(covered.as_secs_f64(), self.timed.as_secs_f64())
    }

    pub fn put(&self, m: &mut Metrics) {
        let q = self.planned_queries as f64;
        let w = self.planned_windows as f64;
        let e = self.exprs as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let sim_ms = |t: SimTime| t.as_secs_f64() * 1e3;

        m.put("mdx.parse_us", ratio(us(self.parse), e), "us");
        m.put("mdx.bind_us", ratio(us(self.bind), e), "us");
        m.put(
            "mdx.queries_per_expr",
            ratio(self.bound_queries as f64, e),
            "count",
        );

        m.put("opt.plan_ms", ratio(ms(self.plan), w), "ms");
        m.put(
            "opt.classes_per_window",
            ratio(self.classes as f64, w),
            "count",
        );
        m.put(
            "opt.shared_scan_ratio",
            ratio(q, self.classes as f64),
            "ratio",
        );
        m.put(
            "opt.estimate_ratio",
            ratio(self.estimate.as_secs_f64(), self.executed_sim.as_secs_f64()),
            "ratio",
        );

        m.put("exec.ms_per_window", ratio(ms(self.exec_wall), w), "ms");
        m.put(
            "exec.busy_ms_per_window",
            ratio(ms(self.exec_busy), w),
            "ms",
        );
        let c = &self.cpu;
        m.put(
            "exec.hash_probes",
            ratio(c.hash_probes as f64, q),
            "count/query",
        );
        m.put(
            "exec.agg_updates",
            ratio(c.agg_updates as f64, q),
            "count/query",
        );
        m.put(
            "exec.predicate_evals",
            ratio(c.predicate_evals as f64, q),
            "count/query",
        );
        m.put(
            "exec.bitmap_words",
            ratio(c.bitmap_words as f64, q),
            "count/query",
        );
        m.put(
            "exec.index_lookups",
            ratio(c.index_lookups as f64, q),
            "count/query",
        );
        m.put(
            "exec.sim_scan_ms",
            ratio(sim_ms(self.sim_scan), q),
            "ms/query",
        );
        m.put(
            "exec.sim_probe_ms",
            ratio(sim_ms(self.sim_probe), q),
            "ms/query",
        );
        m.put(
            "exec.sim_aggregate_ms",
            ratio(sim_ms(self.sim_aggregate), q),
            "ms/query",
        );
        m.put(
            "exec.sim_merge_ms",
            ratio(sim_ms(self.sim_merge), q),
            "ms/query",
        );

        let io = &self.io;
        m.put(
            "storage.bytes_scanned",
            ratio(io.bytes_scanned() as f64, q),
            "B/query",
        );
        m.put(
            "storage.seq_faults",
            ratio(io.seq_faults as f64, q),
            "count/query",
        );
        m.put(
            "storage.random_faults",
            ratio(io.random_faults as f64, q),
            "count/query",
        );
        m.put(
            "storage.decompress_bytes",
            ratio(io.decompress_bytes as f64, q),
            "B/query",
        );
        m.put(
            "storage.pool_hit_ratio",
            ratio(io.hits as f64, io.accesses() as f64),
            "ratio",
        );

        let cq = self.cache_queries as f64;
        let ap = self.appends as f64;
        let cs = &self.cache;
        m.put(
            "cache.exact_hits",
            ratio(cs.exact_hits as f64, cq),
            "count/query",
        );
        m.put(
            "cache.subsumption_hits",
            ratio(cs.subsumption_hits as f64, cq),
            "count/query",
        );
        m.put("cache.misses", ratio(cs.misses as f64, cq), "count/query");
        m.put(
            "cache.hit_ratio",
            ratio(cs.hits() as f64, (cs.hits() + cs.misses) as f64),
            "ratio",
        );
        m.put(
            "cache.patched",
            ratio(cs.patched as f64, ap),
            "count/append",
        );
        m.put(
            "cache.patch_drops",
            ratio(cs.patch_drops as f64, ap),
            "count/append",
        );
        m.put(
            "cache.evictions",
            ratio(cs.evictions as f64, cq),
            "count/query",
        );
        m.put("cache.bytes", self.cache_bytes as f64, "B");
        m.put(
            "cache.hit_window_ms",
            ratio(ms(self.hit_window_wall), self.hit_windows as f64),
            "ms",
        );
        m.put(
            "cache.patch_sim_ms",
            ratio(sim_ms(self.patch_sim), ap),
            "ms/append",
        );

        m.put("maintain.append_ms", ratio(ms(self.append_wall), ap), "ms");
        m.put(
            "maintain.rows_per_s",
            ratio(self.appended_rows as f64, self.append_wall.as_secs_f64()),
            "1/s",
        );

        let sw = self.serve_windows as f64;
        m.put(
            "serve.window_ms",
            ratio(ms(self.serve_window_wall), sw),
            "ms",
        );
        m.put(
            "serve.wait_ms",
            ratio(ms(self.serve_wait), self.submissions as f64),
            "ms",
        );
        m.put(
            "serve.submissions_per_window",
            ratio(self.submissions as f64, sw),
            "count",
        );

        m.put("setup.cube_s", self.cube_s, "s");
        m.put("setup.engine_s", self.engine_s, "s");

        let timed = self.timed.as_secs_f64();
        for (layer, name) in LAYERS {
            let t = self.self_time.get(layer).copied().unwrap_or_default();
            m.put(name, 100.0 * ratio(t.as_secs_f64(), timed), "%");
        }
        m.put("trace.coverage_pct", 100.0 * self.coverage(), "%");
        m.put(
            "trace.overhead_pct",
            100.0 * (ratio(timed, self.untraced_timed.as_secs_f64()) - 1.0),
            "%",
        );

        let p = self.probes.expect("probes ran before reporting");
        m.put("storage.decode_mrows_per_s", p.decode_mrows_per_s, "M/s");
        m.put("exec.kernel_mrows_per_s", p.kernel_mrows_per_s, "M/s");
        m.put("host.seq_read_gb_per_s", p.seq_read_gb_per_s, "GB/s");
        m.put(
            "host.column_sum_mrows_per_s",
            p.column_sum_mrows_per_s,
            "M/s",
        );
    }
}
