//! Output, statistics and the small measuring helpers both workload
//! modules share.

use std::hash::Hasher;
use std::time::{Duration, Instant};

use starshare_core::{reference_eval, Cube, Error, ExprOutcome, QueryResult, SimTime, TableId};

use crate::Args;

/// Correctness findings of one run: empty means every check passed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `msg` as a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            let m = msg();
            eprintln!("check failed: {m}");
            self.failures.push(m);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.items.push((name, value, unit));
    }
}

/// Everything a run prints.
#[derive(Debug)]
pub struct RunOutput {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunOutput {
    /// Prints a readable table, then the result object as the last line.
    pub fn print(mut self, args: Args) {
        for (name, value, _) in &self.metrics.items {
            self.checks
                .expect(value.is_finite(), || format!("metric {name} is {value}"));
        }
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (name, value, unit) in &self.metrics.items {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.checks.passed()
        );
        let metrics: Vec<String> = self
            .metrics
            .items
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.passed(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stopwatch that can be paused, so checks made between timed
/// operations stay out of the timed phase.
#[derive(Debug, Default)]
pub struct Stopwatch {
    acc: Duration,
    since: Option<Instant>,
}

impl Stopwatch {
    pub fn resume(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    pub fn pause(&mut self) {
        if let Some(s) = self.since.take() {
            self.acc += s.elapsed();
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.acc + self.since.map_or(Duration::ZERO, |s| s.elapsed())
    }
}

/// Process high-water resident set, in MB (`getrusage`'s `ru_maxrss`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 16 bytes) then
    // fourteen `long`s, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 144 writable, 8-aligned bytes, the size of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// Heap bytes plus bitmap-index bytes the cube holds, in MB.
pub fn stored_mb(cube: &Cube) -> f64 {
    let mut bytes = 0u64;
    for (_, table) in cube.catalog.iter() {
        bytes += table.heap().resident_bytes();
        for d in 0..cube.schema.n_dims() {
            if let Some(ix) = table.index(d) {
                bytes += ix.index.byte_size();
            }
        }
    }
    bytes as f64 / (1024.0 * 1024.0)
}

/// 64-bit FNV-1a: a fixed, dependency-free hash for answer digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The answered queries of a batch of expression outcomes, in expression
/// order (failed expressions and queries are left out).
pub fn answered(outcomes: Vec<Result<ExprOutcome, Error>>) -> Vec<QueryResult> {
    outcomes
        .into_iter()
        .flatten()
        .flat_map(|e| e.results.into_iter().flatten())
        .collect()
}

/// Digest of one answer: the query and every row, measures bit for bit.
pub fn result_digest(r: &QueryResult) -> u64 {
    use std::hash::Hash;
    let mut h = Fnv::default();
    r.query.hash(&mut h);
    for (key, value) in &r.rows {
        key.hash(&mut h);
        h.write_u64(value.to_bits());
    }
    h.finish()
}

/// Order-free digest of a set of answers (a plan may answer a window's
/// queries in another order than the expressions listed them).
pub fn set_digest(mut digests: Vec<u64>) -> u64 {
    digests.sort_unstable();
    let mut h = Fnv::default();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

/// SplitMix64 finalizer: derives independent stream seeds from the run
/// seed so each round's inputs depend only on (seed, round, slot).
pub fn mix(parts: &[u64]) -> u64 {
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        z ^= p;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// How many whole rounds a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    /// Until the timed phase reaches the duration, and at least `min`.
    For(Duration, u64),
    /// Exactly this many (the traced pass replays the untraced one's).
    Exactly(u64),
}

impl Rounds {
    pub fn more(self, done: u64, timed: Duration) -> bool {
        match self {
            Rounds::For(d, min) => done < min || timed < d,
            Rounds::Exactly(n) => done < n,
        }
    }
}

/// What one pass of the closed loop measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub rounds: u64,
    /// Operations attempted: submissions and appends.
    pub attempted: u64,
    pub failed: u64,
    /// The timed phase (checks excluded).
    pub timed: Duration,
    /// Group-by queries answered.
    pub answered: u64,
    /// Submit-to-reply latency of every submission.
    pub latencies_ms: Vec<f64>,
    /// Call-to-return latency of every append batch.
    pub append_ms: Vec<f64>,
    /// Simulated time of each round's windows plus appends.
    pub round_sim: Vec<SimTime>,
    /// Queries answered in each round.
    pub round_queries: Vec<u64>,
    /// One order-free answer digest per submission.
    pub digests: Vec<u64>,
}

impl Pass {
    /// Simulated seconds per answered query over the first `rounds`
    /// rounds: a fixed prefix, so the figure repeats exactly per seed
    /// however many rounds the timed phase fitted.
    pub fn sim_s_per_query(&self, rounds: usize) -> f64 {
        let sim: SimTime = self.round_sim.iter().take(rounds).copied().sum();
        let q: u64 = self.round_queries.iter().take(rounds).sum();
        ratio(sim.as_secs_f64(), q as f64)
    }

    pub fn put_end_to_end(&self, m: &mut Metrics, setup_s: f64, sim_rounds: usize, stored: f64) {
        m.put("setup_s", setup_s, "s");
        m.put(
            "queries_per_s",
            ratio(self.answered as f64, self.timed.as_secs_f64()),
            "1/s",
        );
        m.put("latency_p50_ms", percentile(&self.latencies_ms, 50.0), "ms");
        m.put("latency_p90_ms", percentile(&self.latencies_ms, 90.0), "ms");
        m.put("append_p50_ms", median(&self.append_ms), "ms");
        m.put("sim_s_per_query", self.sim_s_per_query(sim_rounds), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("stored_mb", stored, "MB");
    }

    /// The traced replay must answer bit for bit as the untraced pass did,
    /// round by round, and charge the same simulated time on the first
    /// round, which runs before any append. Later rounds are compared and
    /// reported but not failed: `append_facts` adds a batch's new view
    /// groups in `HashMap` order, so the two engines' views hold the same
    /// rows in different physical order and an index fetch can fault a
    /// page of another compressed size.
    pub fn check_replay(&self, traced: &Pass, checks: &mut Checks) {
        checks.expect(self.rounds == traced.rounds, || {
            format!(
                "traced pass ran {} rounds, untraced {}",
                traced.rounds, self.rounds
            )
        });
        let differ = self
            .digests
            .iter()
            .zip(&traced.digests)
            .position(|(a, b)| a != b);
        checks.expect(
            differ.is_none() && self.digests.len() == traced.digests.len(),
            || format!("traced answers differ from untraced at submission {differ:?}"),
        );
        checks.expect(self.round_sim.first() == traced.round_sim.first(), || {
            "simulated time of the first round differs between the untraced and traced pass"
                .to_owned()
        });
        let differ: Vec<usize> = (1..self.round_sim.len().min(traced.round_sim.len()))
            .filter(|&r| self.round_sim[r] != traced.round_sim[r])
            .collect();
        if !differ.is_empty() {
            println!(
                "note: simulated time differs between the passes after an append, rounds {differ:?}"
            );
        }
    }
}

/// Compares one served answer with the brute-force `reference_eval` over
/// the base table of the cube state the answer read.
pub fn check_reference(cube: &Cube, base: TableId, answer: &QueryResult, checks: &mut Checks) {
    let want = reference_eval(cube, base, &answer.query);
    checks.expect(want.rows == answer.rows, || {
        format!(
            "{} answered {} rows; reference_eval gives {}",
            answer.query.display(&cube.schema),
            answer.rows.len(),
            want.rows.len()
        )
    });
}
