//! Closed-loop benchmark of the starshare engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc-plain --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process drives the public API in closed loops (each client waits
//! for its reply before sending again). Every input is generated from
//! `--seed`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (timed with tracing off); with
//! `--trace 1` the run replays the same rounds a second time with spans
//! and telemetry armed and reports the per-layer metrics instead. See
//! `README.md` for the workloads and what each metric should move.

mod adhoc;
mod dashboard;
mod inputs;
mod layers;
mod probe;
mod report;
mod spans;

use std::process::ExitCode;
use std::time::Duration;

use starshare_core::Engine;

use layers::Layers;
use report::{stored_mb, Checks, Metrics, Pass, Rounds, RunOutput};
use spans::Spans;

/// The three workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded windows of 8 generated MDX expressions on the paper's
    /// scale-1 cube, plain pages, GG, 2 threads, result cache off.
    AdhocPlain,
    /// Windows of selective expressions over A-clustered compressed facts
    /// with compressed indexes, one thread.
    SelectiveCompressed,
    /// A served dashboard (Q1–Q9 plus drill-ups) across two sessions,
    /// answered by the result cache; pinned to one CPU, one engine thread.
    DashboardServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "adhoc-plain" => Some(Workload::AdhocPlain),
            "selective-compressed" => Some(Workload::SelectiveCompressed),
            "dashboard-serve" => Some(Workload::DashboardServe),
            _ => None,
        }
    }

    /// The name used on the command line and in output files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocPlain => "adhoc-plain",
            Workload::SelectiveCompressed => "selective-compressed",
            Workload::DashboardServe => "dashboard-serve",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, not {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <adhoc-plain|selective-compressed|dashboard-serve> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload {
        Workload::AdhocPlain | Workload::SelectiveCompressed => drive(
            args,
            adhoc::SIM_ROUNDS,
            |telemetry| adhoc::setup(args.workload, telemetry),
            adhoc::run_pass,
        ),
        Workload::DashboardServe => drive(
            args,
            dashboard::SIM_ROUNDS,
            dashboard::setup,
            dashboard::run_pass,
        ),
    };
    out.print(args);
    ExitCode::SUCCESS
}

/// Runs one workload: one set-up and the untraced pass on it. With
/// `--trace 1` a second set-up is armed with telemetry and replays the
/// untraced pass's rounds traced, and the layer probes run after it.
fn drive<T>(
    args: Args,
    sim_rounds: u64,
    setup: impl Fn(Option<u64>) -> (T, (f64, f64)),
    pass: impl Fn(T, Args, Rounds, &mut Spans, Option<&mut Layers>, &mut Checks) -> (Pass, Engine),
) -> RunOutput {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let (target, times) = setup(None);
    let rounds = Rounds::For(Duration::from_secs(args.seconds), sim_rounds);
    let (untraced, engine) = pass(
        target,
        args,
        rounds,
        &mut Spans::new(false),
        None,
        &mut checks,
    );
    if !args.trace {
        untraced.put_end_to_end(
            &mut metrics,
            times.0 + times.1,
            sim_rounds as usize,
            stored_mb(engine.cube()),
        );
        return RunOutput {
            checks,
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics,
        };
    }
    drop(engine);

    let (target, _) = setup(Some(args.seed));
    let mut spans = Spans::new(true);
    let mut layers = Layers::with_setup(times);
    let (traced, engine) = pass(
        target,
        args,
        Rounds::Exactly(untraced.rounds),
        &mut spans,
        Some(&mut layers),
        &mut checks,
    );
    untraced.check_replay(&traced, &mut checks);
    layers.untraced_timed = untraced.timed;
    checks.expect(layers.coverage() >= 0.9, || {
        format!(
            "layer spans cover {:.1}% of the timed phase",
            100.0 * layers.coverage()
        )
    });
    let model = engine.context().model;
    layers.probes = Some(probe::run(engine.cube(), &model, &mut spans, &mut checks));
    spans.write_out(args);
    layers.put(&mut metrics);
    RunOutput {
        checks,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
    }
}
