//! End-to-end, layer-attributed benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload zipf-mixed --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (host accesses/s per manager,
//! set-up time, peak memory, simulated cost); `--trace 1` makes the
//! separate traced run and prints the per-layer metrics, writing its spans
//! to `e2ebench/out/spans-<workload>-<seed>.json`. Either way the last line
//! of standard output is one JSON object: `correct`, `attempted` and
//! `failed` count the correctness checks, `metrics` maps each metric to its
//! value and unit. Progress and failed checks go to standard error.
//!
//! Every workload is a closed loop: one process and one thread drive one
//! manager at a time over a trace generated once from `--seed`.

mod e2e;
mod metrics;
mod report;
mod spec;
mod traced;

#[cfg(test)]
mod selftest;

use report::Report;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning; the correctness checks must pass on it too.
pub const HELD_OUT_SEED: u64 = 9001;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"not a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if Workload::full(&args.workload).is_none() {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            spec::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Runs one invocation of `wl`; `spans_out` receives the traced run's spans.
/// The run counts one more check: that it printed exactly the metrics of
/// its mode, with their units.
fn run(wl: &Workload, args: &Args, spans_out: Option<&std::path::Path>) -> Report {
    let mut rep = Report::default();
    let expected: Vec<(&str, &str)> = if args.trace {
        traced::run(wl, args.seed, &mut rep, spans_out);
        metrics::PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit))
            .collect()
    } else {
        e2e::run(wl, args.seed, args.seconds, &mut rep);
        metrics::END_TO_END.to_vec()
    };
    let printed: Vec<(String, &str)> = rep
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), *u))
        .collect();
    let same = printed.len() == expected.len()
        && expected
            .iter()
            .all(|&(n, u)| printed.iter().any(|(pn, pu)| pn == n && *pu == u));
    rep.check(same, || {
        format!("printed metrics {printed:?} differ from {expected:?}")
    });
    rep
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = Workload::full(&args.workload) else {
        unreachable!("parse checked the workload name");
    };
    let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.json", wl.name, args.seed));
    let rep = run(&wl, &args, Some(&spans));
    for f in &rep.failures {
        eprintln!("FAILED CHECK: {f}");
    }
    for (name, value, unit) in &rep.metrics {
        eprint!("{name:>34} {value:>16.4} {unit}");
        match metrics::PER_LAYER.iter().find(|l| l.name == name) {
            Some(l) => eprintln!(
                "  (moves {} on {}; bypassed on {})",
                l.moves, l.mostly_on, l.bypassed_on
            ),
            None => eprintln!(),
        }
    }
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}
