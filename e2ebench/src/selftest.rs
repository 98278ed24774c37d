//! Self-test of the benchmark at a tiny size: every named metric is printed
//! with its unit, the correctness checks pass on the default and the
//! held-out seed, and the Theorem-4 reconciliation fires on a bad twin.

use crate::e2e::{reconcile, timed_run};
use crate::metrics::{better, END_TO_END, PER_LAYER};
use crate::report::Report;
use crate::spec::{Mgr, Workload, NAMES};
use crate::{parse, run, Args, DEFAULT_SEED, HELD_OUT_SEED};

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
    }
}

/// The tiny twin of workload `name`.
fn tiny(name: &str) -> Workload {
    match Workload::tiny(name) {
        Some(wl) => wl,
        None => panic!("no tiny twin of {name}"),
    }
}

/// The run printed exactly the `expected` (name, unit) pairs, each a
/// finite number, and every check passed.
fn assert_prints(rep: &Report, expected: &[(&str, &str)], what: &str) {
    assert!(rep.attempted > 0, "{what}: no checks ran");
    assert!(rep.failures.is_empty(), "{what}: {:?}", rep.failures);
    let printed: Vec<(&str, &str)> = rep
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    for e in expected {
        assert!(printed.contains(e), "{what}: {e:?} not printed");
    }
    assert_eq!(
        printed.len(),
        expected.len(),
        "{what}: unexpected metrics in {printed:?}"
    );
    for (name, value, _) in &rep.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    let json = rep.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn end_to_end_run_prints_every_metric_on_both_seeds() {
    for name in NAMES {
        let wl = tiny(name);
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let rep = run(&wl, &args(name, seed, false), None);
            assert_prints(&rep, &END_TO_END, &format!("{name}/{seed}"));
            // Simulated cost may be 0 at this size: the tiny graph fits RAM.
            for (metric, value, _) in &rep.metrics {
                let cost = metric.ends_with("_cost_per_acc");
                assert!(*value > 0.0 || cost, "{name}/{seed}: {metric} = {value}");
            }
        }
    }
}

#[test]
fn traced_run_prints_every_layer_metric_on_both_seeds() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|l| (l.name, l.unit)).collect();
    for name in NAMES {
        let wl = tiny(name);
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let rep = run(&wl, &args(name, seed, true), None);
            assert_prints(&rep, &expected, &format!("{name}/{seed} traced"));
        }
    }
}

#[test]
fn reconciliation_fires_on_an_x_with_the_wrong_hmax() {
    let wl = tiny("zipf-mixed");
    let (trace, _) = wl.generate(DEFAULT_SEED);
    let (z, y) = (
        timed_run(&wl, Mgr::Z, &trace),
        timed_run(&wl, Mgr::Y, &trace),
    );
    let x_run = |hmax: u64| {
        let (w, n) = wl.window(Mgr::X, trace.len());
        let mut x = wl.build_x(hmax);
        let s = atp_sim::run(&mut x, trace.iter().copied(), w, n);
        crate::e2e::RunOut {
            warm: s.warmup_costs,
            meas: s.costs,
            secs: 1.0,
            cpu_secs: 1.0,
            export_secs: 0.0,
            insert_failures: None,
            thp: None,
        }
    };
    let mut good = Report::default();
    reconcile(&mut good, &z, &x_run(wl.z_hmax()), &y);
    assert!(good.failures.is_empty(), "{:?}", good.failures);
    let mut bad = Report::default();
    reconcile(&mut bad, &z, &x_run(wl.z_hmax() * 2), &y);
    assert!(
        bad.failures.iter().any(|f| f.contains("tlb_misses")),
        "a twice-too-coarse X went unnoticed: {:?}",
        bad.failures
    );
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCHMARK.json at the repository root: {e}"));
    for (name, unit) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for l in &PER_LAYER {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            l.name,
            l.unit,
            better(l.unit)
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = NAMES
        .iter()
        .filter(|w| text.contains(&format!("\"name\": \"{w}\"")))
        .count();
    assert!(
        listed >= 2,
        "BENCHMARK.json lists fewer than two of {NAMES:?}"
    );
    let names = text.matches("\"name\":").count();
    assert_eq!(
        names,
        listed + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names a workload or metric the benchmark does not know"
    );
}

#[test]
fn arguments_are_checked() {
    let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let a = parse(&v(&[
        "--workload",
        "zipf-mixed",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]));
    assert_eq!(
        a,
        Ok(Args {
            workload: "zipf-mixed".into(),
            seed: 7,
            seconds: 3.0,
            trace: true
        })
    );
    for bad in [
        &["--workload", "nope"][..],
        &["--workload", "zipf-mixed", "--trace", "2"],
        &["--workload", "zipf-mixed", "--seed", "-1"],
        &["--workload", "zipf-mixed", "--seconds", "NaN"],
        &["--workload", "zipf-mixed", "--seed"],
        &["--workload", "zipf-mixed", "--extra", "1"],
        &[],
    ] {
        assert!(parse(&v(bad)).is_err(), "{bad:?} accepted");
    }
}
