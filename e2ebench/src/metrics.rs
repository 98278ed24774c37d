//! Every metric the benchmark prints, with its unit, and for each per-layer
//! metric the end-to-end metric it should move, the workloads where it
//! should move it, and the workloads whose runs bypass it, where a change to
//! that layer should leave the numbers alone. Later changes cite these
//! names; the self-test keeps this table, the printed output and
//! `BENCHMARK.json` in agreement.

/// (name, unit) of each end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("z_acc_s", "1/s"),
    ("z_obs_acc_s", "1/s"),
    ("x_acc_s", "1/s"),
    ("y_acc_s", "1/s"),
    ("classic1_acc_s", "1/s"),
    ("classic64_acc_s", "1/s"),
    ("thp_acc_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("z_cost_per_acc", "cost/acc"),
    ("thp_cost_per_acc", "cost/acc"),
];

/// One per-layer metric, printed by `--trace 1`.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics it should move.
    pub moves: &'static str,
    /// Workloads where it should move them most.
    pub mostly_on: &'static str,
    /// Workloads that bypass it: predict no change there.
    pub bypassed_on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    mostly_on: &'static str,
    bypassed_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        mostly_on,
        bypassed_on,
    }
}

const G: &str = "graph500-resident";
const Z: &str = "zipf-mixed";
const U: &str = "uniform-miss";
const ZU: &str = "zipf-mixed, uniform-miss";
const GZ: &str = "graph500-resident, zipf-mixed";
const ALL: &str = "graph500-resident, zipf-mixed, uniform-miss";
const NONE: &str = "-";

pub const PER_LAYER: [Layer; 40] = [
    l("workloads.gen_ns_per_page", "ns", "setup_s", ZU, G),
    l("workloads.graph500_build_s", "s", "setup_s", G, ZU),
    l("sim.drive_ns_per_acc", "ns", "every *_acc_s", G, NONE),
    l("tlb.probe_ns", "ns", "z_acc_s, x_acc_s", GZ, U),
    l("tlb.miss_ratio", "ratio", "z_acc_s, x_acc_s", GZ, U),
    l("tlb.update_ns", "ns", "z_acc_s", U, G),
    l("tlb.updates_per_acc", "1/acc", "z_acc_s", U, G),
    l(
        "replacement.access_ns",
        "ns",
        "y_acc_s, z_acc_s, classic1_acc_s",
        U,
        G,
    ),
    l(
        "replacement.miss_ratio",
        "ratio",
        "y_acc_s, z_acc_s, classic1_acc_s",
        U,
        G,
    ),
    l(
        "replacement.evict_ratio",
        "ratio",
        "y_acc_s, z_acc_s, classic1_acc_s",
        U,
        G,
    ),
    l("core.insert_ns", "ns", "z_acc_s", U, G),
    l("core.evict_ns", "ns", "z_acc_s", U, G),
    l("core.psi_ns", "ns", "z_acc_s", U, G),
    l("core.backyard_ratio", "ratio", "z_acc_s", U, G),
    l("core.fail_ratio", "ratio", "z_cost_per_acc", U, G),
    l("memmgmt.z.hit_ns_p50", "ns", "z_acc_s", G, U),
    l("memmgmt.z.hit_ns_p99", "ns", "z_acc_s", G, U),
    l(
        "memmgmt.z.hit_samples",
        "count",
        "- (sample count of the hit percentiles)",
        ALL,
        NONE,
    ),
    l("memmgmt.z.miss_ns_p50", "ns", "z_acc_s", U, G),
    l("memmgmt.z.miss_ns_p99", "ns", "z_acc_s", U, G),
    l(
        "memmgmt.z.miss_samples",
        "count",
        "- (sample count of the miss percentiles)",
        ALL,
        NONE,
    ),
    l("memmgmt.z.glue_ns", "ns", "z_acc_s", G, NONE),
    l("memmgmt.thp.fault_ns_p50", "ns", "thp_acc_s", Z, G),
    l("memmgmt.thp.fault_ns_p99", "ns", "thp_acc_s", Z, G),
    l(
        "memmgmt.thp.fault_samples",
        "count",
        "- (sample count of the fault percentiles)",
        ALL,
        NONE,
    ),
    l(
        "memmgmt.thp.promo_fail_ratio",
        "ratio",
        "thp_cost_per_acc",
        Z,
        G,
    ),
    l(
        "memmgmt.classic64.fault_ns_p50",
        "ns",
        "classic64_acc_s",
        U,
        G,
    ),
    l(
        "memmgmt.classic64.fault_samples",
        "count",
        "- (sample count of the fault median)",
        ALL,
        NONE,
    ),
    l(
        "obs.ns_per_acc",
        "ns",
        "z_obs_acc_s (z_acc_s never)",
        Z,
        NONE,
    ),
    l(
        "obs.export_ms",
        "ms",
        "z_obs_acc_s (z_acc_s never)",
        Z,
        NONE,
    ),
    l(
        "bench.trace_overhead",
        "ratio",
        "- (measures the tracing itself)",
        ALL,
        NONE,
    ),
    l(
        "bench.timer_ns",
        "ns",
        "- (clock read subtracted from timed calls)",
        ALL,
        NONE,
    ),
    l("workloads.self_s", "s", "setup_s", ALL, NONE),
    l("sim.self_s", "s", "every *_acc_s", ALL, NONE),
    l("memmgmt.self_s", "s", "every *_acc_s", ALL, NONE),
    l("tlb.self_s", "s", "z_acc_s, x_acc_s", GZ, U),
    l(
        "replacement.self_s",
        "s",
        "y_acc_s, z_acc_s, classic1_acc_s",
        U,
        G,
    ),
    l("core.self_s", "s", "z_acc_s", U, G),
    l("obs.self_s", "s", "z_obs_acc_s", Z, NONE),
    l(
        "bench.self_s",
        "s",
        "- (the traced run's own bookkeeping)",
        ALL,
        NONE,
    ),
];

/// Which way is better for a per-layer metric: more samples, less of
/// everything else.
#[cfg(test)]
pub fn better(unit: &str) -> &'static str {
    if unit == "count" {
        "higher"
    } else {
        "lower"
    }
}
