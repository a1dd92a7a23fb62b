//! One seed gives identical inputs and identical exact counts across two
//! in-process runs; another seed changes them.

use std::path::PathBuf;

use sparkline_benchmark::inproc::cycle_counts;
use sparkline_benchmark::layers::OpCounts;
use sparkline_benchmark::served::{run_traced, schedule_prefix};
use sparkline_benchmark::workload::{inproc_spec, WORKLOADS};
use sparkline_benchmark::RunArgs;

/// The smoke scale: 1/20 of every table.
const SCALE: f64 = 0.05;

fn args(seed: u64, dir: &str) -> RunArgs {
    RunArgs {
        seed,
        seconds: 1.0,
        scale: SCALE,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

#[test]
fn rows_repeat_per_seed() {
    for name in WORKLOADS.iter().filter(|w| **w != "served_mix") {
        let table = inproc_spec(name, SCALE).unwrap().table;
        assert_eq!(table.generate(7), table.generate(7), "{name}");
        assert_ne!(table.generate(7), table.generate(8), "{name}");
    }
}

#[test]
fn served_schedule_repeats_per_seed() {
    let a = schedule_prefix(7, SCALE, 300);
    assert_eq!(a, schedule_prefix(7, SCALE, 300));
    assert_ne!(a, schedule_prefix(8, SCALE, 300));
}

/// The counts that must repeat exactly. (`peak_rows_in_flight` is a gauge
/// and depends on how the two executor threads interleave.)
fn exact(counts: &[OpCounts]) -> Vec<[u64; 5]> {
    counts
        .iter()
        .map(|c| {
            let m = &c.metrics;
            [
                m.dominance_tests,
                m.rows_exchanged,
                m.blocks_read,
                m.bytes_decoded,
                c.result_rows as u64,
            ]
        })
        .collect()
}

#[test]
fn dominance_tests_and_blocks_read_repeat_per_seed() {
    for (name, dir) in [
        ("mem_anti", "anti"),
        ("mem_incomplete", "inc"),
        ("disk_filter", "disk"),
    ] {
        let spec = inproc_spec(name, SCALE).unwrap();
        let first = exact(&cycle_counts(&spec, &args(7, dir)).unwrap());
        assert_eq!(
            first,
            exact(&cycle_counts(&spec, &args(7, dir)).unwrap()),
            "{name}"
        );
        assert!(
            first.iter().all(|c| c[0] > 0 && (c[2] > 0) == spec.on_disk),
            "{name}: {first:?}"
        );
        assert_ne!(
            first,
            exact(&cycle_counts(&spec, &args(8, dir)).unwrap()),
            "{name}"
        );
    }
}

#[test]
fn served_cache_counts_repeat_per_seed() {
    let counts = |seed: u64, dir: &str| {
        let r = run_traced(&args(seed, dir)).unwrap();
        assert_eq!(r.failed, 0);
        [
            "server.result_hits",
            "server.result_misses",
            "server.plan_misses",
            "skyline.dominance_tests",
            "skyline.view_rebuilds",
        ]
        .map(|m| r.metrics.get(m))
    };
    let first = counts(7, "served-a");
    assert_eq!(first, counts(7, "served-b"));
    assert_eq!(
        first[0], 320.0,
        "40 hits per block of 50, four blocks at each of two depths"
    );
    assert_eq!(first[1], 48.0, "6 misses per block");
    assert_ne!(first, counts(8, "served-c"));
}
