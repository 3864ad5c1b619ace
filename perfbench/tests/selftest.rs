//! Self-tests of the benchmark: its statistics helpers, its metric
//! names, and the warm workload's "no simulation" premise.

use simtune_perfbench::report::{PerLayer, Report};
use simtune_perfbench::stats::{
    median, op_tail, quartiles, tail_percentile, valid_metric_name, TAIL_BEYOND,
};
use simtune_perfbench::warm::{self, WarmWorkload, WARM_SERVE_RISCV};

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
    assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some([1.0, 4.0, 7.0]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_percentile(&xs, 99), Some((99, 990.0)));
    // 100 samples: p90 is the highest with ten beyond it.
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&xs, 99), Some((90, 90.0)));
    // Too few samples for any percentile.
    let xs: Vec<f64> = (1..=TAIL_BEYOND).map(|i| i as f64).collect();
    assert_eq!(tail_percentile(&xs, 99), None);
    assert_eq!(op_tail(&xs), (100, TAIL_BEYOND as f64));
    for n in [11, 57, 999, 1000, 5000] {
        let xs: Vec<f64> = (0..n).map(f64::from).collect();
        let (_, v) = tail_percentile(&xs, 99).expect("enough samples");
        assert!(xs.iter().filter(|&&x| x > v).count() >= TAIL_BEYOND);
    }
}

#[test]
fn metric_name_grammar() {
    for ok in ["setup_s", "cache.setup_us", "a-b.c_9", "0x"] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    for bad in ["", "a b", "ms/op", "é", "x\"y"] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
}

/// Every name the benchmark prints is listed in `BENCHMARK.json`, and
/// every listed per-layer name is printed.
#[test]
fn printed_names_are_the_declared_ones() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory");
    let mut report = Report::default();
    PerLayer::default().push_into(&mut report);
    for m in &report.metrics {
        assert!(valid_metric_name(m.name), "{}", m.name);
        assert!(
            declared.contains(&format!("\"name\": \"{}\"", m.name)),
            "{} is printed but not declared",
            m.name
        );
    }
    let per_layer = &declared[declared.find("\"per_layer\"").expect("per_layer list")..];
    assert_eq!(
        per_layer.matches("\"name\"").count(),
        report.metrics.len(),
        "declared per-layer metrics and printed ones differ in number"
    );
}

/// The warm workload must be served from memory alone: no executions
/// and no simulator-layer time, so a defect that credits memo hits with
/// stored host time cannot creep back into the benchmark.
#[test]
fn warm_serve_executes_nothing() {
    let small = WarmWorkload {
        ops_per_session: 20,
        ..WARM_SERVE_RISCV
    };
    let report = warm::run_traced(&small, 3).expect("warm traced run");
    assert!(report.correct, "{}", report.to_json());
    let value = |name: &str| report.get(name).expect(name);
    assert_eq!(value("memo.executions"), 0.0);
    assert_eq!(value("memo.hit_ratio"), 1.0);
    for name in [
        "isa.decode_us",
        "isa.exec_ns_per_inst",
        "isa.insts",
        "cache.setup_us",
        "cache.model_ns_per_access",
        "cache.accesses",
        "backend.trial_us",
        "pool.utilization",
    ] {
        assert_eq!(value(name), 0.0, "{name}");
    }
    assert!(value("snapshot.entries") > 0.0);
    assert!(value("trace.coverage") > 0.0);
}
