//! The benchmark's own rules: percentile choice, the exact span partition,
//! seeded inputs and metric names.

use perfbench::inputs;
use perfbench::ledger::{fold, Layer, Ledger, Name, Span};
use perfbench::report::{end_to_end, json_line, per_layer, valid_name, Metric};
use perfbench::rng::SplitMix64;
use perfbench::sample::{beyond, highest_valid, percentile, Latency, Reservoir};
use perfbench::workloads::Rep;
use perfbench::{Inputs, Workload};

#[test]
fn highest_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(highest_valid(0), None);
    assert_eq!(highest_valid(19), None);
    assert_eq!(highest_valid(20), Some(50.0));
    assert_eq!(highest_valid(99), Some(50.0));
    assert_eq!(highest_valid(100), Some(90.0));
    assert_eq!(highest_valid(999), Some(90.0));
    assert_eq!(highest_valid(1000), Some(99.0));
    assert_eq!(highest_valid(9_999), Some(99.0));
    assert_eq!(highest_valid(10_000), Some(99.9));
    assert_eq!(highest_valid(100_000), Some(99.99));
    for n in 1..3000 {
        if let Some(p) = highest_valid(n) {
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&v, 100.0), 100);
    assert_eq!(percentile(&[], 50.0), 0);
    let mut r = Reservoir::new(2000, 1);
    for x in (1..=1000u64).rev() {
        r.push(x);
    }
    let l = Latency::of([r]);
    assert_eq!((l.n, l.p50_ns, l.p99_ns), (1000, 500, 990));
    assert!(l.p99_supported());
}

#[test]
fn reservoir_keeps_a_bounded_uniform_sample() {
    let mut r = Reservoir::new(1000, 9);
    for x in 0..100_000u64 {
        r.push(x);
    }
    assert_eq!(r.items().len(), 1000);
    assert_eq!(r.seen(), 100_000);
    let mean = r.items().iter().sum::<u64>() as f64 / 1000.0;
    assert!((mean - 50_000.0).abs() < 5_000.0, "mean {mean}");
}

fn span(name: Name, start: u64, end: u64, parent: u16) -> Span {
    Span {
        name,
        start,
        end,
        parent,
    }
}

#[test]
fn fold_splits_overlap_and_nesting_exactly() {
    // a and b overlap; g nests inside a.
    let spans = [
        span(Name::Op, 0, 100, 0),
        span(Name::CoupleEnter, 10, 40, 0),
        span(Name::SysWrite, 30, 60, 0),
        span(Name::SysRead, 15, 20, 1),
    ];
    assert_eq!(fold(&spans), vec![50, 15, 30, 5]);
}

#[test]
fn fold_partitions_any_span_set_exactly() {
    let mut g = SplitMix64::new(11);
    let (mut ledger, mut clipped) = (Ledger::new(0), 0);
    for _ in 0..2000 {
        let (lo, len) = (g.below(1000), g.below(500));
        let mut spans = vec![span(Name::Op, lo, lo + len, 0)];
        for i in 1..=g.below(10) as u16 {
            // Children may overlap each other, nest, or stick out of the
            // root (clipped); parents always come earlier in the list.
            let s = g.below(1600);
            let e = s + g.below(400);
            spans.push(span(Name::MpiSendrecv, s, e, g.below(u64::from(i)) as u16));
        }
        let self_ns = fold(&spans);
        assert_eq!(self_ns.iter().sum::<u64>(), len);
        let before = ledger.layer_ns;
        ledger.record_op(0, &spans);
        let added: u64 = ledger.layer_ns.iter().zip(before).map(|(a, b)| a - b).sum();
        assert_eq!(added, len);
        let res = Layer::Residual as usize;
        assert_eq!(ledger.layer_ns[res] - before[res], self_ns[0]);
        clipped += u64::from(spans[1..].iter().any(|s| s.start < lo || s.end > lo + len));
    }
    assert!(clipped > 0);
    assert_eq!(ledger.partition_errors, clipped);
}

#[test]
fn ledger_layers_plus_residual_sum_to_op_time() {
    let mut ledger = Ledger::new(5);
    ledger.record_op(
        1,
        &[
            span(Name::Op, 100, 200, 0),
            span(Name::CoupleEnter, 100, 110, 0),
            span(Name::SysWrite, 112, 130, 0),
            span(Name::SysRead, 130, 180, 0),
            span(Name::CoupleExit, 181, 195, 0),
        ],
    );
    assert_eq!(ledger.layer_ns[Layer::Couple as usize], 24);
    assert_eq!(ledger.layer_ns[Layer::Sys as usize], 68);
    assert_eq!(ledger.layer_ns[Layer::Residual as usize], 8);
    assert_eq!(ledger.op_ns, 100);
    assert_eq!(ledger.sorted(Name::SysRead), vec![50]);
    let mut dump = Vec::new();
    ledger.write_spans(&mut dump, &["h".into()]).unwrap();
    let text = String::from_utf8(dump).unwrap();
    assert!(
        text.starts_with("# h\nop\tid\tparent\tname\tstart_ns\tend_ns\n1\t0\t0\top\t100\t200\n")
    );
    assert_eq!(text.lines().count(), 2 + 5);
}

#[test]
fn same_seed_same_inputs() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 42, 2).digest();
        assert_eq!(a, Inputs::generate(w, 42, 2).digest(), "{w:?}");
        assert_ne!(a, Inputs::generate(w, 43, 2).digest(), "{w:?}");
    }
    assert_eq!(inputs::echo(7, 2), inputs::echo(7, 2));
    assert_eq!(inputs::jobs(7), inputs::jobs(7));
    assert_eq!(inputs::ring(7), inputs::ring(7));
}

#[test]
fn inputs_stay_in_their_ranges() {
    let e = inputs::echo(1, 3);
    assert_eq!(e.frames.len(), 3);
    assert!(e
        .frames
        .iter()
        .flatten()
        .all(|f| (inputs::FRAME_MIN..=inputs::FRAME_MAX).contains(&f.len())));
    let j = inputs::jobs(1);
    assert!(j
        .files
        .iter()
        .all(|f| (inputs::FILE_MIN..=inputs::FILE_MAX).contains(&f.len())));
    let r = inputs::ring(1);
    assert!(r
        .payloads
        .iter()
        .all(|p| (inputs::PAYLOAD_MIN..=inputs::PAYLOAD_MAX).contains(&p.len())));
    assert!(r.contributions.iter().all(|c| c.fract() == 0.0));
}

#[test]
fn stratified_sizes_take_one_size_per_slice() {
    let (n, lo, hi) = (256, 256, 64 * 1024);
    let width = (hi - lo + 1) / n + 1;
    let mut totals = Vec::new();
    for seed in 0..20 {
        let sizes = inputs::stratified(&mut SplitMix64::new(seed), n, lo, hi);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "seeded order");
        for (i, s) in sorted.iter().enumerate() {
            let edge = lo + (hi - lo + 1) * i / n;
            assert!((edge..edge + width).contains(s), "slice {i}: {s}");
        }
        totals.push(sizes.iter().sum::<usize>());
    }
    // Seeds move a pool's total by well under 0.1% (unstratified: ~4%).
    let (min, max) = (totals.iter().min().unwrap(), totals.iter().max().unwrap());
    assert!((max - min) * 1000 < *min, "{min}..{max}");
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    let all: Vec<&str> = end_to_end(&[])
        .into_iter()
        .chain(per_layer(&[], &[], &Ledger::new(0)))
        .map(|m| m.name)
        .collect();
    for (i, n) in all.iter().enumerate() {
        assert!(valid_name(n), "{n}");
        assert!(!all[..i].contains(n), "{n} twice");
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let listed = json.matches("\"name\":").count();
    // Three workloads plus every metric.
    assert_eq!(listed, 3 + all.len());
    for n in &all {
        assert!(
            json.contains(&format!("\"name\": \"{n}\"")),
            "{n} not in BENCHMARK.json"
        );
    }
}

#[test]
fn child_summary_line_round_trips() {
    let line = "rep setup_s=0.0012 window_s=1.001 ops=40 attempted=41 failed=1 cpu_s=0.5 steal_ticks=3 all_ticks=200 n=40 p50_ns=7 p99_ns=90 peak_rss_mib=12.5";
    let rep = Rep::from_summary_line(line).expect("parses");
    assert_eq!(rep.summary_line(), line);
    assert_eq!((rep.ops, rep.failed, rep.latency.p99_ns), (40, 1, 90));
    assert!(Rep::from_summary_line("rep ops=1").is_none());
    assert!(Rep::from_summary_line("metric x").is_none());
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let m = [Metric {
        name: "ops_per_s",
        value: 1.5,
        unit: "1/s",
    }];
    assert_eq!(
        json_line(true, 3, 0, &m),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"ops_per_s": {"value": 1.5, "unit": "1/s"}}}"#
    );
}
