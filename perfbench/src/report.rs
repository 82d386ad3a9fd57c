//! Turning repetitions into named metrics, and the result line.

use crate::ledger::{Layer, Ledger, Name};
use crate::sample::{median, percentile, us};
use crate::workloads::{Rep, StackDelta};
use ulp_core::StatsSnapshot;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Whether `name` may name a metric: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// End-to-end metrics of untraced repetitions: the median over
/// repetitions of each. A slow (or fast) mode that some repetitions fall
/// into moves the median once it is the common case; until then it shows
/// in the `# rep` lines and in [`outlying_reps`].
pub fn end_to_end(reps: &[&Rep]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("ops_per_s", med(&|r| r.ops_per_s()), "1/s"),
        m("latency_p50_us", med(&|r| us(r.latency.p50_ns)), "us"),
        m("latency_p99_us", med(&|r| us(r.latency.p99_ns)), "us"),
        m(
            "cpu_us_per_op",
            med(&|r| r.usage.cpu_s * 1e6 / r.ops.max(1) as f64),
            "us",
        ),
        m("peak_rss_mib", med(&|r| r.peak_rss_mib), "MiB"),
        m("setup_s", med(&|r| r.setup_s), "s"),
    ]
}

/// Repetitions whose rate fell below 3/4 of the median rate, and those
/// above 5/4 of it.
pub fn outlying_reps(reps: &[&Rep]) -> (usize, usize) {
    let med = median(&reps.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>());
    let count = |f: &dyn Fn(f64) -> bool| reps.iter().filter(|r| f(r.ops_per_s())).count();
    (count(&|v| v < 0.75 * med), count(&|v| v > 1.25 * med))
}

/// The traced repetitions' ledgers folded into one.
pub fn merged_ledger(traced: &[&Rep]) -> Ledger {
    let mut ledger = Ledger::new(0);
    for r in traced {
        ledger.absorb(r.ledger.clone());
    }
    ledger
}

/// Per-layer metrics: the traced repetitions' spans (`ledger`, see
/// [`merged_ledger`]) and counters, plus the untraced-vs-traced throughput
/// that prices the tracing itself.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep], ledger: &Ledger) -> Vec<Metric> {
    let mut stats = StatsSnapshot::default();
    let mut stack = StackDelta::default();
    let mut ops = 0u64;
    for r in traced {
        stats = add_stats(&stats, &r.stats);
        stack.hits += r.stack.hits;
        stack.misses += r.stack.misses;
        stack.peak_outstanding = stack.peak_outstanding.max(r.stack.peak_outstanding);
        ops += r.ops;
    }
    let p50 = |name: Name| us(percentile(&ledger.sorted(name), 50.0));
    let mean = |layer: Layer| ratio(ledger.layer_ns[layer as usize], ledger.ops) / 1e3;
    let c = ledger.counts;
    let rate = |reps: &[&Rep]| median(&reps.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>());
    let (fast, slow) = (rate(untraced), rate(traced));
    let mut residuals = ledger.residuals.items().to_vec();
    residuals.sort_unstable();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("couple.enter_us_p50", p50(Name::CoupleEnter), "us"),
        m("couple.exit_us_p50", p50(Name::CoupleExit), "us"),
        m("couple.per_op", ratio(stats.couples, ops), "1/op"),
        m(
            "couple.handoff_ratio",
            ratio(stats.couple_handoffs, stats.couples),
            "ratio",
        ),
        m("kc.blocks_per_op", ratio(stats.kc_blocks, ops), "1/op"),
        m("sys.read.us_p50", p50(Name::SysRead), "us"),
        m("sys.write.us_p50", p50(Name::SysWrite), "us"),
        m("sys.open.us_p50", p50(Name::SysOpen), "us"),
        m("sys.close.us_p50", p50(Name::SysClose), "us"),
        m("sys.unlink.us_p50", p50(Name::SysUnlink), "us"),
        m("sys.per_op", ratio(c.sys_calls, ops), "1/op"),
        m("sys.errno_per_op", ratio(c.errnos, ops), "1/op"),
        m("sys.epoll_wait.us_p50", p50(Name::SysEpollWait), "us"),
        m(
            "sys.epoll.events_per_wait",
            ratio(c.epoll_events, c.epoll_waits),
            "ratio",
        ),
        m(
            "sys.read.retry_ratio",
            ratio(c.short_reads, c.reads),
            "ratio",
        ),
        m(
            "sched.switches_per_op",
            ratio(stats.context_switches, ops),
            "1/op",
        ),
        m(
            "sched.dispatches_per_op",
            ratio(stats.scheduler_dispatches, ops),
            "1/op",
        ),
        m(
            "sched.tls_loads_per_op",
            ratio(stats.tls_loads, ops),
            "1/op",
        ),
        m("sched.yields_per_op", ratio(stats.yields, ops), "1/op"),
        m("mpi.sendrecv_us_p50", p50(Name::MpiSendrecv), "us"),
        m("mpi.allreduce_us_p50", p50(Name::MpiAllreduce), "us"),
        m("spawn.call_us_p50", p50(Name::SpawnCall), "us"),
        m("spawn.start_us_p50", p50(Name::SpawnStart), "us"),
        m("spawn.reap_us_p50", p50(Name::SpawnReap), "us"),
        m(
            "stack.recycle_ratio",
            ratio(stack.hits, stack.hits + stack.misses),
            "ratio",
        ),
        m(
            "stack.peak_outstanding",
            stack.peak_outstanding as f64,
            "count",
        ),
        m("op.residual_us_p50", us(percentile(&residuals, 50.0)), "us"),
        m(
            "ledger.op_us_mean",
            ratio(ledger.op_ns, ledger.ops) / 1e3,
            "us",
        ),
        m("ledger.couple_us_mean", mean(Layer::Couple), "us"),
        m("ledger.sys_us_mean", mean(Layer::Sys), "us"),
        m("ledger.spawn_us_mean", mean(Layer::Spawn), "us"),
        m("ledger.mpi_us_mean", mean(Layer::Mpi), "us"),
        m("ledger.residual_us_mean", mean(Layer::Residual), "us"),
        m(
            "ledger.partition_errors",
            ledger.partition_errors as f64,
            "count",
        ),
        m("trace.ops_per_s_untraced", fast, "1/s"),
        m("trace.ops_per_s_traced", slow, "1/s"),
        m(
            "trace.overhead_ratio",
            if slow > 0.0 { fast / slow } else { 0.0 },
            "ratio",
        ),
    ]
}

fn add_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        context_switches: a.context_switches + b.context_switches,
        tls_loads: a.tls_loads + b.tls_loads,
        couples: a.couples + b.couples,
        decouples: a.decouples + b.decouples,
        yields: a.yields + b.yields,
        blts_spawned: a.blts_spawned + b.blts_spawned,
        siblings_spawned: a.siblings_spawned + b.siblings_spawned,
        pooled_spawned: a.pooled_spawned + b.pooled_spawned,
        scheduler_dispatches: a.scheduler_dispatches + b.scheduler_dispatches,
        kc_blocks: a.kc_blocks + b.kc_blocks,
        couple_handoffs: a.couple_handoffs + b.couple_handoffs,
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
