//! `mpi_ring`: a `UlpWorld` of 8 decoupled ranks per scheduler KC on an
//! instant network. Each rank-step is one `sendrecv` around the ring with a
//! seeded payload; every 64 steps an `allreduce` sums seeded
//! contributions. Both results are checked. No system calls, no couples:
//! pure user-level scheduling.

use super::{stats_now, Rep, RepCfg, StackDelta, LATENCY_SAMPLES};
use crate::host::{nproc, peak_rss_mib, Usage};
use crate::inputs::RingInputs;
use crate::ledger::{now_ns, Ledger, Name, Tracer};
use crate::sample::{median, Latency, Reservoir};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ulp_core::{IdlePolicy, StatsSnapshot};
use ulp_mpi::{NetModel, RankCtx, ReduceOp, UlpWorld};

/// Ranks per scheduler kernel context.
pub const RANKS_PER_KC: usize = 8;
/// Steps between allreduces.
pub const ROUND: u64 = 64;
/// Rounds run before the window opens.
const WARMUP_ROUNDS: u64 = 4;
/// Tag of the ring exchange.
const TAG: i32 = 7;
/// Set-ups timed alone before each measured one. A ring's set-up swings
/// by milliseconds with the order in which the ranks' kernel contexts get
/// a CPU, so a repetition reports the median of these and its own.
const SETUP_PROBES: usize = 4;

/// The end of set-up, recorded by the last rank to arrive, and the window
/// edges, recorded by rank 0.
#[derive(Default)]
struct Edges {
    arrived: usize,
    setup_end: Option<Instant>,
    start: Option<(u64, StatsSnapshot, Usage)>,
    end: Option<(u64, StatsSnapshot, Usage)>,
}

#[derive(Default)]
struct RankOut {
    ops: u64,
    attempted: u64,
    failed: u64,
    latency: Vec<Reservoir<u64>>,
    ledgers: Vec<Ledger>,
}

/// Sum of the contributions of `round` (whole numbers: exact in any order).
fn expected_sum(inputs: &RingInputs, round: u64, ranks: usize) -> f64 {
    let n = inputs.contributions.len();
    (0..ranks)
        .map(|r| inputs.contributions[(round as usize * ranks + r) % n])
        .sum()
}

fn payload(inputs: &RingInputs, step: u64, ranks: usize, rank: usize) -> &[u8] {
    let n = inputs.payloads.len();
    &inputs.payloads[(step as usize * ranks + rank) % n]
}

/// Count one rank in; the last of `n` to arrive ends set-up.
fn arrive(edges: &Mutex<Edges>, n: usize) {
    let mut e = edges
        .lock()
        .expect("no rank panics while holding the edges");
    e.arrived += 1;
    if e.arrived == n {
        e.setup_end = Some(Instant::now());
    }
}

fn build_world() -> Result<UlpWorld, String> {
    let world = UlpWorld::builder()
        .ranks(RANKS_PER_KC * nproc())
        .schedulers(nproc())
        .net(NetModel::INSTANT)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    if world.pip().runtime().trace_enabled() {
        return Err("the runtime tracer is on".into());
    }
    Ok(world)
}

/// Time one set-up alone: a world whose ranks arrive as in [`rep`], pass
/// the same barrier and exit.
fn setup_only() -> Result<f64, String> {
    let t0 = Instant::now();
    let world = build_world()?;
    let edges = Arc::new(Mutex::new(Edges::default()));
    let codes = {
        let e = edges.clone();
        world.run("ring-setup", move |ctx| {
            arrive(&e, ctx.size());
            ctx.barrier();
            0
        })
    };
    drop(world);
    if codes.iter().any(|&c| c != 0) {
        return Err(format!("set-up rank exit codes {codes:?}"));
    }
    let end = edges
        .lock()
        .expect("ranks have exited")
        .setup_end
        .ok_or("not every rank arrived")?;
    Ok((end - t0).as_secs_f64())
}

fn rank_main(
    ctx: RankCtx,
    inputs: &RingInputs,
    cfg: RepCfg,
    edges: &Mutex<Edges>,
    out: &Mutex<RankOut>,
) -> i32 {
    let (me, n) = (ctx.rank(), ctx.size());
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    let mut tr = Tracer::new(cfg.traced, cfg.seed ^ (me as u64) << 8);
    let mut latency = Reservoir::new(LATENCY_SAMPLES / n, cfg.seed ^ (me as u64) << 16);
    let (mut ops, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    arrive(edges, n);
    ctx.barrier();
    let window_ns = cfg.window.as_nanos() as u64;
    let mut deadline = u64::MAX;
    let (mut step, mut round) = (0u64, 0u64);
    loop {
        let measuring = round >= WARMUP_ROUNDS;
        let start = now_ns();
        let s = tr.stamp();
        let got = ctx.sendrecv(right, TAG, payload(inputs, step, n, me), left as i32, TAG);
        tr.span(Name::MpiSendrecv, s);
        let mut ok = got.src == left && got.data == payload(inputs, step, n, left);
        step += 1;
        let mut stop = false;
        if step % ROUND == 0 {
            // Rank 0 alone watches the clock; the stop flag travels in the
            // allreduce so every rank leaves after the same step.
            let flag = f64::from(u8::from(me == 0 && now_ns() >= deadline));
            let contribution =
                inputs.contributions[(round as usize * n + me) % inputs.contributions.len()];
            let s = tr.stamp();
            let sum = ctx.allreduce(ReduceOp::Sum, &[contribution, flag]);
            tr.span(Name::MpiAllreduce, s);
            ok &= sum[0] == expected_sum(inputs, round, n);
            stop = sum[1] >= 1.0;
            round += 1;
            if me == 0 && round == WARMUP_ROUNDS {
                let now = now_ns();
                deadline = now + window_ns;
                edges.lock().expect("rank 0 only").start = Some((now, stats_now(), Usage::now()));
            }
        }
        let end = now_ns();
        attempted += 1;
        if !ok {
            failed += 1;
        }
        if measuring && ok {
            ops += 1;
            latency.push(end - start);
            tr.end_op(step, start, end);
        } else {
            tr.discard_op();
        }
        if stop {
            break;
        }
    }
    if me == 0 {
        edges.lock().expect("rank 0 only").end = Some((now_ns(), stats_now(), Usage::now()));
    }
    let mut o = out
        .lock()
        .expect("no rank panics while holding the result lock");
    o.ops += ops;
    o.attempted += attempted;
    o.failed += failed;
    o.latency.push(latency);
    o.ledgers.push(tr.ledger);
    0
}

/// One repetition: time [`SETUP_PROBES`] set-ups alone, then set up, warm
/// up, measure for `cfg.window` and tear down.
pub fn rep(inputs: &Arc<RingInputs>, cfg: RepCfg) -> Result<Rep, String> {
    let mut setups = (0..SETUP_PROBES)
        .map(|_| setup_only())
        .collect::<Result<Vec<f64>, String>>()?;
    let t0 = Instant::now();
    let world = build_world()?;
    let edges = Arc::new(Mutex::new(Edges::default()));
    let out = Arc::new(Mutex::new(RankOut::default()));
    let codes = {
        let (i, e, o) = (inputs.clone(), edges.clone(), out.clone());
        world.run("ring", move |ctx| rank_main(ctx, &i, cfg, &e, &o))
    };
    drop(world);
    if codes.iter().any(|&c| c != 0) {
        return Err(format!("rank exit codes {codes:?}"));
    }
    let e = std::mem::take(&mut *edges.lock().expect("ranks have exited"));
    let (setup_end, (start_ns, stats0, cpu0), (end_ns, stats1, cpu1)) =
        match (e.setup_end, e.start, e.end) {
            (Some(a), Some(b), Some(c)) => (a, b, c),
            _ => return Err("rank 0 did not record the window".into()),
        };
    let o = std::mem::take(&mut *out.lock().expect("ranks have exited"));
    let mut ledger = Ledger::new(0);
    for l in o.ledgers {
        ledger.absorb(l);
    }
    setups.push((setup_end - t0).as_secs_f64());
    Ok(Rep {
        setup_s: median(&setups),
        window_s: (end_ns - start_ns) as f64 / 1e9,
        ops: o.ops,
        attempted: o.attempted,
        failed: o.failed,
        usage: cpu1.since(&cpu0),
        latency: Latency::of(o.latency),
        stats: stats1.delta(&stats0),
        stack: StackDelta::default(),
        ledger,
        peak_rss_mib: peak_rss_mib(),
    })
}
