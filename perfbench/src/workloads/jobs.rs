//! `spawn_jobs`: process-per-job churn. The spawning thread starts pooled
//! ULPs in fixed-size waves over `pool_kcs = nproc` and reaps each wave
//! before the next. A job writes a file in tmpfs, reads it back, checks it,
//! unlinks it and exits, all inside one `coupled_scope`. One op is one job,
//! from the `spawn_pooled` call to the return of `wait()`.

use super::LATENCY_SAMPLES;
use super::{call, coupled, read_full, write_all, Fail, Rep, RepCfg, StackDelta};
use crate::host::{nproc, peak_rss_mib, Usage};
use crate::inputs::JobInputs;
use crate::ledger::{now_ns, Counts, Name, Span, Tracer};
use crate::sample::{Latency, Reservoir};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ulp_core::ulp_kernel::OpenFlags;
use ulp_core::{sys, IdlePolicy, PooledHandle, Runtime};

/// Jobs per wave. A job's latency is mostly its wait behind the rest of
/// its wave for a pool KC, so the p99 is close to the slowest waves'
/// makespan, and a few ms of stall (a vCPU taken by the hypervisor) adds
/// to every job in flight. Waves of 64 (about 2 ms) doubled their p99 at
/// 2% host steal; waves of 256 (about 7 ms) still spread 0.16-0.31 over
/// ten runs on a noisier host. A wave of 2048 lasts about 55 ms, so such a
/// stall is a few per cent of it and the p99 moves with throughput.
pub const WAVE: usize = 2048;
/// Waves run after set-up and before the window (set-up has already
/// carved a wave's worth of stacks).
const WARMUP_WAVES: usize = 2;

/// What a traced job hands back to its spawner.
#[derive(Default)]
struct JobTrace {
    first: u64,
    last: u64,
    spans: Vec<Span>,
    counts: Counts,
}

/// Exit status for each way a job can fail.
fn status(r: Result<(), Fail>) -> i32 {
    match r {
        Ok(()) => 0,
        Err(Fail::Errno(_)) => 1,
        Err(Fail::Short) => 2,
        Err(Fail::Mismatch) => 3,
        Err(Fail::Couple) => 4,
    }
}

/// The job body: write `data` to `path`, read it back, compare, unlink.
fn file_roundtrip(tr: &mut Tracer, path: &str, data: &[u8]) -> Result<(), Fail> {
    let back = coupled(tr, |tr| {
        let wr = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        let fd = call(tr, Name::SysOpen, || sys::open(path, wr))?;
        write_all(tr, fd, data)?;
        call(tr, Name::SysClose, || sys::close(fd))?;
        let fd = call(tr, Name::SysOpen, || sys::open(path, OpenFlags::RDONLY))?;
        let mut back = vec![0u8; data.len()];
        read_full(tr, fd, &mut back)?;
        call(tr, Name::SysClose, || sys::close(fd))?;
        call(tr, Name::SysUnlink, || sys::unlink(path))?;
        Ok(back)
    })?;
    if back != data {
        return Err(Fail::Mismatch);
    }
    Ok(())
}

/// Tallies of the waves run so far.
struct Tally {
    ops: u64,
    attempted: u64,
    failed: u64,
    latency: Reservoir<u64>,
}

/// Spawn one wave of jobs `next..next + WAVE`, then reap it in spawn
/// order. `tr` is on only inside the window; `measure` counts the wave
/// into the window's ops and latencies.
fn wave(
    rt: &Runtime,
    inputs: &Arc<JobInputs>,
    paths: &Arc<Vec<String>>,
    next: &mut u64,
    tr: &mut Tracer,
    measure: bool,
    t: &mut Tally,
) -> Result<(), String> {
    struct Spawned {
        job: u64,
        call: u64,
        ret: u64,
        handle: PooledHandle,
        trace: Option<Arc<Mutex<JobTrace>>>,
    }
    let mut spawned = Vec::with_capacity(WAVE);
    for k in 0..WAVE {
        let job = *next;
        *next += 1;
        let trace = tr.on().then(|| Arc::new(Mutex::new(JobTrace::default())));
        let (inputs, paths, slot) = (inputs.clone(), paths.clone(), trace.clone());
        let body = move || {
            let first = now_ns();
            let data = &inputs.files[job as usize % inputs.files.len()];
            let mut jt = Tracer::new(slot.is_some(), 0);
            let r = file_roundtrip(&mut jt, &paths[k], data);
            if let Some(slot) = slot {
                let mut s = slot.lock().expect("the spawner reads only after wait()");
                s.last = now_ns();
                s.first = first;
                s.spans = jt.take_children();
                s.counts = jt.ledger.counts;
            }
            status(r)
        };
        let call = now_ns();
        let handle = rt
            .spawn_pooled("job", body)
            .map_err(|e| format!("spawn_pooled: {e:?}"))?;
        let ret = now_ns();
        spawned.push(Spawned {
            job,
            call,
            ret,
            handle,
            trace,
        });
    }
    for s in spawned {
        let code = s.handle.wait();
        let reaped = now_ns();
        t.attempted += 1;
        if code != 0 {
            t.failed += 1;
            continue;
        }
        if !measure {
            continue;
        }
        t.ops += 1;
        t.latency.push(reaped - s.call);
        if let Some(slot) = s.trace {
            let jt = std::mem::take(&mut *slot.lock().expect("the job has exited"));
            tr.span_at(Name::SpawnCall, s.call, s.ret);
            if jt.first > s.ret {
                tr.span_at(Name::SpawnDispatch, s.ret, jt.first);
            }
            for sp in jt.spans {
                tr.span_at(sp.name, sp.start, sp.end);
            }
            tr.span_at(Name::SpawnReap, jt.last, reaped);
            tr.sample(Name::SpawnStart, jt.first.saturating_sub(s.call));
            tr.count(|c| c.add(&jt.counts));
            tr.end_op(s.job, s.call, reaped);
        }
    }
    Ok(())
}

/// One repetition: set up, warm up, measure for `cfg.window`, tear down.
pub fn rep(inputs: &Arc<JobInputs>, cfg: RepCfg) -> Result<Rep, String> {
    let paths: Arc<Vec<String>> = Arc::new((0..WAVE).map(|k| format!("/job{k}")).collect());
    let t0 = Instant::now();
    let rt = Runtime::builder()
        .schedulers(nproc())
        .pool_kcs(nproc())
        .idle_policy(IdlePolicy::Blocking)
        .build();
    if rt.trace_enabled() {
        return Err("the runtime tracer is on".into());
    }
    // Set-up ends once the pool's kernel contexts run and a wave's worth
    // of stacks has been carved.
    let warm: Vec<PooledHandle> = (0..WAVE)
        .map(|_| rt.spawn_pooled("warm", || 0))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("spawn_pooled: {e:?}"))?;
    for h in warm {
        h.wait();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut next = 0u64;
    let mut t = Tally {
        ops: 0,
        attempted: 0,
        failed: 0,
        latency: Reservoir::new(LATENCY_SAMPLES, cfg.seed ^ 0x1a7),
    };
    let mut idle = Tracer::new(false, 0);
    for _ in 0..WARMUP_WAVES {
        wave(&rt, inputs, &paths, &mut next, &mut idle, false, &mut t)?;
    }
    let mut tr = Tracer::new(cfg.traced, cfg.seed ^ 0x10b);
    let pool = rt.stack_pool();
    let (stats0, cpu0, (hits0, misses0)) = (rt.stats().snapshot(), Usage::now(), pool.stats());
    let start = Instant::now();
    while start.elapsed() < cfg.window {
        wave(&rt, inputs, &paths, &mut next, &mut tr, true, &mut t)?;
    }
    let window_s = start.elapsed().as_secs_f64();
    let (stats1, cpu1, (hits1, misses1)) = (rt.stats().snapshot(), Usage::now(), pool.stats());
    let stack = StackDelta {
        hits: (hits1 - hits0) as u64,
        misses: (misses1 - misses0) as u64,
        peak_outstanding: pool.peak_outstanding() as u64,
    };
    drop(rt);
    Ok(Rep {
        setup_s,
        window_s,
        ops: t.ops,
        attempted: t.attempted,
        failed: t.failed,
        usage: cpu1.since(&cpu0),
        latency: Latency::of([t.latency]),
        stats: stats1.delta(&stats0),
        stack,
        ledger: tr.ledger,
        peak_rss_mib: peak_rss_mib(),
    })
}
