//! The three workloads and what they share: one repetition's result, and
//! the wrappers that time each call into the `sys` layer.

pub mod echo;
pub mod jobs;
pub mod ring;

use crate::host::Usage;
use crate::ledger::{Ledger, Name, Tracer};
use crate::sample::Latency;
use std::time::Duration;
use ulp_core::ulp_kernel::{Errno, Fd, KResult};
use ulp_core::{sys, StatsSnapshot};

/// Samples of op latency kept per repetition, shared out among its
/// recorders (bounded so the samples never dominate the process's RSS).
pub const LATENCY_SAMPLES: usize = 1 << 16;

/// How one repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct RepCfg {
    /// Measured window, after set-up and warm-up.
    pub window: Duration,
    /// Record spans (the traced run).
    pub traced: bool,
    /// Seeds the sampling (never the inputs).
    pub seed: u64,
}

/// Stack-pool counters over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackDelta {
    /// Acquisitions served by a recycled slot.
    pub hits: u64,
    /// Acquisitions that carved a fresh slot.
    pub misses: u64,
    /// High-water mark of simultaneously live stacks, over the runtime's
    /// life.
    pub peak_outstanding: u64,
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Runtime build through the workload being ready to run.
    pub setup_s: f64,
    /// Length of the measured window.
    pub window_s: f64,
    /// Operations completed inside the window.
    pub ops: u64,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Attempted operations that failed or returned wrong output.
    pub failed: u64,
    /// CPU used inside the window.
    pub usage: Usage,
    /// Latency of operations inside the window.
    pub latency: Latency,
    /// Runtime counters over the window.
    pub stats: StatsSnapshot,
    /// Stack-pool counters over the window.
    pub stack: StackDelta,
    /// Spans folded over the window (empty unless traced).
    pub ledger: Ledger,
    /// The process's `VmHWM` (MiB) once the repetition is over, less its
    /// RSS before the repetition (see [`crate::Inputs::run_rep`]): the
    /// repetition's own peak when it ran in a process of its own.
    pub peak_rss_mib: f64,
}

impl Rep {
    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }

    /// The untraced measurements as one line of `key=value` fields, for a
    /// repetition run in a child process.
    pub fn summary_line(&self) -> String {
        format!(
            "rep setup_s={} window_s={} ops={} attempted={} failed={} cpu_s={} steal_ticks={} all_ticks={} n={} p50_ns={} p99_ns={} peak_rss_mib={}",
            self.setup_s,
            self.window_s,
            self.ops,
            self.attempted,
            self.failed,
            self.usage.cpu_s,
            self.usage.steal_ticks,
            self.usage.all_ticks,
            self.latency.n,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.peak_rss_mib
        )
    }

    /// Parse [`Rep::summary_line`]; counters and spans come back empty.
    pub fn from_summary_line(line: &str) -> Option<Rep> {
        let mut f = std::collections::HashMap::new();
        let mut words = line.split_whitespace();
        if words.next()? != "rep" {
            return None;
        }
        for w in words {
            let (k, v) = w.split_once('=')?;
            f.insert(k, v);
        }
        let num = |k: &str| f.get(k)?.parse::<f64>().ok();
        let int = |k: &str| f.get(k)?.parse::<u64>().ok();
        Some(Rep {
            setup_s: num("setup_s")?,
            window_s: num("window_s")?,
            ops: int("ops")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            usage: Usage {
                cpu_s: num("cpu_s")?,
                steal_ticks: int("steal_ticks")?,
                all_ticks: int("all_ticks")?,
            },
            latency: Latency {
                n: int("n")? as usize,
                p50_ns: int("p50_ns")?,
                p99_ns: int("p99_ns")?,
            },
            stats: StatsSnapshot::default(),
            stack: StackDelta::default(),
            ledger: Ledger::new(0),
            peak_rss_mib: num("peak_rss_mib")?,
        })
    }
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// A system call returned an errno.
    Errno(Errno),
    /// The peer or file ended before the expected bytes arrived.
    Short,
    /// The bytes that came back differ from those sent.
    Mismatch,
    /// `coupled_scope` refused to couple.
    Couple,
}

/// One system call under a `name` span, counted.
pub fn call<T>(tr: &mut Tracer, name: Name, f: impl FnOnce() -> KResult<T>) -> Result<T, Fail> {
    let s = tr.stamp();
    let r = f();
    tr.span(name, s);
    tr.count(|c| {
        c.sys_calls += 1;
        c.errnos += u64::from(r.is_err());
    });
    r.map_err(Fail::Errno)
}

/// Write all of `data` (a write may take only part of it).
pub fn write_all(tr: &mut Tracer, fd: Fd, data: &[u8]) -> Result<(), Fail> {
    let mut sent = 0;
    while sent < data.len() {
        sent += call(tr, Name::SysWrite, || sys::write(fd, &data[sent..]))?;
    }
    Ok(())
}

/// Read until `buf` is full; a read that returns less than the rest is a
/// short read that needs a retry.
pub fn read_full(tr: &mut Tracer, fd: Fd, buf: &mut [u8]) -> Result<(), Fail> {
    let mut got = 0;
    while got < buf.len() {
        let n = call(tr, Name::SysRead, || sys::read(fd, &mut buf[got..]))?;
        let rest = buf.len() - got;
        tr.count(|c| {
            c.reads += 1;
            c.short_reads += u64::from(n < rest);
        });
        if n == 0 {
            return Err(Fail::Short);
        }
        got += n;
    }
    Ok(())
}

/// Run `body` inside `coupled_scope`, with spans for the entry (call to
/// first line) and exit (last line to return).
pub fn coupled<R>(
    tr: &mut Tracer,
    body: impl FnOnce(&mut Tracer) -> Result<R, Fail>,
) -> Result<R, Fail> {
    let s = tr.stamp();
    let scoped = ulp_core::coupled_scope(|| {
        tr.span(Name::CoupleEnter, s);
        let r = body(tr);
        (r, tr.stamp())
    });
    let (r, last) = scoped.map_err(|_| Fail::Couple)?;
    tr.span(Name::CoupleExit, last);
    r
}

/// Runtime counters now, from inside or outside a ULP of the current
/// runtime.
pub fn stats_now() -> StatsSnapshot {
    ulp_core::current::current_runtime()
        .map(|rt| rt.stats.snapshot())
        .unwrap_or_default()
}
