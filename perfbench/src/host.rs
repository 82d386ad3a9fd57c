//! The host fingerprint stamped on every output, and process-level
//! measurements (CPU time, peak RSS).

use std::fs;

/// Environment variables that turn the runtime's own tracer on at build
/// time (`ULP_METRICS_ADDR` does so silently, since the metrics endpoint
/// implies tracing).
pub const TRACE_ENV: [&str; 3] = ["ULP_TRACE", "ULP_PROFILE", "ULP_METRICS_ADDR"];

/// Remove [`TRACE_ENV`] from this process's environment. Call before any
/// other thread exists.
pub fn clear_trace_env() {
    for k in TRACE_ENV {
        std::env::remove_var(k);
    }
}

/// Which of [`TRACE_ENV`] are set.
pub fn trace_env_set() -> Vec<&'static str> {
    TRACE_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Host processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// What the results depend on: CPU model, processor count, clock source
/// and kernel release.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// [`nproc`].
    pub nproc: usize,
    /// The kernel's current clock source.
    pub clocksource: String,
    /// Kernel release.
    pub kernel: String,
}

impl Fingerprint {
    /// Read the fingerprint of this host.
    pub fn read() -> Fingerprint {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            nproc: nproc(),
            clocksource: first_line(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            ),
            kernel: first_line("/proc/sys/kernel/osrelease"),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds this process has used (`getrusage`).
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two `timeval`s of two `long`s, then fourteen
    // `long`s), and the pointer is to a live, writable value of it.
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    t(&ru.utime) + t(&ru.stime)
}

/// CPU accounting at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// This process's user+system CPU seconds ([`cpu_seconds`]).
    pub cpu_s: f64,
    /// Host-wide ticks stolen by the hypervisor: time other tenants of
    /// the machine took from this one.
    pub steal_ticks: u64,
    /// Host-wide ticks of every kind.
    pub all_ticks: u64,
}

impl Usage {
    /// The counters now.
    pub fn now() -> Usage {
        let (steal_ticks, all_ticks) = cpu_ticks();
        Usage {
            cpu_s: cpu_seconds(),
            steal_ticks,
            all_ticks,
        }
    }

    /// What was used between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
            all_ticks: self.all_ticks.saturating_sub(earlier.all_ticks),
        }
    }

    /// Stolen share of the host's CPU time.
    pub fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.all_ticks.max(1) as f64
    }
}

/// Host-wide (stolen, all) CPU ticks from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// A kB field of `/proc/self/status`, in MiB (0 when unreadable).
fn status_mib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
