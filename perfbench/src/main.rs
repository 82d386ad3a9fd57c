//! Command-line entry: run one workload for a fixed time and print every
//! metric by name with its unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <echo|spawn_jobs|mpi_ring> --seed <n> --seconds <s>
//!           --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with every tracer off, each
//! repetition in a fresh child process (so its `VmHWM` is its own peak
//! RSS); `--trace 1` alternates untraced and traced repetitions in this
//! process and reports the per-layer metrics, writing the kept spans to
//! `--out-dir`. `--rep <k>` is the child's mode: one untraced repetition
//! of `--seconds`, reported as one summary line.

use perfbench::host::{self, Fingerprint};
use perfbench::report::{self, Metric};
use perfbench::sample::{highest_valid, median, us};
use perfbench::workloads::{Rep, RepCfg};
use perfbench::{Inputs, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Length of one untraced repetition; an untraced run makes as many as
/// fit in `--seconds`.
const UNTRACED_WINDOW_S: f64 = 1.0;
/// Repetitions of a traced run (untraced and traced, alternating).
const REPS_TRACED: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    rep: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out_dir, mut rep) = (None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(val)),
            "--rep" => rep = Some(val.parse::<u64>().map_err(|e| format!("--rep: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        rep,
    })
}

fn rep_cfg(args: &Args, k: u64, window: Duration, traced: bool) -> RepCfg {
    RepCfg {
        window,
        traced,
        seed: args.seed ^ ((k + 1) << 32),
    }
}

/// Run untraced repetition `k` in a fresh copy of this program and read
/// back its summary line.
fn child_rep(args: &Args, k: u64, window: Duration) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.as_str()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &window.as_secs_f64().to_string()])
        .args(["--trace", "0", "--rep", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running repetition: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    text.lines()
        .last()
        .and_then(Rep::from_summary_line)
        .ok_or_else(|| format!("unreadable repetition output {text:?}"))
}

/// The child's side of [`child_rep`].
fn run_as_child(args: &Args, k: u64) -> ExitCode {
    let inputs = Inputs::generate(args.workload, args.seed, host::nproc());
    let window = Duration::from_secs_f64(args.seconds);
    match inputs.run_rep(rep_cfg(args, k, window, false)) {
        Ok(rep) => {
            println!("{}", rep.summary_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_metric(m: &Metric) {
    println!("metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    // Before any thread exists: the runtime's own tracer must stay off.
    host::clear_trace_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.rep {
        return run_as_child(&args, k);
    }
    let fp = Fingerprint::read();
    let reps = if args.trace {
        REPS_TRACED
    } else {
        ((args.seconds / UNTRACED_WINDOW_S).round() as usize).max(1)
    };
    let header = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} reps={reps}",
            args.workload.as_str(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host cpu=\"{}\" nproc={} clocksource={} kernel={}",
            fp.cpu, fp.nproc, fp.clocksource, fp.kernel
        ),
        format!(
            "tracing runtime_tracer=off bench_spans={} trace_env_set={:?}",
            if args.trace { "on" } else { "off" },
            host::trace_env_set()
        ),
    ];
    for h in &header {
        println!("# {h}");
    }

    let inputs = Inputs::generate(args.workload, args.seed, fp.nproc);
    println!("# inputs digest={:#018x}", inputs.digest());

    let window = Duration::from_secs_f64(args.seconds / reps as f64);
    let mut done: Vec<(bool, Rep)> = Vec::new();
    for k in 0..reps {
        let traced = args.trace && k % 2 == 1;
        let rep = if args.trace {
            inputs.run_rep(rep_cfg(&args, k as u64, window, traced))
        } else {
            child_rep(&args, k as u64, window)
        };
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: repetition {} failed: {e}", k + 1);
                return ExitCode::from(1);
            }
        };
        println!(
            "# rep {}/{reps} {} setup_s={:.6} window_s={:.3} ops={} ops_per_s={:.1} p50_us={:.3} p99_us={:.3} samples={} cpu_us_per_op={:.3} peak_rss_mib={:.3} steal_pct={:.2} attempted={} failed={}",
            k + 1,
            if traced { "traced" } else { "untraced" },
            rep.setup_s,
            rep.window_s,
            rep.ops,
            rep.ops_per_s(),
            us(rep.latency.p50_ns),
            us(rep.latency.p99_ns),
            rep.latency.n,
            rep.usage.cpu_s * 1e6 / rep.ops.max(1) as f64,
            rep.peak_rss_mib,
            rep.usage.steal_share() * 100.0,
            rep.attempted,
            rep.failed
        );
        done.push((traced, rep));
    }

    let untraced: Vec<&Rep> = done.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = done.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let attempted: u64 = done.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = done.iter().map(|(_, r)| r.failed).sum();
    let mut correct = failed == 0 && attempted > 0;

    let e2e = report::end_to_end(&untraced);
    let samples = untraced.iter().map(|r| r.latency.n).min().unwrap_or(0);
    if untraced.iter().any(|r| !r.latency.p99_supported()) {
        eprintln!("perfbench: a repetition has too few latency samples ({samples}) for a p99");
        correct = false;
    }
    for m in &e2e {
        print_metric(m);
    }
    let (slow, fast) = report::outlying_reps(&untraced);
    let steal = median(
        &untraced
            .iter()
            .map(|r| r.usage.steal_share() * 100.0)
            .collect::<Vec<_>>(),
    );
    println!(
        "#   median of {} repetitions; latency from at least {samples} samples each (highest percentile with 10 beyond: p{}); {slow} repetitions below 3/4 and {fast} above 5/4 of the median rate; median host steal {steal:.2}%",
        untraced.len(),
        highest_valid(samples).unwrap_or(0.0),
    );
    println!(
        "metric {:<28} {:>16.4} ratio attempted={attempted} failed={failed}",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        let ledger = report::merged_ledger(&traced);
        let layers = report::per_layer(&traced, &untraced, &ledger);
        for m in &layers {
            print_metric(m);
        }
        if ledger.partition_errors > 0 || ledger.ops == 0 {
            eprintln!(
                "perfbench: {} ops folded, {} with a span outside the op",
                ledger.ops, ledger.partition_errors
            );
            correct = false;
        }
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!(
                "spans-{}-seed{}.tsv",
                args.workload.as_str(),
                args.seed
            ));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .map(std::io::BufWriter::new)
                .and_then(|mut f| {
                    ledger.write_spans(&mut f, &header)?;
                    std::io::Write::flush(&mut f)
                });
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    correct = false;
                }
            }
        }
        layers
    } else {
        e2e
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::from(1);
    }
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
