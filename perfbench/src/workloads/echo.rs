//! `echo`: a closed loop of `nproc` client ULPs, each on one connection
//! to one epoll-driven server ULP. One request is one
//! `coupled_scope { write; read until the reply is full }`.

use super::LATENCY_SAMPLES;
use super::{call, coupled, read_full, write_all, Fail, Rep, RepCfg, StackDelta};
use crate::host::{nproc, peak_rss_mib, Usage};
use crate::inputs::EchoInputs;
use crate::ledger::{now_ns, Ledger, Name, Tracer};
use crate::sample::{Latency, Reservoir};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use ulp_core::ulp_kernel::Fd;
use ulp_core::{decouple, sys, EpollOp, IdlePolicy, Listener, PollEvents, Runtime};

/// Requests each client makes before the window opens.
const WARMUP_OPS: usize = 256;
/// Largest chunk the server reads at once.
const SERVER_BUF: usize = 8192;

/// Start/stop handshake between the spawning thread and the ULPs. Results
/// travel through mutexes; every field here is `SeqCst`, so a client that
/// sees `go` also sees the deadline stored before it, and the spawning
/// thread that sees every client `ready` also sees `setup_end`.
#[derive(Default)]
struct Gate {
    connected: AtomicUsize,
    /// When the last client connected (`now_ns`), stored by that client.
    setup_end: AtomicU64,
    ready: AtomicUsize,
    done: AtomicUsize,
    go: AtomicBool,
    deadline: AtomicU64,
}

impl Gate {
    fn window_open(&self) -> bool {
        self.go.load(Ordering::SeqCst) && now_ns() < self.deadline.load(Ordering::SeqCst)
    }
}

#[derive(Default)]
struct ClientOut {
    ops: u64,
    attempted: u64,
    failed: u64,
    end_ns: u64,
    latency: Vec<Reservoir<u64>>,
    ledgers: Vec<Ledger>,
}

/// The server's result and what it recorded.
type ServerOut = (Result<(), Fail>, Ledger);

/// One request: send `frame`, read the echo into `reply`, compare.
fn request(tr: &mut Tracer, fd: Fd, frame: &[u8], reply: &mut [u8]) -> Result<(), Fail> {
    let reply = &mut reply[..frame.len()];
    coupled(tr, |tr| {
        write_all(tr, fd, frame)?;
        read_full(tr, fd, reply)
    })?;
    if reply != frame {
        return Err(Fail::Mismatch);
    }
    Ok(())
}

fn client(
    c: usize,
    clients: usize,
    inputs: &EchoInputs,
    listener: &Arc<Listener>,
    gate: &Gate,
    cfg: RepCfg,
    out: &Mutex<ClientOut>,
) {
    decouple().expect("a fresh BLT can decouple");
    let frames = &inputs.frames[c];
    let mut tr = Tracer::new(cfg.traced, cfg.seed ^ (c as u64) << 8);
    let mut latency = Reservoir::new(LATENCY_SAMPLES / clients, cfg.seed ^ (c as u64) << 16);
    let mut reply = vec![0u8; crate::inputs::FRAME_MAX];
    let (mut attempted, mut failed, mut ops) = (0u64, 0u64, 0u64);
    // Connecting and warming up are not measured.
    let mut idle = Tracer::new(false, 0);
    let fd = coupled(&mut idle, |tr| {
        call(tr, Name::SysOther, || sys::connect(listener))
    });
    if gate.connected.fetch_add(1, Ordering::SeqCst) + 1 == clients {
        gate.setup_end.store(now_ns(), Ordering::SeqCst);
    }
    let mut end_ns = 0;
    if let Ok(fd) = fd {
        let mut i = 0usize;
        while i < WARMUP_OPS {
            attempted += 1;
            let r = request(&mut idle, fd, &frames[i % frames.len()], &mut reply);
            i += 1;
            if r.is_err() {
                failed += 1;
                break;
            }
        }
        gate.ready.fetch_add(1, Ordering::SeqCst);
        while !gate.go.load(Ordering::SeqCst) {
            if !ulp_core::yield_now() {
                std::thread::yield_now();
            }
        }
        let deadline = gate.deadline.load(Ordering::SeqCst);
        while failed == 0 {
            let start = now_ns();
            if start >= deadline {
                break;
            }
            attempted += 1;
            let r = request(&mut tr, fd, &frames[i % frames.len()], &mut reply);
            let end = now_ns();
            if r.is_ok() {
                ops += 1;
                latency.push(end - start);
                tr.end_op(i as u64, start, end);
            } else {
                failed += 1;
                tr.discard_op();
            }
            end_ns = end;
            i += 1;
        }
        gate.done.fetch_add(1, Ordering::SeqCst);
        let _ = coupled(&mut idle, |tr| call(tr, Name::SysClose, || sys::close(fd)));
    } else {
        attempted += 1;
        failed += 1;
        gate.ready.fetch_add(1, Ordering::SeqCst);
        gate.done.fetch_add(1, Ordering::SeqCst);
    }
    let mut o = out
        .lock()
        .expect("no client panics while holding the result lock");
    o.ops += ops;
    o.attempted += attempted;
    o.failed += failed;
    o.end_ns = o.end_ns.max(end_ns);
    o.latency.push(latency);
    o.ledgers.push(tr.ledger);
}

/// The server loop: one level-triggered epoll set holding the listener and
/// every connection. Counts and spans are kept only while the window is
/// open. Returns once every client has closed, or on the first error,
/// after closing every connection so blocked clients see end-of-file.
fn serve(
    tr: &mut Tracer,
    listener: &Arc<Listener>,
    clients: usize,
    gate: &Gate,
) -> Result<(), Fail> {
    let lfd = call(tr, Name::SysOther, || sys::listen(listener))?;
    let ep = call(tr, Name::SysOther, sys::epoll_create)?;
    call(tr, Name::SysOther, || {
        sys::epoll_ctl(ep, EpollOp::Add, lfd, PollEvents::IN)
    })?;
    let mut open: Vec<Fd> = Vec::new();
    let mut closed = 0;
    let mut buf = vec![0u8; SERVER_BUF];
    let mut step = |tr: &mut Tracer, open: &mut Vec<Fd>, closed: &mut usize| -> Result<(), Fail> {
        let s = tr.stamp();
        let events = sys::epoll_wait(ep, 16, Some(Duration::from_millis(500)));
        let events = events.map_err(Fail::Errno)?;
        tr.loose(Name::SysEpollWait, s);
        tr.count(|c| {
            c.sys_calls += 1;
            c.epoll_waits += 1;
            c.epoll_events += events.len() as u64;
        });
        for (fd, ev) in events {
            if fd == lfd {
                let conn = call(tr, Name::SysOther, || sys::accept(lfd))?;
                call(tr, Name::SysOther, || {
                    sys::epoll_ctl(ep, EpollOp::Add, conn, PollEvents::IN)
                })?;
                open.push(conn);
            } else if ev.intersects(PollEvents::IN | PollEvents::HUP) {
                let n = call(tr, Name::SysRead, || sys::read(fd, &mut buf))?;
                if n == 0 {
                    call(tr, Name::SysOther, || {
                        sys::epoll_ctl(ep, EpollOp::Del, fd, PollEvents::NONE)
                    })?;
                    call(tr, Name::SysClose, || sys::close(fd))?;
                    open.retain(|&c| c != fd);
                    *closed += 1;
                } else {
                    write_all(tr, fd, &buf[..n])?;
                }
            }
        }
        Ok(())
    };
    let mut idle = Tracer::new(false, 0);
    let mut result = Ok(());
    while closed < clients {
        // Server-side spans and counts cover the measured window only.
        let rec = if gate.window_open() {
            &mut *tr
        } else {
            &mut idle
        };
        result = step(rec, &mut open, &mut closed);
        tr.discard_op();
        if result.is_err() {
            break;
        }
    }
    for fd in open {
        let _ = sys::close(fd);
    }
    let _ = sys::close(ep);
    let _ = sys::close(lfd);
    result
}

/// One repetition: set up, warm up, measure for `cfg.window`, tear down.
pub fn rep(inputs: &Arc<EchoInputs>, cfg: RepCfg) -> Result<Rep, String> {
    let clients = inputs.frames.len();
    let t0 = now_ns();
    let rt = Runtime::builder()
        .schedulers(nproc())
        .idle_policy(IdlePolicy::Blocking)
        .build();
    if rt.trace_enabled() {
        return Err("the runtime tracer is on".into());
    }
    let listener = Listener::new();
    let gate = Arc::new(Gate::default());
    let out = Arc::new(Mutex::new(ClientOut::default()));
    let server_out: Arc<Mutex<Option<ServerOut>>> = Arc::new(Mutex::new(None));
    let server = {
        let (l, g, so) = (listener.clone(), gate.clone(), server_out.clone());
        rt.spawn("echo-server", move || {
            decouple().expect("a fresh BLT can decouple");
            let mut tr = Tracer::new(cfg.traced, cfg.seed ^ 0x5e);
            let r = ulp_core::coupled_scope(|| serve(&mut tr, &l, clients, &g))
                .unwrap_or(Err(Fail::Couple));
            *so.lock().expect("one writer") = Some((r, tr.ledger));
            0
        })
    };
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let (i, l, g, o) = (inputs.clone(), listener.clone(), gate.clone(), out.clone());
            rt.spawn(&format!("echo-client{c}"), move || {
                client(c, clients, &i, &l, &g, cfg, &o);
                0
            })
        })
        .collect();
    while gate.ready.load(Ordering::SeqCst) < clients {
        std::thread::sleep(Duration::from_micros(100));
    }
    let setup_s = (gate.setup_end.load(Ordering::SeqCst) - t0) as f64 / 1e9;
    let (stats0, cpu0) = (rt.stats().snapshot(), Usage::now());
    let go_ns = now_ns();
    gate.deadline
        .store(go_ns + cfg.window.as_nanos() as u64, Ordering::SeqCst);
    gate.go.store(true, Ordering::SeqCst);
    std::thread::sleep(cfg.window);
    while gate.done.load(Ordering::SeqCst) < clients {
        std::thread::sleep(Duration::from_micros(100));
    }
    let (stats1, cpu1) = (rt.stats().snapshot(), Usage::now());
    for h in handles {
        h.wait();
    }
    server.wait();
    drop(rt);

    let o = std::mem::take(&mut *out.lock().expect("clients have exited"));
    let (server_result, server_ledger) = server_out
        .lock()
        .expect("server has exited")
        .take()
        .ok_or("the server did not report")?;
    let mut ledger = server_ledger;
    for l in o.ledgers {
        ledger.absorb(l);
    }
    Ok(Rep {
        setup_s,
        window_s: (o.end_ns.max(go_ns + 1) - go_ns) as f64 / 1e9,
        ops: o.ops,
        attempted: o.attempted,
        failed: o.failed + u64::from(server_result.is_err()),
        usage: cpu1.since(&cpu0),
        latency: Latency::of(o.latency),
        stats: stats1.delta(&stats0),
        stack: StackDelta::default(),
        ledger,
        peak_rss_mib: peak_rss_mib(),
    })
}
