//! Benchmark-side spans and the per-layer ledger they fold into.
//!
//! Spans are recorded in the benchmark's own code around each call into a
//! layer's public functions; nothing inside the program is instrumented.
//! Each operation (one request, job or rank-step) is a root span whose
//! children are the layer calls it made. [`fold`] splits the root's
//! duration exactly: every nanosecond goes to the innermost span covering
//! it, and the root's own share is the residual — time the layers did not
//! account for. Layer self times plus the residual always sum to the
//! operation's duration, and no share is ever negative.

use crate::sample::Reservoir;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the process-wide monotonic clock (shared by every OS
/// thread, so spans recorded on different kernel contexts compare).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layers of the ledger. `Residual` is the operation's own share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Op time covered by no layer span.
    Residual,
    /// `coupled_scope` entry and exit (`ulp-core` couple.rs).
    Couple,
    /// System calls through `ulp_core::sys` (`ulp-kernel`).
    Sys,
    /// `spawn_pooled` and `PooledHandle::wait` (`ulp-core` spawn.rs).
    Spawn,
    /// `RankCtx` point-to-point and collectives (`ulp-mpi`).
    Mpi,
}

/// Span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One operation (the root of its spans).
    Op,
    /// From the `coupled_scope` call to the closure's first line.
    CoupleEnter,
    /// From the closure's last line to `coupled_scope`'s return.
    CoupleExit,
    /// `sys::read`.
    SysRead,
    /// `sys::write`.
    SysWrite,
    /// `sys::open`.
    SysOpen,
    /// `sys::close`.
    SysClose,
    /// `sys::unlink`.
    SysUnlink,
    /// `sys::epoll_wait` (server side, outside any op).
    SysEpollWait,
    /// Any other system call (connect, listen, accept, epoll_ctl, ...).
    SysOther,
    /// The `spawn_pooled` call.
    SpawnCall,
    /// From `spawn_pooled`'s return to the job's first line.
    SpawnDispatch,
    /// From the spawn call to the job's first line (a measure, not a
    /// ledger span: it overlaps `SpawnCall`).
    SpawnStart,
    /// From the job's last line to `wait()`'s return.
    SpawnReap,
    /// `RankCtx::sendrecv`.
    MpiSendrecv,
    /// `RankCtx::allreduce`.
    MpiAllreduce,
}

impl Name {
    /// Number of names.
    pub const COUNT: usize = 16;

    /// Span name as written to the span dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::CoupleEnter => "couple.enter",
            Name::CoupleExit => "couple.exit",
            Name::SysRead => "sys.read",
            Name::SysWrite => "sys.write",
            Name::SysOpen => "sys.open",
            Name::SysClose => "sys.close",
            Name::SysUnlink => "sys.unlink",
            Name::SysEpollWait => "sys.epoll_wait",
            Name::SysOther => "sys.other",
            Name::SpawnCall => "spawn.call",
            Name::SpawnDispatch => "spawn.dispatch",
            Name::SpawnStart => "spawn.start",
            Name::SpawnReap => "spawn.reap",
            Name::MpiSendrecv => "mpi.sendrecv",
            Name::MpiAllreduce => "mpi.allreduce",
        }
    }

    /// The layer a span of this name belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Op => Layer::Residual,
            Name::CoupleEnter | Name::CoupleExit => Layer::Couple,
            Name::SysRead
            | Name::SysWrite
            | Name::SysOpen
            | Name::SysClose
            | Name::SysUnlink
            | Name::SysEpollWait
            | Name::SysOther => Layer::Sys,
            Name::SpawnCall | Name::SpawnDispatch | Name::SpawnStart | Name::SpawnReap => {
                Layer::Spawn
            }
            Name::MpiSendrecv | Name::MpiAllreduce => Layer::Mpi,
        }
    }
}

/// One span of an operation. `parent` indexes the operation's span list
/// (the root, at index 0, is its own parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span measured.
    pub name: Name,
    /// Start, from [`now_ns`].
    pub start: u64,
    /// End, from [`now_ns`].
    pub end: u64,
    /// Index of the enclosing span in the operation's span list.
    pub parent: u16,
}

impl Span {
    /// A child of the root span.
    pub fn child(name: Name, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent: 0,
        }
    }
}

/// The spans of one operation, kept for the dump.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Operation id (unique within one recorder).
    pub op: u64,
    /// Root first.
    pub spans: Vec<Span>,
}

/// Self time of each span of one operation (`spans[0]` is the root).
///
/// Every span is clipped to the root's interval, and every instant of the
/// root goes to exactly one span: the deepest one covering it, the later
/// starting one among equals. The result therefore sums to the root's
/// duration exactly, each entry is non-negative, and `result[0]` is the
/// residual no layer accounts for. Overlapping siblings (a job's first
/// line can run before `spawn_pooled` returns on the spawning thread) are
/// split, not double-counted.
pub fn fold(spans: &[Span]) -> Vec<u64> {
    let Some(root) = spans.first() else {
        return Vec::new();
    };
    let (lo, hi) = (root.start, root.end.max(root.start));
    let clip = |t: u64| t.clamp(lo, hi);
    let mut depth = vec![0u32; spans.len()];
    for i in 1..spans.len() {
        let p = spans[i].parent as usize;
        depth[i] = if p < i { depth[p] + 1 } else { 1 };
    }
    let mut cuts: Vec<u64> = spans
        .iter()
        .flat_map(|s| [clip(s.start), clip(s.end)])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut self_ns = vec![0u64; spans.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner = (0..spans.len())
            .filter(|&i| clip(spans[i].start) <= a && b <= clip(spans[i].end))
            .max_by_key(|&i| (depth[i], spans[i].start, i))
            .expect("the root covers every cut interval");
        self_ns[owner] += b - a;
    }
    self_ns
}

/// Counts the benchmark makes at layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// System calls issued (inside and outside ops).
    pub sys_calls: u64,
    /// System calls that returned an errno.
    pub errnos: u64,
    /// Client `read` calls on the reply path.
    pub reads: u64,
    /// Of those, reads that returned less than the rest of the reply.
    pub short_reads: u64,
    /// Server `epoll_wait` calls.
    pub epoll_waits: u64,
    /// Events those calls returned.
    pub epoll_events: u64,
}

impl Counts {
    /// Add `o` in.
    pub fn add(&mut self, o: &Counts) {
        self.sys_calls += o.sys_calls;
        self.errnos += o.errnos;
        self.reads += o.reads;
        self.short_reads += o.short_reads;
        self.epoll_waits += o.epoll_waits;
        self.epoll_events += o.epoll_events;
    }
}

/// Kept per span name, per recorder.
const SAMPLES_PER_NAME: usize = 1 << 14;
/// Operation traces kept for the dump, per recorder.
const KEPT_OPS: usize = 1 << 11;

/// The folded result of many operations.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Operations folded.
    pub ops: u64,
    /// Sum of operation durations (ns).
    pub op_ns: u64,
    /// Sum of self time per [`Layer`] (ns), indexed by `Layer as usize`.
    pub layer_ns: [u64; 5],
    /// Operations with a child span outside their root (clipped by
    /// [`fold`]).
    pub partition_errors: u64,
    /// Span durations (ns) per [`Name`], indexed by `Name as usize`.
    pub durations: [Reservoir<u64>; Name::COUNT],
    /// Per-operation residuals (ns).
    pub residuals: Reservoir<u64>,
    /// Boundary counts.
    pub counts: Counts,
    /// Sampled operation traces for the dump.
    pub kept: Reservoir<OpTrace>,
    /// Sampled spans recorded outside any operation.
    pub loose: Reservoir<Span>,
}

impl Ledger {
    /// An empty ledger; `seed` fixes its sampling.
    pub fn new(seed: u64) -> Ledger {
        Ledger {
            ops: 0,
            op_ns: 0,
            layer_ns: [0; 5],
            partition_errors: 0,
            durations: std::array::from_fn(|k| {
                Reservoir::new(SAMPLES_PER_NAME, seed ^ ((k as u64) << 40))
            }),
            residuals: Reservoir::new(SAMPLES_PER_NAME, seed ^ 0x5e5),
            counts: Counts::default(),
            kept: Reservoir::new(KEPT_OPS, seed ^ 0xdeed),
            loose: Reservoir::new(KEPT_OPS, seed ^ 0x1005e),
        }
    }

    /// Fold one operation's spans (root first) into the ledger. An
    /// operation with a child span reaching outside its root counts as a
    /// partition error: [`fold`] clips that span, so the time it lost is
    /// missing from its layer.
    pub fn record_op(&mut self, op: u64, spans: &[Span]) {
        let root = spans[0];
        let dur = root.end.saturating_sub(root.start);
        if spans[1..]
            .iter()
            .any(|s| s.start < root.start || s.end > root.end || s.end < s.start)
        {
            self.partition_errors += 1;
        }
        let self_ns = fold(spans);
        assert_eq!(self_ns.iter().sum::<u64>(), dur, "fold lost time");
        for (s, &ns) in spans.iter().zip(&self_ns) {
            self.layer_ns[s.name.layer() as usize] += ns;
        }
        let residual = self_ns[0];
        for s in &spans[1..] {
            self.sample(s.name, s.end.saturating_sub(s.start));
        }
        self.residuals.push(residual);
        self.ops += 1;
        self.op_ns += dur;
        self.kept.push_with(|| OpTrace {
            op,
            spans: spans.to_vec(),
        });
    }

    /// Record a duration under `name` without a span.
    pub fn sample(&mut self, name: Name, ns: u64) {
        self.durations[name as usize].push(ns);
    }

    /// Record a span outside any operation.
    pub fn record_loose(&mut self, span: Span) {
        self.sample(span.name, span.end.saturating_sub(span.start));
        self.loose.push(span);
    }

    /// Merge `other` in.
    pub fn absorb(&mut self, other: Ledger) {
        self.ops += other.ops;
        self.op_ns += other.op_ns;
        for (a, b) in self.layer_ns.iter_mut().zip(other.layer_ns) {
            *a += b;
        }
        self.partition_errors += other.partition_errors;
        for (a, b) in self.durations.iter_mut().zip(other.durations) {
            a.absorb(b);
        }
        self.residuals.absorb(other.residuals);
        self.counts.add(&other.counts);
        self.kept.absorb(other.kept);
        self.loose.absorb(other.loose);
    }

    /// Sorted kept durations of `name`.
    pub fn sorted(&self, name: Name) -> Vec<u64> {
        let mut v = self.durations[name as usize].items().to_vec();
        v.sort_unstable();
        v
    }

    /// Write every kept span as tab-separated
    /// `op id parent name start_ns end_ns` rows (`-` for spans outside any
    /// operation), after `header` comment lines.
    pub fn write_spans(&self, out: &mut impl Write, header: &[String]) -> std::io::Result<()> {
        for h in header {
            writeln!(out, "# {h}")?;
        }
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for t in self.kept.items() {
            for (i, s) in t.spans.iter().enumerate() {
                writeln!(
                    out,
                    "{}\t{i}\t{}\t{}\t{}\t{}",
                    t.op,
                    s.parent,
                    s.name.as_str(),
                    s.start,
                    s.end
                )?;
            }
        }
        for s in self.loose.items() {
            writeln!(out, "-\t-\t-\t{}\t{}\t{}", s.name.as_str(), s.start, s.end)?;
        }
        Ok(())
    }
}

/// Per-recorder span collector. Disabled, every method is a branch and
/// nothing else, so the untraced run pays no clock reads for it.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    cur: Vec<Span>,
    /// What this recorder has folded so far.
    pub ledger: Ledger,
}

impl Tracer {
    /// A recorder; `on` selects the traced run. An off recorder
    /// allocates nothing.
    pub fn new(on: bool, seed: u64) -> Tracer {
        Tracer {
            on,
            cur: if on {
                vec![Span::child(Name::Op, 0, 0)]
            } else {
                Vec::new()
            },
            ledger: Ledger::new(seed),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A start timestamp (0 when off).
    #[inline]
    pub fn stamp(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    /// Close a child span of the current operation begun at `start`.
    #[inline]
    pub fn span(&mut self, name: Name, start: u64) {
        if self.on {
            let end = now_ns();
            self.cur.push(Span::child(name, start, end));
        }
    }

    /// Add a child span with explicit bounds.
    pub fn span_at(&mut self, name: Name, start: u64, end: u64) {
        if self.on {
            self.cur.push(Span::child(name, start, end));
        }
    }

    /// Close a span begun at `start` that belongs to no operation.
    pub fn loose(&mut self, name: Name, start: u64) {
        if self.on {
            let end = now_ns();
            self.ledger.record_loose(Span::child(name, start, end));
        }
    }

    /// Record a duration under `name` without a span.
    pub fn sample(&mut self, name: Name, ns: u64) {
        if self.on {
            self.ledger.sample(name, ns);
        }
    }

    /// Boundary counts (updated only when on).
    #[inline]
    pub fn count(&mut self, f: impl FnOnce(&mut Counts)) {
        if self.on {
            f(&mut self.ledger.counts);
        }
    }

    /// Close the current operation `[start, end]` and fold its spans.
    pub fn end_op(&mut self, op: u64, start: u64, end: u64) {
        if self.on {
            self.cur[0] = Span::child(Name::Op, start, end);
            self.ledger.record_op(op, &self.cur);
        }
        self.cur.truncate(1);
    }

    /// Drop the current operation's spans without folding them.
    pub fn discard_op(&mut self) {
        self.cur.truncate(1);
    }

    /// Take the current operation's child spans, for an operation whose
    /// root another recorder closes (a job's body, folded by its spawner).
    pub fn take_children(&mut self) -> Vec<Span> {
        if self.cur.is_empty() {
            return Vec::new();
        }
        self.cur.split_off(1)
    }
}
