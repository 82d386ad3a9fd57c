//! Guard-paged execution stacks and the recycling stack pool.
//!
//! Stacks are `mmap`ed with an inaccessible guard page at the low end (stacks
//! grow downward), so runaway recursion in a user context faults instead of
//! silently corrupting a neighbouring allocation. A small size-classed pool
//! amortizes the `mmap`/`munmap` cost of frequent context creation, the same
//! optimization ULT libraries such as Argobots and MassiveThreads apply.
//!
//! ## Two backings
//!
//! - **Owned** stacks ([`Stack::new`], [`StackPool::acquire`]): one `mmap`
//!   per stack, one guard page per stack. Two VMAs each — fine for the
//!   hundreds of sibling/trampoline stacks the classic paths create.
//! - **Slab** stacks ([`StackPool::acquire_dense`]): carved out of large
//!   shared mappings ([`SLAB_TARGET_BYTES`] of virtual space each, one
//!   leading guard page per slab). At 100k–1M pooled ULPs the per-stack
//!   guard page is unaffordable — `vm.max_map_count` defaults to 65530 and
//!   every PROT_NONE page splits a VMA in two — so dense slots trade the
//!   interior guards for a bounded VMA count (~2 per slab, thousands of
//!   stacks per slab). Slot 0 still abuts the slab's guard page; interior
//!   slots abut their neighbour's top.
//!
//! ## RSS tracks *live* stacks
//!
//! A released stack's pages are dropped with `MADV_DONTNEED`: for anonymous
//! private memory the kernel frees the backing pages and refaults zero pages
//! on next touch, so resident memory follows the number of *live* ULPs
//! instead of the high-water mark of ever-spawned ones. The freed stack
//! stays mapped (no VMA churn) and is handed out again LIFO.
//!
//! Owned stacks drop their pages as they are released. Dense slots are
//! reclaimed in batches: every ULP shares one address space, so each
//! `madvise` makes the kernel flush the range from the TLB of every CPU
//! running one of the process's threads, and one call per pooled-ULP exit
//! cost about 10 µs of CPU per exit on a 2-vCPU host. [`StackPool::release`]
//! instead queues the slot in one pool-wide batch. When `RECLAIM_BATCH`
//! (32) slots are queued, the releasing thread drops all their pages with a
//! single `process_madvise(2)` against a pidfd for this process, and only
//! then returns the slots to their slabs' free lists. Resident stack memory
//! is thus bounded by the live stacks plus `RECLAIM_BATCH - 1` queued slots.
//!
//! Kernels before 6.13 reject `process_madvise(MADV_DONTNEED)` with
//! `EINVAL`, and a seccomp filter may fail it or `pidfd_open` with `EPERM`
//! or `ENOSYS`. On the first failure the pool falls back for good to one
//! `madvise` per maximal run of adjacent queued slots, never more calls
//! than one per slot. A short `process_madvise` return sends the ranges it
//! did not reach through the same fallback.
//!
//! A queued slot is never handed out: when [`StackPool::acquire_dense`]
//! finds no free slot it flushes the batch before carving a new one, so
//! carved slots never exceed [`StackPool::peak_outstanding`].

use parking_lot::Mutex;
use std::io;
use std::mem::ManuallyDrop;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default usable stack size for a user context (512 KiB, matching the
/// paper's prototype default for PiP tasks' coroutine stacks).
pub const DEFAULT_STACK_SIZE: usize = 512 * 1024;

/// Default usable stack size for a trampoline context. The paper notes "the
/// stack region of a trampoline context can be very small" (§V-A); one page
/// of usable space is plenty for the idle loop.
pub const TRAMPOLINE_STACK_SIZE: usize = 16 * 1024;

/// Virtual size budget of one dense slab mapping (the slot count is derived
/// from this and the stride). 32 MiB ≈ 512 slots of 64 KiB: a 1M-ULP run
/// needs ~2k slabs → ~4k VMAs, comfortably under `vm.max_map_count`.
pub const SLAB_TARGET_BYTES: usize = 32 * 1024 * 1024;

/// Released dense slots queued before one flush drops all their pages; it
/// also bounds how many released slots may still hold resident pages.
const RECLAIM_BATCH: usize = 32;

fn page_size() -> usize {
    static PAGE: AtomicUsize = AtomicUsize::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    let sz = if sz == 0 { 4096 } else { sz };
    PAGE.store(sz, Ordering::Relaxed);
    sz
}

fn round_up(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

/// One dense mapping serving many fixed-stride stack slots.
///
/// Layout: `[guard page][slot 0][slot 1]…[slot n-1]`, all from a single
/// `mmap`. Slots are carved in address order (`carved` counts them) and
/// recycled through an internal LIFO free list; the whole mapping is
/// `munmap`ed when the last reference (pool entry or outstanding slot
/// stack) drops.
#[derive(Debug)]
struct SlabInner {
    base: *mut u8,
    total: usize,
    stride: usize,
    slots: u32,
    /// Slots handed out at least once (slots >= carved are untouched).
    carved: Mutex<u32>,
    /// Recycled slot indices, LIFO.
    free: Mutex<Vec<u32>>,
}

unsafe impl Send for SlabInner {}
unsafe impl Sync for SlabInner {}

impl SlabInner {
    fn new(stride: usize) -> io::Result<Arc<SlabInner>> {
        let page = page_size();
        let slots = (SLAB_TARGET_BYTES / stride).clamp(8, 4096) as u32;
        let total = page + stride * slots as usize;
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let base = base as *mut u8;
        if unsafe { libc::mprotect(base as *mut libc::c_void, page, libc::PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            unsafe { libc::munmap(base as *mut libc::c_void, total) };
            return Err(err);
        }
        Ok(Arc::new(SlabInner {
            base,
            total,
            stride,
            slots,
            carved: Mutex::new(0),
            free: Mutex::new(Vec::new()),
        }))
    }

    /// Low address of `slot`'s usable region (just above the guard page for
    /// slot 0, just above the previous slot otherwise).
    fn slot_base(&self, slot: u32) -> *mut u8 {
        unsafe { self.base.add(page_size() + slot as usize * self.stride) }
    }

    /// The stack handle for `slot`.
    fn stack(self: &Arc<Self>, slot: u32) -> Stack {
        Stack {
            base: self.slot_base(slot),
            total: self.stride,
            usable: self.stride,
            backing: Backing::Slab {
                slab: self.clone(),
                slot,
            },
        }
    }

    /// Pop the most recently freed slot.
    fn pop_free(self: &Arc<Self>) -> Option<Stack> {
        let slot = self.free.lock().pop()?;
        Some(self.stack(slot))
    }

    /// Carve a never-used slot; `None` when the slab is fully carved.
    fn carve(self: &Arc<Self>) -> Option<Stack> {
        let mut carved = self.carved.lock();
        if *carved >= self.slots {
            return None;
        }
        let slot = *carved;
        *carved += 1;
        Some(self.stack(slot))
    }

    /// Every carved slot is back on the free list (nothing outstanding).
    fn is_idle(&self) -> bool {
        self.free.lock().len() as u32 == *self.carved.lock()
    }
}

impl Drop for SlabInner {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.total);
        }
    }
}

/// Where a [`Stack`]'s memory comes from.
#[derive(Debug)]
enum Backing {
    /// A dedicated `mmap` with its own guard page; `munmap`ed on drop.
    Owned,
    /// A slot in a shared slab; returned to the slab's free list on drop.
    Slab { slab: Arc<SlabInner>, slot: u32 },
}

/// An owned, guard-paged stack region.
#[derive(Debug)]
pub struct Stack {
    /// Base of the whole region (guard page included for owned stacks;
    /// slab slots start directly at their usable bottom).
    base: *mut u8,
    /// Total region length.
    total: usize,
    /// Usable bytes above the guard page.
    usable: usize,
    /// Dedicated mapping or slab slot.
    backing: Backing,
}

// The stack is plain memory; it is sound to hand it to another thread as
// long as only one context executes on it at a time, which the runtime
// guarantees by construction.
unsafe impl Send for Stack {}

impl Stack {
    /// Allocate a stack with at least `usable` usable bytes plus a guard
    /// page at the low end.
    pub fn new(usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let usable = round_up(usable.max(page), page);
        let total = usable + page;
        // MAP_STACK is advisory on Linux but communicates intent.
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let base = base as *mut u8;
        if unsafe { libc::mprotect(base as *mut libc::c_void, page, libc::PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            unsafe { libc::munmap(base as *mut libc::c_void, total) };
            return Err(err);
        }
        Ok(Stack {
            base,
            total,
            usable,
            backing: Backing::Owned,
        })
    }

    /// One past the highest usable address; initial stack pointers are
    /// derived from this.
    #[inline]
    pub fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.total) }
    }

    /// Lowest usable address (just above the guard page).
    #[inline]
    pub fn bottom(&self) -> *mut u8 {
        unsafe { self.base.add(self.total - self.usable) }
    }

    /// Usable capacity in bytes.
    #[inline]
    pub fn usable_size(&self) -> usize {
        self.usable
    }

    /// Whether `addr` falls inside the usable region of this stack.
    #[inline]
    pub fn contains(&self, addr: *const u8) -> bool {
        let a = addr as usize;
        a >= self.bottom() as usize && a < self.top() as usize
    }

    /// Whether this stack is a dense slab slot (no interior guard page).
    #[inline]
    pub fn is_slab_slot(&self) -> bool {
        matches!(self.backing, Backing::Slab { .. })
    }

    /// The slab slot behind a dense stack, taken without running its drop
    /// (which would free the slot with its pages still resident); an owned
    /// stack comes back unchanged.
    fn into_slab_slot(self) -> Result<Queued, Stack> {
        if !self.is_slab_slot() {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped, so `backing` is moved out once.
        match unsafe { ptr::read(&this.backing) } {
            Backing::Slab { slab, slot } => Ok((slab, slot)),
            Backing::Owned => unreachable!("checked above"),
        }
    }

    /// Drop the usable region's backing pages (`madvise(MADV_DONTNEED)`):
    /// resident memory is released immediately and the region reads as
    /// zeroes on next touch. The mapping itself is untouched.
    pub fn dont_need(&self) {
        unsafe {
            libc::madvise(
                self.bottom() as *mut libc::c_void,
                self.usable,
                libc::MADV_DONTNEED,
            );
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        match &self.backing {
            Backing::Owned => unsafe {
                libc::munmap(self.base as *mut libc::c_void, self.total);
            },
            Backing::Slab { slab, slot } => {
                slab.free.lock().push(*slot);
                // The slab mapping itself lives until its Arc count drains.
            }
        }
    }
}

/// A released dense slot awaiting reclaim: its slab and slot index.
type Queued = (Arc<SlabInner>, u32);

/// The `MADV_DONTNEED` range of each maximal run of adjacent queued slots,
/// in address order.
fn slot_runs(slots: &[Queued]) -> Vec<libc::iovec> {
    let mut spans: Vec<(usize, usize)> = slots
        .iter()
        .map(|(slab, slot)| (slab.slot_base(*slot) as usize, slab.stride))
        .collect();
    spans.sort_unstable();
    let mut runs: Vec<libc::iovec> = Vec::with_capacity(spans.len());
    for (base, len) in spans {
        match runs.last_mut() {
            Some(run) if run.iov_base as usize + run.iov_len == base => run.iov_len += len,
            _ => runs.push(libc::iovec {
                iov_base: base as *mut libc::c_void,
                iov_len: len,
            }),
        }
    }
    runs
}

/// How many leading `ranges` a vectored call that advised `bytes` covered
/// completely.
fn covered(ranges: &[libc::iovec], mut bytes: usize) -> usize {
    ranges
        .iter()
        .take_while(|r| {
            let whole = r.iov_len <= bytes;
            if whole {
                bytes -= r.iov_len;
            }
            whole
        })
        .count()
}

/// `pidfd_open(2)` for this process (close-on-exec, as every pidfd is).
fn open_self_pidfd(pid: libc::pid_t) -> io::Result<OwnedFd> {
    // SAFETY: pidfd_open takes no pointers.
    let fd = unsafe { libc::syscall(libc::SYS_pidfd_open, pid, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned this descriptor and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as i32) })
}

/// One `process_madvise(2)` call dropping the pages of every range; returns
/// the bytes advised, which may stop short of the total.
///
/// # Safety
///
/// Every range must be private anonymous memory that nothing reads or
/// writes until it is handed out again: its contents become zeroes.
unsafe fn process_dontneed(pidfd: &OwnedFd, ranges: &[libc::iovec]) -> io::Result<usize> {
    // SAFETY: `ranges` is a live slice of `ranges.len()` iovecs, which the
    // kernel only reads; the caller vouches for the memory they describe.
    let n = unsafe {
        libc::syscall(
            libc::SYS_process_madvise,
            pidfd.as_raw_fd(),
            ranges.as_ptr(),
            ranges.len(),
            libc::MADV_DONTNEED,
            0,
        )
    };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// The fallback: one `madvise(MADV_DONTNEED)` per range.
///
/// # Safety
///
/// As for [`process_dontneed`].
unsafe fn madvise_dontneed(ranges: &[libc::iovec]) {
    for r in ranges {
        // SAFETY: the caller vouches for the ranges.
        unsafe { libc::madvise(r.iov_base, r.iov_len, libc::MADV_DONTNEED) };
    }
}

/// Whether the pool drops a batch's pages with `process_madvise`.
#[derive(Debug)]
enum Vectored {
    /// Not tried yet.
    Unprobed,
    /// A pidfd opened by process `pid`. A forked child holds its parent's
    /// pidfd, so it opens its own before the next flush.
    Open { pidfd: OwnedFd, pid: libc::pid_t },
    /// The kernel refused `pidfd_open` or `process_madvise`: every flush
    /// takes the `madvise` fallback from now on.
    Refused,
}

/// Dense slots released since the last flush.
#[derive(Debug)]
struct Pending {
    slots: Vec<Queued>,
    vectored: Vectored,
}

impl Pending {
    /// Drop the pages of every queued slot, then return the slots to their
    /// slabs' free lists in release order. Returns the number reclaimed.
    fn flush(&mut self) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let runs = slot_runs(&self.slots);
        let done = self.dontneed_vectored(&runs);
        // SAFETY: queued slots are released stacks of live slabs (the queue
        // holds their `Arc`s), and none is handed out until it is back on a
        // free list below.
        unsafe { madvise_dontneed(&runs[done..]) };
        let n = self.slots.len();
        for (slab, slot) in self.slots.drain(..) {
            slab.free.lock().push(slot);
        }
        n
    }

    /// Drop `runs` (ranges of queued slots only) with one `process_madvise`;
    /// returns how many leading runs it covered (none once the kernel has
    /// refused the call).
    fn dontneed_vectored(&mut self, runs: &[libc::iovec]) -> usize {
        if matches!(self.vectored, Vectored::Refused) {
            return 0;
        }
        // SAFETY: getpid cannot fail and takes no arguments.
        let pid = unsafe { libc::getpid() };
        if !matches!(self.vectored, Vectored::Open { pid: p, .. } if p == pid) {
            self.vectored = match open_self_pidfd(pid) {
                Ok(pidfd) => Vectored::Open { pidfd, pid },
                Err(_) => Vectored::Refused,
            };
        }
        let Vectored::Open { pidfd, .. } = &self.vectored else {
            return 0;
        };
        // SAFETY: `runs` covers only queued slots (see `flush`).
        match unsafe { process_dontneed(pidfd, runs) } {
            Ok(bytes) => covered(runs, bytes),
            Err(_) => {
                self.vectored = Vectored::Refused;
                0
            }
        }
    }
}

/// A recycling stack pool: size-classed freelists of owned stacks plus
/// dense slab slots for high-cardinality use.
///
/// `acquire` prefers a cached stack of the exact class; `release` drops an
/// owned stack's pages and caches it (or unmaps it when the class is at
/// capacity), and queues a dense slot for batched reclaim (see the module
/// docs). The pool tracks outstanding stacks and their high-water mark so
/// callers can assert it never caches more than was ever live.
#[derive(Debug)]
pub struct StackPool {
    classes: Mutex<Vec<(usize, Vec<Stack>)>>,
    /// Dense slabs, keyed by stride; newest last. Slots recycle through
    /// each slab's internal free list.
    slabs: Mutex<Vec<Arc<SlabInner>>>,
    /// Released dense slots whose pages are not yet dropped. Lock order:
    /// `slabs`, then `pending`, then a slab's `free`.
    pending: Mutex<Pending>,
    max_per_class: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Stacks handed out and not yet released.
    outstanding: AtomicUsize,
    /// High-water mark of `outstanding`.
    peak_outstanding: AtomicUsize,
    /// Stacks whose backing pages were dropped: owned stacks at release,
    /// dense slots at flush.
    recycled: AtomicUsize,
}

impl StackPool {
    /// An empty pool retaining at most `max_per_class` free stacks per
    /// size class.
    pub fn new(max_per_class: usize) -> StackPool {
        StackPool {
            classes: Mutex::new(Vec::new()),
            slabs: Mutex::new(Vec::new()),
            pending: Mutex::new(Pending {
                slots: Vec::with_capacity(RECLAIM_BATCH),
                vectored: Vectored::Unprobed,
            }),
            max_per_class,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            peak_outstanding: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
        }
    }

    fn charge_out(&self) {
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_outstanding.fetch_max(now, Ordering::Relaxed);
    }

    /// Flush the queued batch, counting its slots as recycled.
    fn flush(&self, pending: &mut Pending) {
        let n = pending.flush();
        self.recycled.fetch_add(n, Ordering::Relaxed);
    }

    /// Fetch a pooled stack of at least `usable` bytes or allocate a new one.
    pub fn acquire(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let class = round_up(usable.max(page), page);
        {
            let mut classes = self.classes.lock();
            if let Some((_, list)) = classes.iter_mut().find(|(sz, _)| *sz == class) {
                if let Some(stack) = list.pop() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.charge_out();
                    return Ok(stack);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let s = Stack::new(class)?;
        self.charge_out();
        Ok(s)
    }

    /// Fetch a dense slab slot of at least `usable` bytes (page-rounded to
    /// a stride class), flushing the queued batch when no slot is free and
    /// carving a new slab when every existing one of the class is full.
    /// Reuse of a recycled slot counts as a pool hit; a fresh carve (or a
    /// fresh slab) counts as a miss.
    pub fn acquire_dense(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let stride = round_up(usable.max(page), page);
        let mut slabs = self.slabs.lock();
        // Prefer recycled slots (LIFO within a slab, newest slab first —
        // the warmest memory), then the queued batch, then carve from the
        // newest slab of the class, then map a new slab.
        let reuse = |slabs: &[Arc<SlabInner>]| {
            slabs
                .iter()
                .rev()
                .filter(|slab| slab.stride == stride)
                .find_map(|slab| slab.pop_free())
        };
        let hit = |stack| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.charge_out();
            Ok(stack)
        };
        if let Some(stack) = reuse(&slabs) {
            return hit(stack);
        }
        // Hold `pending` through the carve's charge: a flush in progress
        // finishes before we look again, and no release can queue a slot
        // and drop `outstanding` in between. Every carved slot is then
        // outstanding when a new one is carved, so carves never outrun
        // the peak.
        let mut pending = self.pending.lock();
        self.flush(&mut pending);
        if let Some(stack) = reuse(&slabs) {
            return hit(stack);
        }
        let carved = slabs
            .iter()
            .rev()
            .filter(|slab| slab.stride == stride)
            .find_map(|slab| slab.carve());
        let stack = match carved {
            Some(stack) => stack,
            None => {
                let slab = SlabInner::new(stride)?;
                let stack = slab.carve().expect("fresh slab has slots");
                slabs.push(slab);
                stack
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.charge_out();
        Ok(stack)
    }

    /// Return a stack to the pool. A dense slot joins the reclaim batch,
    /// which is flushed once it holds `RECLAIM_BATCH` (32) slots. An owned
    /// stack's pages are dropped at once; it then goes back to its
    /// size-classed freelist, or is unmapped if the class is full. Either
    /// way the stack is cached before `outstanding` drops.
    pub fn release(&self, stack: Stack) {
        let stack = match stack.into_slab_slot() {
            Ok(queued) => {
                let mut pending = self.pending.lock();
                pending.slots.push(queued);
                self.outstanding.fetch_sub(1, Ordering::Relaxed);
                if pending.slots.len() >= RECLAIM_BATCH {
                    self.flush(&mut pending);
                }
                return;
            }
            Err(owned) => owned,
        };
        stack.dont_need();
        self.recycled.fetch_add(1, Ordering::Relaxed);
        let class = stack.usable_size();
        {
            let mut classes = self.classes.lock();
            match classes.iter_mut().find(|(sz, _)| *sz == class) {
                Some((_, list)) if list.len() < self.max_per_class => list.push(stack),
                Some(_) => drop(stack),
                None => classes.push((class, vec![stack])),
            }
        }
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }

    /// (pool hits, pool misses) since creation.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Stacks currently handed out and not yet released.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously outstanding stacks.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding.load(Ordering::Relaxed)
    }

    /// Stacks whose backing pages were dropped: owned stacks as they are
    /// released, dense slots when their batch is flushed.
    pub fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of stacks currently cached: owned freelist entries, free slab
    /// slots and dense slots queued for reclaim.
    pub fn cached(&self) -> usize {
        let owned: usize = self.classes.lock().iter().map(|(_, l)| l.len()).sum();
        let slabs = self.slabs.lock();
        let queued = self.pending.lock().slots.len();
        let free: usize = slabs.iter().map(|s| s.free.lock().len()).sum();
        owned + free + queued
    }

    /// Shrink the cache: truncate each owned size class to `max_cached`
    /// entries (`munmap`ing the excess), flush the reclaim batch and unmap
    /// slabs whose every carved slot is free. Returns the number of cached
    /// stacks freed.
    pub fn shrink(&self, max_cached: usize) -> usize {
        let mut freed = 0;
        {
            let mut classes = self.classes.lock();
            for (_, list) in classes.iter_mut() {
                while list.len() > max_cached {
                    drop(list.pop());
                    freed += 1;
                }
            }
        }
        {
            let mut slabs = self.slabs.lock();
            self.flush(&mut self.pending.lock());
            slabs.retain(|slab| {
                if slab.is_idle() {
                    freed += slab.free.lock().len();
                    false // Arc drops; munmap runs (nothing outstanding).
                } else {
                    true
                }
            });
        }
        freed
    }
}

impl Default for StackPool {
    fn default() -> Self {
        StackPool::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_has_requested_capacity() {
        let s = Stack::new(64 * 1024).unwrap();
        assert!(s.usable_size() >= 64 * 1024);
        assert_eq!(s.top() as usize - s.bottom() as usize, s.usable_size());
    }

    #[test]
    fn stack_is_writable_to_the_bottom() {
        let s = Stack::new(32 * 1024).unwrap();
        unsafe {
            // Touch first and last usable bytes.
            s.bottom().write_volatile(0xAB);
            s.top().sub(1).write_volatile(0xCD);
            assert_eq!(s.bottom().read_volatile(), 0xAB);
            assert_eq!(s.top().sub(1).read_volatile(), 0xCD);
        }
    }

    #[test]
    fn contains_matches_bounds() {
        let s = Stack::new(16 * 1024).unwrap();
        assert!(s.contains(s.bottom()));
        assert!(s.contains(unsafe { s.top().sub(1) }));
        assert!(!s.contains(s.top()));
        assert!(!s.contains(unsafe { s.bottom().sub(1) }));
    }

    #[test]
    fn sizes_round_up_to_pages() {
        let s = Stack::new(1).unwrap();
        assert_eq!(s.usable_size() % page_size(), 0);
        assert!(s.usable_size() >= page_size());
    }

    #[test]
    fn pool_reuses_stacks() {
        let pool = StackPool::new(4);
        let a = pool.acquire(64 * 1024).unwrap();
        let a_base = a.bottom() as usize;
        pool.release(a);
        let b = pool.acquire(64 * 1024).unwrap();
        assert_eq!(
            b.bottom() as usize,
            a_base,
            "expected the cached stack back"
        );
        let (hits, misses) = pool.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn pool_caps_per_class() {
        let pool = StackPool::new(1);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(16 * 1024).unwrap();
        pool.release(a);
        pool.release(b); // dropped: class already holds one
        assert_eq!(pool.cached(), 1);
    }

    #[test]
    fn pool_separates_classes() {
        let pool = StackPool::new(4);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(64 * 1024).unwrap();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.cached(), 2);
        let c = pool.acquire(64 * 1024).unwrap();
        assert!(c.usable_size() >= 64 * 1024);
    }

    #[test]
    fn freelist_reuse_is_lifo() {
        // Satellite: the most recently released stack (warmest memory)
        // comes back first — for owned classes and dense slots alike.
        let pool = StackPool::new(8);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(16 * 1024).unwrap();
        let (a_base, b_base) = (a.bottom() as usize, b.bottom() as usize);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.acquire(16 * 1024).unwrap().bottom() as usize, b_base);
        assert_eq!(pool.acquire(16 * 1024).unwrap().bottom() as usize, a_base);

        let da = pool.acquire_dense(16 * 1024).unwrap();
        let db = pool.acquire_dense(16 * 1024).unwrap();
        let (da_base, db_base) = (da.bottom() as usize, db.bottom() as usize);
        pool.release(da);
        pool.release(db);
        // Hold the reacquired slots: a dropped slab slot would go straight
        // back onto the free list and be handed out again.
        let first = pool.acquire_dense(16 * 1024).unwrap();
        let second = pool.acquire_dense(16 * 1024).unwrap();
        assert_eq!(first.bottom() as usize, db_base);
        assert_eq!(second.bottom() as usize, da_base);
    }

    #[test]
    fn guard_page_intact_after_recycle() {
        // Satellite: recycling must not disturb the PROT_NONE guard. A
        // fork probes the page below the recycled stack's bottom and must
        // die on the fault; the parent observes the signal-death exit.
        let pool = StackPool::new(4);
        let s = pool.acquire(16 * 1024).unwrap();
        pool.release(s);
        let s = pool.acquire(16 * 1024).unwrap();
        let guard_addr = unsafe { s.bottom().sub(1) } as usize;
        let probe = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "stack::tests::guard_probe_child", "--nocapture"])
            .env("ULP_GUARD_PROBE_ADDR", format!("{guard_addr}"))
            .output()
            .expect("spawn guard probe");
        assert!(
            !probe.status.success(),
            "writing the guard page must fault, got: {probe:?}"
        );
    }

    #[test]
    fn guard_probe_child() {
        // Helper target for `guard_page_intact_after_recycle`: when the env
        // var is set (only in the re-exec), dereference the guard address.
        // The parent's mapping is not shared, so the child allocates a
        // stack at the same deterministic flow and probes its own guard.
        if std::env::var("ULP_GUARD_PROBE_ADDR").is_err() {
            return;
        }
        let pool = StackPool::new(4);
        let s = pool.acquire(16 * 1024).unwrap();
        pool.release(s);
        let s = pool.acquire(16 * 1024).unwrap();
        let below = unsafe { s.bottom().sub(1) };
        unsafe { below.write_volatile(1) }; // must SIGSEGV
        unreachable!("guard page was writable");
    }

    #[test]
    fn dontneed_zeroes_on_touch() {
        // Satellite: after release (and, for a dense slot, the flush its
        // reacquire forces), the recycled stack reads as zeroes — the
        // dirtied pages were truly dropped.
        type Acquire = fn(&StackPool, usize) -> io::Result<Stack>;
        for acquire in [StackPool::acquire as Acquire, StackPool::acquire_dense] {
            let pool = StackPool::new(4);
            let s = acquire(&pool, 32 * 1024).unwrap();
            dirty(&s);
            let base = s.bottom() as usize;
            pool.release(s);
            let s = acquire(&pool, 32 * 1024).unwrap();
            assert_eq!(s.bottom() as usize, base, "same stack back");
            assert_zeroed(&s);
            assert_eq!(pool.recycled(), 1);
        }
    }

    fn dirty(s: &Stack) {
        unsafe {
            s.bottom().write_volatile(0x5A);
            s.top().sub(1).write_volatile(0xA5);
        }
    }

    fn assert_zeroed(s: &Stack) {
        unsafe {
            assert_eq!(s.bottom().read_volatile(), 0, "low byte zeroed");
            assert_eq!(s.top().sub(1).read_volatile(), 0, "high byte zeroed");
        }
    }

    fn range_of(s: &Stack) -> [libc::iovec; 1] {
        [libc::iovec {
            iov_base: s.bottom() as *mut libc::c_void,
            iov_len: s.usable_size(),
        }]
    }

    #[test]
    fn dense_slot_zeroes_on_both_reclaim_paths() {
        let pool = StackPool::new(4);
        let s = pool.acquire_dense(32 * 1024).unwrap();
        let range = range_of(&s);
        // process_madvise, where the kernel accepts MADV_DONTNEED from it
        // (6.13 and later); older kernels refuse it and only the fallback
        // below applies.
        dirty(&s);
        let pid = unsafe { libc::getpid() };
        // SAFETY: `s` is held here and nothing else touches its memory.
        match open_self_pidfd(pid).and_then(|fd| unsafe { process_dontneed(&fd, &range) }) {
            Ok(bytes) => {
                assert_eq!(bytes, s.usable_size(), "one range, fully advised");
                assert_zeroed(&s);
                eprintln!("reclaim path: process_madvise");
            }
            Err(e) => eprintln!("reclaim path: madvise fallback (process_madvise: {e})"),
        }
        // The fallback, called directly.
        dirty(&s);
        // SAFETY: as above.
        unsafe { madvise_dontneed(&range) };
        assert_zeroed(&s);
        pool.release(s);
    }

    #[test]
    fn refused_pool_flushes_through_the_fallback() {
        let pool = StackPool::new(4);
        pool.pending.lock().vectored = Vectored::Refused;
        let s = pool.acquire_dense(32 * 1024).unwrap();
        dirty(&s);
        pool.release(s);
        let s = pool.acquire_dense(32 * 1024).unwrap();
        assert_zeroed(&s);
        assert_eq!(pool.recycled(), 1);
        assert!(matches!(pool.pending.lock().vectored, Vectored::Refused));
    }

    #[test]
    fn partial_batch_flushes_before_carving() {
        // A queued slot is never handed out, and never shadowed by a carve:
        // the next acquire that finds no free slot flushes the batch and
        // reuses one of its slots.
        let pool = StackPool::new(4);
        let held: Vec<_> = (0..5)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        let bases: Vec<usize> = held.iter().map(|s| s.bottom() as usize).collect();
        for s in held {
            pool.release(s);
        }
        assert_eq!(pool.recycled(), 0, "a partial batch is only queued");
        assert_eq!(pool.cached(), 5, "queued slots count as cached");
        let (hits, misses) = pool.stats();
        let s = pool.acquire_dense(16 * 1024).unwrap();
        assert!(bases.contains(&(s.bottom() as usize)));
        assert_eq!(pool.stats(), (hits + 1, misses), "a reuse, not a carve");
        assert_eq!(pool.recycled(), 5, "the whole batch was flushed");
        assert_eq!(pool.cached(), 4);
    }

    #[test]
    fn full_batch_flushes_on_release() {
        let pool = StackPool::new(4);
        let held: Vec<_> = (0..RECLAIM_BATCH + 1)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        for (i, s) in held.into_iter().enumerate() {
            dirty(&s);
            pool.release(s);
            let flushed = if i + 1 >= RECLAIM_BATCH {
                RECLAIM_BATCH
            } else {
                0
            };
            assert_eq!(pool.recycled(), flushed, "after release {i}");
        }
        assert_eq!(pool.cached(), RECLAIM_BATCH + 1);
        assert!(pool.cached() <= pool.peak_outstanding());
        // Every flushed slot reads zero.
        let again: Vec<_> = (0..RECLAIM_BATCH)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        for s in &again {
            assert_zeroed(s);
        }
        assert_eq!(
            pool.stats().1,
            RECLAIM_BATCH + 1,
            "no carve after the flush"
        );
    }

    #[test]
    fn adjacent_slots_merge_into_runs() {
        let pool = StackPool::new(4);
        let s: Vec<_> = (0..4)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        let stride = s[0].usable_size();
        // Slots 3, 0, 1 queued out of order: runs {0, 1} and {3}.
        let queued: Vec<Queued> = [3, 0, 1]
            .iter()
            .map(|&i| match &s[i].backing {
                Backing::Slab { slab, slot } => (slab.clone(), *slot),
                Backing::Owned => unreachable!(),
            })
            .collect();
        let runs = slot_runs(&queued);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].iov_base as usize, s[0].bottom() as usize);
        assert_eq!(runs[0].iov_len, 2 * stride);
        assert_eq!(runs[1].iov_base as usize, s[3].bottom() as usize);
        assert_eq!(runs[1].iov_len, stride);
        // A short vectored return covers only the whole leading runs.
        assert_eq!(covered(&runs, 3 * stride), 2);
        assert_eq!(covered(&runs, 3 * stride - 1), 1);
        assert_eq!(covered(&runs, 2 * stride - 1), 0);
        assert_eq!(covered(&runs, 0), 0);
    }

    #[test]
    fn dense_slots_share_a_slab() {
        let pool = StackPool::new(4);
        let a = pool.acquire_dense(16 * 1024).unwrap();
        let b = pool.acquire_dense(16 * 1024).unwrap();
        assert!(a.is_slab_slot() && b.is_slab_slot());
        // Adjacent carves are stride apart in one mapping.
        assert_eq!(
            b.bottom() as usize - a.bottom() as usize,
            a.usable_size(),
            "slots are densely packed"
        );
        unsafe {
            a.top().sub(1).write_volatile(1);
            b.top().sub(1).write_volatile(2);
        }
    }

    #[test]
    fn pool_shrinks_under_cap() {
        // Satellite: shrink() truncates owned classes to the cap and
        // unmaps fully-idle slabs.
        let pool = StackPool::new(16);
        let stacks: Vec<_> = (0..6).map(|_| pool.acquire(16 * 1024).unwrap()).collect();
        let dense: Vec<_> = (0..4)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        for s in stacks {
            pool.release(s);
        }
        for s in dense {
            pool.release(s);
        }
        assert_eq!(pool.cached(), 10);
        let freed = pool.shrink(2);
        assert_eq!(freed, 8, "4 owned above cap + 4 idle slab slots");
        assert_eq!(pool.cached(), 2);
        // The pool still works after shrinking.
        let s = pool.acquire_dense(16 * 1024).unwrap();
        unsafe { s.top().sub(1).write_volatile(3) };
        pool.release(s);
    }

    #[test]
    fn outstanding_high_water_tracks_live_stacks() {
        let pool = StackPool::new(8);
        let a = pool.acquire_dense(16 * 1024).unwrap();
        let b = pool.acquire_dense(16 * 1024).unwrap();
        assert_eq!(pool.outstanding(), 2);
        assert_eq!(pool.peak_outstanding(), 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.peak_outstanding(), 2);
        assert!(pool.cached() <= pool.peak_outstanding());
    }
}
