//! Stress and cross-thread tests for the context-switch layer: the
//! properties the BLT runtime depends on, exercised at volume.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ulp_fcontext::{Fiber, Resume, Stack, StackPool};

#[test]
fn interleaved_fiber_swarm() {
    // 64 fibers advanced round-robin: each must keep independent state
    // across thousands of interleavings.
    const N: usize = 64;
    const ROUNDS: usize = 200;
    let mut fibers: Vec<Fiber> = (0..N)
        .map(|i| {
            Fiber::with_stack_size(32 * 1024, move |sus, _| {
                let mut acc = i;
                for _ in 0..ROUNDS {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                    sus.suspend(acc);
                }
                acc
            })
            .unwrap()
        })
        .collect();
    // Reference model.
    let mut model: Vec<usize> = (0..N).collect();
    for round in 0..=ROUNDS {
        for (i, fiber) in fibers.iter_mut().enumerate() {
            let expect_new = model[i].wrapping_mul(31).wrapping_add(i);
            match fiber.resume(0) {
                Resume::Yield(v) => {
                    assert_eq!(v, expect_new, "fiber {i} diverged at round {round}");
                    model[i] = expect_new;
                }
                Resume::Complete(v) => {
                    assert_eq!(v, model[i]);
                }
            }
        }
    }
}

#[test]
fn fibers_bounce_between_threads() {
    // A fiber suspended on one thread, resumed on another, repeatedly —
    // the migration pattern decoupled UCs live by.
    let mut fiber = Fiber::new(|sus, _| {
        let mut total = 0usize;
        for _ in 0..50 {
            total += sus.suspend(total);
        }
        total
    })
    .unwrap();
    fiber.resume(0);
    let mut expected = 0usize;
    for hop in 1..=50 {
        let handle = std::thread::spawn(move || {
            let r = fiber.resume(hop);
            (fiber, r)
        });
        let (f, r) = handle.join().unwrap();
        fiber = f;
        expected += hop;
        match r {
            Resume::Yield(v) => assert_eq!(v, expected),
            Resume::Complete(v) => {
                assert_eq!(v, expected);
                break;
            }
        }
    }
}

#[test]
fn stack_pool_contended_across_threads() {
    let pool = Arc::new(StackPool::new(16));
    let acquired = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let pool = pool.clone();
            let acquired = acquired.clone();
            std::thread::spawn(move || {
                for i in 0..200 {
                    let size = (16 * 1024) << (i % 3);
                    let stack = pool.acquire(size).unwrap();
                    assert!(stack.usable_size() >= size);
                    // Touch the stack to catch mapping errors.
                    unsafe { stack.top().sub(8).write_volatile(0xEE) };
                    acquired.fetch_add(1, Ordering::Relaxed);
                    pool.release(stack);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(acquired.load(Ordering::Relaxed), 800);
    let (hits, misses) = pool.stats();
    assert!(hits > 0, "pool should have been reused under contention");
    assert!(misses >= 3, "at least one allocation per size class");
}

#[test]
fn dense_stack_pool_contended_across_threads() {
    // Dense slots under contention: every thread keeps a few stacks live,
    // stamps its own pattern into the top 8 KiB of each and checks it just
    // before release. A batch flush that dropped a live slot's pages (or a
    // queued slot handed out twice) breaks some thread's pattern.
    const TOP: usize = 8 * 1024;
    const LIVE: usize = 3;
    let pool = Arc::new(StackPool::new(16));
    // Start with a deep free list, so that acquires mostly reuse free slots
    // without waiting for the reclaim batch and can race a flush.
    let warm: Vec<_> = (0..256)
        .map(|_| pool.acquire_dense(16 * 1024).unwrap())
        .collect();
    for stack in warm {
        pool.release(stack);
    }
    let handles: Vec<_> = (0..4u8)
        .map(|t| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut live: Vec<(Stack, u8)> = Vec::new();
                for i in 0..3000usize {
                    let stack = pool.acquire_dense(16 * 1024).unwrap();
                    let tag = t.wrapping_mul(64).wrapping_add(i as u8) | 1;
                    // SAFETY: the top `TOP` bytes lie inside this thread's
                    // own live stack.
                    unsafe { std::ptr::write_bytes(stack.top().sub(TOP), tag, TOP) };
                    live.push((stack, tag));
                    if live.len() > LIVE {
                        let (stack, tag) = live.remove(i % LIVE);
                        // SAFETY: as above; the stack is still held.
                        let top = unsafe { std::slice::from_raw_parts(stack.top().sub(TOP), TOP) };
                        assert!(
                            top.iter().all(|&b| b == tag),
                            "thread {t}: a live stack lost its contents"
                        );
                        pool.release(stack);
                    }
                }
                for (stack, _) in live {
                    pool.release(stack);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(pool.outstanding(), 0);
    assert!(pool.recycled() > 0, "batches were flushed");
    assert!(pool.cached() <= pool.peak_outstanding());
}

#[test]
fn dense_cache_never_exceeds_peak_under_contention() {
    // Regression: a release that dropped `outstanding` before its slot was
    // cached let a concurrent acquire carve a fresh slot without raising
    // the high-water mark, so the cache ended up larger than the peak.
    for round in 0..40 {
        let pool = Arc::new(StackPool::new(16));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let a = pool.acquire_dense(16 * 1024).unwrap();
                        let b = pool.acquire_dense(16 * 1024).unwrap();
                        pool.release(a);
                        pool.release(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0);
        assert!(
            pool.cached() <= pool.peak_outstanding(),
            "round {round}: {} cached > peak {}",
            pool.cached(),
            pool.peak_outstanding()
        );
    }
}

#[test]
fn guard_page_is_protected() {
    // Writing just below the usable region must fault — verify the guard
    // page exists by checking mprotect semantics indirectly: the bottom
    // usable byte is writable, bounds are exact.
    let stack = Stack::new(16 * 1024).unwrap();
    unsafe {
        stack.bottom().write_volatile(1); // first usable byte: fine
    }
    assert!(!stack.contains(unsafe { stack.bottom().sub(1) }));
}

#[test]
fn rapid_create_destroy_cycles() {
    // Churn: create, run, drop 500 fibers; nothing leaks enough to fail.
    for i in 0..500 {
        let mut f = Fiber::with_stack_size(16 * 1024, move |_s, x| x + i).unwrap();
        assert_eq!(f.resume(1), Resume::Complete(1 + i));
    }
}

#[test]
fn payload_extremes_roundtrip() {
    let mut f = Fiber::new(|sus, first| {
        assert_eq!(first, usize::MAX);
        let z = sus.suspend(0);
        assert_eq!(z, 0);

        sus.suspend(usize::MAX - 1)
    })
    .unwrap();
    assert_eq!(f.resume(usize::MAX), Resume::Yield(0));
    assert_eq!(f.resume(0), Resume::Yield(usize::MAX - 1));
    assert_eq!(f.resume(42), Resume::Complete(42));
}
