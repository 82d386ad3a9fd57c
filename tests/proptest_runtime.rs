//! Property-based tests of the BLT runtime and the fcontext layer:
//! arbitrary interleavings of couple/decouple/yield preserve system-call
//! consistency inside `coupled_scope`, fibers round-trip arbitrary payload
//! sequences, and per-ULP storage never bleeds between ULPs.

use proptest::prelude::*;
use ulp_repro::core::{coupled_scope, decouple, sys, yield_now, IdlePolicy, Runtime, UlpLocal};
use ulp_repro::fcontext::{Fiber, Resume};

#[derive(Debug, Clone, Copy)]
enum Action {
    Yield,
    CoupledGetpid,
    Decouple,
    Couple,
    Compute(u8),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Yield),
        Just(Action::CoupledGetpid),
        Just(Action::Decouple),
        Just(Action::Couple),
        (1u8..16).prop_map(Action::Compute),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever sequence of transitions a pair of ULPs performs,
    /// `coupled_scope(getpid)` always observes the ULP's own PID.
    #[test]
    fn consistency_under_arbitrary_interleavings(
        script_a in proptest::collection::vec(arb_action(), 1..25),
        script_b in proptest::collection::vec(arb_action(), 1..25),
    ) {
        let rt = Runtime::builder()
            .schedulers(2)
            .idle_policy(IdlePolicy::Blocking)
            .build();
        let run_script = |name: &str, script: Vec<Action>| {
            rt.spawn(name, move || {
                let home = sys::getpid().unwrap();
                for act in script {
                    match act {
                        Action::Yield => { yield_now(); }
                        Action::Decouple => { decouple().unwrap(); }
                        Action::Couple => { ulp_repro::core::couple().unwrap(); }
                        Action::CoupledGetpid => {
                            let pid = coupled_scope(|| sys::getpid().unwrap()).unwrap();
                            assert_eq!(pid, home, "consistency violated");
                        }
                        Action::Compute(n) => {
                            let mut x = 1.0f64;
                            for _ in 0..(n as u64 * 100) {
                                x = std::hint::black_box(x * 1.0001);
                            }
                        }
                    }
                }
                0
            })
        };
        let a = run_script("prop-a", script_a);
        let b = run_script("prop-b", script_b);
        prop_assert_eq!(a.wait(), 0);
        prop_assert_eq!(b.wait(), 0);
    }

    /// Pooled spawn/exit churn of many more ULPs than KCs preserves the
    /// exact cost model and never leaks a stack. A pooled ULP is born
    /// coupled on its pool KC (rule 1), so a trivial one costs exactly:
    /// zero scheduler dispatches, couples, decouples and yields, two
    /// context switches (pool-TC→UC serve, UC→pool-TC at terminate) and
    /// zero TLS loads (the pool-TC↔UC installs are exempt, §V-B). The
    /// counts are exact, not bounds: any drift means a hidden switch, a
    /// scheduler detour or a double-charge crept into the lifecycle.
    #[test]
    fn pooled_churn_exact_costs(n in 10usize..120, waves in 1usize..4) {
        let rt = Runtime::builder()
            .schedulers(2)
            .pool_kcs(2)
            .idle_policy(IdlePolicy::Blocking)
            .build();
        let before = rt.stats().snapshot();
        let per_wave = n.div_ceil(waves);
        let mut spawned = 0usize;
        while spawned < n {
            let count = per_wave.min(n - spawned);
            let handles: Vec<_> = (0..count)
                .map(|k| {
                    let idx = spawned + k;
                    rt.spawn_pooled(&format!("churn-{idx}"), move || idx as i32)
                        .expect("pooled spawn")
                })
                .collect();
            for (k, h) in handles.iter().enumerate() {
                prop_assert_eq!(h.wait(), (spawned + k) as i32);
            }
            spawned += count;
        }
        let d = rt.stats().snapshot().delta(&before);
        let n = n as u64;
        prop_assert_eq!(d.pooled_spawned, n);
        prop_assert_eq!(d.scheduler_dispatches, 0);
        prop_assert_eq!(d.couples, 0);
        prop_assert_eq!(d.decouples, 0);
        prop_assert_eq!(d.yields, 0);
        prop_assert_eq!(d.context_switches, 2 * n);
        prop_assert_eq!(d.tls_loads, 0);
        // Every stack came back to the free list, the cache never holds
        // more than the concurrency high-water mark, and the high-water
        // mark never exceeded the live-ULP count.
        let pool = rt.stack_pool();
        prop_assert_eq!(pool.outstanding(), 0);
        prop_assert!(pool.cached() <= pool.peak_outstanding());
        prop_assert!(pool.peak_outstanding() <= n as usize);
    }

    /// Per-ULP locals are isolated no matter how many ULPs run and yield.
    #[test]
    fn ulp_local_isolation(n_ulps in 2usize..6, increments in 1usize..40) {
        static SLOT: UlpLocal<u64> = UlpLocal::new(|| 0);
        let rt = Runtime::builder().schedulers(2).build();
        let handles: Vec<_> = (0..n_ulps)
            .map(|i| {
                rt.spawn(&format!("tls-{i}"), move || {
                    decouple().unwrap();
                    for _ in 0..increments {
                        SLOT.with(|v| *v += (i + 1) as u64);
                        yield_now();
                    }
                    (SLOT.get() / (i + 1) as u64) as i32
                })
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.wait(), increments as i32);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fiber echoes arbitrary payload sequences faithfully.
    #[test]
    fn fiber_echo(payloads in proptest::collection::vec(any::<usize>(), 1..50)) {
        let n = payloads.len();
        let mut fiber = Fiber::new(move |sus, first| {
            let mut v = first;
            for _ in 0..n {
                // Echo each payload back, xor-tagged so we know it was
                // really the fiber that produced it.
                v = sus.suspend(v ^ 0xA5A5);
            }
            v
        })
        .unwrap();
        let mut cursor = payloads[0];
        for (i, &p) in payloads.iter().enumerate() {
            match fiber.resume(cursor) {
                Resume::Yield(got) => {
                    prop_assert_eq!(got, cursor ^ 0xA5A5);
                    cursor = payloads.get(i + 1).copied().unwrap_or(p);
                }
                Resume::Complete(_) => prop_assert!(false, "completed early"),
            }
        }
        prop_assert_eq!(fiber.resume(cursor), Resume::Complete(cursor));
    }

    /// The stack pool hands back stacks of at least the requested size.
    #[test]
    fn stack_pool_size_classes(sizes in proptest::collection::vec(1usize..262_144, 1..20)) {
        use ulp_repro::fcontext::StackPool;
        let pool = StackPool::new(8);
        let mut held = Vec::new();
        for &s in &sizes {
            let stack = pool.acquire(s).unwrap();
            prop_assert!(stack.usable_size() >= s);
            held.push(stack);
        }
        for stack in held {
            pool.release(stack);
        }
        // Everything released is reusable.
        for &s in &sizes {
            let stack = pool.acquire(s).unwrap();
            prop_assert!(stack.usable_size() >= s);
            pool.release(stack);
        }
    }

    /// Privatized variables: per-task instances evolve independently from
    /// any interleaving of with() calls.
    #[test]
    fn privatized_instances_independent(
        ops in proptest::collection::vec((0u64..4, 1u64..100), 1..50)
    ) {
        use ulp_repro::pip::Privatized;
        use ulp_repro::core::BltId;
        let v: Privatized<u64> = Privatized::new(7);
        let mut model = std::collections::HashMap::new();
        for &(task, delta) in &ops {
            let id = BltId(task);
            v.with_instance_of(id, |x| *x += delta);
            *model.entry(task).or_insert(7u64) += delta;
        }
        for (&task, &expect) in &model {
            prop_assert_eq!(v.peek(BltId(task)), expect);
        }
    }
}
