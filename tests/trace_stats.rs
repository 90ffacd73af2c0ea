//! `TraceStats::of` counts critical sections with a held-lock stack instead
//! of extracting them. These tests pin every statistic against a reference
//! that computes it the direct way — `critical_sections` as the length of
//! `extract_critical_sections` — on recorded workloads, on arbitrary
//! (unbalanced) event sequences, and on hand-built corner cases.

use std::collections::BTreeSet;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::{
    extract_critical_sections, BarrierId, CodeSiteId, CondId, Event, LockId, ObjectId, TraceMeta,
    WriteOp,
};

/// Every statistic computed independently: one counter per event category,
/// the distinct acquire sites, and the extractor's section count.
fn reference_stats(trace: &Trace) -> TraceStats {
    let events = || trace.iter_events().map(|(_, _, te)| &te.event);
    let count = |pred: fn(&Event) -> bool| events().filter(|e| pred(e)).count();
    let sites: BTreeSet<CodeSiteId> = events()
        .filter_map(|e| match e {
            Event::LockAcquire { site, .. } => Some(*site),
            _ => None,
        })
        .collect();
    TraceStats {
        threads: trace.num_threads(),
        events: events().count(),
        lock_acquisitions: count(|e| matches!(e, Event::LockAcquire { .. })),
        critical_sections: extract_critical_sections(trace).len(),
        reads: count(|e| matches!(e, Event::Read { .. })),
        writes: count(|e| matches!(e, Event::Write { .. })),
        cond_waits: count(|e| matches!(e, Event::CondWait { .. })),
        barrier_waits: count(|e| matches!(e, Event::BarrierWait { .. })),
        static_sites: sites.len(),
        total_time: trace.total_time,
        total_compute: events().fold(Time::ZERO, |sum, e| sum + e.intrinsic_cost()),
    }
}

fn trace_of(threads: Vec<Vec<Event>>) -> Trace {
    let mut trace = Trace::new(
        TraceMeta {
            program: "hand-built".into(),
            num_threads: threads.len(),
            num_locks: 4,
            num_objects: 4,
            input: "stats".into(),
        },
        threads.len(),
    );
    let mut end = 0;
    for (t, events) in threads.into_iter().enumerate() {
        for (at, event) in events.into_iter().enumerate() {
            trace.threads[t].push(Time::from_nanos(at as u64), event);
            end = end.max(at as u64);
        }
    }
    trace.total_time = Time::from_nanos(end);
    trace
}

fn acquire(lock: u32, site: u32) -> Event {
    Event::LockAcquire {
        lock: LockId::new(lock),
        site: CodeSiteId::new(site),
    }
}

fn release(lock: u32) -> Event {
    Event::LockRelease {
        lock: LockId::new(lock),
    }
}

/// An arbitrary event sequence per thread over a handful of locks, sites
/// and objects, drawn from `seed`, so acquires and releases pair up, nest,
/// cross and dangle in every way.
fn arbitrary_threads(seed: u64, threads: usize, max_len: u64) -> Vec<Vec<Event>> {
    // splitmix64: a self-contained stream, independent of the generator
    // under test.
    let mut state = seed;
    let mut next = move |bound: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    };
    (0..threads)
        .map(|_| {
            let len = next(max_len + 1);
            (0..len)
                .map(|_| match next(14) {
                    0..=3 => acquire(next(3) as u32, next(5) as u32),
                    4..=7 => release(next(3) as u32),
                    8 => Event::Read {
                        obj: ObjectId::new(next(4)),
                        value: 0,
                    },
                    9 => Event::Write {
                        obj: ObjectId::new(next(4)),
                        op: WriteOp::Set(1),
                        value: 1,
                    },
                    10 => Event::Compute {
                        cost: Time::from_nanos(next(50)),
                    },
                    11 => Event::CondWait {
                        cond: CondId::new(next(2) as u32),
                        lock: LockId::new(next(3) as u32),
                    },
                    12 => Event::BarrierWait {
                        barrier: BarrierId::new(next(2) as u32),
                    },
                    _ => Event::SkipRegion {
                        site: CodeSiteId::new(next(5) as u32),
                        saved_cost: Time::from_nanos(next(50)),
                    },
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recorded generator workloads: balanced, so sections equal
    /// acquisitions, but nested across locks.
    #[test]
    fn stats_of_recorded_workloads_match_the_reference(
        seed in 0u64..5_000,
        threads in 1usize..5,
        locks in 1usize..4,
        objects in 1usize..6,
        sections_per_thread in 0u32..14,
    ) {
        let program = random_workload(
            seed,
            &GeneratorConfig {
                threads,
                locks,
                objects,
                sections_per_thread,
            },
        );
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        prop_assert_eq!(TraceStats::of(&trace), reference_stats(&trace));
    }

    /// Arbitrary event sequences: unmatched releases, never-released
    /// acquires, re-entrant and crossed nesting.
    #[test]
    fn stats_of_arbitrary_event_sequences_match_the_reference(
        seed in 0u64..u64::MAX,
        threads in 0usize..5,
    ) {
        let trace = trace_of(arbitrary_threads(seed, threads, 40));
        prop_assert_eq!(TraceStats::of(&trace), reference_stats(&trace));
    }
}

#[test]
fn reentrant_same_lock_nesting_counts_every_level() {
    let trace = trace_of(vec![vec![
        acquire(0, 0),
        acquire(0, 1),
        acquire(0, 2),
        release(0),
        release(0),
        release(0),
    ]]);
    let stats = TraceStats::of(&trace);
    assert_eq!(stats.critical_sections, 3);
    assert_eq!(stats, reference_stats(&trace));
}

#[test]
fn a_release_without_a_matching_acquire_closes_nothing() {
    // Thread 0 releases a lock it never took, then a lock held only by
    // thread 1: neither release may close thread 1's section.
    let trace = trace_of(vec![
        vec![release(2), acquire(0, 0), release(1), release(0)],
        vec![acquire(1, 1), release(1)],
    ]);
    let stats = TraceStats::of(&trace);
    assert_eq!(stats.critical_sections, 2);
    assert_eq!(stats, reference_stats(&trace));
}

#[test]
fn an_acquire_never_released_is_not_a_section() {
    let trace = trace_of(vec![vec![
        acquire(0, 0),
        acquire(1, 1),
        release(0), // closes the outer lock-0 section across lock 1
        acquire(2, 2),
    ]]);
    let stats = TraceStats::of(&trace);
    assert_eq!(stats.lock_acquisitions, 3);
    assert_eq!(stats.critical_sections, 1);
    assert_eq!(stats, reference_stats(&trace));
}

#[test]
fn an_empty_trace_has_zero_stats() {
    for threads in [0, 3] {
        let trace = trace_of(vec![Vec::new(); threads]);
        let stats = TraceStats::of(&trace);
        assert_eq!(stats.critical_sections, 0);
        assert_eq!(stats.threads, threads);
        assert_eq!(stats, reference_stats(&trace));
    }
}
