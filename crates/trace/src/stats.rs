//! Summary statistics over a recorded trace.

use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::ids::LockId;
use crate::time::Time;
use crate::trace::Trace;

/// Aggregate statistics of a trace, used by reports and by the Table 1
/// reproduction ("# Locks" is `lock_acquisitions`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of threads.
    pub threads: usize,
    /// Total events recorded.
    pub events: usize,
    /// Dynamic lock acquisitions.
    pub lock_acquisitions: usize,
    /// Dynamic critical sections (equals acquisitions for balanced traces).
    pub critical_sections: usize,
    /// Shared reads recorded.
    pub reads: usize,
    /// Shared writes recorded.
    pub writes: usize,
    /// Condition-variable waits.
    pub cond_waits: usize,
    /// Barrier waits.
    pub barrier_waits: usize,
    /// Distinct static code sites that produced critical sections.
    pub static_sites: usize,
    /// Makespan of the original execution.
    pub total_time: Time,
    /// Sum of per-thread intrinsic compute cost.
    pub total_compute: Time,
}

impl TraceStats {
    /// Computes statistics for a trace in one pass over its events.
    ///
    /// `critical_sections` pairs acquires and releases exactly as
    /// [`extract_critical_sections`](crate::extract_critical_sections)
    /// does: a release closes the innermost open acquire of the same lock
    /// on its thread, a release with no such acquire closes nothing, and an
    /// acquire never released is not a section. Only the held-lock stack
    /// is kept, so counting allocates nothing per section.
    pub fn of(trace: &Trace) -> Self {
        let mut stats = TraceStats {
            threads: trace.num_threads(),
            total_time: trace.total_time,
            ..TraceStats::default()
        };
        let mut sites = std::collections::BTreeSet::new();
        let mut held: Vec<LockId> = Vec::new();
        for tt in &trace.threads {
            held.clear();
            for te in &tt.events {
                stats.events += 1;
                stats.total_compute += te.event.intrinsic_cost();
                match &te.event {
                    Event::LockAcquire { lock, site } => {
                        stats.lock_acquisitions += 1;
                        sites.insert(*site);
                        held.push(*lock);
                    }
                    Event::LockRelease { lock } => {
                        if let Some(pos) = held.iter().rposition(|l| l == lock) {
                            held.remove(pos);
                            stats.critical_sections += 1;
                        }
                    }
                    Event::Read { .. } => stats.reads += 1,
                    Event::Write { .. } => stats.writes += 1,
                    Event::CondWait { .. } => stats.cond_waits += 1,
                    Event::BarrierWait { .. } => stats.barrier_waits += 1,
                    _ => {}
                }
            }
        }
        stats.static_sites = sites.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WriteOp;
    use crate::ids::{CodeSiteId, ObjectId};
    use crate::trace::TraceMeta;

    #[test]
    fn stats_count_event_categories() {
        let mut trace = Trace::new(TraceMeta::default(), 2);
        {
            let t0 = &mut trace.threads[0];
            t0.push(
                Time::from_nanos(3),
                Event::Compute {
                    cost: Time::from_nanos(3),
                },
            );
            t0.push(
                Time::from_nanos(4),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(0),
                },
            );
            t0.push(
                Time::from_nanos(5),
                Event::Read {
                    obj: ObjectId::new(0),
                    value: 0,
                },
            );
            t0.push(
                Time::from_nanos(6),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        {
            let t1 = &mut trace.threads[1];
            t1.push(
                Time::from_nanos(1),
                Event::LockAcquire {
                    lock: LockId::new(0),
                    site: CodeSiteId::new(1),
                },
            );
            t1.push(
                Time::from_nanos(2),
                Event::Write {
                    obj: ObjectId::new(0),
                    op: WriteOp::Set(1),
                    value: 1,
                },
            );
            t1.push(
                Time::from_nanos(3),
                Event::LockRelease {
                    lock: LockId::new(0),
                },
            );
        }
        trace.total_time = Time::from_nanos(6);

        let stats = TraceStats::of(&trace);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.events, 7);
        assert_eq!(stats.lock_acquisitions, 2);
        assert_eq!(stats.critical_sections, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.static_sites, 2);
        assert_eq!(stats.total_compute, Time::from_nanos(3));
        assert_eq!(stats.total_time, Time::from_nanos(6));
    }

    #[test]
    fn stats_of_empty_trace_are_zero() {
        let stats = TraceStats::of(&Trace::new(TraceMeta::default(), 0));
        assert_eq!(stats, TraceStats::default());
    }
}
