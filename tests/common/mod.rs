//! Oracles shared by the repository-level test suites.
//!
//! Streaming detection over a gapped stream is specified as detection over
//! the trace with the lost events removed. [`Survivors`] builds that trace
//! from exactly what a source delivered and runs the naive
//! [`reference_analyze`] over it, so a streaming run can be compared
//! against an independent engine even when a recovering reader skipped
//! records.

#![allow(dead_code)]

use perfplay::prelude::*;
use perfplay_detect::{reference_analyze, reference_analyze_with};
use perfplay_trace::CriticalSection;

/// Everything a source delivered, reassembled into a trace.
pub struct Survivors {
    /// The delivered chunks' events, concatenated per thread in stream
    /// order.
    pub trace: Trace,
    /// `original_index[t][k]`: the stream's per-thread index of the k-th
    /// kept event of thread `t`. A gapped stream keeps the original
    /// numbering while the reassembled trace renumbers densely.
    pub original_index: Vec<Vec<usize>>,
    /// Gaps the source reported.
    pub gaps: usize,
    /// Events the source reported lost.
    pub events_lost: u64,
}

impl Survivors {
    /// Drains `source` to its end.
    ///
    /// # Errors
    ///
    /// Whatever the source reports.
    pub fn collect<S: EventSource>(source: &mut S) -> Result<Survivors, StreamError> {
        let num_threads = source.num_threads();
        let mut trace = Trace::new(source.meta().clone(), num_threads);
        let mut original_index = vec![Vec::new(); num_threads];
        let (mut gaps, mut events_lost) = (0, 0);
        while let Some(item) = source.next_item()? {
            match item {
                StreamItem::Chunk(chunk) => {
                    for span in chunk.spans {
                        let t = span.thread.index();
                        let base = span.base_index;
                        original_index[t].extend(base..base + span.events.len());
                        trace.threads[t].events.extend(span.events);
                    }
                }
                StreamItem::Gap(gap) => {
                    gaps += 1;
                    events_lost += gap.events_lost;
                }
            }
        }
        Ok(Survivors {
            trace,
            original_index,
            gaps,
            events_lost,
        })
    }

    /// The delivered event count.
    pub fn events(&self) -> usize {
        self.trace.num_events()
    }

    /// [`reference_analyze`] over the surviving events, with section event
    /// indexes in the stream's numbering.
    pub fn reference(&self, config: DetectorConfig) -> UlcpAnalysis {
        let mut analysis = reference_analyze(&self.trace, config);
        self.renumber(&mut analysis.sections);
        analysis
    }

    /// The reference [`DetectionPlan`] over the surviving events, with
    /// section event indexes in the stream's numbering.
    pub fn reference_plan<G: GainSource + Clone>(
        &self,
        config: DetectorConfig,
        gain: G,
    ) -> DetectionPlan {
        let run = reference_analyze_with(&self.trace, config, PlanAggregator::new(gain));
        let mut plan = run.sink.into_plan(run.sections, run.breakdown);
        self.renumber(&mut plan.sections);
        plan
    }

    fn renumber(&self, sections: &mut [CriticalSection]) {
        for s in sections {
            let map = &self.original_index[s.thread.index()];
            s.acquire_index = map[s.acquire_index];
            s.release_index = map[s.release_index];
        }
    }
}
