//! The final performance-debugging report PerfPlay hands to the programmer.

use perfplay_detect::{DetectionPlan, SiteAggregates, UlcpAnalysis, UlcpBreakdown};
use perfplay_replay::ReplayResult;
use perfplay_trace::{Trace, TraceStats};
use perfplay_transform::{TransformStats, TransformedTrace};
use serde::{Deserialize, Serialize};

use crate::fusion::{fuse_aggregates, fuse_ulcps, rank_groups, Recommendation};
use crate::metrics::{ulcp_gains, ImpactSplit};

/// The complete output of one PerfPlay analysis: ULCP breakdown, whole-program
/// impact, and the ranked list of code regions worth fixing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Program name from the trace metadata.
    pub program: String,
    /// Input description from the trace metadata.
    pub input: String,
    /// Number of threads recorded.
    pub threads: usize,
    /// Trace-level statistics (events, acquisitions, sites).
    pub trace_stats: TraceStats,
    /// ULCP category breakdown (Table 1 row).
    pub breakdown: UlcpBreakdown,
    /// Whole-program impact: degradation and resource waste.
    pub impact: ImpactSplit,
    /// Fused, ranked code-region recommendations (Equation 2 order).
    pub recommendations: Vec<Recommendation>,
    /// Number of benign-pair data-race warnings the transformation reported.
    pub race_warnings: usize,
    /// Statistics of the ULCP-free transformation.
    pub transform_stats: TransformStats,
    /// Lockset maintenance overhead fraction observed during the ULCP-free
    /// replay (with whatever DLS setting was used).
    pub lockset_overhead_fraction: f64,
    /// Number of stream gaps the ingestion layer recovered from (corrupt or
    /// skipped chunks). Zero for in-memory traces and clean streams; when
    /// non-zero the report is sound for the events that survived, not the
    /// full execution.
    pub stream_gaps: usize,
    /// Total events lost to those gaps, as reconciled against the stream
    /// trailer when one was readable.
    pub stream_events_lost: u64,
}

impl PerfReport {
    /// Assembles the report from the analysis pipeline's intermediate
    /// results.
    pub fn build(
        trace: &Trace,
        analysis: &UlcpAnalysis,
        transformed: &TransformedTrace,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        let gains = ulcp_gains(trace, analysis, original_replay, ulcp_free_replay);
        let impact = ImpactSplit::compute(original_replay, ulcp_free_replay, &gains);
        let recommendations = rank_groups(fuse_ulcps(analysis, &gains));
        PerfReport {
            program: trace.meta.program.clone(),
            input: trace.meta.input.clone(),
            threads: trace.num_threads(),
            trace_stats: TraceStats::of(trace),
            breakdown: analysis.breakdown,
            impact,
            recommendations,
            race_warnings: transformed.race_warnings.len(),
            transform_stats: transformed.stats(),
            lockset_overhead_fraction: ulcp_free_replay.lockset_overhead_fraction(),
            stream_gaps: 0,
            stream_events_lost: 0,
        }
    }

    /// Assembles the report from scan-time per-site aggregates instead of a
    /// materialized pair list.
    ///
    /// This is the O(code sites) counterpart of [`build`](Self::build): the
    /// detection pass ran with a
    /// [`SiteAggregator`](perfplay_detect::SiteAggregator) sink, so per-pair
    /// gains were folded into the aggregate rows at emission time and the
    /// fusion seeds come straight from the table
    /// ([`fuse_aggregates`](crate::fuse_aggregates)), skipping
    /// [`fuse_ulcps`](crate::fuse_ulcps)' re-grouping over every dynamic
    /// pair. When the aggregates were accumulated with
    /// [`ReplayGains`](crate::ReplayGains), the resulting report is
    /// identical to [`build`](Self::build)'s.
    pub fn from_aggregates(
        trace: &Trace,
        breakdown: UlcpBreakdown,
        aggregates: &SiteAggregates,
        transformed: &TransformedTrace,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        Self::assemble(
            trace,
            TraceStats::of(trace),
            breakdown,
            aggregates,
            transformed.stats(),
            original_replay,
            ulcp_free_replay,
        )
    }

    /// [`from_aggregates`](Self::from_aggregates) with the trace statistics
    /// computed elsewhere and only the statistics of the transformation: the
    /// pipeline scans the trace beside the original-trace replay and drops
    /// the transformed trace once the ULCP-free replay is done.
    /// `trace_stats` must be `TraceStats::of(trace)` and `transform_stats`
    /// the transformed trace's [`stats`](TransformedTrace::stats).
    pub(crate) fn assemble(
        trace: &Trace,
        trace_stats: TraceStats,
        breakdown: UlcpBreakdown,
        aggregates: &SiteAggregates,
        transform_stats: TransformStats,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        let impact = ImpactSplit::with_total_gain(
            original_replay,
            ulcp_free_replay,
            aggregates.total_gain_ns(),
        );
        let recommendations = rank_groups(fuse_aggregates(aggregates));
        PerfReport {
            program: trace.meta.program.clone(),
            input: trace.meta.input.clone(),
            threads: trace.num_threads(),
            trace_stats,
            breakdown,
            impact,
            recommendations,
            race_warnings: transform_stats.race_warnings,
            transform_stats,
            lockset_overhead_fraction: ulcp_free_replay.lockset_overhead_fraction(),
            stream_gaps: 0,
            stream_events_lost: 0,
        }
    }

    /// Assembles the report from a single-pass [`DetectionPlan`]: the
    /// breakdown and fusion seeds come straight out of the one detection
    /// pass that also fed the transformation, so the whole pipeline runs
    /// with O(code sites) detection output and no pair list.
    ///
    /// Equivalent to [`from_aggregates`](Self::from_aggregates) over the
    /// plan's parts; the accumulated gains are whatever detection-time
    /// [`GainSource`](perfplay_detect::GainSource) the plan's sink used
    /// (typically [`BodyOverlapGain`](perfplay_detect::BodyOverlapGain),
    /// since Equation 1 replay gains do not exist before the replays run).
    pub fn from_plan(
        trace: &Trace,
        plan: &DetectionPlan,
        transformed: &TransformedTrace,
        original_replay: &ReplayResult,
        ulcp_free_replay: &ReplayResult,
    ) -> Self {
        Self::from_aggregates(
            trace,
            plan.breakdown,
            &plan.aggregates,
            transformed,
            original_replay,
            ulcp_free_replay,
        )
    }

    /// Annotates the report with the stream gaps the ingestion layer
    /// recovered from. Returns `self` for builder-style chaining after
    /// [`from_plan`](Self::from_plan) when detection streamed from a file
    /// under a recovery policy.
    pub fn with_stream_gaps(mut self, gaps: usize, events_lost: u64) -> Self {
        self.stream_gaps = gaps;
        self.stream_events_lost = events_lost;
        self
    }

    /// Whether the underlying stream had recovered gaps — i.e. the numbers
    /// below describe the surviving events, not the full execution.
    pub fn is_gap_annotated(&self) -> bool {
        self.stream_gaps > 0
    }

    /// The most beneficial code-region recommendation, if any.
    pub fn top_recommendation(&self) -> Option<&Recommendation> {
        self.recommendations.first()
    }

    /// Number of fused (unique) ULCP code-region groups — the "grouped
    /// ULCPs" column of Table 2.
    pub fn grouped_ulcps(&self) -> usize {
        self.recommendations.len()
    }

    /// Relative opportunity of the top group — the `ULCP1.P` column of
    /// Table 2.
    pub fn top_opportunity(&self) -> f64 {
        self.top_recommendation()
            .map(|r| r.opportunity)
            .unwrap_or(0.0)
    }

    /// Normalized performance degradation (Figure 14's dark band).
    pub fn normalized_degradation(&self) -> f64 {
        self.impact.normalized_degradation()
    }

    /// Normalized CPU waste per thread (Figure 14's second band).
    pub fn normalized_waste_per_thread(&self) -> f64 {
        self.impact.normalized_waste_per_thread(self.threads)
    }

    /// Renders a human-readable report. The trace is needed to resolve code
    /// site identifiers back into file/function/line descriptions.
    pub fn render(&self, trace: &Trace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "PerfPlay report — {} ({})", self.program, self.input);
        let _ = writeln!(
            out,
            "  threads: {}   dynamic lock acquisitions: {}",
            self.threads, self.breakdown.lock_acquisitions
        );
        let _ = writeln!(
            out,
            "  ULCPs: {} total  (NL {}, RR {}, DW {}, Benign {});  TLCP edges: {}",
            self.breakdown.total_ulcps(),
            self.breakdown.null_lock,
            self.breakdown.read_read,
            self.breakdown.disjoint_write,
            self.breakdown.benign,
            self.breakdown.tlcp_edges
        );
        let _ = writeln!(
            out,
            "  original {} -> ULCP-free {}  (degradation {:.2}%, CPU waste/thread {:.2}%)",
            self.impact.original_time,
            self.impact.ulcp_free_time,
            100.0 * self.normalized_degradation(),
            100.0 * self.normalized_waste_per_thread()
        );
        let _ = writeln!(
            out,
            "  race warnings: {}   lockset overhead: {:.2}%",
            self.race_warnings,
            100.0 * self.lockset_overhead_fraction
        );
        if self.is_gap_annotated() {
            let _ = writeln!(
                out,
                "  ! incomplete stream: {} gap(s), {} event(s) lost — results cover surviving events only",
                self.stream_gaps, self.stream_events_lost
            );
        }
        let _ = writeln!(out, "  recommendations ({} groups):", self.grouped_ulcps());
        for (rank, rec) in self.recommendations.iter().enumerate().take(10) {
            let describe = |region: &perfplay_trace::CodeRegion| {
                region
                    .iter()
                    .filter_map(|site| trace.sites.get(site))
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            };
            let _ = writeln!(
                out,
                "    #{:<2} P={:>5.1}%  gain={:<12} pairs={:<6} {} <-> {}",
                rank + 1,
                rec.opportunity * 100.0,
                perfplay_trace::Time::from_nanos(rec.group.gain_ns).to_string(),
                rec.group.dynamic_pairs,
                describe(&rec.group.region_first),
                describe(&rec.group.region_second),
            );
        }
        out
    }

    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_replay::{ReplaySchedule, Replayer, UlcpFreeReplayer};
    use perfplay_sim::SimConfig;
    use perfplay_transform::Transformer;

    fn full_pipeline() -> (Trace, PerfReport) {
        let mut b = ProgramBuilder::new("report-test");
        b.input("unit");
        let lock = b.lock("cache_lock");
        let x = b.shared("cache", 0);
        let site_read = b.site("cache.c", "lookup", 10);
        let site_write = b.site("cache.c", "insert", 20);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.loop_n(5, |l| {
                    l.locked(lock, site_read, |cs| {
                        cs.read(x);
                        cs.compute_ns(300);
                    });
                    l.compute_ns(200);
                });
                t.locked(lock, site_write, |cs| {
                    let v = cs.read_into(x);
                    cs.write_add(x, 1);
                    let _ = v;
                });
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let transformed = Transformer::default().transform(&trace, &analysis);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        let report = PerfReport::build(&trace, &analysis, &transformed, &original, &free);
        (trace, report)
    }

    #[test]
    fn report_aggregates_the_pipeline() {
        let (_, report) = full_pipeline();
        assert_eq!(report.program, "report-test");
        assert_eq!(report.threads, 2);
        assert!(report.breakdown.total_ulcps() > 0);
        assert!(report.grouped_ulcps() >= 1);
        assert!(report.impact.original_time > report.impact.ulcp_free_time);
        assert!(report.normalized_degradation() > 0.0);
        assert!(report.top_opportunity() > 0.0);
        assert!(report.top_opportunity() <= 1.0);
    }

    #[test]
    fn opportunities_sum_to_one_when_gains_exist() {
        let (_, report) = full_pipeline();
        let total: f64 = report.recommendations.iter().map(|r| r.opportunity).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Descending order.
        for pair in report.recommendations.windows(2) {
            assert!(pair[0].group.gain_ns >= pair[1].group.gain_ns);
        }
    }

    #[test]
    fn render_mentions_the_program_and_code_sites() {
        let (trace, report) = full_pipeline();
        let text = report.render(&trace);
        assert!(text.contains("report-test"));
        assert!(text.contains("lookup"));
        assert!(text.contains("recommendations"));
        assert!(text.contains("ULCPs:"));
    }

    #[test]
    fn report_serializes_to_json_and_back() {
        let (_, report) = full_pipeline();
        let json = report.to_json();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
