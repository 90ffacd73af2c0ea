//! The streaming engine: a decoder stage feeding per-lock pairing workers,
//! run inline on the calling thread or sharded across worker threads.
//!
//! This is the crate's only incremental Algorithm 1 state machine.
//! [`StreamingDetector`](crate::StreamingDetector) and
//! [`ParallelStreamingDetector`] at one worker run it **inline**; with more
//! workers the same stages form a pipeline:
//!
//! ```text
//!   EventSource ──> decoder (calling thread)
//!                     │  validates the chunk contract, extracts sections,
//!                     │  assigns ids, slot-maps the shadow-memory log
//!           ┌─────────┴───────────────────────┐
//!           ▼ inline (1 worker)               ▼ threaded (N > 1 workers)
//!   the calling thread runs the       one bounded channel per worker
//!   one worker on each packet:        (backpressure keeps peak state
//!   no thread, no channel, and        bounded by the chunk size); worker
//!   the sink need not be `Send`       `i` owns the locks with
//!           │                         `lock.index() % N == i`
//!           └─────────┬───────────────────────┘
//!                     ▼
//!   each worker: horizon-pruned history, pairing cursors, eager
//!   retirement — emitting into per-lock forked `UlcpSink` lanes
//!                     │
//!                     ▼
//!   finish: (threaded only) merge the worker section tables by id; absorb
//!   the lanes in ascending-lock order, compaction remap, one seal —
//!   bit-identical to `Detector::analyze` and `reference_analyze`
//! ```
//!
//! Locks are independent (no pair ever spans two locks), so routing whole
//! locks to workers partitions the pairing exactly. Every worker receives
//! every decoded chunk window (it needs the shared-memory log and the window
//! horizon) but only the placeholders and closed sections of its own locks.
//! Determinism comes from three facts: ids are assigned by the decoder in
//! the global `(enter_time, thread, acquire_index)` order before routing;
//! within one lock the delivery order (ascending id) is preserved verbatim;
//! and shards merge through the existing [`UlcpSink::fork`]/
//! [`UlcpSink::absorb`] discipline in ascending-lock order before one final
//! [`UlcpSink::seal`]. The equivalence is property-tested against
//! [`reference_analyze`](crate::reference_analyze) in
//! `tests/engine_equivalence.rs` and unit-tested below.
//!
//! Gap handling lives entirely in the decoder: a [`StreamGap`] only relaxes
//! the per-thread contiguity check for the next span, so workers never see
//! it — detection over the surviving chunks is exactly detection over the
//! trace with the lost events removed.
//!
//! Beyond the thread fan-out, workers classify through a two-word fast path:
//! every closed section carries a [`PairKey`] (its read/write
//! [`Footprint::summary`] words), and the null-lock / read-read tests are
//! *exact* on summaries while a zero summary-AND proves disjoint writes —
//! so the overwhelming majority of pairs never touch the section bodies.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use perfplay_trace::{
    CodeSiteId, CriticalSection, Event, EventSource, Footprint, LockId, MemAccess, ObjectId,
    SectionId, StreamError, StreamGap, StreamItem, ThreadId, Time, Trace, TraceChunk, TraceChunks,
    TraceError,
};

use crate::classify::classify_pair;
use crate::id_hash::IdBuildHasher;
use crate::kinds::{PairClass, UlcpKind};
use crate::pairing::{CausalEdge, DetectorConfig, Ulcp, UlcpAnalysis, UlcpBreakdown};
use crate::shadow::StartState;
use crate::sink::{SectionCtx, UlcpSink};
use crate::streaming::{StreamingAnalysis, StreamingSinkAnalysis, StreamingStats};

/// How many decoded chunk windows may sit in each worker's channel before
/// the decoder blocks. Small by design: the backpressure is what keeps peak
/// live state bounded by the chunk size instead of the stream length.
const CHANNEL_DEPTH: usize = 2;

fn worker_died() -> StreamError {
    StreamError::Io("parallel streaming worker terminated unexpectedly".into())
}

// ---------------------------------------------------------------------------
// Wire types: what the decoder hands each worker.
// ---------------------------------------------------------------------------

/// One shadow-memory log entry: `(completion time, object slot, value,
/// is_write)`. Objects are slot-mapped by the decoder so workers replay the
/// log with dense-vector indexing instead of map lookups.
type MemEntry = (Time, u32, i64, bool);

/// A section announced at id-assignment time, before its release arrived.
struct Placeholder {
    id: SectionId,
    thread: ThreadId,
    lock: LockId,
    site: CodeSiteId,
    acquire_index: usize,
    enter_time: Time,
    depth: usize,
}

/// A section whose release arrived: everything needed to fill the output
/// row. The access vectors are moved, never cloned — the decoder gives up
/// ownership and the worker builds the footprints in place.
struct ClosedWire {
    id: SectionId,
    thread: ThreadId,
    lock: LockId,
    release_index: usize,
    exit_time: Time,
    reads: Vec<ObjectId>,
    writes: Vec<ObjectId>,
    accesses: Vec<MemAccess>,
    body_cost: Time,
}

/// One decoded chunk window, as seen by one worker: the shared (`Arc`ed)
/// memory log plus the placeholders and closures routed to this worker's
/// lock shard.
struct Packet {
    window_end: Time,
    mem: Arc<Vec<MemEntry>>,
    new_objects: Arc<Vec<ObjectId>>,
    /// Threads that exited in this window (first transition only).
    exited: Vec<ThreadId>,
    placeholders: Vec<Placeholder>,
    closed: Vec<ClosedWire>,
}

enum Msg {
    Chunk(Packet),
    /// Clean end of stream. A channel disconnect *without* this message
    /// means the decoder aborted; the worker discards its state.
    Finish,
}

// ---------------------------------------------------------------------------
// Worker-side history: the pruned shadow-memory log, slot-indexed.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct SlotLog {
    /// `(completion time, resulting value)` of retained writes, time order.
    writes: VecDeque<(Time, i64)>,
    /// First read ever observed (initial-value anchor); never pruned.
    first_read: Option<(Time, i64)>,
}

/// Per-object shadow-memory history, pruned below the *horizon* — the
/// earliest virtual time any live pairing search can still query. Queries
/// always come from live sections' enter times, so answers are identical to
/// the unpruned [`LastWriteIndex`](crate::LastWriteIndex). Slot-indexed: the
/// decoder maps every `ObjectId` to a dense `u32` once, so the replay and
/// every prune walk are vector operations.
#[derive(Debug, Default)]
struct SlotHistory {
    logs: Vec<SlotLog>,
    slot_of: HashMap<ObjectId, u32, IdBuildHasher>,
    entries: usize,
}

impl SlotHistory {
    fn add_objects(&mut self, new_objects: &[ObjectId]) {
        for &obj in new_objects {
            let slot = self.logs.len() as u32;
            self.slot_of.insert(obj, slot);
            self.logs.push(SlotLog::default());
        }
    }

    fn record(&mut self, entry: MemEntry) {
        let (at, slot, value, is_write) = entry;
        let log = &mut self.logs[slot as usize];
        if is_write {
            log.writes.push_back((at, value));
            self.entries += 1;
        } else if log.first_read.is_none() {
            log.first_read = Some((at, value));
        }
    }

    /// Same contract as `LastWriteIndex::value_before`: the last write
    /// completing strictly before `at`, else the first read strictly before
    /// `at`, else `None`.
    fn value_before(&self, obj: ObjectId, at: Time) -> Option<i64> {
        let &slot = self.slot_of.get(&obj)?;
        let log = &self.logs[slot as usize];
        let idx = log.writes.partition_point(|&(t, _)| t < at);
        if idx > 0 {
            return Some(log.writes[idx - 1].1);
        }
        match log.first_read {
            Some((t, v)) if t < at => Some(v),
            _ => None,
        }
    }

    /// Drops every write that can no longer be an answer: a write is dead
    /// once a *later* write also precedes the horizon.
    fn prune(&mut self, horizon: Time) {
        for log in &mut self.logs {
            while log.writes.len() >= 2 && log.writes[1].0 < horizon {
                log.writes.pop_front();
                self.entries -= 1;
            }
        }
    }
}

/// Lazy [`StartState`] view over the pruned history at one virtual time.
struct SlotStateBefore<'a> {
    history: &'a SlotHistory,
    at: Time,
}

impl StartState for SlotStateBefore<'_> {
    fn value(&self, obj: ObjectId) -> i64 {
        self.history.value_before(obj, self.at).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The summary-word fast path.
// ---------------------------------------------------------------------------

/// The two [`Footprint::summary`] words of a closed section. An empty
/// footprint has summary `0` and every non-empty footprint has a non-zero
/// summary, so the null-lock and read-read tests below are *exact*; the
/// disjoint-write test is sound (zero AND proves disjointness) and falls
/// back to the full classifier on collisions.
#[derive(Debug, Clone, Copy, Default)]
struct PairKey {
    reads: u64,
    writes: u64,
}

/// Dense per-section hot-path metadata, parallel to the worker's section
/// table: the summary words plus the global id and thread — everything pair
/// emission needs, in 24 bytes. The sweep classifies and emits hundreds of
/// millions of pairs; reading these packed rows instead of the ~200-byte
/// [`CriticalSection`] rows keeps the per-pair path out of DRAM.
#[derive(Debug, Clone, Copy)]
struct SecMeta {
    key: PairKey,
    id: SectionId,
    thread: ThreadId,
}

/// Classifies a pair from the summary words alone when possible. Checks run
/// in the same order as `classify_by_sets`, so a `Some` answer is exactly
/// the answer the full classifier would give.
#[inline]
fn fast_classify(a: PairKey, b: PairKey) -> Option<PairClass> {
    // Evaluated as straight-line selects rather than an early-return chain:
    // which test fires is data-dependent and effectively random across the
    // pair stream, so branching on each would mispredict constantly on the
    // hottest path in the engine.
    let null = ((a.reads | a.writes) == 0) | ((b.reads | b.writes) == 0);
    let read_read = (a.writes | b.writes) == 0;
    let disjoint = (a.reads & b.writes) | (a.writes & b.reads) | (a.writes & b.writes) == 0;
    if null {
        Some(PairClass::Ulcp(UlcpKind::NullLock))
    } else if read_read {
        Some(PairClass::Ulcp(UlcpKind::ReadRead))
    } else if disjoint {
        Some(PairClass::Ulcp(UlcpKind::DisjointWrite))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Worker-side pairing state.
// ---------------------------------------------------------------------------

/// One `(current, other-thread)` sequential search, as the batch engine runs
/// it. A thread with no candidates yet has the default state
/// (`pos == len == 0`, not done).
#[derive(Debug, Default, Clone, Copy)]
struct SearchV {
    /// Classifications performed so far (the unit the scan cap counts).
    scanned: u32,
    /// Index into the candidate list of the next candidate to consider.
    pos: u32,
    /// True once a TLCP ended the search or the cap was reached.
    done: bool,
}

/// A section still acting as the *first* element of future pairs.
#[derive(Debug)]
struct CurrentV {
    thread: u32,
    enter_time: Time,
    /// Finished searches among the other threads; the current is complete
    /// when this reaches `num_threads - 1`.
    done_count: u32,
    /// One search per thread, indexed by thread; the own-thread slot is
    /// never used.
    searches: Box<[SearchV]>,
}

/// Pairing state of one lock, all thread-indexed vectors.
struct LockLane<S> {
    /// The forked sink shard this lock's pairs are emitted into.
    sink: S,
    /// Delivered sections per thread (local indices), ascending id order.
    candidates: Vec<Vec<u32>>,
    /// Per thread: local indices in creation (= id) order awaiting delivery.
    delivery: Vec<VecDeque<u32>>,
    /// Local indices of live currents on this lock (may contain stale
    /// entries for currents retired mid-sweep; swept lazily).
    live_list: Vec<u32>,
}

impl<S> LockLane<S> {
    fn new(sink: S, num_threads: usize) -> Self {
        LockLane {
            sink,
            candidates: vec![Vec::new(); num_threads],
            delivery: vec![VecDeque::new(); num_threads],
            live_list: Vec::new(),
        }
    }
}

/// What one worker hands back to the coordinator.
struct WorkerResult<S> {
    /// This shard's sections (closed ones filled, unclosed placeholders as
    /// is), ascending global id.
    sections: Vec<CriticalSection>,
    breakdown: UlcpBreakdown,
    /// Per-lock sink shards, ascending lock order.
    sinks: Vec<(LockId, S)>,
    peak_live: usize,
    peak_history: usize,
    peak_pairs: usize,
    retired_before_end: usize,
}

/// The per-worker incremental Algorithm 1 state machine over one lock shard.
struct Worker<S: UlcpSink> {
    config: DetectorConfig,
    num_threads: usize,
    /// Shard sections in ascending global-id order; local index order is
    /// therefore global id order restricted to this shard.
    sections: Vec<CriticalSection>,
    /// Hot-path metadata, parallel to `sections`; the summary words are set
    /// when a section closes.
    meta: Vec<SecMeta>,
    /// `ids[i] == sections[i].id`: the dense search column for close-time
    /// id lookup, so the probes walk a 4-byte-stride array instead of the
    /// 160-byte section rows.
    ids: Vec<SectionId>,
    /// Whether `sections[i]` has been closed (filled in) yet.
    closed: Vec<bool>,
    /// Live pairing state, parallel to `sections`; `None` = not (or no
    /// longer) a current.
    pairing: Vec<Option<Box<CurrentV>>>,
    locks: BTreeMap<LockId, LockLane<S>>,
    history: SlotHistory,
    exited: Vec<bool>,
    /// Fork factory for lazily created lock lanes.
    proto: S,
    breakdown: UlcpBreakdown,
    live: usize,
    peak_live: usize,
    peak_history: usize,
    peak_pairs: usize,
    retired_before_end: usize,
    ending: bool,
    use_history: bool,
}

impl<S: UlcpSink> Worker<S> {
    fn new(config: DetectorConfig, num_threads: usize, proto: S) -> Self {
        Worker {
            config,
            num_threads,
            sections: Vec::new(),
            meta: Vec::new(),
            ids: Vec::new(),
            closed: Vec::new(),
            pairing: Vec::new(),
            locks: BTreeMap::new(),
            history: SlotHistory::default(),
            exited: vec![false; num_threads],
            proto,
            breakdown: UlcpBreakdown::default(),
            live: 0,
            peak_live: 0,
            peak_history: 0,
            peak_pairs: 0,
            retired_before_end: 0,
            ending: false,
            use_history: config.use_reversed_replay,
        }
    }

    fn ingest(&mut self, packet: Packet) {
        for t in &packet.exited {
            self.exited[t.index()] = true;
        }
        if self.use_history {
            self.history.add_objects(&packet.new_objects);
            for &entry in packet.mem.iter() {
                self.history.record(entry);
            }
        }
        for ph in packet.placeholders {
            self.push_placeholder(ph);
        }
        for wire in packet.closed {
            self.close_section(wire);
        }
        self.sweep();
        self.retire_and_prune(packet.window_end, false);
        self.sample_peaks();
    }

    fn push_placeholder(&mut self, ph: Placeholder) {
        debug_assert!(self.sections.last().is_none_or(|s| s.id < ph.id));
        let idx = self.sections.len() as u32;
        self.sections.push(CriticalSection {
            id: ph.id,
            thread: ph.thread,
            lock: ph.lock,
            site: ph.site,
            acquire_index: ph.acquire_index,
            release_index: 0,
            enter_time: ph.enter_time,
            exit_time: ph.enter_time,
            reads: Footprint::new(),
            writes: Footprint::new(),
            accesses: Vec::new(),
            body_cost: Time::ZERO,
            depth: ph.depth,
        });
        self.meta.push(SecMeta {
            key: PairKey::default(),
            id: ph.id,
            thread: ph.thread,
        });
        self.ids.push(ph.id);
        self.closed.push(false);
        self.pairing.push(None);
        self.live += 1;
        if !self.locks.contains_key(&ph.lock) {
            let lane = LockLane::new(self.proto.fork(), self.num_threads);
            self.locks.insert(ph.lock, lane);
        }
        self.locks
            .get_mut(&ph.lock)
            .expect("lane just ensured")
            .delivery[ph.thread.index()]
        .push_back(idx);
    }

    /// Fills the output section and delivers the head run of the creation
    /// queue, so candidates reach the searches strictly in id order even
    /// when re-entrant nesting closes sections out of order.
    fn close_section(&mut self, wire: ClosedWire) {
        // Gallop from the tail before the binary search: most sections
        // close within the chunk window that opened them, so the target is
        // almost always within the last few thousand rows.
        let ids: &[SectionId] = &self.ids;
        let n = ids.len();
        let mut width = 1usize;
        while width < n && ids[n - width] > wire.id {
            width = (width * 2).min(n);
        }
        let lo = n - width;
        let idx = lo
            + ids[lo..]
                .binary_search(&wire.id)
                .expect("closed section was announced as a placeholder");
        let section = &mut self.sections[idx];
        section.release_index = wire.release_index;
        section.exit_time = wire.exit_time;
        section.reads = Footprint::from_unsorted(wire.reads);
        section.writes = Footprint::from_unsorted(wire.writes);
        section.accesses = wire.accesses;
        section.body_cost = wire.body_cost;
        self.meta[idx].key = PairKey {
            reads: section.reads.summary(),
            writes: section.writes.summary(),
        };
        self.closed[idx] = true;

        let lock = wire.lock;
        let ti = wire.thread.index();
        loop {
            let lane = self
                .locks
                .get_mut(&lock)
                .expect("lane exists for a closed section");
            let queue = &mut lane.delivery[ti];
            let Some(&front) = queue.front() else { break };
            if !self.closed[front as usize] {
                break;
            }
            queue.pop_front();
            self.deliver(lock, ti, front as usize);
        }
    }

    /// Registers one newly delivered section: it runs a fresh-*current* scan
    /// over already-delivered later candidates, then joins the candidate
    /// lists. Open currents consume it later, in the per-chunk [`sweep`]
    /// (Self::sweep) — a linear pass, not a per-delivery scatter.
    fn deliver(&mut self, lock: LockId, ti: usize, idx: usize) {
        self.peak_live = self.peak_live.max(self.live);
        let Worker {
            config,
            num_threads,
            sections,
            meta,
            pairing,
            locks,
            history,
            breakdown,
            live,
            retired_before_end,
            ending,
            ..
        } = self;
        let num_threads = *num_threads;
        let sections: &[CriticalSection] = sections;
        let meta: &[SecMeta] = meta;
        let history: &SlotHistory = history;
        let lane = locks
            .get_mut(&lock)
            .expect("lane exists for a delivered section");
        let LockLane {
            sink,
            candidates,
            live_list,
            ..
        } = lane;
        let mut out = PairSink {
            config: *config,
            cap: config
                .max_scan_per_thread
                .map_or(u32::MAX, |c| u32::try_from(c).unwrap_or(u32::MAX)),
            lock,
            sections,
            meta,
            history,
            out: sink,
            breakdown,
        };
        let enter_time = sections[idx].enter_time;
        let fmeta = meta[idx];

        // The new current scans candidates already delivered. (Under lock
        // mutual exclusion every already-delivered same-lock section has a
        // smaller id, so this classifies nothing — but ties and re-entrant
        // nesting can produce larger-id candidates, and the batch engine
        // scans those too.)
        let mut searches: Box<[SearchV]> = vec![SearchV::default(); num_threads].into();
        for (u, list) in candidates.iter().enumerate() {
            if u == ti {
                continue;
            }
            let search = &mut searches[u];
            search.pos = list.len() as u32;
            // Under lock mutual exclusion every already-delivered candidate
            // has a smaller local index, so one tail compare short-circuits
            // the prefix search in the overwhelmingly common case.
            let start = if list.last().is_none_or(|&c| (c as usize) <= idx) {
                list.len()
            } else {
                list.partition_point(|&c| (c as usize) <= idx)
            };
            for &cand in &list[start..] {
                if search.done {
                    break;
                }
                if config
                    .max_scan_per_thread
                    .is_some_and(|cap| search.scanned as usize >= cap)
                {
                    search.done = true;
                    break;
                }
                out.classify(idx, fmeta, cand as usize, search);
            }
        }
        let done_count = searches.iter().filter(|s| s.done).count() as u32;
        let complete = done_count as usize == num_threads.saturating_sub(1);
        if complete {
            *live -= 1;
            if !*ending {
                *retired_before_end += 1;
            }
        } else {
            pairing[idx] = Some(Box::new(CurrentV {
                thread: ti as u32,
                enter_time,
                done_count,
                searches,
            }));
            live_list.push(idx as u32);
        }

        // Become a candidate: the sweep offers this section to every current
        // whose search on this thread is still open.
        candidates[ti].push(idx as u32);
    }

    /// Consumes, for every live current of every lane, the candidates its
    /// searches have not yet seen: one linear pass per `(current, thread)`
    /// over the append-only candidate lists, instead of a scatter at every
    /// delivery. Each search consumes its candidate list strictly in
    /// delivery order from its own cursor, so the per-search classification
    /// sequence — and with it every cap cutoff, TLCP termination, retirement
    /// and the breakdown — is exactly the batch engine's. Only the
    /// interleaving of emissions *between* searches differs, which
    /// [`UlcpSink::seal`] canonicalizes.
    fn sweep(&mut self) {
        let Worker {
            config,
            num_threads,
            sections,
            meta,
            pairing,
            locks,
            history,
            breakdown,
            live,
            retired_before_end,
            ending,
            ..
        } = self;
        let num_threads = *num_threads;
        let sections: &[CriticalSection] = sections;
        let meta: &[SecMeta] = meta;
        let history: &SlotHistory = history;
        for (&lock, lane) in locks.iter_mut() {
            let LockLane {
                sink,
                candidates,
                live_list,
                ..
            } = lane;
            let mut out = PairSink {
                config: *config,
                cap: config
                    .max_scan_per_thread
                    .map_or(u32::MAX, |c| u32::try_from(c).unwrap_or(u32::MAX)),
                lock,
                sections,
                meta,
                history,
                out: sink,
                breakdown,
            };
            let cap = config.max_scan_per_thread.unwrap_or(usize::MAX);
            for &fi32 in live_list.iter() {
                let fi = fi32 as usize;
                let mut retired = false;
                {
                    let Some(current) = pairing[fi].as_mut() else {
                        continue; // retired in an earlier sweep; removed lazily
                    };
                    let ti = current.thread as usize;
                    let fmeta = meta[fi];
                    for (u, list) in candidates.iter().enumerate() {
                        if u == ti {
                            continue;
                        }
                        let search = &mut current.searches[u];
                        if search.done {
                            continue;
                        }
                        let list: &[u32] = list;
                        // Entries at or below `fi` are not candidates for
                        // this current (the batch engine's
                        // `candidate.id > current.id` filter); they are
                        // consumed unclassified. The list is ascending, so
                        // that prefix is contiguous — jump it in one binary
                        // search instead of walking it element by element
                        // (the walk is quadratic in the lane population).
                        if (search.pos as usize) < list.len() && list[search.pos as usize] <= fi32 {
                            search.pos = list.partition_point(|&c| c <= fi32) as u32;
                        }
                        // The cap bounds the visit up front, so the hot loop
                        // walks a borrowed slice with no per-candidate
                        // cursor or cap bookkeeping; `classify` still sets
                        // `done` at the cap or on a TLCP.
                        let lo = search.pos as usize;
                        let room = cap.saturating_sub(search.scanned as usize);
                        if room == 0 {
                            // A zero cap consumes one candidate unclassified
                            // and ends the search, as the batch engine does.
                            if lo < list.len() {
                                search.pos += 1;
                                search.done = true;
                            }
                        } else {
                            let visit = room.min(list.len() - lo);
                            let mut taken = 0;
                            for &cand in &list[lo..lo + visit] {
                                taken += 1;
                                debug_assert!(cand > fi32, "candidate lists ascend");
                                out.classify(fi, fmeta, cand as usize, search);
                                if search.done {
                                    break;
                                }
                            }
                            search.pos += taken;
                        }
                        if search.done {
                            current.done_count += 1;
                            if current.done_count as usize == num_threads.saturating_sub(1) {
                                retired = true;
                                break;
                            }
                        }
                    }
                }
                if retired {
                    pairing[fi] = None;
                    *live -= 1;
                    if !*ending {
                        *retired_before_end += 1;
                    }
                }
            }
        }
    }

    /// Retires currents whose outcome no later section can change, then
    /// advances the history horizon and prunes the write logs. The horizon
    /// only needs this shard's live currents and queued sections: every
    /// future query of this worker's history comes from its own locks.
    fn retire_and_prune(&mut self, window_end: Time, at_end: bool) {
        let Worker {
            sections,
            pairing,
            locks,
            history,
            exited,
            live,
            retired_before_end,
            ..
        } = self;
        for lane in locks.values_mut() {
            let LockLane {
                live_list,
                delivery,
                ..
            } = lane;
            live_list.retain(|&fi32| {
                let fi = fi32 as usize;
                let retire = match pairing[fi].as_ref() {
                    None => return false, // retired in the candidate phase
                    Some(current) => (0..exited.len()).all(|u| {
                        u == current.thread as usize
                            || current.searches[u].done
                            || ((exited[u] || at_end) && delivery[u].is_empty())
                    }),
                };
                if retire {
                    pairing[fi] = None;
                    *live -= 1;
                    if !at_end {
                        *retired_before_end += 1;
                    }
                }
                !retire
            });
        }

        if !self.use_history {
            return;
        }
        let mut horizon: Option<Time> = None;
        let mut consider = |t: Time| {
            horizon = Some(horizon.map_or(t, |h: Time| h.min(t)));
        };
        for lane in locks.values() {
            for &fi in &lane.live_list {
                if let Some(current) = pairing[fi as usize].as_ref() {
                    consider(current.enter_time);
                }
            }
            for queue in &lane.delivery {
                for &idx in queue {
                    consider(sections[idx as usize].enter_time);
                }
            }
        }
        let horizon =
            horizon.unwrap_or_else(|| Time::from_nanos(window_end.as_nanos().saturating_add(1)));
        history.prune(horizon);
    }

    fn sample_peaks(&mut self) {
        self.peak_live = self.peak_live.max(self.live);
        self.peak_history = self.peak_history.max(self.history.entries);
        let resident: usize = self.locks.values().map(|l| l.sink.resident_entries()).sum();
        self.peak_pairs = self.peak_pairs.max(resident);
    }

    /// Drains the end of the stream and hands back the lane prototype (the
    /// caller's own sink in inline mode) plus this shard's results.
    fn finish(mut self) -> (S, WorkerResult<S>) {
        self.ending = true;
        // Flush sections still awaiting delivery: their same-(lock, thread)
        // predecessors never closed, so those blockers will never deliver.
        // Deliver the closed remainder in id order (local index order), as
        // the batch engine pairs them; never-closed placeholders are dropped.
        let mut leftovers: Vec<(LockId, usize, u32)> = Vec::new();
        for (&lock, lane) in &mut self.locks {
            for (ti, queue) in lane.delivery.iter_mut().enumerate() {
                while let Some(idx) = queue.pop_front() {
                    if self.closed[idx as usize] {
                        leftovers.push((lock, ti, idx));
                    }
                }
            }
        }
        leftovers.sort_unstable_by_key(|&(_, _, idx)| idx);
        for (lock, ti, idx) in leftovers {
            self.deliver(lock, ti, idx as usize);
        }
        self.sweep();
        self.retire_and_prune(Time::MAX, true);
        self.sample_peaks();
        let result = WorkerResult {
            sections: self.sections,
            breakdown: self.breakdown,
            sinks: self
                .locks
                .into_iter()
                .map(|(lock, lane)| (lock, lane.sink))
                .collect(),
            peak_live: self.peak_live,
            peak_history: self.peak_history,
            peak_pairs: self.peak_pairs,
            retired_before_end: self.retired_before_end,
        };
        (self.proto, result)
    }
}

/// The classification context of one delivery: borrows the immutable inputs
/// and the lock's sink shard once, so each pair costs one classification
/// plus one emission.
struct PairSink<'a, S: UlcpSink> {
    config: DetectorConfig,
    /// `config.max_scan_per_thread` with `None` hoisted to "unlimited", so
    /// the per-pair cap check is one integer compare.
    cap: u32,
    lock: LockId,
    sections: &'a [CriticalSection],
    meta: &'a [SecMeta],
    history: &'a SlotHistory,
    out: &'a mut S,
    breakdown: &'a mut UlcpBreakdown,
}

impl<S: UlcpSink> PairSink<'_, S> {
    /// Classifies one `(first, second)` local-index pair exactly as the
    /// batch engine does — through the summary-word fast path when it
    /// is decisive — then emits the outcome and updates the search state.
    /// `fm` must be `self.meta[first]` — hoisted by the caller, which holds
    /// it fixed across a whole candidate scan.
    fn classify(&mut self, first: usize, fm: SecMeta, second: usize, search: &mut SearchV) {
        let sm = self.meta[second];
        let class = match fast_classify(fm.key, sm.key) {
            Some(class) => class,
            None => {
                let state = SlotStateBefore {
                    history: self.history,
                    at: self.sections[first].enter_time,
                };
                classify_pair(
                    &self.sections[first],
                    &self.sections[second],
                    &state,
                    self.config.use_reversed_replay,
                )
            }
        };
        search.scanned += 1;
        if search.scanned >= self.cap {
            search.done = true;
        }
        // Constructing the refs is free; on the fast path no sink that
        // overrides `emit_threaded` ever dereferences them.
        let ctx = SectionCtx {
            first: &self.sections[first],
            second: &self.sections[second],
        };
        match class {
            PairClass::Tlcp => {
                search.done = true;
                self.out.emit_edge(
                    CausalEdge {
                        from: fm.id,
                        to: sm.id,
                        lock: self.lock,
                    },
                    &ctx,
                );
                self.breakdown.tlcp_edges += 1;
            }
            PairClass::Ulcp(kind) => {
                self.breakdown.add(kind);
                self.out.emit_threaded(
                    Ulcp {
                        first: fm.id,
                        second: sm.id,
                        lock: self.lock,
                        kind,
                    },
                    sm.thread,
                    &ctx,
                );
            }
        }
    }
}

fn run_worker<S: UlcpSink>(
    config: DetectorConfig,
    num_threads: usize,
    rx: Receiver<Msg>,
    proto: S,
) -> Option<WorkerResult<S>> {
    let mut worker = Worker::new(config, num_threads, proto);
    loop {
        match rx.recv() {
            Ok(Msg::Chunk(packet)) => worker.ingest(packet),
            Ok(Msg::Finish) => return Some(worker.finish().1),
            // Disconnect without Finish: the decoder aborted on an error;
            // this worker's partial state is meaningless.
            Err(_) => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder: chunk-contract validation, extraction, id assignment, routing.
// ---------------------------------------------------------------------------

/// A critical section currently open on some thread.
struct DecOpen {
    lock: LockId,
    site: CodeSiteId,
    acquire_index: usize,
    depth: usize,
    reads: Vec<ObjectId>,
    writes: Vec<ObjectId>,
    accesses: Vec<MemAccess>,
    body_cost: Time,
    id: Option<SectionId>,
}

/// A section whose release event has arrived.
struct DecClosed {
    thread: ThreadId,
    release_index: usize,
    exit_time: Time,
    open: DecOpen,
}

/// Per-thread extraction state.
#[derive(Default)]
struct DecThread {
    next_index: usize,
    last_time: Time,
    open: Vec<DecOpen>,
    exited: bool,
    /// Set after a stream gap: the next span may jump forward once.
    resync: bool,
}

/// The reader/decoder stage: validates the chunk contract (ascending span
/// threads, per-thread contiguity with one forward jump after a gap,
/// monotone timestamps inside advancing windows), extracts sections, assigns
/// ids in the
/// global `(enter_time, thread, acquire_index)` order, slot-maps the memory
/// log, and routes placeholders/closures to workers by `lock.index() % N`.
struct Decoder {
    use_history: bool,
    num_threads: usize,
    workers: usize,
    threads: Vec<DecThread>,
    next_id: u32,
    closed_global: Vec<bool>,
    slot_of: HashMap<ObjectId, u32, IdBuildHasher>,
    lock_acquisitions: usize,
    stats: StreamingStats,
    prev_window_end: Option<Time>,
}

impl Decoder {
    fn new(config: DetectorConfig, num_threads: usize, workers: usize) -> Self {
        Decoder {
            use_history: config.use_reversed_replay,
            num_threads,
            workers,
            threads: (0..num_threads).map(|_| DecThread::default()).collect(),
            next_id: 0,
            closed_global: Vec::new(),
            slot_of: HashMap::default(),
            lock_acquisitions: 0,
            stats: StreamingStats::default(),
            prev_window_end: None,
        }
    }

    /// Notes a gap a recovering source reported. Workers never see gaps:
    /// losing events only relaxes the decoder's per-thread contiguity check,
    /// and detection over the surviving chunks equals detection over the
    /// trace with the lost events removed.
    fn note_gap(&mut self, gap: &StreamGap) {
        self.stats.gaps += 1;
        self.stats.events_lost += gap.events_lost;
        for state in &mut self.threads {
            state.resync = true;
        }
    }

    /// Decodes one chunk into per-worker packets (same length as `workers`).
    fn ingest(&mut self, chunk: TraceChunk) -> Result<Vec<Packet>, StreamError> {
        if let Some(prev) = self.prev_window_end {
            if chunk.window_end <= prev && chunk.num_events() > 0 {
                return Err(StreamError::Format(format!(
                    "chunk {} window {} does not advance past {}",
                    chunk.seq, chunk.window_end, prev
                )));
            }
        }
        self.stats.chunks += 1;
        self.stats.peak_chunk_events = self.stats.peak_chunk_events.max(chunk.num_events());

        // Phase A: per-thread extraction. Memory events are collected in
        // thread-major order so the stable time sort below reproduces the
        // global tie order `LastWriteIndex::build` uses.
        let mut chunk_mem: Vec<(Time, ObjectId, i64, bool)> = Vec::new();
        let mut new_acquires: Vec<(Time, ThreadId, usize)> = Vec::new();
        // Sections that closed this chunk live in one arena; every later
        // phase routes 8-byte `(key, arena index)` tuples instead of moving
        // the ~140-byte records through sorts and maps.
        let mut closed_arena: Vec<Option<DecClosed>> = Vec::new();
        let mut closed_now: Vec<(SectionId, u32)> = Vec::new();
        let mut closed_unassigned: Vec<(ThreadId, usize, u32)> = Vec::new();
        let mut newly_exited: Vec<ThreadId> = Vec::new();

        let mut prev_thread: Option<ThreadId> = None;
        for span in &chunk.spans {
            if prev_thread.is_some_and(|p| span.thread <= p) {
                return Err(StreamError::Format(format!(
                    "chunk {} spans not in ascending thread order",
                    chunk.seq
                )));
            }
            prev_thread = Some(span.thread);
            let ti = span.thread.index();
            if ti >= self.num_threads {
                return Err(StreamError::Format(format!(
                    "span for out-of-range thread {}",
                    span.thread
                )));
            }
            if self.threads[ti].resync {
                if span.base_index < self.threads[ti].next_index {
                    return Err(StreamError::Format(format!(
                        "span for {} rewinds across a gap: base {} but {} events seen",
                        span.thread, span.base_index, self.threads[ti].next_index
                    )));
                }
                self.threads[ti].next_index = span.base_index;
                self.threads[ti].resync = false;
            } else if span.base_index != self.threads[ti].next_index {
                return Err(StreamError::Format(format!(
                    "non-contiguous span for {}: base {} but {} events seen",
                    span.thread, span.base_index, self.threads[ti].next_index
                )));
            }
            for (offset, te) in span.events.iter().enumerate() {
                let idx = span.base_index + offset;
                let state = &mut self.threads[ti];
                if te.at < state.last_time {
                    return Err(StreamError::Trace(TraceError::NonMonotonicTime {
                        thread: span.thread,
                        event_index: idx,
                    }));
                }
                if te.at > chunk.window_end || self.prev_window_end.is_some_and(|p| te.at <= p) {
                    return Err(StreamError::Format(format!(
                        "event {idx} of {} at {} is outside chunk {}'s window",
                        span.thread, te.at, chunk.seq
                    )));
                }
                state.last_time = te.at;
                self.stats.events += 1;
                match &te.event {
                    Event::LockAcquire { lock, site } => {
                        self.lock_acquisitions += 1;
                        state.open.push(DecOpen {
                            lock: *lock,
                            site: *site,
                            acquire_index: idx,
                            depth: state.open.len(),
                            reads: Vec::new(),
                            writes: Vec::new(),
                            accesses: Vec::new(),
                            body_cost: Time::ZERO,
                            id: None,
                        });
                        new_acquires.push((te.at, span.thread, idx));
                    }
                    Event::LockRelease { lock } => {
                        if let Some(pos) = state.open.iter().rposition(|o| o.lock == *lock) {
                            let open = state.open.remove(pos);
                            let closed = DecClosed {
                                thread: span.thread,
                                release_index: idx,
                                exit_time: te.at,
                                open,
                            };
                            let slot = closed_arena.len() as u32;
                            match closed.open.id {
                                Some(id) => closed_now.push((id, slot)),
                                None => closed_unassigned.push((
                                    span.thread,
                                    closed.open.acquire_index,
                                    slot,
                                )),
                            }
                            closed_arena.push(Some(closed));
                        }
                    }
                    Event::Read { obj, value } => {
                        for o in &mut state.open {
                            o.reads.push(*obj);
                            o.accesses.push(MemAccess::Read(*obj));
                        }
                        if self.use_history {
                            chunk_mem.push((te.at, *obj, *value, false));
                        }
                    }
                    Event::Write { obj, op, value } => {
                        for o in &mut state.open {
                            o.writes.push(*obj);
                            o.accesses.push(MemAccess::Write(*obj, *op));
                        }
                        if self.use_history {
                            chunk_mem.push((te.at, *obj, *value, true));
                        }
                    }
                    Event::Compute { cost } => {
                        for o in &mut state.open {
                            o.body_cost += *cost;
                        }
                    }
                    Event::SkipRegion { saved_cost, .. } => {
                        for o in &mut state.open {
                            o.body_cost += *saved_cost;
                        }
                    }
                    Event::ThreadExit if !state.exited => {
                        state.exited = true;
                        newly_exited.push(span.thread);
                    }
                    _ => {}
                }
            }
            self.threads[ti].next_index += span.events.len();
        }

        // Phase B.1: slot-map the memory log. Sorting only within the chunk
        // is sound because ties never straddle chunk boundaries; slots are
        // assigned in this deterministic order, so every worker builds the
        // identical slot table.
        chunk_mem.sort_by_key(|&(at, ..)| at);
        let mut mem: Vec<MemEntry> = Vec::with_capacity(chunk_mem.len());
        let mut new_objects: Vec<ObjectId> = Vec::new();
        for (at, obj, value, is_write) in chunk_mem {
            let slot = match self.slot_of.get(&obj) {
                Some(&slot) => slot,
                None => {
                    let next = self.slot_of.len() as u32;
                    self.slot_of.insert(obj, next);
                    new_objects.push(obj);
                    next
                }
            };
            mem.push((at, slot, value, is_write));
        }
        let mem = Arc::new(mem);
        let new_objects = Arc::new(new_objects);
        let mut packets: Vec<Packet> = (0..self.workers)
            .map(|_| Packet {
                window_end: chunk.window_end,
                mem: Arc::clone(&mem),
                new_objects: Arc::clone(&new_objects),
                exited: newly_exited.clone(),
                placeholders: Vec::new(),
                closed: Vec::new(),
            })
            .collect();

        // Phase B.2: assign section ids in the exact global order
        // `extract_critical_sections` produces, and route each placeholder
        // to its lock's worker.
        new_acquires.sort_unstable();
        // Index the closed-before-assignment sections by `(thread, acquire)`
        // without moving them: a sorted key list over arena slots. (A keyed
        // map would shuffle the ~140-byte records through its nodes;
        // sections close once, so lookup-by-index is all that is needed.)
        closed_unassigned.sort_unstable();
        let find_closed = |thread: ThreadId, acq: usize| -> Option<u32> {
            let at = closed_unassigned
                .binary_search_by_key(&(thread, acq), |&(t, a, _)| (t, a))
                .ok()?;
            Some(closed_unassigned[at].2)
        };
        for (at, thread, acquire_index) in new_acquires {
            let id = SectionId::new(self.next_id);
            self.next_id += 1;
            self.closed_global.push(false);
            if let Some(slot) = find_closed(thread, acquire_index) {
                let closed = closed_arena[slot as usize]
                    .as_mut()
                    .expect("closed sections are taken once, in phase B.3");
                closed.open.id = Some(id);
                let route = closed.open.lock.index() % self.workers;
                packets[route].placeholders.push(Placeholder {
                    id,
                    thread,
                    lock: closed.open.lock,
                    site: closed.open.site,
                    acquire_index,
                    enter_time: at,
                    depth: closed.open.depth,
                });
                closed_now.push((id, slot));
            } else {
                let state = &mut self.threads[thread.index()];
                let open = state
                    .open
                    .iter_mut()
                    .find(|o| o.acquire_index == acquire_index)
                    .expect("acquire recorded this chunk is open or closed this chunk");
                open.id = Some(id);
                let route = open.lock.index() % self.workers;
                packets[route].placeholders.push(Placeholder {
                    id,
                    thread,
                    lock: open.lock,
                    site: open.site,
                    acquire_index,
                    enter_time: at,
                    depth: open.depth,
                });
            }
        }

        // Phase B.3: route closed sections in id order. Within one lock the
        // worker sees them in exactly the batch engine's candidate order.
        closed_now.sort_unstable();
        for (id, slot) in closed_now {
            self.closed_global[id.index()] = true;
            self.stats.sections += 1;
            let closed = closed_arena[slot as usize]
                .take()
                .expect("each closed section is routed exactly once");
            let route = closed.open.lock.index() % self.workers;
            packets[route].closed.push(ClosedWire {
                id,
                thread: closed.thread,
                lock: closed.open.lock,
                release_index: closed.release_index,
                exit_time: closed.exit_time,
                reads: closed.open.reads,
                writes: closed.open.writes,
                accesses: closed.open.accesses,
                body_cost: closed.open.body_cost,
            });
        }

        self.prev_window_end = Some(chunk.window_end);
        Ok(packets)
    }
}

// ---------------------------------------------------------------------------
// Coordinators: the inline engine, and the steps both modes share.
// ---------------------------------------------------------------------------

/// The inline engine: the calling thread decodes each chunk and hands its
/// one packet straight to a single [`Worker`] whose lanes fork from the
/// caller's sink. No thread is spawned, no channel opened and no shard
/// merged, so the sink need not be `Send`.
pub(crate) fn analyze_inline<Src: EventSource, S: UlcpSink>(
    config: DetectorConfig,
    source: &mut Src,
    sink: S,
) -> Result<StreamingSinkAnalysis<S>, StreamError> {
    let num_threads = source.num_threads();
    let mut decoder = Decoder::new(config, num_threads, 1);
    let mut worker = Worker::new(config, num_threads, sink);
    while let Some(item) = source.next_item()? {
        match item {
            StreamItem::Chunk(chunk) => {
                for packet in decoder.ingest(chunk)? {
                    worker.ingest(packet);
                }
            }
            StreamItem::Gap(gap) => decoder.note_gap(&gap),
        }
    }
    let (root, result) = worker.finish();
    Ok(finish_run(decoder, root, vec![result]))
}

/// Assembles the global section table from the workers' shards. Each shard
/// is ascending (delivery order) and every id lives in exactly one shard,
/// so an id-order merge moves each section once — no scatter through a
/// `Vec<Option<_>>` twice its size.
fn merge_shard_sections(
    mut shards: Vec<Vec<CriticalSection>>,
    total: usize,
) -> Vec<CriticalSection> {
    if shards.len() == 1 {
        // One worker owned every id: its table is already the global one.
        return shards.pop().unwrap_or_default();
    }
    let mut sections: Vec<CriticalSection> = Vec::with_capacity(total);
    // Cursor merge over the shards' `IntoIter`s: `as_slice` peeks by
    // reference (no buffered move) and each round takes the winner's whole
    // run — every section strictly below the runner-up's front id — in one
    // `extend`, so a section moves exactly once.
    let mut heads: Vec<std::vec::IntoIter<CriticalSection>> =
        shards.into_iter().map(Vec::into_iter).collect();
    loop {
        let mut best: Option<(usize, SectionId)> = None;
        let mut runner_up: Option<SectionId> = None;
        for (w, head) in heads.iter().enumerate() {
            let Some(s) = head.as_slice().first() else {
                continue;
            };
            match best {
                Some((_, b)) if s.id > b => {
                    if runner_up.is_none_or(|r| s.id < r) {
                        runner_up = Some(s.id);
                    }
                }
                Some((_, b)) => {
                    runner_up = Some(b);
                    best = Some((w, s.id));
                }
                None => best = Some((w, s.id)),
            }
        }
        let Some((w, id)) = best else { break };
        debug_assert!(
            sections.last().is_none_or(|p| p.id < id),
            "each id is owned by one worker"
        );
        let run = match runner_up {
            None => heads[w].as_slice().len(),
            Some(r) => {
                let pending = heads[w].as_slice();
                let mut n = 1;
                while n < pending.len() && pending[n].id < r {
                    n += 1;
                }
                n
            }
        };
        sections.extend(heads[w].by_ref().take(run));
    }
    sections
}

/// The last step of every run, inline or threaded: assemble the section
/// table, fold the workers' accounting into the decoder's, absorb the
/// per-lock sink shards into the root in ascending lock order, drop sections
/// that never closed (renumbering densely, as the batch extractor would
/// never have emitted them), and seal.
fn finish_run<S: UlcpSink>(
    decoder: Decoder,
    mut root: S,
    mut results: Vec<WorkerResult<S>>,
) -> StreamingSinkAnalysis<S> {
    let shards = results
        .iter_mut()
        .map(|r| std::mem::take(&mut r.sections))
        .collect();
    let mut sections = merge_shard_sections(shards, decoder.next_id as usize);
    assert_eq!(
        sections.len(),
        decoder.next_id as usize,
        "every assigned id was routed to exactly one worker"
    );
    let mut breakdown = UlcpBreakdown {
        lock_acquisitions: decoder.lock_acquisitions,
        ..UlcpBreakdown::default()
    };
    let mut stats = decoder.stats;
    let mut all_sinks: Vec<(LockId, S)> = Vec::new();
    for result in results {
        breakdown.merge_pair_counts(&result.breakdown);
        stats.peak_live_sections += result.peak_live;
        stats.peak_history_entries += result.peak_history;
        stats.peak_live_pairs += result.peak_pairs;
        stats.retired_before_end += result.retired_before_end;
        all_sinks.extend(result.sinks);
    }
    all_sinks.sort_unstable_by_key(|&(lock, _)| lock);
    for (_, shard) in all_sinks {
        root.absorb(shard);
    }
    stats.peak_live_pairs = stats.peak_live_pairs.max(root.resident_entries());

    if decoder.closed_global.iter().any(|&c| !c) {
        let mut remap: Vec<Option<SectionId>> = Vec::with_capacity(sections.len());
        let mut kept = 0u32;
        for &closed in &decoder.closed_global {
            if closed {
                remap.push(Some(SectionId::new(kept)));
                kept += 1;
            } else {
                remap.push(None);
            }
        }
        sections.retain(|s| remap[s.id.index()].is_some());
        for s in &mut sections {
            s.id = remap[s.id.index()].expect("kept section has a mapping");
        }
        root.remap_sections(&remap);
    }
    root.seal(&sections);

    StreamingSinkAnalysis {
        sections,
        breakdown,
        sink: root,
        stats,
    }
}

// ---------------------------------------------------------------------------
// The public detector: coordinator over decoder + workers.
// ---------------------------------------------------------------------------

/// The canonical `(lock, first, second-thread, second)` sort key of one
/// emitted pair, packed into one integer. All four components are `u32`
/// indices, so the packing is order-preserving and comparisons are two
/// word compares instead of a tuple walk with a section-table lookup.
#[inline]
fn pair_key(lock: LockId, first: SectionId, thread: ThreadId, second: SectionId) -> u128 {
    ((lock.index() as u128) << 96)
        | ((first.index() as u128) << 64)
        | ((thread.index() as u128) << 32)
        | second.index() as u128
}

/// Sorts one shard's emissions canonically and appends them to `out`,
/// stripping the captured thread. Each per-chunk sweep emits a lock's pairs
/// in ascending `(first, thread, second)` order, so a shard is a
/// concatenation of roughly one sorted run per chunk; the run-detecting
/// stable sort merges those in `O(log runs)` levels, and because one shard
/// is a fraction of the total pair list, the merge levels run over
/// cache-sized data instead of the whole concatenated output.
///
/// A cheap pre-scan decides the key width: when the shard holds a single
/// lock (structurally true — shards are forked per lock) and every id fits,
/// the key packs `(first, thread, second)` into 64 bits — the lock
/// contributes nothing to the order within one shard — halving the
/// per-comparison cost of the merge. Any shard that fails the check falls
/// back to the full 128-bit `(lock, first, thread, second)` key; both keys
/// order such a shard identically.
fn sort_shard<T: Copy, O>(
    seg: &mut [(T, ThreadId)],
    parts: impl Fn(&T) -> (LockId, SectionId, SectionId),
    strip: impl Fn(&T) -> O,
    out: &mut Vec<O>,
) {
    let Some(&(head, _)) = seg.first() else {
        return;
    };
    let (head_lock, ..) = parts(&head);
    let (mut max_sec, mut max_thread, mut one_lock) = (0usize, 0usize, true);
    for (v, t) in seg.iter() {
        let (lock, first, second) = parts(v);
        max_sec = max_sec.max(first.index()).max(second.index());
        max_thread = max_thread.max(t.index());
        one_lock &= lock == head_lock;
    }
    if one_lock && max_sec < (1 << 24) && max_thread < (1 << 16) {
        seg.sort_by_key(|(v, t)| {
            let (_, first, second) = parts(v);
            ((first.index() as u64) << 40) | ((t.index() as u64) << 24) | second.index() as u64
        });
    } else {
        seg.sort_by_key(|(v, t)| {
            let (lock, first, second) = parts(v);
            pair_key(lock, first, *t, second)
        });
    }
    out.extend(seg.iter().map(|(v, _)| strip(v)));
}

/// Merges the maximal ascending runs of one segment in a single output
/// pass, via a classic loser tree over the run heads. The per-chunk sweep
/// emits each lane's pairs in ascending canonical order, so a segment is a
/// concatenation of roughly one sorted run per chunk; merging the recorded
/// runs directly replaces the seal-time comparison sort — `log₂(runs)`
/// comparisons and **one** move per pair instead of a multi-level merge
/// sort that re-copies the whole segment at every level.
///
/// Generic over the key width so the packed (`u64`) and wide (`u128`)
/// segment representations share the tree. `starts` holds the begin offset
/// of every run (`starts[0] == 0`); `key_at`/`take` index the segment's
/// `n` entries. Keys are unique (a pair is classified exactly once), so
/// tie-breaking never arises on real entries.
fn merge_runs_by<K: Copy + Ord>(
    n: usize,
    starts: &[u32],
    max_key: K,
    key_at: impl Fn(usize) -> K,
    mut take: impl FnMut(usize),
) {
    let nruns = starts.len();
    debug_assert!(nruns >= 2 && starts[0] == 0);
    let k = nruns.next_power_of_two();
    let mut cur = vec![0usize; k];
    let mut end = vec![0usize; k];
    let mut keys = vec![max_key; k];
    for i in 0..nruns {
        cur[i] = starts[i] as usize;
        end[i] = starts.get(i + 1).map_or(n, |&s| s as usize);
        if cur[i] < end[i] {
            keys[i] = key_at(cur[i]);
        }
    }
    // Build the tree: `winner_of` is scaffolding, `loser[node]` survives.
    let mut loser = vec![0usize; k];
    let mut winner_of = vec![0usize; 2 * k];
    for (i, slot) in winner_of[k..].iter_mut().enumerate() {
        *slot = i;
    }
    for node in (1..k).rev() {
        let (a, b) = (winner_of[2 * node], winner_of[2 * node + 1]);
        let (w, l) = if keys[a] <= keys[b] { (a, b) } else { (b, a) };
        winner_of[node] = w;
        loser[node] = l;
    }
    // Termination is by count, not by sentinel, so a real key equal to
    // `max_key` can never truncate the output.
    //
    // The pop loop also tracks `rival`, the runner-up head: by the
    // tournament invariant the second-smallest head lost a match directly
    // against the winner's chain, so it is the minimum of the recorded
    // losers on the **winner's** leaf-to-root path — recomputed after every
    // replay, because the new winner may emerge from a stored loser whose
    // path diverges from the replayed leaf's. While the winner run's next
    // key stays below `rival`, that run keeps winning and the replay is
    // skipped — consecutive keys cluster within one run (a run is one
    // chunk's ascending sweep), so most pops take this one-compare path
    // instead of the `log₂(runs)` replay.
    let path_min = |w: usize, keys: &[K], loser: &[usize]| {
        let mut node = (k + w) / 2;
        let mut m = max_key;
        while node >= 1 {
            let key = keys[loser[node]];
            if key < m {
                m = key;
            }
            node /= 2;
        }
        m
    };
    let mut w = winner_of[1];
    let mut rival = path_min(w, &keys, &loser);
    let mut produced = 0usize;
    while produced < n {
        loop {
            debug_assert!(cur[w] < end[w], "the winner run is non-empty");
            take(cur[w]);
            produced += 1;
            cur[w] += 1;
            keys[w] = if cur[w] < end[w] {
                key_at(cur[w])
            } else {
                max_key
            };
            if keys[w] >= rival {
                break;
            }
        }
        if produced >= n {
            break;
        }
        // Replay the leaf-to-root path: the new head competes against the
        // recorded losers; whoever survives is the next overall winner.
        let mut node = (k + w) / 2;
        let mut cand = w;
        while node >= 1 {
            if keys[loser[node]] < keys[cand] {
                std::mem::swap(&mut loser[node], &mut cand);
            }
            node /= 2;
        }
        w = cand;
        rival = path_min(w, &keys, &loser);
    }
}

/// Largest section index (exclusive) a packed entry can hold. One below the
/// 24-bit field capacity so a packed key can never equal `u64::MAX` (which
/// [`merge_runs_by`] uses as its exhausted-run filler).
const PACK_MAX_SECTION: usize = (1 << 24) - 1;
/// Largest second-thread index (exclusive) a packed entry can hold.
const PACK_MAX_THREAD: usize = 1 << 16;

/// Packs `(first, second-thread, second)` into the 24/16/24-bit fields of a
/// `u64`. Within a single-lock lane this orders identically to [`pair_key`]
/// whenever all three components fit their fields.
#[inline]
fn pack64(first: SectionId, thread: ThreadId, second: SectionId) -> u64 {
    ((first.index() as u64) << 40) | ((thread.index() as u64) << 24) | second.index() as u64
}

#[inline]
fn unpack64(key: u64) -> (SectionId, ThreadId, SectionId) {
    (
        SectionId::new((key >> 40) as u32),
        ThreadId::new(((key >> 24) & 0xFFFF) as u32),
        SectionId::new((key & 0xFF_FFFF) as u32),
    )
}

/// One absorbed lane's emissions plus the start offsets of its maximal
/// ascending runs (by canonical key). Runs are detected at emission time —
/// one key comparison per pair — so [`seal`](UlcpSink::seal) can merge
/// instead of sort.
///
/// Storage is packed while it can be: a lane is forked per lock, and ids in
/// any realistic stream fit the [`pack64`] fields, so a pair is stored as a
/// `u64` key plus a one-byte kind (9 bytes, split across two dense arrays)
/// instead of a 20-byte `(Ulcp, ThreadId)` tuple. Emission is the hottest
/// memory path in the engine — the pair population is ~60× the section
/// population on contended traces — so halving its footprint pays for
/// itself, and seal-time merge comparisons shrink from `u128` to `u64`.
/// The first pair that cannot pack (a second lock in the lane, or an
/// oversized id) demotes the whole lane to the wide tuple form; packing is
/// an encoding choice only, the pair order is identical in both modes.
#[derive(Debug)]
struct RunSegment {
    /// The lane's lock; meaningful once the first packed entry exists.
    lock: LockId,
    /// Packed entries ([`pack64`]); exclusive with `wide`.
    keys: Vec<u64>,
    /// `kinds[i]` belongs to `keys[i]`.
    kinds: Vec<UlcpKind>,
    /// Fallback entries; non-empty only after demotion.
    wide: Vec<(Ulcp, ThreadId)>,
    /// Begin offset of every ascending run; `[0]` once non-empty.
    runs: Vec<u32>,
    last_key: u128,
}

impl Default for RunSegment {
    fn default() -> Self {
        RunSegment {
            lock: LockId::new(0),
            keys: Vec::new(),
            kinds: Vec::new(),
            wide: Vec::new(),
            runs: Vec::new(),
            last_key: 0,
        }
    }
}

impl RunSegment {
    fn len(&self) -> usize {
        self.keys.len() + self.wide.len()
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.wide.is_empty()
    }

    fn push(&mut self, ulcp: Ulcp, second_thread: ThreadId) {
        if self.wide.is_empty() {
            if (self.keys.is_empty() || ulcp.lock == self.lock)
                && ulcp.first.index() < PACK_MAX_SECTION
                && ulcp.second.index() < PACK_MAX_SECTION
                && second_thread.index() < PACK_MAX_THREAD
            {
                // Packed path: within one lock the u64 key orders exactly
                // like the canonical key, so run detection compares it
                // directly and never forms the 128-bit key at all.
                let key = pack64(ulcp.first, second_thread, ulcp.second);
                if self.runs.is_empty() || key < self.last_key as u64 {
                    self.runs.push(self.keys.len() as u32);
                }
                self.last_key = u128::from(key);
                self.lock = ulcp.lock;
                self.keys.push(key);
                self.kinds.push(ulcp.kind);
                return;
            }
            self.demote();
        }
        let key = pair_key(ulcp.lock, ulcp.first, second_thread, ulcp.second);
        if self.runs.is_empty() || key < self.last_key {
            self.runs.push(self.len() as u32);
        }
        self.last_key = key;
        self.wide.push((ulcp, second_thread));
    }

    /// Converts every packed entry to the wide form, preserving order.
    fn demote(&mut self) {
        self.wide.reserve(self.keys.len());
        let lock = self.lock;
        for (&key, &kind) in self.keys.iter().zip(&self.kinds) {
            let (first, thread, second) = unpack64(key);
            self.wide.push((
                Ulcp {
                    first,
                    second,
                    lock,
                    kind,
                },
                thread,
            ));
        }
        // The stored key was the packed form; re-express it canonically so
        // the next (wide) comparison detects run boundaries correctly.
        if let Some(&last) = self.keys.last() {
            let (first, thread, second) = unpack64(last);
            self.last_key = pair_key(self.lock, first, thread, second);
        }
        self.keys = Vec::new();
        self.kinds = Vec::new();
    }

    /// Appends this lane's pairs to `out` in canonical order, merging the
    /// recorded runs when there is more than one.
    fn seal_into(self, out: &mut Vec<Ulcp>) {
        let RunSegment {
            lock,
            keys,
            kinds,
            wide,
            runs,
            ..
        } = self;
        if wide.is_empty() {
            let rebuild = |i: usize| {
                let (first, _, second) = unpack64(keys[i]);
                Ulcp {
                    first,
                    second,
                    lock,
                    kind: kinds[i],
                }
            };
            if runs.len() <= 1 {
                out.extend((0..keys.len()).map(rebuild));
            } else {
                merge_runs_by(
                    keys.len(),
                    &runs,
                    u64::MAX,
                    |i| keys[i],
                    |i| out.push(rebuild(i)),
                );
            }
        } else if runs.len() <= 1 {
            out.extend(wide.into_iter().map(|(u, _)| u));
        } else {
            merge_runs_by(
                wide.len(),
                &runs,
                u128::MAX,
                |i| {
                    let (u, t) = wide[i];
                    pair_key(u.lock, u.first, t, u.second)
                },
                |i| out.push(wide[i].0),
            );
        }
    }
}

/// [`CollectPairs`](crate::CollectPairs) specialized for the parallel
/// engine's shard structure. Each forked shard records its own emissions
/// with the second section's thread captured inline (the canonical sort key
/// needs it, and capturing it at emission avoids a section-table lookup per
/// key computation later) and tracks its ascending-run boundaries. The root
/// sink keeps absorbed shards segmented instead of concatenating them;
/// because shards arrive one per lock in ascending lock order, their key
/// ranges are disjoint and ascending, so [`seal`](UlcpSink::seal) merges
/// each shard's recorded runs independently ([`merge_runs`]) and writes the
/// final canonical `Vec<Ulcp>` in a single output pass.
#[derive(Debug, Default)]
struct OrderedPairs {
    /// This shard's own emissions, in emission order, with run boundaries.
    local: RunSegment,
    local_edges: Vec<(CausalEdge, ThreadId)>,
    /// Absorbed shards, one per lock, in ascending lock order.
    segments: Vec<RunSegment>,
    edge_segments: Vec<Vec<(CausalEdge, ThreadId)>>,
    /// The canonical outputs, populated by [`seal`](UlcpSink::seal).
    ulcps: Vec<Ulcp>,
    edges: Vec<CausalEdge>,
}

impl UlcpSink for OrderedPairs {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        self.local.push(ulcp, ctx.second.thread);
    }

    fn emit_threaded(&mut self, ulcp: Ulcp, second_thread: ThreadId, _ctx: &SectionCtx<'_>) {
        self.local.push(ulcp, second_thread);
    }

    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.local_edges.push((edge, ctx.second.thread));
    }

    fn fork(&self) -> Self {
        OrderedPairs::default()
    }

    fn absorb(&mut self, mut shard: Self) {
        self.segments.append(&mut shard.segments);
        if !shard.local.is_empty() {
            self.segments.push(shard.local);
        }
        self.edge_segments.append(&mut shard.edge_segments);
        if !shard.local_edges.is_empty() {
            self.edge_segments.push(shard.local_edges);
        }
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        // Compaction renumbers ids monotonically (and only ever downward),
        // so every recorded run stays ascending under the remap and every
        // packed entry stays packable; only the ids change.
        let map = |id: SectionId| remap[id.index()].expect("paired section survives compaction");
        for seg in self.segments.iter_mut().chain([&mut self.local]) {
            for key in &mut seg.keys {
                let (first, thread, second) = unpack64(*key);
                *key = pack64(map(first), thread, map(second));
            }
            for (u, _) in &mut seg.wide {
                u.first = map(u.first);
                u.second = map(u.second);
            }
        }
        for (e, _) in self
            .edge_segments
            .iter_mut()
            .flatten()
            .chain(&mut self.local_edges)
        {
            e.from = map(e.from);
            e.to = map(e.to);
        }
    }

    fn seal(&mut self, _sections: &[CriticalSection]) {
        let segments = std::mem::take(&mut self.segments);
        let local = std::mem::take(&mut self.local);
        let total = segments.iter().map(RunSegment::len).sum::<usize>() + local.len();
        let mut ulcps = Vec::with_capacity(total);
        for seg in segments.into_iter().chain([local]) {
            seg.seal_into(&mut ulcps);
        }
        self.ulcps = ulcps;
        let edge_segments = std::mem::take(&mut self.edge_segments);
        let local_edges = std::mem::take(&mut self.local_edges);
        let total = edge_segments.iter().map(Vec::len).sum::<usize>() + local_edges.len();
        let mut edges = Vec::with_capacity(total);
        for mut seg in edge_segments.into_iter().chain([local_edges]) {
            sort_shard(&mut seg, |e| (e.lock, e.from, e.to), |e| *e, &mut edges);
        }
        self.edges = edges;
    }

    fn resident_entries(&self) -> usize {
        self.segments.iter().map(RunSegment::len).sum::<usize>()
            + self.edge_segments.iter().map(Vec::len).sum::<usize>()
            + self.local.len()
            + self.local_edges.len()
            + self.ulcps.len()
            + self.edges.len()
    }
}

/// PerfPlay's ULCP identification stage over a chunked event stream, fanned
/// out across sharded per-lock worker threads.
///
/// The reader/decoder stage runs on the calling thread. At one worker the
/// calling thread also runs the pairing (the inline mode
/// [`StreamingDetector`](crate::StreamingDetector) uses); with `workers > 1`
/// that many OS threads each own the locks with
/// `lock.index() % workers == worker`. Output is **bit-identical** to
/// [`Detector::analyze`](crate::Detector::analyze) at every worker count:
/// ids, pair order after sealing, breakdown and section table all match
/// exactly.
///
/// Peak-state accounting ([`StreamingStats`]) is exact at one worker; with
/// more it reports worker peaks *summed*, an upper bound on the true
/// simultaneous peak that stays bounded by the chunk size.
#[derive(Debug, Clone)]
pub struct ParallelStreamingDetector {
    config: DetectorConfig,
    workers: usize,
}

impl ParallelStreamingDetector {
    /// Creates a parallel streaming detector with one worker per available
    /// core. `config.parallel` is irrelevant here — this *is* the parallel
    /// path.
    pub fn new(config: DetectorConfig) -> Self {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        ParallelStreamingDetector { config, workers }
    }

    /// Creates a parallel streaming detector with an explicit worker count
    /// (clamped to at least 1).
    pub fn with_workers(config: DetectorConfig, workers: usize) -> Self {
        ParallelStreamingDetector {
            config,
            workers: workers.max(1),
        }
    }

    /// The number of worker threads this detector fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Consumes the source to exhaustion and returns the analysis,
    /// bit-identical to [`Detector::analyze`] over the same events.
    ///
    /// # Errors
    ///
    /// Propagates source errors and rejects streams that violate the chunk
    /// contract or per-thread timestamp monotonicity — the same conditions,
    /// with the same error values, at every worker count.
    ///
    /// [`Detector::analyze`]: crate::Detector::analyze
    pub fn analyze<Src: EventSource>(
        &self,
        source: &mut Src,
    ) -> Result<StreamingAnalysis, StreamError> {
        let result = self.analyze_with(source, OrderedPairs::default())?;
        Ok(StreamingAnalysis {
            analysis: UlcpAnalysis {
                sections: result.sections,
                ulcps: result.sink.ulcps,
                edges: result.sink.edges,
                breakdown: result.breakdown,
            },
            stats: result.stats,
        })
    }

    /// Consumes the source to exhaustion, emitting every classified pair
    /// through per-lock forked shards of the caller's sink. Shards are
    /// absorbed back in ascending lock order and sealed once, so an
    /// order-preserving sink ends up with the exact canonical output.
    ///
    /// At one worker this runs the inline engine on the calling thread;
    /// otherwise the sink must be `Send` because its forked shards live on
    /// the worker threads. Sinks that cannot be sent use
    /// [`StreamingDetector::analyze_with`], which is always inline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    ///
    /// [`StreamingDetector::analyze_with`]: crate::StreamingDetector::analyze_with
    pub fn analyze_with<Src: EventSource, S: UlcpSink + Send>(
        &self,
        source: &mut Src,
        sink: S,
    ) -> Result<StreamingSinkAnalysis<S>, StreamError> {
        if self.workers == 1 {
            return analyze_inline(self.config, source, sink);
        }
        let workers = self.workers;
        let num_threads = source.num_threads();
        let config = self.config;
        let protos: Vec<S> = (0..workers).map(|_| sink.fork()).collect();
        let mut decoder = Decoder::new(config, num_threads, workers);

        let (outcome, joined) = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for (i, proto) in protos.into_iter().enumerate() {
                let (tx, rx) = sync_channel::<Msg>(CHANNEL_DEPTH);
                senders.push(tx);
                let handle = std::thread::Builder::new()
                    .name(format!("pstream-w{i}"))
                    .spawn_scoped(scope, move || run_worker(config, num_threads, rx, proto))
                    .expect("worker thread spawns");
                handles.push(handle);
            }
            let outcome = (|| -> Result<(), StreamError> {
                while let Some(item) = source.next_item()? {
                    match item {
                        StreamItem::Chunk(chunk) => {
                            let packets = decoder.ingest(chunk)?;
                            for (tx, packet) in senders.iter().zip(packets) {
                                tx.send(Msg::Chunk(packet)).map_err(|_| worker_died())?;
                            }
                        }
                        StreamItem::Gap(gap) => decoder.note_gap(&gap),
                    }
                }
                for tx in &senders {
                    tx.send(Msg::Finish).map_err(|_| worker_died())?;
                }
                Ok(())
            })();
            // Dropping the senders disconnects the channels, so on the error
            // path workers wake up, discard their state and exit.
            drop(senders);
            let mut joined = Vec::with_capacity(workers);
            for handle in handles {
                match handle.join() {
                    Ok(result) => joined.push(result),
                    // Re-raise a worker panic as itself, not as a join error:
                    // the real cause must surface.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (outcome, joined)
        });
        outcome?;
        let results = joined
            .into_iter()
            .map(|r| r.expect("workers receive Finish on the success path"))
            .collect();
        Ok(finish_run(decoder, sink, results))
    }

    /// Convenience wrapper: streams an in-memory trace through a
    /// [`TraceChunks`] adapter with the given chunk size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_trace(
        &self,
        trace: &Trace,
        chunk_events: usize,
    ) -> Result<StreamingAnalysis, StreamError> {
        self.analyze(&mut TraceChunks::new(trace, chunk_events))
    }

    /// Convenience wrapper: [`analyze_with`](Self::analyze_with) over a
    /// [`TraceChunks`] adapter with the given chunk size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_trace_with<S: UlcpSink + Send>(
        &self,
        trace: &Trace,
        chunk_events: usize,
        sink: S,
    ) -> Result<StreamingSinkAnalysis<S>, StreamError> {
        self.analyze_with(&mut TraceChunks::new(trace, chunk_events), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{BodyOverlapGain, SiteAggregator};
    use crate::{Detector, StreamingDetector};
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;
    use perfplay_trace::{ThreadSpan, TimedEvent, TraceMeta};

    fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new("pstream-test");
        build(&mut b);
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    /// Every worker count pinned against the batch engine: the full
    /// analysis, and the stream-level accounting against what the chunk
    /// adapter actually delivers.
    fn assert_identical(
        trace: &Trace,
        config: DetectorConfig,
        chunk_events: usize,
        workers: usize,
    ) {
        let batch = Detector::new(config).analyze(trace);
        let streamed = ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace(trace, chunk_events)
            .unwrap();
        let label = format!("chunk={chunk_events} workers={workers}");
        assert_eq!(batch.sections, streamed.analysis.sections, "{label}");
        assert_eq!(batch.ulcps, streamed.analysis.ulcps, "{label}");
        assert_eq!(batch.edges, streamed.analysis.edges, "{label}");
        assert_eq!(batch.breakdown, streamed.analysis.breakdown, "{label}");

        let mut source = TraceChunks::new(trace, chunk_events);
        let (mut chunks, mut peak_chunk) = (0usize, 0usize);
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks += 1;
            peak_chunk = peak_chunk.max(chunk.num_events());
        }
        let stats = streamed.stats;
        assert_eq!(stats.chunks, chunks, "{label}");
        assert_eq!(stats.events, trace.num_events(), "{label}");
        assert_eq!(stats.sections, batch.sections.len(), "{label}");
        assert_eq!(stats.peak_chunk_events, peak_chunk, "{label}");
        assert_eq!((stats.gaps, stats.events_lost), (0, 0), "{label}");
    }

    fn mixed_trace() -> Trace {
        record(|b| {
            let locks: Vec<_> = (0..3).map(|i| b.lock(format!("l{i}"))).collect();
            let objs: Vec<_> = (0..5)
                .map(|i| b.shared(format!("o{i}"), i as i64))
                .collect();
            let site = b.site("s.c", "f", 1);
            for t in 0..3 {
                let locks = locks.clone();
                let objs = objs.clone();
                b.thread(format!("t{t}"), |tb| {
                    for k in 0..6usize {
                        let lock = locks[k % locks.len()];
                        let obj = objs[(t + k) % objs.len()];
                        tb.locked(lock, site, |cs| match k % 4 {
                            0 => {
                                cs.read(obj);
                            }
                            1 => {
                                cs.write_set(obj, 1);
                            }
                            2 => {
                                cs.write_add(obj, 1);
                            }
                            _ => {
                                cs.compute_ns(10);
                            }
                        });
                        tb.compute_ns(25);
                    }
                });
            }
        })
    }

    #[test]
    fn every_worker_count_matches_batch_across_chunk_sizes() {
        let trace = mixed_trace();
        for chunk_events in [1, 2, 3, 7, 16, 64, 100_000] {
            for workers in [1, 2, 3, 5] {
                assert_identical(&trace, DetectorConfig::default(), chunk_events, workers);
            }
        }
    }

    #[test]
    fn every_worker_count_matches_batch_with_scan_cap_and_ablation() {
        let trace = mixed_trace();
        for config in [
            DetectorConfig {
                max_scan_per_thread: Some(2),
                ..DetectorConfig::default()
            },
            DetectorConfig {
                use_reversed_replay: false,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                max_scan_per_thread: Some(1),
                use_reversed_replay: false,
                ..DetectorConfig::default()
            },
        ] {
            for chunk_events in [1, 5, 33] {
                for workers in [1, 2, 3] {
                    assert_identical(&trace, config, chunk_events, workers);
                }
            }
        }
    }

    #[test]
    fn scan_cap_cutoffs_match_batch_at_every_chunk_size() {
        // One reader against a run of later sections on another thread: the
        // search from the first section is cut by the cap, and sweeping the
        // chunk size moves that cutoff across every chunk boundary.
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("cap.c", "f", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(100);
            });
            b.thread("t1", |t| {
                t.compute_us(10);
                t.loop_n(5, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                    l.compute_ns(30);
                });
            });
        });
        for cap in 1..=4usize {
            let config = DetectorConfig {
                max_scan_per_thread: Some(cap),
                ..DetectorConfig::default()
            };
            let batch = Detector::new(config).analyze(&trace);
            assert_eq!(batch.ulcps.len(), cap, "the cap bounds the one search");
            for chunk_events in 1..=trace.num_events() {
                for workers in [1, 2] {
                    assert_identical(&trace, config, chunk_events, workers);
                }
            }
        }
    }

    #[test]
    fn benign_pairs_survive_streaming_state_reconstruction() {
        // The benign check queries shadow memory at the first section's
        // enter time — long before the pair is classified — through the
        // pruned, slot-indexed history.
        let trace = record(|b| {
            let lock = b.lock("m");
            let flag = b.shared("done", 0);
            let site = b.site("bw.c", "set_done", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.compute_ns(10 + i as u64 * 500);
                    t.locked(lock, site, |cs| {
                        cs.write_set(flag, 1);
                    });
                    t.compute_ns(300);
                });
            }
        });
        for chunk_events in [1, 2, 8] {
            for workers in [1, 2] {
                assert_identical(&trace, DetectorConfig::default(), chunk_events, workers);
            }
        }
        let inline = StreamingDetector::default()
            .analyze_trace(&trace, 2)
            .unwrap();
        assert_eq!(inline.analysis.breakdown.benign, 1);
    }

    #[test]
    fn site_aggregator_shards_merge_identically() {
        // Inline the lanes fork from the caller's sink; threaded they fork
        // from per-worker prototypes that were themselves forked (fork of a
        // fork). Both must fold to the batch engine's table.
        let trace = mixed_trace();
        let config = DetectorConfig::default();
        let batch =
            Detector::new(config).analyze_with(&trace, SiteAggregator::new(BodyOverlapGain));
        let inline = StreamingDetector::new(config)
            .analyze_trace_with(&trace, 16, SiteAggregator::new(BodyOverlapGain))
            .unwrap();
        let threaded = ParallelStreamingDetector::with_workers(config, 3)
            .analyze_trace_with(&trace, 16, SiteAggregator::new(BodyOverlapGain))
            .unwrap();
        let expected = batch.sink.finish();
        for (label, run) in [("inline", inline), ("threaded", threaded)] {
            assert_eq!(run.breakdown, batch.breakdown, "{label}");
            assert_eq!(run.sections, batch.sections, "{label}");
            assert_eq!(run.sink.finish(), expected, "{label}");
        }
    }

    #[test]
    fn resident_state_stays_bounded_with_a_scan_cap() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("rr.c", "reader", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(60, |l| {
                        l.locked(lock, site, |cs| {
                            cs.read(x);
                            cs.compute_ns(100);
                        });
                        l.compute_ns(50);
                    });
                });
            }
        });
        let config = DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        };
        for workers in [1, 2] {
            let streamed = ParallelStreamingDetector::with_workers(config, workers)
                .analyze_trace(&trace, 16)
                .unwrap();
            let total = streamed.analysis.sections.len();
            assert_eq!(total, 120);
            assert!(
                streamed.stats.peak_live_sections < total / 2,
                "peak live {} should be far below {total}",
                streamed.stats.peak_live_sections
            );
            assert!(streamed.stats.retired_before_end > 0);
            assert_eq!(streamed.stats.events, trace.num_events());
            assert_eq!(streamed.stats.sections, total);
            assert_identical(&trace, config, 16, workers);
        }
    }

    #[test]
    fn history_prunes_old_writes() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("w.c", "writer", 1);
            b.thread("t0", |t| {
                t.loop_n(50, |l| {
                    l.locked(lock, site, |cs| {
                        cs.write_add(x, 1);
                    });
                    l.compute_ns(40);
                });
            });
        });
        let streamed = StreamingDetector::default()
            .analyze_trace(&trace, 8)
            .unwrap();
        // Single thread: no pairs, sections retire immediately, and the
        // write log never accumulates the full 50-write history.
        assert!(streamed.stats.peak_history_entries < 20);
        assert!(streamed.analysis.ulcps.is_empty());
    }

    #[test]
    fn single_thread_trace_has_no_pairs() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("w.c", "writer", 1);
            b.thread("t0", |t| {
                t.loop_n(20, |l| {
                    l.locked(lock, site, |cs| {
                        cs.write_add(x, 1);
                    });
                    l.compute_ns(40);
                });
            });
        });
        for workers in [1, 3] {
            assert_identical(&trace, DetectorConfig::default(), 8, workers);
            let streamed =
                ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                    .analyze_trace(&trace, 8)
                    .unwrap();
            assert!(streamed.analysis.ulcps.is_empty());
            assert_eq!(streamed.analysis.sections.len(), 20);
        }
    }

    #[test]
    fn never_closed_sections_are_compacted_away() {
        // Cut thread 0 off mid-section: its last acquire never releases, so
        // the engine assigns it an id, pairs around it, and must drop it and
        // renumber every later section exactly as the batch extractor (which
        // only emits completed sections) numbers them.
        let mut trace = mixed_trace();
        let events = &mut trace.threads[0].events;
        let last_release = events
            .iter()
            .rposition(|e| matches!(e.event, Event::LockRelease { .. }))
            .unwrap();
        let mid_acquire = events[..last_release]
            .iter()
            .rposition(|e| matches!(e.event, Event::LockAcquire { .. }))
            .unwrap();
        events.truncate(mid_acquire + 1);
        let batch = Detector::default().analyze(&trace);
        assert!(
            batch.breakdown.lock_acquisitions > batch.sections.len(),
            "an acquire is left unreleased"
        );
        for chunk_events in [1, 4, 16, 100_000] {
            for workers in [1, 2] {
                assert_identical(&trace, DetectorConfig::default(), chunk_events, workers);
            }
        }
    }

    /// An in-memory source replaying a fixed item list, for hand-built
    /// streams that break (or stretch) the chunk contract.
    struct Items {
        meta: TraceMeta,
        num_threads: usize,
        items: std::vec::IntoIter<StreamItem>,
    }

    impl Items {
        fn new(num_threads: usize, items: Vec<StreamItem>) -> Self {
            Items {
                meta: TraceMeta::default(),
                num_threads,
                items: items.into_iter(),
            }
        }
    }

    impl EventSource for Items {
        fn meta(&self) -> &TraceMeta {
            &self.meta
        }

        fn num_threads(&self) -> usize {
            self.num_threads
        }

        fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError> {
            loop {
                match self.items.next() {
                    Some(StreamItem::Chunk(chunk)) => return Ok(Some(chunk)),
                    Some(StreamItem::Gap(_)) => continue,
                    None => return Ok(None),
                }
            }
        }

        fn next_item(&mut self) -> Result<Option<StreamItem>, StreamError> {
            Ok(self.items.next())
        }
    }

    /// `(thread, base index, [(timestamp in ns, event)])` of one span.
    type SpanSpec = (u32, usize, Vec<(u64, Event)>);

    fn chunk(seq: u64, window_end: u64, spans: Vec<SpanSpec>) -> StreamItem {
        StreamItem::Chunk(TraceChunk {
            seq,
            window_end: Time::from_nanos(window_end),
            spans: spans
                .into_iter()
                .map(|(thread, base_index, events)| ThreadSpan {
                    thread: ThreadId::new(thread),
                    base_index,
                    events: events
                        .into_iter()
                        .map(|(at, event)| TimedEvent::new(Time::from_nanos(at), event))
                        .collect(),
                })
                .collect(),
            grants: Vec::new(),
        })
    }

    fn gap(events_lost: u64) -> StreamItem {
        StreamItem::Gap(StreamGap {
            chunk_index: 1,
            line: 3,
            offset: 0,
            events_lost,
            cause: Box::new(StreamError::Format("lost record".into())),
        })
    }

    fn compute(ns: u64) -> Event {
        Event::Compute {
            cost: Time::from_nanos(ns),
        }
    }

    /// Runs a hand-built stream through the inline and the threaded engine
    /// and returns the (identical) outcome.
    fn run_items(
        num_threads: usize,
        items: Vec<StreamItem>,
    ) -> Result<StreamingAnalysis, StreamError> {
        let inline =
            StreamingDetector::default().analyze(&mut Items::new(num_threads, items.clone()));
        let threaded = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 2)
            .analyze(&mut Items::new(num_threads, items));
        match (&inline, &threaded) {
            (Ok(a), Ok(b)) => assert_eq!(a.analysis, b.analysis),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("engines disagree: {inline:?} vs {threaded:?}"),
        }
        inline
    }

    #[test]
    fn contract_violations_are_exact_error_values() {
        let fmt = |m: &str| Err::<(), _>(StreamError::Format(m.into()));
        let cases: Vec<(Vec<StreamItem>, Result<(), StreamError>)> = vec![
            (
                vec![chunk(
                    0,
                    10,
                    vec![(1, 0, vec![(5, compute(1))]), (0, 0, vec![(5, compute(1))])],
                )],
                fmt("chunk 0 spans not in ascending thread order"),
            ),
            (
                vec![chunk(0, 10, vec![(2, 0, vec![(5, compute(1))])])],
                fmt("span for out-of-range thread T2"),
            ),
            (
                vec![chunk(0, 10, vec![(0, 3, vec![(5, compute(1))])])],
                fmt("non-contiguous span for T0: base 3 but 0 events seen"),
            ),
            (
                vec![chunk(0, 10, vec![(0, 0, vec![(11, compute(1))])])],
                fmt("event 0 of T0 at 11ns is outside chunk 0's window"),
            ),
            (
                vec![
                    chunk(0, 10, vec![(0, 0, vec![(5, compute(1))])]),
                    chunk(1, 10, vec![(0, 1, vec![(10, compute(1))])]),
                ],
                fmt("chunk 1 window 10ns does not advance past 10ns"),
            ),
            (
                vec![chunk(
                    0,
                    10,
                    vec![(1, 0, vec![(6, compute(1)), (5, compute(1))])],
                )],
                Err(StreamError::Trace(TraceError::NonMonotonicTime {
                    thread: ThreadId::new(1),
                    event_index: 1,
                })),
            ),
            (
                vec![
                    chunk(0, 10, vec![(0, 0, vec![(5, compute(1)), (6, compute(1))])]),
                    gap(3),
                    chunk(2, 30, vec![(0, 1, vec![(25, compute(1))])]),
                ],
                fmt("span for T0 rewinds across a gap: base 1 but 2 events seen"),
            ),
        ];
        for (items, expected) in cases {
            let got = run_items(2, items).map(|_| ());
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn a_gap_allows_one_forward_jump_per_thread() {
        let acquire = |l: u32| Event::LockAcquire {
            lock: LockId::new(l),
            site: CodeSiteId::new(0),
        };
        let release = |l: u32| Event::LockRelease {
            lock: LockId::new(l),
        };
        // Thread 0 loses events 2..5 in the gap and resumes at index 5;
        // thread 1 resumes contiguously. Strict checking is back after the
        // jump: a second skip without a gap is an error.
        let clean = vec![
            chunk(
                0,
                10,
                vec![
                    (0, 0, vec![(2, acquire(0)), (3, release(0))]),
                    (1, 0, vec![(4, acquire(0))]),
                ],
            ),
            gap(3),
            chunk(
                2,
                30,
                vec![
                    (0, 5, vec![(21, acquire(0)), (22, release(0))]),
                    (1, 1, vec![(23, release(0))]),
                ],
            ),
        ];
        let streamed = run_items(2, clean.clone()).unwrap();
        assert_eq!(streamed.stats.gaps, 1);
        assert_eq!(streamed.stats.events_lost, 3);
        assert_eq!(streamed.stats.events, 6);
        assert_eq!(streamed.analysis.sections.len(), 3);
        assert_eq!(
            streamed.analysis.sections[2].acquire_index, 5,
            "original numbering kept"
        );

        let mut skipped = clean;
        skipped.push(chunk(3, 40, vec![(0, 9, vec![(35, compute(1))])]));
        assert_eq!(
            run_items(2, skipped).unwrap_err(),
            StreamError::Format("non-contiguous span for T0: base 9 but 7 events seen".into())
        );
    }

    /// Source adapter yielding the first chunk twice: its window no longer
    /// advances, which must be rejected with the exact contract error.
    struct DupFirst<'a> {
        inner: TraceChunks<'a>,
        dup: Option<TraceChunk>,
        state: u8,
    }

    impl<'a> DupFirst<'a> {
        fn new(trace: &'a Trace, chunk_events: usize) -> Self {
            DupFirst {
                inner: TraceChunks::new(trace, chunk_events),
                dup: None,
                state: 0,
            }
        }
    }

    impl EventSource for DupFirst<'_> {
        fn meta(&self) -> &TraceMeta {
            self.inner.meta()
        }

        fn num_threads(&self) -> usize {
            self.inner.num_threads()
        }

        fn next_chunk(&mut self) -> Result<Option<TraceChunk>, StreamError> {
            match self.state {
                0 => {
                    let first = self.inner.next_chunk()?;
                    self.dup.clone_from(&first);
                    self.state = 1;
                    Ok(first)
                }
                1 => {
                    self.state = 2;
                    Ok(self.dup.take())
                }
                _ => self.inner.next_chunk(),
            }
        }
    }

    #[test]
    fn malformed_stream_is_rejected() {
        let trace = mixed_trace();
        let first = TraceChunks::new(&trace, 8).next_chunk().unwrap().unwrap();
        let expected = StreamError::Format(format!(
            "chunk {} window {} does not advance past {}",
            first.seq, first.window_end, first.window_end
        ));
        for workers in [1, 2] {
            let err = ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                .analyze(&mut DupFirst::new(&trace, 8))
                .unwrap_err();
            assert_eq!(err, expected, "workers={workers}");
        }
    }

    #[test]
    fn non_monotonic_thread_times_are_reported() {
        let mut trace = mixed_trace();
        let n = trace.threads[1].events.len();
        trace.threads[1].events[n - 2].at = Time::ZERO;
        for workers in [1, 2] {
            let err = ParallelStreamingDetector::with_workers(DetectorConfig::default(), workers)
                .analyze_trace(&trace, 1_000_000)
                .unwrap_err();
            assert_eq!(
                err,
                StreamError::Trace(TraceError::NonMonotonicTime {
                    thread: ThreadId::new(1),
                    event_index: n - 2,
                }),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn summary_fast_path_agrees_with_classify_by_sets() {
        // Pairs drawn from a trace with overlapping and disjoint footprints:
        // whenever the fast path answers, the full classifier must agree.
        let trace = mixed_trace();
        let analysis = Detector::default().analyze(&trace);
        let mut checked = 0usize;
        for (i, a) in analysis.sections.iter().enumerate() {
            for b in analysis.sections.iter().skip(i + 1) {
                let ka = PairKey {
                    reads: a.reads.summary(),
                    writes: a.writes.summary(),
                };
                let kb = PairKey {
                    reads: b.reads.summary(),
                    writes: b.writes.summary(),
                };
                if let Some(fast) = fast_classify(ka, kb) {
                    assert_eq!(fast, crate::classify::classify_by_sets(a, b));
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "fast path never applied");
    }
}
