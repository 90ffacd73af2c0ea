//! PBIN — the versioned binary chunk-file format.
//!
//! A PBIN file carries exactly the same record stream as the JSON-lines
//! format (`Header`, `Chunk`*, `Trailer`) in a compact, length-prefixed
//! binary framing:
//!
//! ```text
//! file    := prelude frame*
//! prelude := magic "PBIN" (4) | version u16 LE | reserved u16 LE
//! frame   := marker (4) | kind u8 | len u32 LE | payload (len) | crc32 u32 LE
//! ```
//!
//! * `kind` is 0 (header), 1 (chunk) or 2 (trailer);
//! * `len` is the payload length, sanity-capped so a corrupt length can
//!   never drive an unbounded allocation;
//! * `crc32` (IEEE, hand-rolled table) covers `kind | len | payload`, so a
//!   single flipped bit anywhere in a frame is always detected;
//! * the `marker` exists purely for resynchronization: after a corrupt
//!   frame, the scanner scans forward for the next marker — the binary
//!   analogue of skipping to the next newline in a JSON-lines file.
//!
//! Payloads are hand-rolled varint/zigzag records (LEB128-style, no serde
//! in the loop): strings are length-prefixed UTF-8, timestamps are absolute
//! varint nanoseconds (deliberately not deltas — injected fault mutations
//! may regress timestamps, and the codec must round-trip those too), and
//! events are a one-byte tag plus their fields.
//!
//! [`PbinScanner`] is the reading half: it decodes frames out of one reused
//! buffer (no per-record `String` / `serde_json::Value` allocations) and
//! reports records with the same `(ordinal, offset, bytes)` coordinates the
//! JSON scanner reports `(line, offset, bytes)`, so located errors,
//! [`StreamGap`](crate::StreamGap) accounting and lint diagnostics are
//! format-agnostic. The file prelude is accounted to the first record: a
//! clean file's record extents tile the whole file.

use std::io::{BufReader, Read};
use std::path::Path;

use crate::event::{Event, LockGrant, TimedEvent, WriteOp};
use crate::ids::{BarrierId, CodeSiteId, CondId, LockId, ObjectId, ThreadId};
use crate::site::{CodeSite, SiteTable};
use crate::stream::{
    ChunkFileHeader, ChunkFileRecord, ChunkFileTrailer, RawRecord, StreamError, ThreadSpan,
    TraceChunk,
};
use crate::time::Time;
use crate::trace::TraceMeta;

/// File magic: the first four bytes of every PBIN chunk file.
pub const MAGIC: [u8; 4] = *b"PBIN";

/// Current format version, written into (and required from) the prelude.
pub const FORMAT_VERSION: u16 = 1;

/// Byte length of the file prelude (magic + version + reserved).
pub const PRELUDE_LEN: usize = 8;

/// Frame marker preceding every record; scanning for it resynchronizes the
/// reader after a corrupt frame, like a newline does for JSON-lines.
const FRAME_MARKER: [u8; 4] = [0xF7, 0x50, 0x42, 0xF7];

/// marker + kind + len.
const FRAME_HEAD_LEN: usize = 9;

const KIND_HEADER: u8 = 0;
const KIND_CHUNK: u8 = 1;
const KIND_TRAILER: u8 = 2;

/// Sanity cap on one frame's payload: a corrupt length field must never
/// drive an unbounded read or allocation.
pub(crate) const MAX_PAYLOAD: usize = 1 << 28;

/// Most elements a decoded count may reserve up front. A count is only
/// checked against the remaining payload bytes, and a decoded element is
/// far larger than its one-byte minimum encoding, so reserving the full
/// count would let a CRC-valid frame under [`MAX_PAYLOAD`] claim gigabytes
/// it never fills. Past this cap the `Vec` grows as elements actually
/// decode. Large enough that the 4,096-event chunks the writers produce
/// never reallocate.
const MAX_PREALLOC: usize = 1 << 16;
const _: () = assert!(
    MAX_PREALLOC >= 1 << 16,
    "writer-sized chunks never reallocate"
);

/// An empty `Vec` sized for a decoded element count, bounded by
/// [`MAX_PREALLOC`].
fn with_count_capacity<T>(count: usize) -> Vec<T> {
    Vec::with_capacity(count.min(MAX_PREALLOC))
}

/// Returns the 8-byte file prelude for the current format version.
pub fn file_prelude() -> [u8; PRELUDE_LEN] {
    let mut p = [0u8; PRELUDE_LEN];
    p[0..4].copy_from_slice(&MAGIC);
    p[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    p
}

/// On-disk chunk-file format: human-readable JSON-lines or the compact PBIN
/// binary framing. Readers autodetect by magic bytes ([`detect`](Self::detect));
/// writers pick by extension ([`for_path`](Self::for_path)) unless overridden.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ChunkFormat {
    /// One JSON [`ChunkFileRecord`] per line.
    #[default]
    Json,
    /// Length-prefixed, CRC-framed binary records (this module).
    Pbin,
}

impl ChunkFormat {
    /// Canonical short name (also the preferred file extension).
    pub fn name(self) -> &'static str {
        match self {
            ChunkFormat::Json => "jsonl",
            ChunkFormat::Pbin => "pbin",
        }
    }

    /// Parses a user-supplied format name (`json`, `jsonl`, `pbin`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "json" | "jsonl" => Some(ChunkFormat::Json),
            "pbin" => Some(ChunkFormat::Pbin),
            _ => None,
        }
    }

    /// Maps a file extension to a format, if recognized.
    pub fn from_extension(ext: &str) -> Option<Self> {
        Self::parse(ext)
    }

    /// Picks the format for a path by extension; unknown or missing
    /// extensions default to JSON-lines (the historical format).
    pub fn for_path(path: impl AsRef<Path>) -> Self {
        path.as_ref()
            .extension()
            .and_then(|e| e.to_str())
            .and_then(Self::from_extension)
            .unwrap_or(ChunkFormat::Json)
    }

    /// Detects the format of an existing file by its magic bytes: a file
    /// beginning with `PBIN` is binary, anything else (including files
    /// shorter than the magic) is JSON-lines.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened or its first bytes cannot be read.
    pub fn detect(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        let mut file = std::fs::File::open(&path).map_err(StreamError::from)?;
        let mut magic = [0u8; 4];
        let mut n = 0;
        while n < magic.len() {
            match file.read(&mut magic[n..]) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StreamError::from(e)),
            }
        }
        if n == magic.len() && magic == MAGIC {
            Ok(ChunkFormat::Pbin)
        } else {
            Ok(ChunkFormat::Json)
        }
    }

    /// Bytes a writer must emit before the first record (empty for JSON).
    pub fn prelude(self) -> Vec<u8> {
        match self {
            ChunkFormat::Json => Vec::new(),
            ChunkFormat::Pbin => file_prelude().to_vec(),
        }
    }

    /// Appends one encoded record (newline-terminated JSON line, or a PBIN
    /// frame) to `out`.
    ///
    /// # Errors
    ///
    /// Fails if a JSON record does not serialize (which no well-formed
    /// [`ChunkFileRecord`] can trigger) or its line would exceed
    /// [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES), which no reader accepts;
    /// the binary encoder is infallible.
    pub fn encode_record(
        self,
        record: &ChunkFileRecord,
        out: &mut Vec<u8>,
    ) -> Result<(), StreamError> {
        match self {
            ChunkFormat::Json => {
                let json = serde_json::to_string(record).map_err(|e| {
                    StreamError::Format(format!("record does not serialize: {}", e.0))
                })?;
                if json.len() >= crate::MAX_LINE_BYTES {
                    return Err(StreamError::Format(format!(
                        "record of {} bytes exceeds the {}-byte line limit; write smaller chunks",
                        json.len() + 1,
                        crate::MAX_LINE_BYTES
                    )));
                }
                out.extend_from_slice(json.as_bytes());
                out.push(b'\n');
            }
            ChunkFormat::Pbin => encode_frame(record, out),
        }
        Ok(())
    }
}

impl std::fmt::Display for ChunkFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — hand-rolled, no crate.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives.
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Borrowing decode cursor over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("payload ends early at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err("varint longer than 10 bytes".into());
            }
        }
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(unzigzag(self.varint()?))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.varint()?).map_err(|_| "count does not fit in usize".to_string())
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.varint()?).map_err(|_| "id does not fit in u32".to_string())
    }

    fn time(&mut self) -> Result<Time, String> {
        Ok(Time::from_nanos(self.varint()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("string of {len} bytes overruns payload"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|e| format!("string is not UTF-8: {e}"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    /// Reads an element count about to drive a `Vec` reservation; it must be
    /// backed by at least one payload byte per element. The reservation
    /// itself is further capped by [`with_count_capacity`].
    fn counted(&mut self, what: &str) -> Result<usize, String> {
        let count = self.usize()?;
        if count > self.buf.len().saturating_sub(self.pos) {
            return Err(format!(
                "{what} count {count} exceeds remaining payload bytes"
            ));
        }
        Ok(count)
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after record payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Record payload codecs.
// ---------------------------------------------------------------------------

const TAG_COMPUTE: u8 = 0;
const TAG_LOCK_ACQUIRE: u8 = 1;
const TAG_LOCK_RELEASE: u8 = 2;
const TAG_READ: u8 = 3;
const TAG_WRITE: u8 = 4;
const TAG_COND_WAIT: u8 = 5;
const TAG_COND_SIGNAL: u8 = 6;
const TAG_BARRIER_WAIT: u8 = 7;
const TAG_SKIP_REGION: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;
const TAG_THREAD_EXIT: u8 = 10;

fn encode_event(out: &mut Vec<u8>, te: &TimedEvent) {
    put_varint(out, te.at.as_nanos());
    match &te.event {
        Event::Compute { cost } => {
            out.push(TAG_COMPUTE);
            put_varint(out, cost.as_nanos());
        }
        Event::LockAcquire { lock, site } => {
            out.push(TAG_LOCK_ACQUIRE);
            put_varint(out, u64::from(lock.raw()));
            put_varint(out, u64::from(site.raw()));
        }
        Event::LockRelease { lock } => {
            out.push(TAG_LOCK_RELEASE);
            put_varint(out, u64::from(lock.raw()));
        }
        Event::Read { obj, value } => {
            out.push(TAG_READ);
            put_varint(out, obj.raw());
            put_i64(out, *value);
        }
        Event::Write { obj, op, value } => {
            out.push(TAG_WRITE);
            put_varint(out, obj.raw());
            match op {
                WriteOp::Set(v) => {
                    out.push(0);
                    put_i64(out, *v);
                }
                WriteOp::Add(d) => {
                    out.push(1);
                    put_i64(out, *d);
                }
            }
            put_i64(out, *value);
        }
        Event::CondWait { cond, lock } => {
            out.push(TAG_COND_WAIT);
            put_varint(out, cond.index() as u64);
            put_varint(out, u64::from(lock.raw()));
        }
        Event::CondSignal { cond, broadcast } => {
            out.push(TAG_COND_SIGNAL);
            put_varint(out, cond.index() as u64);
            out.push(u8::from(*broadcast));
        }
        Event::BarrierWait { barrier } => {
            out.push(TAG_BARRIER_WAIT);
            put_varint(out, barrier.index() as u64);
        }
        Event::SkipRegion { site, saved_cost } => {
            out.push(TAG_SKIP_REGION);
            put_varint(out, u64::from(site.raw()));
            put_varint(out, saved_cost.as_nanos());
        }
        Event::Checkpoint { id } => {
            out.push(TAG_CHECKPOINT);
            put_varint(out, u64::from(*id));
        }
        Event::ThreadExit => out.push(TAG_THREAD_EXIT),
    }
}

fn decode_event(cur: &mut Cur<'_>) -> Result<TimedEvent, String> {
    let at = cur.time()?;
    let event = match cur.u8()? {
        TAG_COMPUTE => Event::Compute { cost: cur.time()? },
        TAG_LOCK_ACQUIRE => Event::LockAcquire {
            lock: LockId::new(cur.u32()?),
            site: CodeSiteId::new(cur.u32()?),
        },
        TAG_LOCK_RELEASE => Event::LockRelease {
            lock: LockId::new(cur.u32()?),
        },
        TAG_READ => Event::Read {
            obj: ObjectId::new(cur.varint()?),
            value: cur.i64()?,
        },
        TAG_WRITE => {
            let obj = ObjectId::new(cur.varint()?);
            let op = match cur.u8()? {
                0 => WriteOp::Set(cur.i64()?),
                1 => WriteOp::Add(cur.i64()?),
                t => return Err(format!("unknown write-op tag {t}")),
            };
            Event::Write {
                obj,
                op,
                value: cur.i64()?,
            }
        }
        TAG_COND_WAIT => Event::CondWait {
            cond: CondId::new(cur.u32()?),
            lock: LockId::new(cur.u32()?),
        },
        TAG_COND_SIGNAL => Event::CondSignal {
            cond: CondId::new(cur.u32()?),
            broadcast: cur.u8()? != 0,
        },
        TAG_BARRIER_WAIT => Event::BarrierWait {
            barrier: BarrierId::new(cur.u32()?),
        },
        TAG_SKIP_REGION => Event::SkipRegion {
            site: CodeSiteId::new(cur.u32()?),
            saved_cost: cur.time()?,
        },
        TAG_CHECKPOINT => Event::Checkpoint { id: cur.u32()? },
        TAG_THREAD_EXIT => Event::ThreadExit,
        t => return Err(format!("unknown event tag {t}")),
    };
    Ok(TimedEvent { at, event })
}

fn encode_header(out: &mut Vec<u8>, h: &ChunkFileHeader) {
    put_str(out, &h.meta.program);
    put_varint(out, h.meta.num_threads as u64);
    put_varint(out, h.meta.num_locks as u64);
    put_varint(out, h.meta.num_objects as u64);
    put_str(out, &h.meta.input);
    put_varint(out, h.num_threads as u64);
    put_varint(out, h.sites.len() as u64);
    for (_, site) in h.sites.iter() {
        put_str(out, &site.file);
        put_str(out, &site.function);
        put_varint(out, u64::from(site.line));
    }
}

fn decode_header(payload: &[u8]) -> Result<ChunkFileHeader, String> {
    let mut cur = Cur::new(payload);
    let meta = TraceMeta {
        program: cur.str()?,
        num_threads: cur.usize()?,
        num_locks: cur.usize()?,
        num_objects: cur.usize()?,
        input: cur.str()?,
    };
    let num_threads = cur.usize()?;
    let site_count = cur.counted("site")?;
    let mut sites = SiteTable::new();
    for _ in 0..site_count {
        let file = cur.str()?;
        let function = cur.str()?;
        let line = cur.u32()?;
        sites.intern(CodeSite::new(file, function, line));
    }
    cur.finish()?;
    Ok(ChunkFileHeader {
        meta,
        num_threads,
        sites,
    })
}

fn encode_chunk(out: &mut Vec<u8>, c: &TraceChunk) {
    put_varint(out, c.seq);
    put_varint(out, c.window_end.as_nanos());
    put_varint(out, c.spans.len() as u64);
    for span in &c.spans {
        put_varint(out, u64::from(span.thread.raw()));
        put_varint(out, span.base_index as u64);
        put_varint(out, span.events.len() as u64);
        for te in &span.events {
            encode_event(out, te);
        }
    }
    put_varint(out, c.grants.len() as u64);
    for g in &c.grants {
        put_varint(out, g.seq);
        put_varint(out, u64::from(g.lock.raw()));
        put_varint(out, u64::from(g.thread.raw()));
        put_varint(out, g.event_index as u64);
        put_varint(out, g.at.as_nanos());
    }
}

fn decode_chunk(payload: &[u8]) -> Result<TraceChunk, String> {
    let mut cur = Cur::new(payload);
    let seq = cur.varint()?;
    let window_end = cur.time()?;
    let span_count = cur.counted("span")?;
    let mut spans = with_count_capacity(span_count);
    for _ in 0..span_count {
        let thread = ThreadId::new(cur.u32()?);
        let base_index = cur.usize()?;
        let event_count = cur.counted("event")?;
        let mut events = with_count_capacity(event_count);
        for _ in 0..event_count {
            events.push(decode_event(&mut cur)?);
        }
        spans.push(ThreadSpan {
            thread,
            base_index,
            events,
        });
    }
    let grant_count = cur.counted("grant")?;
    let mut grants = with_count_capacity(grant_count);
    for _ in 0..grant_count {
        grants.push(LockGrant {
            seq: cur.varint()?,
            lock: LockId::new(cur.u32()?),
            thread: ThreadId::new(cur.u32()?),
            event_index: cur.usize()?,
            at: cur.time()?,
        });
    }
    cur.finish()?;
    Ok(TraceChunk {
        seq,
        window_end,
        spans,
        grants,
    })
}

fn encode_trailer(out: &mut Vec<u8>, t: &ChunkFileTrailer) {
    put_varint(out, t.total_time.as_nanos());
    put_varint(out, t.finish_times.len() as u64);
    for ft in &t.finish_times {
        put_varint(out, ft.as_nanos());
    }
    put_varint(out, t.chunks);
    put_varint(out, t.events);
}

fn decode_trailer(payload: &[u8]) -> Result<ChunkFileTrailer, String> {
    let mut cur = Cur::new(payload);
    let total_time = cur.time()?;
    let count = cur.counted("finish-time")?;
    let mut finish_times = with_count_capacity(count);
    for _ in 0..count {
        finish_times.push(cur.time()?);
    }
    let chunks = cur.varint()?;
    let events = cur.varint()?;
    cur.finish()?;
    Ok(ChunkFileTrailer {
        total_time,
        finish_times,
        chunks,
        events,
    })
}

/// Appends one framed record (marker, kind, length, payload, CRC) to `out`.
pub fn encode_frame(record: &ChunkFileRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MARKER);
    let kind = match record {
        ChunkFileRecord::Header(_) => KIND_HEADER,
        ChunkFileRecord::Chunk(_) => KIND_CHUNK,
        ChunkFileRecord::Trailer(_) => KIND_TRAILER,
    };
    out.push(kind);
    out.extend_from_slice(&[0u8; 4]); // length, backfilled below
    let body = out.len();
    match record {
        ChunkFileRecord::Header(h) => encode_header(out, h),
        ChunkFileRecord::Chunk(c) => encode_chunk(out, c),
        ChunkFileRecord::Trailer(t) => encode_trailer(out, t),
    }
    let len = (out.len() - body) as u32;
    out[start + 5..start + 9].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<ChunkFileRecord, String> {
    match kind {
        KIND_HEADER => decode_header(payload).map(ChunkFileRecord::Header),
        KIND_CHUNK => decode_chunk(payload).map(ChunkFileRecord::Chunk),
        KIND_TRAILER => decode_trailer(payload).map(ChunkFileRecord::Trailer),
        k => Err(format!("unknown record kind {k}")),
    }
}

/// CRC-checks and decodes one framed payload — the decode half of record
/// scanning, shared by the sequential scanner and the pipelined decode
/// workers. The CRC input is rebuilt from `kind` and the payload length,
/// which is byte-identical to the on-disk `kind | len | payload` region the
/// writer checksummed, so the verdict (and the error message) matches the
/// single-threaded scanner exactly.
pub(crate) fn decode_checked_payload(
    kind: u8,
    stored: u32,
    payload: &[u8],
    ordinal: usize,
) -> Result<ChunkFileRecord, StreamError> {
    let len_le = (payload.len() as u32).to_le_bytes();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in std::iter::once(&kind)
        .chain(len_le.iter())
        .chain(payload.iter())
    {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    let computed = !crc;
    if stored != computed {
        return Err(StreamError::Parse {
            line: ordinal,
            message: format!("frame CRC mismatch: stored {stored:08x}, computed {computed:08x}"),
        });
    }
    decode_payload(kind, payload).map_err(|message| StreamError::Parse {
        line: ordinal,
        message,
    })
}

// ---------------------------------------------------------------------------
// Scanner.
// ---------------------------------------------------------------------------

/// Buffered byte reader with pushback, tracking the absolute file offset of
/// the next unread byte.
#[derive(Debug)]
struct ByteReader {
    inner: BufReader<std::fs::File>,
    pushback: Vec<u8>,
    pushback_pos: usize,
    pos: u64,
}

impl ByteReader {
    /// Reads until `buf` is full or EOF; returns the bytes read.
    fn read_up_to(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut n = 0;
        while n < buf.len() && self.pushback_pos < self.pushback.len() {
            buf[n] = self.pushback[self.pushback_pos];
            self.pushback_pos += 1;
            n += 1;
        }
        if self.pushback_pos == self.pushback.len() {
            self.pushback.clear();
            self.pushback_pos = 0;
        }
        while n < buf.len() {
            match self.inner.read(&mut buf[n..]) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.pos += n as u64;
        Ok(n)
    }

    /// Returns already-read bytes to the front of the stream.
    fn push_back(&mut self, bytes: &[u8]) {
        let mut v = bytes.to_vec();
        v.extend_from_slice(&self.pushback[self.pushback_pos..]);
        self.pushback = v;
        self.pushback_pos = 0;
        self.pos -= bytes.len() as u64;
    }
}

/// One raw frame surfaced by [`PbinScanner::next_frame`]: the framing-stage
/// view of a record — exact file coordinates plus either an undecoded
/// payload (CRC not yet checked) or the framing-level failure. This is the
/// unit of work the pipelined reader hands to its decode workers.
#[derive(Debug)]
pub(crate) struct PbinFrame {
    /// 1-based record ordinal.
    pub ordinal: usize,
    /// Byte offset of the record's start (the file prelude is accounted to
    /// the first record).
    pub offset: u64,
    /// Total byte extent of the record.
    pub bytes: u64,
    /// What the framing walk found.
    pub body: PbinFrameBody,
}

/// Outcome of walking one frame without decoding it.
#[derive(Debug)]
pub(crate) enum PbinFrameBody {
    /// A structurally complete frame: the caller's buffer holds the payload
    /// bytes; CRC verification and payload decoding are still pending
    /// ([`decode_checked_payload`]).
    Payload {
        /// Record kind byte from the frame header.
        kind: u8,
        /// CRC stored in the frame, to be checked against the payload.
        stored_crc: u32,
    },
    /// A framing-level failure (bad prelude, truncation, I/O error, or a
    /// resynchronization skip), already shaped as the record error the
    /// sequential scanner would report.
    Failed(StreamError),
}

fn failed_frame(ordinal: usize, offset: u64, bytes: u64, error: StreamError) -> PbinFrame {
    PbinFrame {
        ordinal,
        offset,
        bytes,
        body: PbinFrameBody::Failed(error),
    }
}

fn parse_failed(ordinal: usize, offset: u64, bytes: u64, message: String) -> PbinFrame {
    failed_frame(
        ordinal,
        offset,
        bytes,
        StreamError::Parse {
            line: ordinal,
            message,
        },
    )
}

/// Frame-by-frame scanner of a PBIN chunk file: the binary counterpart of
/// the JSON-lines scanner. Decode failures are data, not stream terminators
/// — the scanner resynchronizes on the next frame marker and keeps going.
/// Only I/O errors end the scan (the stream position is unknowable past a
/// failed read), mirroring the JSON behaviour.
#[derive(Debug)]
pub struct PbinScanner {
    input: ByteReader,
    ordinal: usize,
    prelude_pending: bool,
    scratch: Vec<u8>,
    done: bool,
}

impl PbinScanner {
    /// Opens a PBIN file for scanning.
    ///
    /// # Errors
    ///
    /// Fails only if the file cannot be opened; everything else — a bad
    /// prelude included — is reported through [`next_record`](Self::next_record).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        let file = std::fs::File::open(&path).map_err(StreamError::from)?;
        Ok(PbinScanner {
            input: ByteReader {
                inner: BufReader::new(file),
                pushback: Vec::new(),
                pushback_pos: 0,
                pos: 0,
            },
            ordinal: 0,
            prelude_pending: true,
            scratch: Vec::new(),
            done: false,
        })
    }

    /// Whether the last frame ended the scan (I/O error, truncation, bad
    /// prelude, or EOF during resynchronization) — the framing-stage view of
    /// the sequential scanner's stop condition.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Consumes bytes until the next frame marker (pushed back for the next
    /// call) or EOF, and reports the skipped region as one parse-error
    /// frame.
    fn resync(&mut self, ordinal: usize, start: u64, reason: String) -> PbinFrame {
        let mut window = [0u8; 4];
        let mut filled = 0usize;
        loop {
            let mut b = [0u8; 1];
            match self.input.read_up_to(&mut b) {
                Err(e) => {
                    self.done = true;
                    let bytes = self.input.pos - start;
                    return failed_frame(ordinal, start, bytes, StreamError::Io(e.to_string()));
                }
                Ok(0) => {
                    self.done = true;
                    break;
                }
                Ok(_) => {
                    window.rotate_left(1);
                    window[3] = b[0];
                    filled += 1;
                    if filled >= 4 && window == FRAME_MARKER {
                        self.input.push_back(&FRAME_MARKER);
                        break;
                    }
                }
            }
        }
        let bytes = self.input.pos - start;
        parse_failed(ordinal, start, bytes, reason)
    }

    /// Walks to the next frame boundary without CRC-checking or decoding the
    /// payload — the framing stage of the pipelined reader. On a
    /// [`PbinFrameBody::Payload`] outcome the payload bytes are left in
    /// `payload` (resized to exactly the payload length); resynchronization,
    /// truncation and I/O handling are identical to the sequential scanner,
    /// so frame coordinates and framing errors cannot diverge between the
    /// two paths. Returns `None` at a clean end of file.
    pub(crate) fn next_frame(&mut self, payload: &mut Vec<u8>) -> Option<PbinFrame> {
        if self.done {
            return None;
        }
        // The prelude is validated lazily and accounted to the first record,
        // so a clean file's record extents tile the whole file.
        let mut prelude_bytes = 0u64;
        if self.prelude_pending {
            self.prelude_pending = false;
            let mut prelude = [0u8; PRELUDE_LEN];
            match self.input.read_up_to(&mut prelude) {
                Err(e) => {
                    self.done = true;
                    return Some(failed_frame(1, 0, 0, StreamError::Io(e.to_string())));
                }
                Ok(n) if n < PRELUDE_LEN => {
                    self.done = true;
                    return Some(parse_failed(
                        1,
                        0,
                        n as u64,
                        format!("truncated PBIN prelude: {n} of {PRELUDE_LEN} bytes"),
                    ));
                }
                Ok(_) => {}
            }
            if prelude[0..4] != MAGIC {
                self.done = true;
                return Some(failed_frame(
                    1,
                    0,
                    PRELUDE_LEN as u64,
                    StreamError::Format("not a PBIN chunk file: bad magic".into()),
                ));
            }
            let version = u16::from_le_bytes([prelude[4], prelude[5]]);
            if version != FORMAT_VERSION {
                self.done = true;
                return Some(failed_frame(
                    1,
                    0,
                    PRELUDE_LEN as u64,
                    StreamError::Format(format!(
                        "unsupported PBIN version {version} (supported: {FORMAT_VERSION})"
                    )),
                ));
            }
            prelude_bytes = PRELUDE_LEN as u64;
        }
        let frame_start = self.input.pos;
        let start = frame_start - prelude_bytes;
        let ordinal = self.ordinal + 1;
        let mut head = [0u8; FRAME_HEAD_LEN];
        let n = match self.input.read_up_to(&mut head) {
            Err(e) => {
                self.done = true;
                return Some(failed_frame(
                    ordinal,
                    start,
                    prelude_bytes,
                    StreamError::Io(e.to_string()),
                ));
            }
            Ok(n) => n,
        };
        if n == 0 && prelude_bytes == 0 {
            self.done = true;
            return None; // clean EOF at a frame boundary
        }
        self.ordinal = ordinal;
        if n < FRAME_HEAD_LEN {
            self.done = true;
            return Some(parse_failed(
                ordinal,
                start,
                prelude_bytes + n as u64,
                format!("truncated frame header: {n} of {FRAME_HEAD_LEN} bytes"),
            ));
        }
        let len = u32::from_le_bytes([head[5], head[6], head[7], head[8]]) as usize;
        let kind = head[4];
        if head[0..4] != FRAME_MARKER || kind > KIND_TRAILER || len > MAX_PAYLOAD {
            // The frame header cannot be trusted (the length may be the
            // corrupt field); rescan from the next byte for the marker.
            self.input.push_back(&head[1..]);
            let reason = if head[0..4] != FRAME_MARKER {
                "bad frame marker".to_string()
            } else if kind > KIND_TRAILER {
                format!("bad record kind {kind} in frame header")
            } else {
                format!("implausible frame length {len}")
            };
            return Some(self.resync(ordinal, start, reason));
        }
        payload.resize(len + 4, 0);
        let got = match self.input.read_up_to(payload) {
            Err(e) => {
                self.done = true;
                return Some(failed_frame(
                    ordinal,
                    start,
                    prelude_bytes + FRAME_HEAD_LEN as u64,
                    StreamError::Io(e.to_string()),
                ));
            }
            Ok(g) => g,
        };
        if got < len + 4 {
            self.done = true;
            return Some(parse_failed(
                ordinal,
                start,
                prelude_bytes + (FRAME_HEAD_LEN + got) as u64,
                format!("truncated frame: {got} of {} payload bytes", len + 4),
            ));
        }
        let total = prelude_bytes + (FRAME_HEAD_LEN + len + 4) as u64;
        let stored_crc = u32::from_le_bytes([
            payload[len],
            payload[len + 1],
            payload[len + 2],
            payload[len + 3],
        ]);
        payload.truncate(len);
        Some(PbinFrame {
            ordinal,
            offset: start,
            bytes: total,
            body: PbinFrameBody::Payload { kind, stored_crc },
        })
    }

    /// Pulls the next record, or `None` at a clean end of file: the framing
    /// walk ([`next_frame`](Self::next_frame)) plus the CRC check and
    /// payload decode, out of one reused buffer.
    pub fn next_record(&mut self) -> Option<RawRecord> {
        let mut payload = std::mem::take(&mut self.scratch);
        let frame = self.next_frame(&mut payload);
        self.scratch = payload;
        let frame = frame?;
        let record = match frame.body {
            PbinFrameBody::Failed(e) => Err(e),
            PbinFrameBody::Payload { kind, stored_crc } => {
                decode_checked_payload(kind, stored_crc, &self.scratch, frame.ordinal)
            }
        };
        Some(RawRecord {
            line: frame.ordinal,
            offset: frame.offset,
            bytes: frame.bytes,
            record,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn hostile_counts_fail_without_reserving_their_claim() {
        // Each count claims one element per remaining payload byte — the
        // most the byte check admits — over a payload of zeros, so the
        // decode must run out of bytes (or fail validation) long before it
        // could fill a full-count reservation.
        assert!(with_count_capacity::<TimedEvent>(usize::MAX).capacity() < MAX_PREALLOC * 2);
        let filler = 1usize << 20;
        let prefixes: [&[u64]; 3] = [
            &[0, 0],          // seq, window; span count follows
            &[0, 0, 1, 0, 0], // one span of thread 0 at base 0; event count follows
            &[0, 0, 0],       // no spans; grant count follows
        ];
        for prefix in prefixes {
            let mut payload = Vec::new();
            for &v in prefix {
                put_varint(&mut payload, v);
            }
            put_varint(&mut payload, filler as u64);
            payload.resize(payload.len() + filler, 0);
            assert!(decode_chunk(&payload).is_err(), "prefix {prefix:?}");
        }
        let mut trailer = Vec::new();
        put_varint(&mut trailer, 0);
        put_varint(&mut trailer, filler as u64);
        trailer.resize(trailer.len() + filler / 2, 0);
        assert!(decode_trailer(&trailer).is_err());
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn zigzag_roundtrips_signed_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.i64().unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut cur = Cur::new(&buf);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn every_event_variant_roundtrips() {
        let events = [
            Event::Compute {
                cost: Time::from_nanos(400),
            },
            Event::LockAcquire {
                lock: LockId::new(3),
                site: CodeSiteId::new(7),
            },
            Event::LockRelease {
                lock: LockId::new(3),
            },
            Event::Read {
                obj: ObjectId::new(u64::MAX),
                value: i64::MIN,
            },
            Event::Write {
                obj: ObjectId::new(9),
                op: WriteOp::Set(-5),
                value: -5,
            },
            Event::Write {
                obj: ObjectId::new(9),
                op: WriteOp::Add(i64::MAX),
                value: 12,
            },
            Event::CondWait {
                cond: CondId::new(1),
                lock: LockId::new(0),
            },
            Event::CondSignal {
                cond: CondId::new(1),
                broadcast: true,
            },
            Event::BarrierWait {
                barrier: BarrierId::new(2),
            },
            Event::SkipRegion {
                site: CodeSiteId::new(0),
                saved_cost: Time::MAX,
            },
            Event::Checkpoint { id: u32::MAX },
            Event::ThreadExit,
        ];
        for event in events {
            let te = TimedEvent::new(Time::MAX, event);
            let mut buf = Vec::new();
            encode_event(&mut buf, &te);
            let mut cur = Cur::new(&buf);
            assert_eq!(decode_event(&mut cur).unwrap(), te);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn frames_roundtrip_all_record_kinds() {
        let mut sites = SiteTable::new();
        sites.intern(CodeSite::new("fil0fil.cc", "fil_flush", 5473));
        let header = ChunkFileRecord::Header(ChunkFileHeader {
            meta: TraceMeta {
                program: "pbzip2".into(),
                num_threads: 4,
                num_locks: 2,
                num_objects: 8,
                input: "simlarge".into(),
            },
            num_threads: 4,
            sites,
        });
        let chunk = ChunkFileRecord::Chunk(TraceChunk {
            seq: 0,
            window_end: Time::from_nanos(1000),
            spans: vec![ThreadSpan {
                thread: ThreadId::new(1),
                base_index: 42,
                events: vec![TimedEvent::new(
                    Time::from_nanos(999),
                    Event::Read {
                        obj: ObjectId::new(3),
                        value: -7,
                    },
                )],
            }],
            grants: vec![LockGrant {
                seq: 5,
                lock: LockId::new(1),
                thread: ThreadId::new(1),
                event_index: 42,
                at: Time::from_nanos(998),
            }],
        });
        let trailer = ChunkFileRecord::Trailer(ChunkFileTrailer {
            total_time: Time::from_nanos(12345),
            finish_times: vec![Time::from_nanos(12), Time::MAX],
            chunks: 1,
            events: 1,
        });
        for record in [header, chunk, trailer] {
            let mut buf = Vec::new();
            encode_frame(&record, &mut buf);
            assert_eq!(&buf[0..4], &FRAME_MARKER);
            let kind = buf[4];
            let len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
            assert_eq!(buf.len(), FRAME_HEAD_LEN + len + 4);
            let payload = &buf[FRAME_HEAD_LEN..FRAME_HEAD_LEN + len];
            assert_eq!(decode_payload(kind, payload).unwrap(), record);
            let stored = u32::from_le_bytes([
                buf[FRAME_HEAD_LEN + len],
                buf[FRAME_HEAD_LEN + len + 1],
                buf[FRAME_HEAD_LEN + len + 2],
                buf[FRAME_HEAD_LEN + len + 3],
            ]);
            assert_eq!(stored, crc32(&buf[4..FRAME_HEAD_LEN + len]));
        }
    }

    #[test]
    fn any_single_bit_flip_in_a_frame_is_detected() {
        let record = ChunkFileRecord::Trailer(ChunkFileTrailer {
            total_time: Time::from_nanos(7),
            finish_times: vec![Time::from_nanos(7)],
            chunks: 0,
            events: 0,
        });
        let mut clean = Vec::new();
        encode_frame(&record, &mut clean);
        // Flipping any payload/kind/len bit must change the CRC; flipping a
        // CRC bit must mismatch the computed one.
        for byte in 4..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let len = u32::from_le_bytes([corrupt[5], corrupt[6], corrupt[7], corrupt[8]]);
                if len as usize != clean.len() - FRAME_HEAD_LEN - 4 {
                    continue; // length field flip: caught by framing instead
                }
                let body_end = clean.len() - 4;
                let stored = u32::from_le_bytes([
                    corrupt[body_end],
                    corrupt[body_end + 1],
                    corrupt[body_end + 2],
                    corrupt[body_end + 3],
                ]);
                assert_ne!(
                    stored,
                    crc32(&corrupt[4..body_end]),
                    "flip of bit {bit} in byte {byte} went undetected"
                );
            }
        }
    }
}
