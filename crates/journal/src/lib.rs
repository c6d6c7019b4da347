//! Durable append-only journal for the adaptation subsystem.
//!
//! A process crash must not cost the predictor its learned state: labelled
//! checkpoints, model-generation publishes, threshold re-derivations and
//! discovered partitions are appended here *before* they mutate in-memory
//! state, so a restart can replay the log and resume where the dead
//! process stopped — and an offline reader can re-run the recorded stream
//! under a different policy ("what-if" analysis).
//!
//! # On-disk format
//!
//! A journal is a directory of numbered segment files
//! (`segment-00000000.ajl`, `segment-00000001.ajl`, …). Each segment
//! starts with a 16-byte header:
//!
//! ```text
//! [magic "AJL1": 4][format version: u32 LE][first seq: u64 LE]
//! ```
//!
//! followed by length-prefixed frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][seq: u64 LE][payload: len − 8 bytes]
//! ```
//!
//! `len` covers the seq and payload; the CRC-32 (IEEE) likewise. Sequence
//! numbers are strictly monotone across segments — a reader rejects any
//! out-of-order frame as corruption. Writes are appended with **batched
//! fsync** (every [`JournalOptions::fsync_every`] records, plus on
//! rotation and explicit [`Journal::sync`]); a crash can therefore lose a
//! bounded tail, never tear the middle. On open, the writer scans the last
//! segment and **truncates a torn tail** (a partial frame or one whose CRC
//! fails) before resuming, so appends always start at a clean frame
//! boundary.
//!
//! [`Journal::compact`] rewrites the log past the sliding-buffer horizon:
//! the newest `keep_rows_per_class` checkpoint rows per class survive
//! (whole batches, so replay semantics are preserved), every
//! non-checkpoint record survives, original sequence numbers are kept, and
//! the old segments are deleted.
//!
//! The crate is dependency-free (like `aging-obs`) and knows nothing about
//! the adaptation types: records carry plain strings and floats, and the
//! `aging-adapt` replay layer owns the mapping back to pipelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"AJL1";
/// On-disk format version written into every segment header.
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of the per-segment header (`magic ⊕ version ⊕ first_seq`).
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Upper bound on one frame's `len` field — anything larger is corruption,
/// not a record (guards the reader against allocating garbage lengths).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

const SEGMENT_PREFIX: &str = "segment-";
const SEGMENT_SUFFIX: &str = ".ajl";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One labelled checkpoint row as journaled — the feature vector and label
/// an adaptation pipeline would buffer, stripped of in-memory-only state.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCheckpoint {
    /// Monitoring feature row (order fixed by the deployment's feature set).
    pub features: Vec<f64>,
    /// Retrospective time-to-failure label in seconds.
    pub ttf_secs: f64,
    /// The TTF the serving model predicted for this row, when recorded.
    pub predicted_ttf_secs: Option<f64>,
    /// Generation of the model snapshot that made the prediction.
    pub predicted_generation: Option<u64>,
    /// Monitor-only rows feed drift detection but never the training buffer.
    pub monitor_only: bool,
}

/// One journaled event. `Checkpoints` preserves batch granularity because
/// replay must re-run `AdaptationPipeline::ingest` per *batch* (the retrain
/// gate fires once per batch) to reproduce state bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// One ingested checkpoint batch, journaled before it is buffered.
    Checkpoints {
        /// Service class the batch was routed to.
        class: String,
        /// The batch's rows, in ingest order.
        rows: Vec<JournalCheckpoint>,
    },
    /// A model generation was published for `class`.
    GenerationPublished {
        /// Publishing service class.
        class: String,
        /// The generation counter after the publish.
        generation: u64,
    },
    /// A threshold policy re-derived the operating thresholds for `class`.
    ThresholdsRederived {
        /// Service class whose thresholds moved.
        class: String,
        /// The re-derived drift error threshold (seconds).
        error_threshold_secs: f64,
        /// The re-derived predictive-rejuvenation trigger, when derived.
        rejuvenation_threshold_secs: Option<f64>,
    },
    /// A class was registered with the router (discovery split).
    ClassRegistered {
        /// The newly registered class.
        class: String,
    },
    /// A class was retired into a merge target (discovery merge).
    ClassRetired {
        /// The retired class.
        class: String,
        /// The class that absorbed its buffer.
        into: String,
    },
    /// A discovery round re-assigned the fleet partition.
    PartitionAssigned {
        /// Monotone partition version (discovery round counter).
        version: u64,
        /// `(instance, class)` assignment pairs, in spec order.
        assignment: Vec<(String, String)>,
    },
    /// An instance joined the fleet (initial roster, scripted join, or
    /// autoscale spawn).
    InstanceJoined {
        /// Joining instance name.
        instance: String,
        /// Service class the instance joined under.
        class: String,
        /// Fleet epoch at which the instance became live.
        epoch: u64,
    },
    /// An instance left the fleet — aged out of its simulated horizon, or
    /// was retired early by a churn plan.
    InstanceRetired {
        /// Retiring instance name.
        instance: String,
        /// Fleet epoch at which the instance retired.
        epoch: u64,
        /// Whether a churn plan forced the retire (vs. aging out).
        forced: bool,
    },
}

impl JournalRecord {
    /// The service class the record belongs to, when it has one.
    pub fn class(&self) -> Option<&str> {
        match self {
            JournalRecord::Checkpoints { class, .. }
            | JournalRecord::GenerationPublished { class, .. }
            | JournalRecord::ThresholdsRederived { class, .. }
            | JournalRecord::ClassRegistered { class }
            | JournalRecord::ClassRetired { class, .. }
            | JournalRecord::InstanceJoined { class, .. } => Some(class),
            JournalRecord::PartitionAssigned { .. } | JournalRecord::InstanceRetired { .. } => None,
        }
    }

    /// Checkpoint rows carried by the record (0 for state records).
    pub fn rows(&self) -> u64 {
        match self {
            JournalRecord::Checkpoints { rows, .. } => rows.len() as u64,
            _ => 0,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            JournalRecord::Checkpoints { .. } => 1,
            JournalRecord::GenerationPublished { .. } => 2,
            JournalRecord::ThresholdsRederived { .. } => 3,
            JournalRecord::ClassRegistered { .. } => 4,
            JournalRecord::ClassRetired { .. } => 5,
            JournalRecord::PartitionAssigned { .. } => 6,
            JournalRecord::InstanceJoined { .. } => 7,
            JournalRecord::InstanceRetired { .. } => 8,
        }
    }

    /// Encodes the record payload (everything after the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(self.tag());
        match self {
            JournalRecord::Checkpoints { class, rows } => {
                put_str(&mut out, class);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u32(&mut out, row.features.len() as u32);
                    for &f in &row.features {
                        put_f64(&mut out, f);
                    }
                    put_f64(&mut out, row.ttf_secs);
                    put_opt_f64(&mut out, row.predicted_ttf_secs);
                    put_opt_u64(&mut out, row.predicted_generation);
                    out.push(row.monitor_only as u8);
                }
            }
            JournalRecord::GenerationPublished { class, generation } => {
                put_str(&mut out, class);
                put_u64(&mut out, *generation);
            }
            JournalRecord::ThresholdsRederived {
                class,
                error_threshold_secs,
                rejuvenation_threshold_secs,
            } => {
                put_str(&mut out, class);
                put_f64(&mut out, *error_threshold_secs);
                put_opt_f64(&mut out, *rejuvenation_threshold_secs);
            }
            JournalRecord::ClassRegistered { class } => put_str(&mut out, class),
            JournalRecord::ClassRetired { class, into } => {
                put_str(&mut out, class);
                put_str(&mut out, into);
            }
            JournalRecord::PartitionAssigned { version, assignment } => {
                put_u64(&mut out, *version);
                put_u32(&mut out, assignment.len() as u32);
                for (instance, class) in assignment {
                    put_str(&mut out, instance);
                    put_str(&mut out, class);
                }
            }
            JournalRecord::InstanceJoined { instance, class, epoch } => {
                put_str(&mut out, instance);
                put_str(&mut out, class);
                put_u64(&mut out, *epoch);
            }
            JournalRecord::InstanceRetired { instance, epoch, forced } => {
                put_str(&mut out, instance);
                put_u64(&mut out, *epoch);
                out.push(*forced as u8);
            }
        }
        out
    }

    /// Decodes a record payload previously produced by [`encode`].
    ///
    /// [`encode`]: JournalRecord::encode
    pub fn decode(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
        let mut c = Cursor { bytes: payload, pos: 0 };
        let tag = c.u8()?;
        let record = match tag {
            1 => {
                let class = c.string()?;
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let dims = c.u32()? as usize;
                    let mut features = Vec::with_capacity(dims.min(4096));
                    for _ in 0..dims {
                        features.push(c.f64()?);
                    }
                    rows.push(JournalCheckpoint {
                        features,
                        ttf_secs: c.f64()?,
                        predicted_ttf_secs: c.opt_f64()?,
                        predicted_generation: c.opt_u64()?,
                        monitor_only: c.u8()? != 0,
                    });
                }
                JournalRecord::Checkpoints { class, rows }
            }
            2 => JournalRecord::GenerationPublished { class: c.string()?, generation: c.u64()? },
            3 => JournalRecord::ThresholdsRederived {
                class: c.string()?,
                error_threshold_secs: c.f64()?,
                rejuvenation_threshold_secs: c.opt_f64()?,
            },
            4 => JournalRecord::ClassRegistered { class: c.string()? },
            5 => JournalRecord::ClassRetired { class: c.string()?, into: c.string()? },
            6 => {
                let version = c.u64()?;
                let n = c.u32()? as usize;
                let mut assignment = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let instance = c.string()?;
                    let class = c.string()?;
                    assignment.push((instance, class));
                }
                JournalRecord::PartitionAssigned { version, assignment }
            }
            7 => JournalRecord::InstanceJoined {
                instance: c.string()?,
                class: c.string()?,
                epoch: c.u64()?,
            },
            8 => JournalRecord::InstanceRetired {
                instance: c.string()?,
                epoch: c.u64()?,
                forced: c.u8()? != 0,
            },
            other => return Err(DecodeError(format!("unknown record tag {other}"))),
        };
        if c.pos != payload.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after record",
                payload.len() - c.pos
            )));
        }
        Ok(record)
    }
}

/// A record payload failed to decode (corruption past the CRC, or a
/// foreign/newer format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal record decode failed: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DecodeError(format!("record truncated at byte {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        Ok(if self.u8()? != 0 { Some(self.f64()?) } else { None })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.u8()? != 0 { Some(self.u64()?) } else { None })
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("non-UTF-8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Tunables for the journal writer.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// `fsync` after this many appended records (1 = every append; the
    /// batching bound on how many records a crash can lose).
    pub fsync_every: u64,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions { fsync_every: 64, segment_max_bytes: 8 * 1024 * 1024 }
    }
}

/// Counters describing a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records surviving into the compacted segment.
    pub kept_records: u64,
    /// Records dropped (checkpoint batches past the horizon).
    pub dropped_records: u64,
    /// Checkpoint rows surviving.
    pub kept_rows: u64,
    /// Checkpoint rows dropped.
    pub dropped_rows: u64,
}

struct WriterState {
    file: File,
    segment: u64,
    bytes: u64,
    next_seq: u64,
    unsynced: u64,
    appended: u64,
    rotations: u64,
    fsyncs: u64,
}

/// A durable, thread-safe journal writer over a segment directory.
///
/// Cloning is by `Arc`: wrap it once and share the handle between the
/// ingest thread (checkpoints), the retrainers (publishes, thresholds) and
/// the fleet leader (partition events) — appends serialise on an internal
/// mutex and every record gets a unique, strictly monotone sequence
/// number.
pub struct Journal {
    dir: PathBuf,
    options: JournalOptions,
    state: Mutex<WriterState>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").field("dir", &self.dir).finish_non_exhaustive()
    }
}

/// Everything a full read of a journal directory yields.
#[derive(Debug)]
pub struct ReadOutcome {
    /// `(seq, record)` pairs in journal order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Bytes of torn tail truncated (logically) from the last segment.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: u64,
}

/// What a streaming read ([`Journal::for_each_record`]) reports besides
/// the records it handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSummary {
    /// Records handed to the visitor.
    pub records: u64,
    /// Bytes of torn tail truncated (logically) from the last segment.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `dir` with default
    /// options, truncating any torn tail left by a crash.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Journal> {
        Journal::open_with(dir, JournalOptions::default())
    }

    /// [`open`](Journal::open) with explicit [`JournalOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: JournalOptions) -> io::Result<Journal> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let scan = scan_dir(&dir, true, &mut |_, _| {})?;
        let (segment, next_seq) = match scan.segments.last() {
            None => {
                // Fresh journal: create segment 0.
                let path = segment_path(&dir, 0);
                let mut file =
                    OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
                write_header(&mut file, 0)?;
                file.sync_data()?;
                (0, 0)
            }
            Some(last) => {
                let next_seq = scan
                    .segments
                    .iter()
                    .flat_map(|s| s.last_seq)
                    .max()
                    .map_or(scan.segments.last().expect("non-empty").first_seq, |s| s + 1);
                if last.valid_len < last.file_len {
                    // Torn tail: cut the file back to the last clean frame.
                    let file = OpenOptions::new().write(true).open(&last.path)?;
                    file.set_len(last.valid_len.max(SEGMENT_HEADER_LEN))?;
                    if last.valid_len < SEGMENT_HEADER_LEN {
                        // Even the header was torn — rewrite it.
                        let mut file = OpenOptions::new().write(true).open(&last.path)?;
                        write_header(&mut file, next_seq)?;
                    }
                    file.sync_data()?;
                }
                (last.index, next_seq)
            }
        };
        let path = segment_path(&dir, segment);
        let mut file = OpenOptions::new().append(true).open(&path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            dir,
            options,
            state: Mutex::new(WriterState {
                file,
                segment,
                bytes,
                next_seq,
                unsynced: 0,
                appended: 0,
                rotations: 0,
                fsyncs: 0,
            }),
        })
    }

    /// The journal's segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record; returns its sequence number.
    pub fn append(&self, record: &JournalRecord) -> io::Result<u64> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(16 + payload.len());
        let mut state = self.state.lock().expect("journal writer poisoned");
        let seq = state.next_seq;
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&payload);
        put_u32(&mut frame, body.len() as u32);
        put_u32(&mut frame, crc32(&body));
        frame.extend_from_slice(&body);

        if state.bytes > SEGMENT_HEADER_LEN
            && state.bytes + frame.len() as u64 > self.options.segment_max_bytes
        {
            self.rotate(&mut state)?;
        }
        state.file.write_all(&frame)?;
        state.bytes += frame.len() as u64;
        state.next_seq += 1;
        state.appended += 1;
        state.unsynced += 1;
        if state.unsynced >= self.options.fsync_every {
            state.file.sync_data()?;
            state.fsyncs += 1;
            state.unsynced = 0;
        }
        Ok(seq)
    }

    fn rotate(&self, state: &mut WriterState) -> io::Result<()> {
        state.file.sync_data()?;
        state.fsyncs += 1;
        state.unsynced = 0;
        let next = state.segment + 1;
        let path = segment_path(&self.dir, next);
        let mut file = OpenOptions::new().create_new(true).write(true).open(&path)?;
        write_header(&mut file, state.next_seq)?;
        file.sync_data()?;
        state.file = OpenOptions::new().append(true).open(&path)?;
        state.segment = next;
        state.bytes = SEGMENT_HEADER_LEN;
        state.rotations += 1;
        Ok(())
    }

    /// Forces everything appended so far to disk.
    pub fn sync(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("journal writer poisoned");
        state.file.sync_data()?;
        state.fsyncs += 1;
        state.unsynced = 0;
        Ok(())
    }

    /// Records appended through this handle since open.
    pub fn appended(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").appended
    }

    /// The next sequence number an append would take (== records ever
    /// journaled, across restarts, absent compaction gaps at the head).
    pub fn next_seq(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").next_seq
    }

    /// Segment rotations performed by this handle.
    pub fn rotations(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").rotations
    }

    /// `fsync` calls issued by this handle (batching diagnostic).
    pub fn fsyncs(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").fsyncs
    }

    /// Reads every record under `dir`, tolerating a torn tail on the last
    /// segment (its length is reported in
    /// [`ReadOutcome::truncated_bytes`]). Corruption anywhere else — a bad
    /// CRC mid-log, an out-of-order sequence number, an undecodable
    /// payload — is an error.
    pub fn read(dir: impl AsRef<Path>) -> io::Result<ReadOutcome> {
        let mut records = Vec::new();
        let summary = Journal::for_each_record(dir, |seq, record| records.push((seq, record)))?;
        Ok(ReadOutcome {
            records,
            truncated_bytes: summary.truncated_bytes,
            segments: summary.segments,
        })
    }

    /// [`read`](Journal::read) without materialising the log: hands each
    /// `(seq, record)` to `visit` in journal order as it is decoded, so
    /// memory stays at one frame however long the journal is. Same
    /// tolerance as `read`; on corruption mid-log the records before it
    /// have already been visited when the error returns.
    pub fn for_each_record(
        dir: impl AsRef<Path>,
        mut visit: impl FnMut(u64, JournalRecord),
    ) -> io::Result<ReadSummary> {
        let mut records = 0u64;
        let scan = scan_dir(dir.as_ref(), false, &mut |seq, record| {
            records += 1;
            visit(seq, record);
        })?;
        Ok(ReadSummary {
            records,
            truncated_bytes: scan.truncated_bytes,
            segments: scan.segments.len() as u64,
        })
    }

    /// Compacts the journal past the sliding-buffer horizon: keeps the
    /// newest checkpoint batches per class totalling at least
    /// `keep_rows_per_class` rows (whole batches — replay granularity),
    /// keeps every non-checkpoint record, preserves original sequence
    /// numbers, rewrites everything into a single fresh segment and
    /// deletes the old ones.
    pub fn compact(&self, keep_rows_per_class: usize) -> io::Result<CompactionStats> {
        let mut state = self.state.lock().expect("journal writer poisoned");
        state.file.sync_data()?;
        let mut all: Vec<(u64, JournalRecord)> = Vec::new();
        let scan = scan_dir(&self.dir, false, &mut |seq, record| all.push((seq, record)))?;

        // Walk backwards budgeting checkpoint rows per class.
        let mut budget: HashMap<String, u64> = HashMap::new();
        let mut keep = vec![false; all.len()];
        for (i, (_, record)) in all.iter().enumerate().rev() {
            match record {
                JournalRecord::Checkpoints { class, rows } => {
                    let used = budget.entry(class.clone()).or_insert(0);
                    if *used < keep_rows_per_class as u64 {
                        *used += rows.len() as u64;
                        keep[i] = true;
                    }
                }
                _ => keep[i] = true,
            }
        }

        let mut stats =
            CompactionStats { kept_records: 0, dropped_records: 0, kept_rows: 0, dropped_rows: 0 };
        let next_index = state.segment + 1;
        let path = segment_path(&self.dir, next_index);
        let mut file = OpenOptions::new().create_new(true).write(true).open(&path)?;
        let first_seq =
            all.iter().zip(&keep).find(|(_, &k)| k).map_or(state.next_seq, |((seq, _), _)| *seq);
        write_header(&mut file, first_seq)?;
        let mut bytes = SEGMENT_HEADER_LEN;
        for ((seq, record), &kept) in all.iter().zip(&keep) {
            if !kept {
                stats.dropped_records += 1;
                stats.dropped_rows += record.rows();
                continue;
            }
            stats.kept_records += 1;
            stats.kept_rows += record.rows();
            let payload = record.encode();
            let mut body = Vec::with_capacity(8 + payload.len());
            body.extend_from_slice(&seq.to_le_bytes());
            body.extend_from_slice(&payload);
            let mut frame = Vec::with_capacity(8 + body.len());
            put_u32(&mut frame, body.len() as u32);
            put_u32(&mut frame, crc32(&body));
            frame.extend_from_slice(&body);
            file.write_all(&frame)?;
            bytes += frame.len() as u64;
        }
        file.sync_data()?;
        // Point the writer at the compacted segment, then delete the old
        // ones — crash between the two leaves extra (valid) old segments,
        // never a hole.
        let old: Vec<PathBuf> = scan.segments.iter().map(|s| s.path.clone()).collect();
        state.file = OpenOptions::new().append(true).open(&path)?;
        state.segment = next_index;
        state.bytes = bytes;
        state.unsynced = 0;
        for path in old {
            fs::remove_file(&path)?;
        }
        Ok(stats)
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

fn write_header(file: &mut File, first_seq: u64) -> io::Result<()> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&first_seq.to_le_bytes());
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)
}

struct ScannedSegment {
    index: u64,
    path: PathBuf,
    file_len: u64,
    valid_len: u64,
    first_seq: u64,
    last_seq: Option<u64>,
}

struct Scan {
    segments: Vec<ScannedSegment>,
    truncated_bytes: u64,
}

fn corrupt(path: &Path, what: impl fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {what}", path.display()))
}

/// Scans all segments in `dir`, handing each record to `visit` in journal
/// order as its frame is decoded; only one frame is held at a time. A
/// torn tail (partial or CRC-failing trailing data) is tolerated only on
/// the *last* segment; `lenient` additionally tolerates a torn header
/// there (a crash between segment creation and header write).
fn scan_dir(
    dir: &Path,
    lenient: bool,
    visit: &mut dyn FnMut(u64, JournalRecord),
) -> io::Result<Scan> {
    let mut indices: Vec<u64> = Vec::new();
    if dir.is_dir() {
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) =
                name.strip_prefix(SEGMENT_PREFIX).and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
            {
                indices.push(
                    stem.parse::<u64>()
                        .map_err(|_| corrupt(dir, format!("bad segment name {name}")))?,
                );
            }
        }
    }
    indices.sort_unstable();
    let mut segments = Vec::with_capacity(indices.len());
    let mut truncated_bytes = 0u64;
    let mut prev_seq: Option<u64> = None;
    let mut body = Vec::new();
    for (pos, &index) in indices.iter().enumerate() {
        let last_segment = pos + 1 == indices.len();
        let path = segment_path(dir, index);
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        if file_len < SEGMENT_HEADER_LEN || !read_fully(&mut reader, &mut header)? {
            if last_segment && lenient {
                truncated_bytes += file_len;
                segments.push(ScannedSegment {
                    index,
                    path,
                    file_len,
                    valid_len: 0,
                    first_seq: prev_seq.map_or(0, |s| s + 1),
                    last_seq: None,
                });
                continue;
            }
            return Err(corrupt(&path, "segment shorter than its header"));
        }
        if header[..4] != MAGIC {
            return Err(corrupt(&path, "bad magic"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(corrupt(&path, format!("unsupported format version {version}")));
        }
        let first_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let mut valid_len = SEGMENT_HEADER_LEN;
        let mut last_seq = None;
        while valid_len < file_len {
            let offset = valid_len;
            match read_frame(&mut reader, file_len - offset, &mut body)? {
                Ok((seq, record, consumed)) => {
                    if prev_seq.is_some_and(|prev| seq <= prev) {
                        return Err(corrupt(
                            &path,
                            format!(
                                "sequence {seq} at offset {offset} not after {}",
                                prev_seq.expect("checked")
                            ),
                        ));
                    }
                    prev_seq = Some(seq);
                    last_seq = Some(seq);
                    visit(seq, record);
                    valid_len = offset + consumed;
                }
                Err(e) => {
                    if last_segment {
                        // Torn tail: everything up to here is good.
                        truncated_bytes += file_len - valid_len;
                        break;
                    }
                    return Err(corrupt(&path, format!("at offset {offset}: {e}")));
                }
            }
        }
        segments.push(ScannedSegment { index, path, file_len, valid_len, first_seq, last_seq });
    }
    Ok(Scan { segments, truncated_bytes })
}

/// Fills `buf` from `reader`; `Ok(false)` when the file ends first (it
/// shrank since its length was read).
fn read_fully(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Parses the next frame from `reader`, which has `remaining` bytes left
/// in its segment, reusing `body` as the frame buffer; returns
/// `(seq, record, bytes consumed)`. The outer error is I/O, the inner one
/// a torn or corrupt frame.
fn read_frame(
    reader: &mut impl Read,
    remaining: u64,
    body: &mut Vec<u8>,
) -> io::Result<Result<(u64, JournalRecord, u64), DecodeError>> {
    let mut head = [0u8; 8];
    if remaining < 8 || !read_fully(reader, &mut head)? {
        return Ok(Err(DecodeError("partial frame header".into())));
    }
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    if !(8..=MAX_FRAME_LEN).contains(&len) {
        return Ok(Err(DecodeError(format!("implausible frame length {len}"))));
    }
    let stored_crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let end = 8 + u64::from(len);
    if remaining < end {
        return Ok(Err(DecodeError("frame body truncated".into())));
    }
    body.resize(len as usize, 0);
    if !read_fully(reader, body)? {
        return Ok(Err(DecodeError("frame body truncated".into())));
    }
    if crc32(body) != stored_crc {
        return Ok(Err(DecodeError("CRC mismatch".into())));
    }
    let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    Ok(JournalRecord::decode(&body[8..]).map(|record| (seq, record, end)))
}

// ---------------------------------------------------------------------------
// State digests
// ---------------------------------------------------------------------------

/// Streaming FNV-1a 64-bit digest — the workspace's canonical way to
/// compare adaptation state (buffer contents, thresholds, generations)
/// bit-for-bit between a live run and a journal replay without shipping
/// the full state across threads.
#[derive(Debug, Clone, Copy)]
pub struct Digest64 {
    state: u64,
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

impl Digest64 {
    /// FNV-1a offset basis.
    pub fn new() -> Digest64 {
        Digest64 { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern — bit-identity, not numeric equality.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Folds a string (length-prefixed, so concatenations can't collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// ---------------------------------------------------------------------------
// Membership fold
// ---------------------------------------------------------------------------

/// Live fleet membership folded from `InstanceJoined`/`InstanceRetired`
/// records in sequence order.
///
/// An elastic fleet journals every membership change, so replaying the log
/// through this fold reconstructs exactly which instances were live when
/// the process died — the membership half of crash recovery (checkpoint
/// replay restores the model-state half). `inspect journal` uses the same
/// fold to validate that retires always reference a prior join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipFold {
    /// Instances currently live, in join order: `(instance, class, epoch)`.
    live: Vec<(String, String, u64)>,
    joins: u64,
    retires: u64,
    forced_retires: u64,
    superseded: u64,
}

/// A membership record contradicted the fold state (a retire without a
/// prior join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipError(String);

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "membership fold failed: {}", self.0)
    }
}

impl std::error::Error for MembershipError {}

impl MembershipFold {
    /// An empty fold (no instances live).
    pub fn new() -> MembershipFold {
        MembershipFold::default()
    }

    /// Folds one record. Non-membership records are ignored, so the whole
    /// journal can be streamed through without filtering.
    pub fn apply(&mut self, record: &JournalRecord) -> Result<(), MembershipError> {
        match record {
            JournalRecord::InstanceJoined { instance, class, epoch } => {
                // A re-join of a live instance supersedes the earlier
                // incarnation: the process died before journalling its
                // retirement, and a restarted run re-founded the roster.
                // The new incarnation takes the orphan's place (dropping
                // to the end of the join order, where the new run put it).
                if let Some(idx) = self.live.iter().position(|(name, _, _)| name == instance) {
                    self.live.remove(idx);
                    self.superseded += 1;
                }
                self.live.push((instance.clone(), class.clone(), *epoch));
                self.joins += 1;
            }
            JournalRecord::InstanceRetired { instance, forced, .. } => {
                let idx = self.live.iter().position(|(name, _, _)| name == instance).ok_or_else(
                    || MembershipError(format!("instance {instance:?} retired without a join")),
                )?;
                self.live.remove(idx);
                self.retires += 1;
                self.forced_retires += *forced as u64;
            }
            _ => {}
        }
        Ok(())
    }

    /// Instances currently live, in join order: `(instance, class, epoch)`.
    pub fn live(&self) -> &[(String, String, u64)] {
        &self.live
    }

    /// Total joins folded so far.
    pub fn joins(&self) -> u64 {
        self.joins
    }

    /// Total retires folded so far.
    pub fn retires(&self) -> u64 {
        self.retires
    }

    /// Retires flagged as forced by a churn plan.
    pub fn forced_retires(&self) -> u64 {
        self.forced_retires
    }

    /// Live incarnations superseded by a re-join — crash orphans whose
    /// retirement was never journalled before a restarted run re-founded
    /// them.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Order-sensitive digest of the live membership — two folds agree iff
    /// the same instances are live with the same classes and join epochs.
    pub fn digest(&self) -> u64 {
        let mut digest = Digest64::new();
        digest.write_u64(self.live.len() as u64);
        for (instance, class, epoch) in &self.live {
            digest.write_str(instance);
            digest.write_str(class);
            digest.write_u64(*epoch);
        }
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aging-journal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint_batch(class: &str, n: usize, base: f64) -> JournalRecord {
        JournalRecord::Checkpoints {
            class: class.into(),
            rows: (0..n)
                .map(|i| JournalCheckpoint {
                    features: vec![base + i as f64, -1.5, f64::NAN],
                    ttf_secs: 600.0 + i as f64,
                    predicted_ttf_secs: (i % 2 == 0).then_some(580.0),
                    predicted_generation: (i % 3 == 0).then_some(i as u64),
                    monitor_only: i % 2 == 1,
                })
                .collect(),
        }
    }

    fn all_variants() -> Vec<JournalRecord> {
        vec![
            checkpoint_batch("leak", 3, 10.0),
            JournalRecord::GenerationPublished { class: "leak".into(), generation: 7 },
            JournalRecord::ThresholdsRederived {
                class: "steady".into(),
                error_threshold_secs: 612.5,
                rejuvenation_threshold_secs: Some(420.0),
            },
            JournalRecord::ThresholdsRederived {
                class: "steady".into(),
                error_threshold_secs: 900.0,
                rejuvenation_threshold_secs: None,
            },
            JournalRecord::ClassRegistered { class: "discovered-1".into() },
            JournalRecord::ClassRetired { class: "discovered-1".into(), into: "leak".into() },
            JournalRecord::PartitionAssigned {
                version: 3,
                assignment: vec![("i-0".into(), "leak".into()), ("i-1".into(), "steady".into())],
            },
            JournalRecord::InstanceJoined {
                instance: "i-2".into(),
                class: "leak".into(),
                epoch: 17,
            },
            JournalRecord::InstanceRetired { instance: "i-2".into(), epoch: 41, forced: true },
        ]
    }

    /// NaN features survive the trip by bit pattern, so `PartialEq` on the
    /// decoded record would fail — compare re-encodings instead.
    fn assert_roundtrip(record: &JournalRecord) {
        let decoded = JournalRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(decoded.encode(), record.encode(), "{record:?}");
    }

    #[test]
    fn every_record_variant_roundtrips() {
        for record in all_variants() {
            assert_roundtrip(&record);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert!(JournalRecord::decode(&[]).is_err());
        assert!(JournalRecord::decode(&[99]).is_err());
        let mut bytes = JournalRecord::ClassRegistered { class: "x".into() }.encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn membership_fold_tracks_live_instances_and_rejects_contradictions() {
        let join = |name: &str, epoch| JournalRecord::InstanceJoined {
            instance: name.into(),
            class: "leak".into(),
            epoch,
        };
        let retire = |name: &str, epoch, forced| JournalRecord::InstanceRetired {
            instance: name.into(),
            epoch,
            forced,
        };
        let mut fold = MembershipFold::new();
        for record in [&join("i-0", 0), &join("i-1", 0), &checkpoint_batch("leak", 1, 0.0)] {
            fold.apply(record).unwrap();
        }
        fold.apply(&retire("i-0", 9, false)).unwrap();
        fold.apply(&join("i-2", 12)).unwrap();
        assert_eq!(
            fold.live(),
            &[("i-1".into(), "leak".into(), 0), ("i-2".into(), "leak".into(), 12)]
        );
        assert_eq!((fold.joins(), fold.retires(), fold.forced_retires()), (3, 1, 0));
        fold.apply(&retire("i-2", 14, true)).unwrap();
        assert_eq!(fold.forced_retires(), 1);
        // A re-join of a live instance supersedes the crash orphan — the
        // incarnation restarted runs journal when the process died before
        // retiring it — rather than contradicting the fold.
        fold.apply(&join("i-1", 20)).unwrap();
        assert_eq!(fold.superseded(), 1);
        assert_eq!(fold.live(), &[("i-1".into(), "leak".into(), 20)]);
        // A retire without any prior join is still a contradiction.
        assert!(fold.apply(&retire("i-7", 20, false)).is_err());
        // Digest is order-sensitive over the live set.
        let mut a = MembershipFold::new();
        let mut b = MembershipFold::new();
        a.apply(&join("x", 1)).unwrap();
        a.apply(&join("y", 1)).unwrap();
        b.apply(&join("y", 1)).unwrap();
        b.apply(&join("x", 1)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_read_roundtrips_across_rotation() {
        let dir = tmp_dir("rotate");
        let options = JournalOptions { fsync_every: 2, segment_max_bytes: 256 };
        let journal = Journal::open_with(&dir, options).unwrap();
        let records = all_variants();
        for (i, record) in records.iter().enumerate() {
            assert_eq!(journal.append(record).unwrap(), i as u64);
        }
        journal.sync().unwrap();
        assert!(journal.rotations() > 0, "256-byte segments must rotate");
        assert!(journal.fsyncs() >= records.len() as u64 / 2);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.truncated_bytes, 0);
        assert!(outcome.segments > 1);
        assert_eq!(outcome.records.len(), records.len());
        for (i, ((seq, got), want)) in outcome.records.iter().zip(&records).enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(got.encode(), want.encode());
        }
    }

    #[test]
    fn streaming_read_visits_what_read_returns() {
        let dir = tmp_dir("stream");
        let options = JournalOptions { fsync_every: 2, segment_max_bytes: 256 };
        let journal = Journal::open_with(&dir, options).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        // A torn body: a plausible frame header whose body never landed.
        let last = fs::read_dir(&dir).unwrap().count() as u64 - 1;
        let mut file = OpenOptions::new().append(true).open(segment_path(&dir, last)).unwrap();
        let mut torn = Vec::new();
        put_u32(&mut torn, 64);
        put_u32(&mut torn, 0);
        torn.extend_from_slice(&[0x17; 5]);
        file.write_all(&torn).unwrap();
        drop(file);

        let read = Journal::read(&dir).unwrap();
        let mut visited = Vec::new();
        let summary =
            Journal::for_each_record(&dir, |seq, record| visited.push((seq, record.encode())))
                .unwrap();
        assert!(summary.segments > 1);
        assert_eq!(summary.segments, read.segments);
        assert_eq!(summary.truncated_bytes, 13);
        assert_eq!(summary.truncated_bytes, read.truncated_bytes);
        assert_eq!(summary.records, all_variants().len() as u64);
        let expected: Vec<(u64, Vec<u8>)> =
            read.records.iter().map(|(seq, record)| (*seq, record.encode())).collect();
        assert_eq!(visited, expected);
    }

    #[test]
    fn torn_tail_is_tolerated_on_read_and_truncated_on_open() {
        let dir = tmp_dir("torn");
        let journal = Journal::open(&dir).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        // Simulate a crash mid-frame: append garbage to the last segment.
        let last = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&last).unwrap();
        file.write_all(&[0x17; 11]).unwrap();
        drop(file);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.records.len(), all_variants().len());
        assert_eq!(outcome.truncated_bytes, 11);
        // Re-open truncates the tear and appends cleanly after it.
        let reopened = Journal::open(&dir).unwrap();
        let seq = reopened
            .append(&JournalRecord::ClassRegistered { class: "post-crash".into() })
            .unwrap();
        assert_eq!(seq, all_variants().len() as u64);
        reopened.sync().unwrap();
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.truncated_bytes, 0);
        assert_eq!(outcome.records.len(), all_variants().len() + 1);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_truncation() {
        let dir = tmp_dir("midlog");
        let options = JournalOptions { fsync_every: 1, segment_max_bytes: 128 };
        let journal = Journal::open_with(&dir, options).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        assert!(Journal::read(&dir).unwrap().segments > 1);
        // Flip one payload byte in the FIRST segment (not the last).
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let err = Journal::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sequence_numbers_survive_restart() {
        let dir = tmp_dir("restart");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.append(&JournalRecord::ClassRegistered { class: "a".into() }).unwrap();
            journal.append(&JournalRecord::ClassRegistered { class: "b".into() }).unwrap();
            journal.sync().unwrap();
        }
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(
            journal.append(&JournalRecord::ClassRegistered { class: "c".into() }).unwrap(),
            2
        );
    }

    #[test]
    fn compaction_keeps_the_per_class_tail_and_all_state_records() {
        let dir = tmp_dir("compact");
        let journal = Journal::open(&dir).unwrap();
        for i in 0..10 {
            journal.append(&checkpoint_batch("leak", 4, i as f64 * 100.0)).unwrap();
            journal.append(&checkpoint_batch("steady", 2, i as f64 * 100.0)).unwrap();
        }
        journal
            .append(&JournalRecord::GenerationPublished { class: "leak".into(), generation: 1 })
            .unwrap();
        let stats = journal.compact(8).unwrap();
        // leak: 4-row batches, budget 8 → last 2 batches. steady: 2-row
        // batches → last 4 batches. Publish always kept.
        assert_eq!(stats.kept_rows, 2 * 4 + 4 * 2);
        assert_eq!(stats.dropped_rows, 8 * 4 + 6 * 2);
        assert_eq!(stats.kept_records, 2 + 4 + 1);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.segments, 1, "compaction rewrites into one segment");
        assert_eq!(outcome.records.len() as u64, stats.kept_records);
        // Seqs stay strictly monotone and original.
        let seqs: Vec<u64> = outcome.records.iter().map(|(s, _)| *s).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seqs.last().unwrap(), 20);
        // Appending after compaction continues the sequence.
        let seq = journal.append(&checkpoint_batch("leak", 1, 0.0)).unwrap();
        assert_eq!(seq, 21);
        journal.sync().unwrap();
        assert_eq!(Journal::read(&dir).unwrap().records.len() as u64, stats.kept_records + 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let digest = |parts: &[&str]| {
            let mut d = Digest64::new();
            for p in parts {
                d.write_str(p);
            }
            d.finish()
        };
        assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
        assert_ne!(digest(&["ab", ""]), digest(&["a", "b"]), "length prefix prevents collisions");
        let mut nan = Digest64::new();
        nan.write_f64(f64::NAN);
        let mut neg_nan = Digest64::new();
        neg_nan.write_f64(-f64::NAN);
        assert_ne!(nan.finish(), neg_nan.finish(), "digest is bit-level");
    }
}
