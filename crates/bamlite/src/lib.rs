//! # ultravc-bamlite
//!
//! Alignment-store substrate: a from-scratch replacement for the
//! htslib/BAM machinery LoFreq iterates over.
//!
//! The paper's parallel driver gives **each thread an independent `.bam`
//! reader** and pays a per-block decompression cost while iterating pileup
//! columns (the teal and light-blue bands of its Figure 2 trace). What the
//! caller needs from the storage layer is therefore:
//!
//! 1. position-sorted alignment records with bases + Phred qualities,
//! 2. a blocked on-disk layout where every block decodes independently,
//! 3. a genomic index mapping regions to block ranges, so a thread can jump
//!    to its partition without scanning the file,
//! 4. cheap per-thread readers over shared immutable bytes.
//!
//! The **BAL** ("Binary ALignment-lite") format provides exactly that, with
//! honest-but-simple codecs instead of DEFLATE: delta+varint positions,
//! 2-bit packed bases, run-length-encoded qualities. It stands in for
//! BGZF-compressed BAM on the four points above, which are all the
//! caller's cost depends on: only the codec differs, not the block,
//! index and per-thread reader structure.
//!
//! # Reading a BAL file
//!
//! A [`BalFile`]'s bytes live behind a [`ByteSource`] with two backings:
//!
//! * **`Mem`** — the whole serialized stream as shared [`bytes::Bytes`].
//!   What the writer produces and what [`BalFile::from_bytes`] wraps;
//!   right for simulator output and tests.
//! * **`Stream`** — an open descriptor plus positioned (`pread`-style)
//!   reads into owned buffers. **What [`BalFile::open`] gives every
//!   on-disk file**: a block's compressed payload is fetched by one
//!   bounds-checked ranged read when a decoder first asks for it, so
//!   resident memory is one compressed block per reader however deep the
//!   file, and a device error or a file truncated by a concurrent writer
//!   is an `Err` from a read, which fails the one region that read it.
//!
//! Only the index/dictionary region is read eagerly — parsing
//! bounds-checks every offset, length and count it reads, so a corrupt
//! or truncated file fails with [`BalError::Corrupt`] instead of
//! panicking, whichever backing serves it. Both feed the same decoder
//! ([`BlockStreams`], [`RecordCursor`]) and produce bitwise-identical
//! streams and records.
//!
//! # The block plan
//!
//! [`IoPlan::for_regions`] turns the block index and a run's region
//! partition into one **block window** per region (its own blocks plus
//! shared boundary blocks — what a parallel worker's pileup iterator
//! walks instead of re-deriving the overlap).
//! [`SharedBlockCache::for_plan`] counts the windows to know when each
//! block has served its last request and its streams can be released.
//! Nothing is fetched ahead of need: the first worker to ask the cache
//! for a block reads and decodes it, everyone else shares the result,
//! and [`DecodeStats`] summed over workers is the run's true decode work.
//!
//! # The payload: decode once, already binned, columnar
//!
//! A file carries a [`QualityDict`] — its spectrum of distinct Phred
//! scores, sorted descending, at most
//! [`QUALITY_DICT_CAP`](batch::QUALITY_DICT_CAP) entries before spilling
//! to the identity mapping — and blocks store per-base qualities as **bin
//! indices** into that dictionary. Each block payload is **four columnar
//! streams** — per-record metadata (position deltas, ids, mapq, flags,
//! counts), concatenated CIGAR ops, concatenated 2-bit packed bases,
//! concatenated qual-bin indices — each independently wrapped in a
//! [`codec::compress_stream`] container that stores whichever of
//! raw/RLE/LZ encodes it smallest — provided the winner at least halves
//! the stream, because decode sits on the serving hot path and marginal
//! byte savings don't pay for their CPU. Ultra-deep viral stacks are
//! massively redundant column-wise (every read covers the same 30 kb
//! reference, the qual spectrum is a handful of plateaus), so the base and
//! qual streams crush and a block's one ranged read moves few bytes.
//!
//! There is one decoder, in two steps (the [`mod@cursor`] module). A block
//! is read and its four streams bulk-decompressed into reusable
//! [`BlockStreams`]; then one validating [`RecordCursor`] walks them in
//! place, making every per-record check and yielding each record's
//! position, end, mapq, flags, CIGAR ops and offsets into the packed-base
//! and bin streams. The pileup engine stacks straight from that cursor and
//! unpacks 2-bit bases only for the part of each read its region keeps;
//! no arena is built. [`SharedBlockCache`] shares the decompressed streams
//! run-wide (decode once) between parallel callers whose partitions
//! straddle block boundaries, and consumers recycle retired stream and
//! read buffers through [`BlockBuffers`]. The [`RecordBatch`] arena
//! (unpacked base codes, bin indices, CIGAR ops; records as offset+len
//! [`RecordView`]s) is a materialization built on the same cursor, for the
//! few consumers that want whole reads ([`BalReader::records`]) and the
//! benchmark's decode pass ([`BalReader::decode_batch`]). See the
//! [`mod@file`] module for the byte layout.
//!
//! In the paper's Figure 2 terms, only reading and decompressing a block
//! is "decompression" ([`DecodeStats::decode_time`]); the cursor walk is
//! part of iterating the pileup, as it is in htslib's `bam_plp_auto`.
//!
//! # Failure model
//!
//! Every fallible ingest operation returns [`BalError`]; the variants
//! split into two classes a supervisor treats differently:
//!
//! * **Failures** — `Corrupt`, `UnsupportedVersion`, `Unsorted`,
//!   `BadRecord` and `Io`. Each is final for the region whose read or
//!   decode hit it: the driver records the region as failed and keeps
//!   every other region. Nothing is retried. The input is a local file
//!   read by positioned reads, and the read loop already continues
//!   through `EINTR` and short transfers (the kernel contract), so what
//!   reaches a caller is a device or data fault a retry would not clear.
//! * **Interruptions** ([`BalError::Interrupted`]) — not failures at all:
//!   the run's [`CancelToken`] fired or its deadline expired. Every block
//!   payload read checks an armed [`IoBudget`] first and returns this
//!   promptly, so workers drain instead of finishing doomed work.
//!
//! The [`fault`](io::fault) tier is how all of this is tested: a
//! deterministic, seeded wrapper over either real backing
//! ([`FaultPlan`], `ULTRAVC_FAULT`) that injects the failures above so
//! CI can replay exact failure schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cigar;
pub mod codec;
pub mod cursor;
pub mod file;
pub mod io;
pub mod plan;
pub mod record;

pub use batch::{QualityDict, RecordBatch, RecordView, SharedBlockCache};
pub use cigar::{Cigar, CigarOp};
pub use cursor::{unpack_2bit, BlockBuffers, BlockStreams, CigarOps, RecordCursor, StreamRecord};
pub use file::{BalFile, BalReader, BalWriter, DecodeStats, StreamStats, WriterStats};
pub use io::fault::{FaultPlan, FaultSource};
pub use io::{ByteSource, CancelToken, FileFingerprint, Interrupt, IoBudget, StreamFile};
pub use plan::{BlockWindow, IoPlan};
pub use record::{Flags, Record};

/// Errors produced by the BAL encoder/decoder.
#[derive(Debug)]
pub enum BalError {
    /// The byte stream is not a BAL file or is structurally damaged.
    Corrupt(&'static str),
    /// The file carries the magic of a retired BAL format version (1 or
    /// 2). Nothing is wrong with its bytes; this build no longer reads
    /// them.
    UnsupportedVersion(u8),
    /// Records pushed to a writer out of coordinate order.
    Unsorted {
        /// Position of the previous record.
        prev: u32,
        /// Position of the offending record.
        next: u32,
    },
    /// A record failed internal validation.
    BadRecord(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The run's supervision budget cut the operation short — the cancel
    /// token fired or the deadline expired. Not a data failure: completed
    /// work is still valid, remaining work was abandoned on purpose.
    Interrupted(Interrupt),
}

impl std::fmt::Display for BalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalError::Corrupt(what) => write!(f, "corrupt BAL stream: {what}"),
            BalError::UnsupportedVersion(v) => write!(
                f,
                "BAL v{v} files are no longer readable (only v3 is); re-simulate the dataset"
            ),
            BalError::Unsorted { prev, next } => {
                write!(f, "records out of order: {next} after {prev}")
            }
            BalError::BadRecord(msg) => write!(f, "invalid record: {msg}"),
            BalError::Io(e) => write!(f, "I/O error: {e}"),
            BalError::Interrupted(why) => write!(f, "run interrupted: {why}"),
        }
    }
}

impl std::error::Error for BalError {}

impl From<std::io::Error> for BalError {
    fn from(e: std::io::Error) -> Self {
        BalError::Io(e)
    }
}
