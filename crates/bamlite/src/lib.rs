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
//! 2-bit packed bases, run-length-encoded qualities. See `DESIGN.md`
//! (Substitutions) for the BGZF-equivalence argument.
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
//!   is an `Err` from a read — something the run's [`IoBudget`] can retry
//!   or time out and the driver can contain to one region.
//!
//! Only the index/dictionary region is read eagerly — parsing
//! bounds-checks every offset, length and count it reads, so a corrupt
//! or truncated file fails with [`BalError::Corrupt`] instead of
//! panicking, whichever backing serves it. Both feed the same
//! decode-once machinery ([`BalReader::decode_batch`],
//! [`SharedBlockCache`]) and produce bitwise-identical batches.
//!
//! # The block plan
//!
//! [`IoPlan::for_regions`] turns the block index and a run's region
//! partition into one **block window** per region (its own blocks plus
//! shared boundary blocks — what a parallel worker's pileup iterator
//! walks instead of re-deriving the overlap).
//! [`SharedBlockCache::for_plan`] counts the windows to know when each
//! block has served its last request and its arena can be released.
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
//! There is one decoder. [`BalReader::decode_batch`] bulk-decompresses the
//! four streams into warmed scratch, then one linear walk fills a reusable
//! [`RecordBatch`] arena (unpacked base codes, bin indices, CIGAR ops;
//! records as offset+len [`RecordView`]s) with zero per-record
//! allocations, so the pileup layer stacks bin ids directly instead of
//! re-deriving them per read. Owned [`Record`]s, for the few consumers
//! that want whole reads, are materialized from those views
//! ([`BalReader::records`]). [`SharedBlockCache`] layers run-scoped
//! decode-once semantics on top for parallel callers whose partitions
//! straddle block boundaries. See the [`mod@file`] module for the byte
//! layout.
//!
//! # Failure model
//!
//! Every fallible ingest operation returns [`BalError`]; the variants
//! split into three classes a supervisor treats differently:
//!
//! * **Transient** ([`BalError::is_transient`]) — `Io` errors a retry can
//!   plausibly clear: `EINTR`, `EIO` from a flaky device, timeouts,
//!   injected short reads. [`IoBudget::run_io`]
//!   retries these with capped exponential backoff up to the budget's
//!   `max_retries`, then escalates the final [`BalError::Io`] unchanged.
//!   `EINTR` specifically is retried without consuming budget, matching
//!   the kernel contract the positioned-read loop already honours.
//! * **Fatal** — `Corrupt`, `UnsupportedVersion`, `Unsorted`, `BadRecord`,
//!   and non-transient `Io` errors. Retrying cannot help (the bytes
//!   themselves are wrong), so these surface immediately.
//! * **Interruptions** ([`BalError::Interrupted`]) — not failures at all:
//!   the run's [`CancelToken`] fired or its deadline expired. I/O entry
//!   points checked against an armed [`IoBudget`] return this promptly
//!   so workers drain instead of finishing doomed work.
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
pub mod file;
pub mod io;
pub mod plan;
pub mod record;

pub use batch::{QualityDict, RecordBatch, RecordView, SharedBlockCache};
pub use cigar::{Cigar, CigarOp};
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

impl BalError {
    /// Whether a retry can plausibly clear this error: `EINTR`, a device
    /// `EIO`, timeouts, and short-read/partial-transfer conditions are
    /// transient; corrupt bytes, validation failures and interruptions
    /// are not. This is the classification
    /// [`IoBudget::run_io`] retries on.
    pub fn is_transient(&self) -> bool {
        match self {
            BalError::Io(e) => {
                matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::WouldBlock
                ) || e.raw_os_error() == Some(5) // EIO
            }
            _ => false,
        }
    }
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
