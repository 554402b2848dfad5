//! Where a BAL file's bytes live: the [`ByteSource`] abstraction behind
//! [`crate::BalFile::open`].
//!
//! # The two backings
//!
//! | backing | holds | block payload access | built by |
//! |---------|-------|----------------------|----------|
//! | [`ByteSource::Mem`] | whole file as [`Bytes`] | borrowed slice | writer output, [`crate::BalFile::from_bytes`], tests |
//! | [`ByteSource::Stream`] | open fd + length at open | one positioned read into an owned buffer | [`crate::BalFile::open`] — every on-disk file |
//!
//! There is one way to read a file from disk: `open` keeps the
//! descriptor and each block payload is fetched by a single ranged read
//! when a decoder asks for it, so resident memory is one compressed
//! block per reader however large the file is, and every fault the
//! device can produce arrives as an error a `read` returned. That error
//! is final: it fails the region whose read hit it, and the driver
//! contains it there. `EINTR` and short transfers are not faults — the
//! positioned-read loop ([`StreamFile`]) continues through both. A file
//! truncated by a concurrent writer is a failed read too,
//! [`BalError::Corrupt`].
//!
//! Both backings hand out block payloads through [`ByteSource::slice`],
//! which bounds-checks every request against the source length — a
//! corrupt index can therefore name impossible byte ranges without ever
//! reaching an out-of-bounds slice.
//!
//! # Supervision and faults
//!
//! Two additions serve the run supervisor (see the crate-level "Failure
//! model" section): [`CancelToken`]/[`IoBudget`] carry deadlines and
//! cancellation into every block payload read ([`IoBudget::check`]), and
//! the [`fault`] submodule provides [`ByteSource::Fault`] — a
//! deterministic, seeded fault-injection wrapper over either real
//! backing, so the containment paths are testable with replayable
//! failure schedules.

use crate::BalError;
use bytes::Bytes;
use std::borrow::Cow;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod fault;

pub use fault::{FaultPlan, FaultSource};

/// Why a supervised run stopped before finishing its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// An external [`CancelToken::cancel`] call.
    Cancelled,
    /// The run's deadline expired.
    DeadlineExpired,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// A cooperative cancellation flag. Cheap to clone (all clones share one
/// flag); any holder can [`cancel`](CancelToken::cancel), and every I/O
/// entry point checked against an [`IoBudget`] carrying the token
/// returns [`BalError::Interrupted`] promptly afterwards.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// An armed supervision budget for one run: absolute deadline and
/// cancellation (the default has neither). Attached to a
/// [`crate::BalFile`] via [`crate::BalFile::with_budget`], it gates every
/// block payload read — every worker's demand read checks it first, and
/// an I/O error is final for the read that hit it.
#[derive(Debug, Default)]
pub struct IoBudget {
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl IoBudget {
    /// A budget with an absolute `deadline` (arm it at run start) and
    /// `cancel` as its token.
    pub fn new(deadline: Option<Instant>, cancel: CancelToken) -> IoBudget {
        IoBudget { deadline, cancel }
    }

    /// The budget's cancel token (cloneable; hand it to whoever may need
    /// to cancel the run).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Why the budget would interrupt right now, if it would. Checked by
    /// workers before claiming work and before every block payload read.
    pub fn interrupt(&self) -> Option<Interrupt> {
        if self.cancel.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(Interrupt::DeadlineExpired),
            _ => None,
        }
    }

    /// [`IoBudget::interrupt`] as a `Result`, for `?`-chaining in I/O
    /// paths.
    pub fn check(&self) -> Result<(), BalError> {
        match self.interrupt() {
            Some(why) => Err(BalError::Interrupted(why)),
            None => Ok(()),
        }
    }
}

/// The identity of an on-disk file at a point in time: byte length plus
/// modification timestamp, as one `stat` call reports them. A serving
/// layer that holds a [`crate::BalFile`] open across requests probes
/// this before reusing the session — a changed fingerprint means the
/// file was rewritten under it, so the held descriptor (and any results
/// cached against the old fingerprint) must be discarded. `Hash`/`Eq`
/// so it can key a result cache directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileFingerprint {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, when the filesystem reports one.
    pub modified: Option<std::time::SystemTime>,
}

impl FileFingerprint {
    /// Stat `path` and capture its current identity.
    pub fn probe(path: impl AsRef<std::path::Path>) -> std::io::Result<FileFingerprint> {
        let md = std::fs::metadata(path)?;
        Ok(FileFingerprint {
            len: md.len(),
            modified: md.modified().ok(),
        })
    }
}

/// Where a [`crate::BalFile`]'s bytes live. Cheap to clone (all variants
/// are reference-counted), so every reader/worker shares one backing.
#[derive(Debug, Clone)]
pub enum ByteSource {
    /// The whole serialized file in memory.
    Mem(Bytes),
    /// An open file descriptor; payload requests are positioned reads
    /// into owned buffers.
    Stream(Arc<StreamFile>),
    /// A fault-injection wrapper over one of the real backings (never
    /// over another `Fault`): serves the inner source's bytes while
    /// injecting the seeded, scripted failures of its [`FaultPlan`].
    /// Built by [`ByteSource::with_faults`] / `ULTRAVC_FAULT`.
    Fault(Arc<FaultSource>),
}

impl ByteSource {
    /// Total length in bytes.
    pub fn len(&self) -> usize {
        match self {
            ByteSource::Mem(b) => b.len(),
            ByteSource::Stream(f) => f.len(),
            ByteSource::Fault(f) => f.len(),
        }
    }

    /// Whether the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes at `[offset, offset + len)`. Borrowed from an in-memory
    /// source, owned (one positioned read) from an open file. Any request
    /// outside the source — including one whose end overflows `usize` —
    /// is [`BalError::Corrupt`], never a panic.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, BalError> {
        self.slice_into(offset, len, Vec::new())
    }

    /// [`ByteSource::slice`], reading an open file's bytes into `buf`
    /// (reusing its allocation) instead of a fresh buffer; the owned
    /// result is `buf`, handed back for the next read. An in-memory
    /// source borrows and drops `buf`.
    pub fn slice_into(
        &self,
        offset: usize,
        len: usize,
        buf: Vec<u8>,
    ) -> Result<Cow<'_, [u8]>, BalError> {
        let end = offset
            .checked_add(len)
            .ok_or(BalError::Corrupt("byte range overflows"))?;
        if end > self.len() {
            return Err(BalError::Corrupt("byte range past end of file"));
        }
        match self {
            ByteSource::Mem(b) => Ok(Cow::Borrowed(&b[offset..end])),
            ByteSource::Stream(f) => f.read_range(offset, len, buf).map(Cow::Owned),
            ByteSource::Fault(f) => f.slice_into(offset, len, buf),
        }
    }

    /// The backing's name, for diagnostics and bench labels.
    pub fn tier_name(&self) -> &'static str {
        match self {
            ByteSource::Mem(_) => "mem",
            ByteSource::Stream(_) => "stream",
            ByteSource::Fault(f) => f.tier_name(),
        }
    }

    /// Wrap this source in a fault-injection layer executing `plan`. A
    /// source already under a fault wrapper is re-wrapped at its real
    /// backing (plans replace, they don't stack), so an explicit plan
    /// always wins over an `ULTRAVC_FAULT` one.
    pub fn with_faults(self, plan: FaultPlan) -> ByteSource {
        let inner = match self {
            ByteSource::Fault(f) => f.inner().clone(),
            real => real,
        };
        ByteSource::Fault(Arc::new(FaultSource::new(inner, plan)))
    }

    /// Open `path` for on-demand positioned reads.
    pub fn open(path: &Path) -> Result<ByteSource, BalError> {
        Ok(ByteSource::Stream(Arc::new(StreamFile::open(path)?)))
    }
}

/// The on-disk backing: an open descriptor plus the length observed at
/// open time. Reads are positioned (`pread`-style), so many threads can
/// share one descriptor without a seek-offset race.
#[derive(Debug)]
pub struct StreamFile {
    file: File,
    len: usize,
    /// Non-Unix fallback path: positioned reads emulated under a lock.
    #[cfg(not(unix))]
    seek_lock: std::sync::Mutex<()>,
}

impl StreamFile {
    /// Open `path` for positioned reads.
    pub fn open(path: &Path) -> Result<StreamFile, BalError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| BalError::Corrupt("file larger than usize"))?;
        Ok(StreamFile {
            file,
            len,
            #[cfg(not(unix))]
            seek_lock: std::sync::Mutex::new(()),
        })
    }

    /// Length observed at open time.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file was empty at open time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read exactly `[offset, offset + len)` into `buf`, which grows (and
    /// zero-fills) only past its longest earlier use. The caller
    /// (`ByteSource::slice_into`) has already bounds-checked the range
    /// against the open-time length.
    ///
    /// Positioned reads are not `read_exact`: the kernel may return fewer
    /// bytes than asked (signals, pipes-backed filesystems, page-cache
    /// boundaries) and may fail with `EINTR` without transferring
    /// anything, so this loops `read_exact_at`-style until the buffer is
    /// full. Hitting end-of-file first means the file shrank between
    /// `open` and this read — the concurrent-writer case the module docs
    /// call out — and is reported as [`BalError::Corrupt`], not an
    /// unchecked I/O error (and certainly not a panic).
    fn read_range(&self, offset: usize, len: usize, mut buf: Vec<u8>) -> Result<Vec<u8>, BalError> {
        buf.resize(len, 0);
        let mut filled = 0usize;
        while filled < len {
            let r = {
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    self.file
                        .read_at(&mut buf[filled..], (offset + filled) as u64)
                }
                #[cfg(not(unix))]
                {
                    use std::io::{Read, Seek, SeekFrom};
                    // A panic while holding the lock leaves no partial
                    // state behind (the seek is re-issued every pass), so
                    // a poisoned lock is safe to recover.
                    let _guard = self
                        .seek_lock
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let mut f = &self.file;
                    // Re-seek every pass: after a short read the loop
                    // continues from where the previous one stopped.
                    f.seek(SeekFrom::Start((offset + filled) as u64))
                        .and_then(|_| f.read(&mut buf[filled..]))
                }
            };
            match r {
                Ok(0) => {
                    return Err(BalError::Corrupt(
                        "file truncated while reading (shrank after open)",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(BalError::Io(e)),
            }
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(tag: &str, data: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("ultravc-io-{}-{tag}.bin", std::process::id()));
        File::create(&path).unwrap().write_all(data).unwrap();
        path
    }

    #[test]
    fn all_tiers_serve_identical_slices() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("tiers", &data);
        let sources = [
            ByteSource::Mem(Bytes::from(data.clone())),
            ByteSource::open(&path).unwrap(),
        ];
        for src in &sources {
            assert_eq!(src.len(), data.len());
            for (off, len) in [(0usize, 16usize), (100, 0), (9_990, 10), (0, 10_000)] {
                assert_eq!(
                    &src.slice(off, len).unwrap()[..],
                    &data[off..off + len],
                    "{} [{off}, +{len})",
                    src.tier_name()
                );
            }
        }
        assert_eq!(sources[1].tier_name(), "stream");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_slices_are_corrupt_not_panics() {
        let path = temp_file("oob", &[1, 2, 3, 4]);
        for src in [
            ByteSource::Mem(Bytes::from(vec![1, 2, 3, 4])),
            ByteSource::open(&path).unwrap(),
        ] {
            assert!(matches!(
                src.slice(0, 5),
                Err(BalError::Corrupt("byte range past end of file"))
            ));
            assert!(matches!(src.slice(4, 1), Err(BalError::Corrupt(_))));
            assert!(matches!(
                src.slice(usize::MAX, 2),
                Err(BalError::Corrupt("byte range overflows"))
            ));
            assert_eq!(&src.slice(4, 0).unwrap()[..], b"", "empty at EOF is fine");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_read_of_truncated_file_is_corrupt() {
        // The concurrent-writer case: the file shrinks between `open` and
        // a payload read. The open-time length still bounds-checks the
        // request, so the failure must come from the read loop itself —
        // as `Corrupt`, not an unchecked error or a panic.
        let data = vec![9u8; 8_192];
        let path = temp_file("shrunk", &data);
        let src = ByteSource::open(&path).unwrap();
        assert_eq!(src.len(), data.len());
        // Shrink the file on disk underneath the open descriptor.
        File::create(&path).unwrap().write_all(&[9u8; 100]).unwrap();
        assert_eq!(&src.slice(0, 100).unwrap()[..], &data[..100]);
        assert!(matches!(
            src.slice(0, 8_192),
            Err(BalError::Corrupt(
                "file truncated while reading (shrank after open)"
            ))
        ));
        assert!(matches!(src.slice(4_000, 200), Err(BalError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("ultravc-io-definitely-missing.bal");
        assert!(matches!(ByteSource::open(&path), Err(BalError::Io(_))));
    }
}
