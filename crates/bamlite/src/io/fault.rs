//! Deterministic fault injection for the ingest stack: a seeded,
//! scripted failure tier under any real [`ByteSource`].
//!
//! A [`FaultSource`] wraps a real backing (mem/stream) and implements
//! the same byte-serving contract while injecting the failure classes
//! the run supervisor must survive:
//!
//! * **transient `EIO`** (`eio=P`) — a probability-`P` device error per
//!   read, retryable ([`crate::BalError::is_transient`]);
//! * **`EINTR`** (`eintr=P`) — a probability-`P` interrupted syscall,
//!   retried for free by [`crate::io::IoBudget::run_io`];
//! * **short reads** (`short=P`) — a probability-`P` partial transfer,
//!   surfaced as a transient `WouldBlock` error the retry layer re-issues
//!   (the real streaming tier loops these internally; the fault tier
//!   models the loop giving up);
//! * **per-read latency** (`latency_us=N`) — a slow device, for
//!   cancellation/deadline promptness tests;
//! * **fail-after-N-bytes** (`fail_after=N`) — a device that dies once
//!   `N` payload bytes have been served: every later read fails with
//!   `EIO`, so retries exhaust and the error escalates;
//! * **truncate-at-offset** (`truncate_at=N`) — the concurrent-writer
//!   case: reads past offset `N` behave as if the file shrank after
//!   open ([`crate::BalError::Corrupt`], fatal);
//! * **payload bit-flips** (`flip=P`) — probability-`P` silent single-bit
//!   corruption of a served payload, for detector coverage;
//! * **one-shot panic** (`panic_at=N`) — the first read covering offset
//!   `N` panics, then the trigger disarms: a deterministic stand-in for
//!   a worker bug the supervisor must contain exactly once.
//!
//! # Determinism
//!
//! All randomness comes from one splitmix64 stream seeded by the plan
//! (`seed=N`), so a given spec replays the same fault schedule for the
//! same sequence of reads. Offset triggers (`fail_after`, `truncate_at`,
//! `panic_at`) are deterministic even under parallelism; probability
//! faults depend on thread interleaving of reads, which is why only
//! transient classes (retried away, outcome-identical) use them.
//!
//! # Selection
//!
//! `ULTRAVC_FAULT=<spec>` wraps every [`crate::BalFile::open`] after
//! parsing (the index/dictionary read is not faulted, so opens succeed
//! and faults land on the payload path where the supervisor operates);
//! the hidden `--fault <spec>` CLI flag does the same per invocation and
//! wins over the environment. Specs are comma-separated `key=value`
//! pairs, e.g. `seed=42,eio=0.05,short=0.1,latency_us=200,panic_at=4096`.

use crate::io::ByteSource;
use crate::BalError;
use std::borrow::Cow;
use std::time::Duration;
use ultravc_sync::Mutex;

/// A parsed fault schedule: seed, per-class probabilities and offset
/// triggers. See the module docs for the spec grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's deterministic rng stream.
    pub seed: u64,
    /// Per-read probability of a transient `EIO`.
    pub eio: f64,
    /// Per-read probability of an `EINTR`.
    pub eintr: f64,
    /// Per-read probability of a short read (transient partial transfer).
    pub short: f64,
    /// Injected latency per read.
    pub latency: Duration,
    /// Persistent `EIO` on every read once this many payload bytes have
    /// been served.
    pub fail_after: Option<u64>,
    /// Reads extending past this offset fail as a truncated file.
    pub truncate_at: Option<usize>,
    /// Per-read probability of flipping one bit in the served payload.
    pub flip: f64,
    /// The first read covering this offset panics, then the trigger
    /// disarms.
    pub panic_at: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            eio: 0.0,
            eintr: 0.0,
            short: 0.0,
            latency: Duration::ZERO,
            fail_after: None,
            truncate_at: None,
            flip: 0.0,
            panic_at: None,
        }
    }
}

fn invalid(msg: String) -> BalError {
    BalError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

impl FaultPlan {
    /// Parse a `ULTRAVC_FAULT` / `--fault` spec: comma-separated
    /// `key=value` pairs. Unknown keys and malformed values are errors —
    /// a typo must not silently run a CI leg fault-free. An empty spec
    /// is an error too (use an unset variable for "no faults").
    pub fn parse(spec: &str) -> Result<FaultPlan, BalError> {
        if spec.trim().is_empty() {
            return Err(invalid(
                "empty fault spec (unset ULTRAVC_FAULT instead)".into(),
            ));
        }
        let mut plan = FaultPlan::default();
        for pair in spec.split(',') {
            let pair = pair.trim();
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| invalid(format!("fault spec item {pair:?} is not key=value")))?;
            let prob = |v: &str| -> Result<f64, BalError> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| invalid(format!("fault {key}={v:?} is not a probability")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(invalid(format!("fault {key}={v} outside [0, 1]")));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, BalError> {
                v.parse()
                    .map_err(|_| invalid(format!("fault {key}={v:?} is not an integer")))
            };
            match key {
                "seed" => plan.seed = int(value)?,
                "eio" => plan.eio = prob(value)?,
                "eintr" => plan.eintr = prob(value)?,
                "short" => plan.short = prob(value)?,
                "latency_us" => plan.latency = Duration::from_micros(int(value)?),
                "fail_after" => plan.fail_after = Some(int(value)?),
                "truncate_at" => {
                    plan.truncate_at = Some(usize::try_from(int(value)?).map_err(|_| {
                        invalid(format!("fault truncate_at={value} overflows usize"))
                    })?)
                }
                "flip" => plan.flip = prob(value)?,
                "panic_at" => {
                    plan.panic_at =
                        Some(usize::try_from(int(value)?).map_err(|_| {
                            invalid(format!("fault panic_at={value} overflows usize"))
                        })?)
                }
                _ => return Err(invalid(format!("unrecognized fault key {key:?}"))),
            }
        }
        Ok(plan)
    }

    /// The plan `ULTRAVC_FAULT` scripts, if any (strictly validated).
    pub fn env_plan() -> Result<Option<FaultPlan>, BalError> {
        match std::env::var("ULTRAVC_FAULT") {
            Err(_) => Ok(None),
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => FaultPlan::parse(&v).map(Some),
        }
    }
}

/// Mutable fault state, serialized under one lock: the rng stream, the
/// served-byte odometer and the one-shot panic trigger.
#[derive(Debug)]
struct FaultState {
    rng: u64,
    bytes_served: u64,
    panic_armed: bool,
}

/// A [`ByteSource`] wrapper executing a [`FaultPlan`]. See the module
/// docs for the fault classes and determinism contract.
#[derive(Debug)]
pub struct FaultSource {
    inner: ByteSource,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

/// One splitmix64 step — the same generator the readsim stack uses;
/// deterministic, seedable, no external dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultSource {
    /// Wrap `inner` (a real tier) under `plan`.
    pub fn new(inner: ByteSource, plan: FaultPlan) -> FaultSource {
        FaultSource {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng: plan.seed,
                bytes_served: 0,
                panic_armed: plan.panic_at.is_some(),
            }),
        }
    }

    /// The wrapped real tier.
    pub fn inner(&self) -> &ByteSource {
        &self.inner
    }

    /// The plan this source executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The diagnostic tier name: the fault tier reports itself, not the
    /// tier it wraps (a faulted run must never be mistaken for a clean
    /// one in bench labels or effective-mode reports).
    pub fn tier_name(&self) -> &'static str {
        "fault"
    }

    /// Total length in bytes (the inner tier's open-time length — a
    /// `truncate_at` trigger models the file shrinking *after* open, so
    /// it does not change the advertised length, mirroring
    /// [`crate::io::StreamFile`]).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Serve `[offset, offset + len)`, first consulting the fault
    /// schedule. Injected failures are returned as the corresponding
    /// [`BalError`]; a bit-flip fault serves corrupted payload bytes
    /// silently (that is the point). The one-shot `panic_at` trigger
    /// disarms before panicking, so the read can be retried successfully
    /// once the panic has been contained. An open file's bytes are read
    /// through `buf`, as [`ByteSource::slice_into`] does.
    pub fn slice_into(
        &self,
        offset: usize,
        len: usize,
        buf: Vec<u8>,
    ) -> Result<Cow<'_, [u8]>, BalError> {
        if !self.plan.latency.is_zero() {
            std::thread::sleep(self.plan.latency);
        }
        let verdict = {
            let mut st = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.judge(&mut st, offset, len)
        };
        match verdict {
            Verdict::Panic => {
                panic!("injected fault: panic_at offset {offset} (one-shot, now disarmed)")
            }
            Verdict::Fail(e) => Err(e),
            Verdict::Serve { flip_bit } => {
                let data = self.inner.slice_into(offset, len, buf)?;
                match flip_bit {
                    None => Ok(data),
                    Some(bit) if len > 0 => {
                        let mut owned = data.into_owned();
                        let idx = (bit / 8) as usize % owned.len();
                        owned[idx] ^= 1 << (bit % 8);
                        Ok(Cow::Owned(owned))
                    }
                    Some(_) => Ok(data),
                }
            }
        }
    }

    /// Decide this read's fate under the plan. Runs under the state lock;
    /// the panic itself is raised by the caller after the lock is
    /// released, so a contained panic cannot poison the fault schedule.
    fn judge(&self, st: &mut FaultState, offset: usize, len: usize) -> Verdict {
        let p = &self.plan;
        let end = offset.saturating_add(len);
        if st.panic_armed
            && p.panic_at
                .is_some_and(|at| offset <= at && at < end.max(offset + 1))
        {
            st.panic_armed = false;
            return Verdict::Panic;
        }
        if p.truncate_at.is_some_and(|at| end > at) {
            return Verdict::Fail(BalError::Corrupt(
                "file truncated while reading (shrank after open)",
            ));
        }
        if p.fail_after.is_some_and(|at| st.bytes_served >= at) {
            return Verdict::Fail(BalError::Io(std::io::Error::from_raw_os_error(5)));
        }
        if p.eintr > 0.0 && unit(&mut st.rng) < p.eintr {
            return Verdict::Fail(BalError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected fault: EINTR",
            )));
        }
        if p.eio > 0.0 && unit(&mut st.rng) < p.eio {
            return Verdict::Fail(BalError::Io(std::io::Error::from_raw_os_error(5)));
        }
        if p.short > 0.0 && unit(&mut st.rng) < p.short {
            return Verdict::Fail(BalError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "injected fault: short read (partial transfer)",
            )));
        }
        st.bytes_served += len as u64;
        let flip_bit = (p.flip > 0.0 && unit(&mut st.rng) < p.flip)
            .then(|| splitmix64(&mut st.rng) % (8 * len.max(1) as u64));
        Verdict::Serve { flip_bit }
    }
}

/// The outcome of one scheduled read decision.
enum Verdict {
    Serve { flip_bit: Option<u64> },
    Fail(BalError),
    Panic,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoBudget;
    use bytes::Bytes;

    fn mem(n: usize) -> ByteSource {
        ByteSource::Mem(Bytes::from((0..n).map(|i| i as u8).collect::<Vec<u8>>()))
    }

    #[test]
    fn spec_parsing_round_trips_every_key() {
        let plan = FaultPlan::parse(
            "seed=42,eio=0.25,eintr=0.5,short=1,latency_us=250,fail_after=1024,\
             truncate_at=2048,flip=0.125,panic_at=99",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.eio, 0.25);
        assert_eq!(plan.eintr, 0.5);
        assert_eq!(plan.short, 1.0);
        assert_eq!(plan.latency, Duration::from_micros(250));
        assert_eq!(plan.fail_after, Some(1024));
        assert_eq!(plan.truncate_at, Some(2048));
        assert_eq!(plan.flip, 0.125);
        assert_eq!(plan.panic_at, Some(99));
        // Spaces around items tolerated, unknown keys and junk rejected.
        assert!(FaultPlan::parse("seed=1, eio=0.1").is_ok());
        for bad in [
            "",
            "seed",
            "seed=x",
            "eio=1.5",
            "eio=-0.1",
            "nope=1",
            "seed=1,,eio=0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = FaultPlan::parse("seed=7,eio=0.3,short=0.3").unwrap();
        let script = |plan: FaultPlan| -> Vec<bool> {
            let src = mem(4096).with_faults(plan);
            (0..64).map(|i| src.slice(i * 64, 64).is_ok()).collect()
        };
        let a = script(plan);
        let b = script(plan);
        assert_eq!(a, b, "same seed, same read sequence, same fault schedule");
        assert!(a.iter().any(|ok| !ok), "p=0.3 over 64 reads must fault");
        assert!(a.iter().any(|ok| *ok), "and must also serve");
        let c = script(FaultPlan::parse("seed=8,eio=0.3,short=0.3").unwrap());
        assert_ne!(a, c, "a different seed reschedules");
    }

    #[test]
    fn injected_faults_have_the_right_classification() {
        let eio = mem(64).with_faults(FaultPlan::parse("eio=1").unwrap());
        let err = eio.slice(0, 16).unwrap_err();
        assert!(err.is_transient(), "EIO is transient: {err}");
        let eintr = mem(64).with_faults(FaultPlan::parse("eintr=1").unwrap());
        assert!(eintr.slice(0, 16).unwrap_err().is_transient());
        let short = mem(64).with_faults(FaultPlan::parse("short=1").unwrap());
        assert!(short.slice(0, 16).unwrap_err().is_transient());
        let trunc = mem(64).with_faults(FaultPlan::parse("truncate_at=32").unwrap());
        assert_eq!(&trunc.slice(0, 16).unwrap().to_vec()[..4], &[0, 1, 2, 3]);
        let err = trunc.slice(24, 16).unwrap_err();
        assert!(matches!(err, BalError::Corrupt(_)) && !err.is_transient());
    }

    #[test]
    fn fail_after_kills_the_device_permanently() {
        let src = mem(4096).with_faults(FaultPlan::parse("fail_after=128").unwrap());
        assert!(src.slice(0, 100).is_ok());
        assert!(src.slice(100, 28).is_ok());
        for _ in 0..8 {
            assert!(src.slice(0, 1).unwrap_err().is_transient());
        }
        // A budgeted read exhausts its retries and escalates unchanged.
        let budget = IoBudget::new(
            None,
            2,
            Duration::from_micros(10),
            Duration::from_micros(50),
            crate::io::CancelToken::new(),
        );
        let err = budget
            .run_io(|| src.slice(0, 1).map(|c| c.len()))
            .unwrap_err();
        assert!(matches!(err, BalError::Io(_)));
        assert_eq!(budget.retries(), 2);
    }

    #[test]
    fn transient_faults_are_retried_away_under_a_budget() {
        let src =
            mem(4096).with_faults(FaultPlan::parse("seed=3,eio=0.4,eintr=0.3,short=0.4").unwrap());
        let budget = IoBudget::new(
            None,
            32,
            Duration::from_micros(10),
            Duration::from_micros(50),
            crate::io::CancelToken::new(),
        );
        for i in 0..32 {
            let got = budget
                .run_io(|| src.slice(i * 64, 64).map(|c| c.to_vec()))
                .unwrap();
            assert_eq!(got[0] as usize, (i * 64) % 256, "bytes survive retries");
        }
        assert!(budget.retries() > 0, "p≈0.6 over 32 reads must retry");
    }

    #[test]
    fn bit_flips_corrupt_silently_and_deterministically() {
        let plan = FaultPlan::parse("seed=11,flip=1").unwrap();
        let clean = mem(256);
        let flipped = clean.clone().with_faults(plan);
        let a = flipped.slice(0, 256).unwrap().to_vec();
        assert_ne!(a, clean.slice(0, 256).unwrap().to_vec());
        // Exactly one bit differs per read.
        let diff: u32 = a
            .iter()
            .zip(clean.slice(0, 256).unwrap().iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff, 1);
        let b = clean
            .clone()
            .with_faults(plan)
            .slice(0, 256)
            .unwrap()
            .to_vec();
        assert_eq!(a, b, "same seed flips the same bit");
    }

    #[test]
    fn panic_at_fires_exactly_once_then_disarms() {
        let src = mem(4096).with_faults(FaultPlan::parse("panic_at=1000").unwrap());
        assert!(
            src.slice(0, 64).is_ok(),
            "reads not covering the offset pass"
        );
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = src.slice(960, 128);
        }));
        assert!(hit.is_err(), "first covering read panics");
        assert!(src.slice(960, 128).is_ok(), "trigger disarmed after firing");
    }

    #[test]
    fn cancellation_cuts_latency_and_backoff_short() {
        let src = mem(4096).with_faults(FaultPlan::parse("eio=1").unwrap());
        let cancel = crate::io::CancelToken::new();
        let budget = IoBudget::new(
            None,
            1_000,
            Duration::from_millis(50),
            Duration::from_secs(5),
            cancel.clone(),
        );
        let t0 = std::time::Instant::now();
        let killer = std::thread::spawn({
            let cancel = cancel.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                cancel.cancel();
            }
        });
        let err = budget
            .run_io(|| src.slice(0, 16).map(|c| c.len()))
            .unwrap_err();
        killer.join().unwrap();
        assert!(matches!(
            err,
            BalError::Interrupted(crate::io::Interrupt::Cancelled)
        ));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "cancel must cut the backoff short, not wait out the cap"
        );
    }

    #[test]
    fn deadline_interrupts_io() {
        let src = mem(64).with_faults(FaultPlan::parse("eio=1").unwrap());
        let budget = IoBudget::new(
            Some(std::time::Instant::now() + Duration::from_millis(20)),
            1_000,
            Duration::from_millis(5),
            Duration::from_millis(50),
            crate::io::CancelToken::new(),
        );
        let err = budget
            .run_io(|| src.slice(0, 16).map(|c| c.len()))
            .unwrap_err();
        assert!(matches!(
            err,
            BalError::Interrupted(crate::io::Interrupt::DeadlineExpired)
        ));
    }

    #[test]
    fn wrapper_replaces_rather_than_stacks() {
        let a = FaultPlan::parse("eio=1").unwrap();
        let b = FaultPlan::parse("seed=9").unwrap(); // benign plan
        let src = mem(64).with_faults(a).with_faults(b);
        assert!(
            src.slice(0, 16).is_ok(),
            "explicit plan replaced the eio one"
        );
        match &src {
            ByteSource::Fault(f) => assert!(matches!(f.inner(), ByteSource::Mem(_))),
            other => panic!("expected fault tier, got {}", other.tier_name()),
        }
        assert_eq!(src.tier_name(), "fault");
    }
}
