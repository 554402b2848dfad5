//! The run supervisor: deadlines, cancellation and per-region failure
//! reporting for [`crate::CallDriver`] runs.
//!
//! A [`RunBudget`] is the driver-level statement of supervision policy —
//! a *relative* deadline and a shareable [`CancelToken`]. At run start
//! the driver [`arm`](RunBudget::arm)s it into an [`IoBudget`] (deadline
//! anchored to that instant) and attaches it to its
//! [`ultravc_bamlite::BalFile`] clone, so every payload read the run's
//! workers issue observes cancellation and the deadline promptly. The
//! default driver budget is [`RunBudget::unbounded`]: no deadline, never
//! cancelled — supervision as a safety net with nothing to trip it.
//!
//! An I/O error is final for its read, and failures are **contained per
//! region** rather than aborting the run: the driver runs its chunks (a
//! sequential run's single one included) under
//! [`ultravc_parfor::parallel_for_supervised`], converts each failed,
//! panicked or skipped chunk into a [`RegionError`], and returns a
//! *partial* [`crate::CallOutcome`] — completed regions' calls (bitwise
//! identical to a fault-free run), failed regions itemized in
//! [`partial`](crate::CallOutcome::partial).

use std::ops::Range;
use std::time::{Duration, Instant};

pub use ultravc_bamlite::{CancelToken, Interrupt, IoBudget};

/// Driver-level supervision policy: a *relative* deadline plus the
/// cancellation signal a run is armed with. Cloning shares the cancel
/// token (cancel once, every clone's runs observe it) but nothing else —
/// each `run` call arms its own deadline.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock allowance for one run, measured from `run()` entry.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// External cancellation signal, shared across clones.
    pub cancel: CancelToken,
}

impl RunBudget {
    /// No deadline, never cancelled (unless the token is). The driver
    /// default.
    pub fn unbounded() -> RunBudget {
        RunBudget::default()
    }

    /// An otherwise-default budget that expires `deadline` after the run
    /// starts.
    pub fn with_deadline(deadline: Duration) -> RunBudget {
        RunBudget {
            deadline: Some(deadline),
            ..RunBudget::unbounded()
        }
    }

    /// Check the policy is coherent before arming. A zero-duration
    /// deadline would expire the instant the run starts — every run
    /// would come back trivially partial with nothing attempted — so it
    /// is rejected here with a clear message instead of armed. (Arming
    /// itself stays permissive: [`arm`](RunBudget::arm) is also used to
    /// construct already-expired budgets in tests.) The driver calls
    /// this at run entry; front ends should call it at parse time so
    /// the error points at the flag, not the run.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline == Some(Duration::ZERO) {
            return Err(
                "deadline must be positive: a zero deadline expires before the run starts"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Arm the budget for one run starting now: the relative deadline
    /// becomes an absolute instant, and the cancel token is shared with
    /// this policy (and every clone).
    pub fn arm(&self) -> IoBudget {
        IoBudget::new(
            self.deadline.map(|d| Instant::now() + d),
            self.cancel.clone(),
        )
    }
}

/// Why one region of a partial run produced no calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionFailure {
    /// The worker panicked on this region; the payload is the contained
    /// panic message.
    Panic(String),
    /// The region failed with a real error (rendered) — corrupt bytes or
    /// a failed read.
    Error(String),
    /// The run was interrupted before (or while) this region ran.
    Cancelled(Interrupt),
}

impl std::fmt::Display for RegionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionFailure::Panic(msg) => write!(f, "worker panic: {msg}"),
            RegionFailure::Error(msg) => write!(f, "{msg}"),
            RegionFailure::Cancelled(why) => write!(f, "{why}"),
        }
    }
}

/// One failed region of a partial run: which columns produced no calls,
/// and why. Regions absent from the list completed normally — their calls
/// are in the outcome, bitwise identical to a fault-free run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionError {
    /// The genomic column range of the failed chunk.
    pub region: Range<u32>,
    /// What happened to it.
    pub failure: RegionFailure,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}, {}): {}",
            self.region.start, self.region.end, self.failure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_anchors_the_deadline_and_shares_the_token() {
        let budget = RunBudget::with_deadline(Duration::from_secs(3600));
        let armed = budget.arm();
        assert!(armed.interrupt().is_none(), "far deadline, not cancelled");
        budget.cancel.cancel();
        assert_eq!(armed.interrupt(), Some(Interrupt::Cancelled));
        // A clone shares the token too.
        let clone_armed = budget.clone().arm();
        assert_eq!(clone_armed.interrupt(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_promptly() {
        let budget = RunBudget::with_deadline(Duration::ZERO);
        let armed = budget.arm();
        assert_eq!(armed.interrupt(), Some(Interrupt::DeadlineExpired));
        assert!(RunBudget::unbounded().arm().interrupt().is_none());
    }

    #[test]
    fn zero_deadline_fails_validation_but_positive_passes() {
        assert!(RunBudget::with_deadline(Duration::ZERO).validate().is_err());
        assert!(RunBudget::with_deadline(Duration::from_millis(1))
            .validate()
            .is_ok());
        assert!(RunBudget::unbounded().validate().is_ok());
    }

    #[test]
    fn region_errors_render_for_reports() {
        let e = RegionError {
            region: 128..256,
            failure: RegionFailure::Panic("index out of bounds".into()),
        };
        assert_eq!(
            e.to_string(),
            "[128, 256): worker panic: index out of bounds"
        );
        let c = RegionError {
            region: 0..64,
            failure: RegionFailure::Cancelled(Interrupt::DeadlineExpired),
        };
        assert!(c.to_string().contains("deadline"));
    }
}
