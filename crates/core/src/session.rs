//! A reusable calling session: the driver→service split.
//!
//! [`CallDriver::run`] is a batch entry point — it rebuilds the
//! [`ColumnTest`] on every call, which is right for a CLI process that
//! runs once and exits. A serving process answering many region queries
//! against the same file wants the opposite: open the file once (one
//! descriptor, index and dictionary parsed once), build the whole-genome
//! tester once, and reuse both across requests. [`CallSession`] is that
//! object.
//!
//! A session is **immutably shared**: [`CallSession::call`] takes
//! `&self`, so one session behind an `Arc` serves concurrent requests —
//! each call clones the cheap handles ([`BalFile`] is Arc'd bytes +
//! index + dict), arms its own [`RunBudget`], and builds its own
//! run-scoped block cache. Nothing a request does — not a deadline
//! expiry, not a cancelled client, not a contained worker panic — can
//! poison the session for the next request.
//!
//! Result identity: a session call over `[s, e)` produces records
//! bitwise identical to a fresh [`CallDriver::run_region`] over the same
//! range, because the tester is built from the whole reference either
//! way (same Bonferroni correction) and the pileup machinery is
//! identical. That property is what lets a server's responses be
//! compared byte-for-byte against batch CLI output in CI.

use crate::driver::{CallDriver, CallOutcome};
use crate::pvalue::ColumnTest;
use crate::supervisor::RunBudget;
use std::ops::Range;
use std::sync::Arc;
use ultravc_bamlite::{BalError, BalFile};
use ultravc_genome::reference::ReferenceGenome;

/// A long-lived calling session over one reference + alignment file:
/// open file, quality dictionary and whole-genome [`ColumnTest`] all
/// survive across requests. See the module docs for the
/// sharing and identity contract.
#[derive(Debug)]
pub struct CallSession {
    driver: CallDriver,
    reference: Arc<ReferenceGenome>,
    alignments: BalFile,
    tester: ColumnTest,
}

impl CallSession {
    /// Open a session: build the whole-genome tester once.
    pub fn open(
        driver: CallDriver,
        reference: Arc<ReferenceGenome>,
        alignments: BalFile,
    ) -> CallSession {
        let tester = ColumnTest::new(&driver.config, reference.len());
        CallSession {
            driver,
            reference,
            alignments,
            tester,
        }
    }

    /// One region call under the session driver's own budget. Records
    /// are bitwise identical to [`CallDriver::run_region`] on a fresh
    /// driver with the same configuration.
    pub fn call(&self, region: Range<u32>) -> Result<CallOutcome, BalError> {
        self.driver
            .run_region_with(&self.reference, &self.alignments, region, &self.tester)
    }

    /// One region call under a per-request budget (a server arms one per
    /// request so client deadlines and disconnects cancel that request
    /// alone).
    pub fn call_with_budget(
        &self,
        region: Range<u32>,
        budget: RunBudget,
    ) -> Result<CallOutcome, BalError> {
        let mut driver = self.driver.clone();
        driver.budget = budget;
        driver.run_region_with(&self.reference, &self.alignments, region, &self.tester)
    }

    /// Price a region request before running it — the session-level
    /// entry to [`CallDriver::estimate_region_cost`], computed from the
    /// held-open file's index (no payload I/O). A server uses this to
    /// order its job queue, budget total in-flight cost, and weight
    /// result-cache admission.
    pub fn estimate_cost(&self, region: &Range<u32>) -> u64 {
        CallDriver::estimate_region_cost(&self.alignments, region)
    }

    /// Total cost of the whole held-open file in [`CallSession::estimate_cost`]
    /// units: every record, i.e. the price of a whole-genome call.
    pub fn total_cost(&self) -> u64 {
        self.alignments.n_records().max(1)
    }

    /// The reference the session calls against.
    pub fn reference(&self) -> &Arc<ReferenceGenome> {
        &self.reference
    }

    /// The held-open alignment file.
    pub fn alignments(&self) -> &BalFile {
        &self.alignments
    }

    /// The session's driver configuration.
    pub fn driver(&self) -> &CallDriver {
        &self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use ultravc_genome::reference::GenomeParams;
    use ultravc_readsim::dataset::DatasetSpec;

    fn setup(depth: f64, seed: u64) -> (ReferenceGenome, BalFile) {
        let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::tiny(), seed);
        let ds = DatasetSpec::new("t", depth, seed)
            .with_variants(10, 0.02, 0.1)
            .simulate(&reference);
        (reference, ds.alignments)
    }

    #[test]
    fn session_calls_match_fresh_driver_runs_across_tiers() {
        let (reference, alignments) = setup(250.0, 97);
        let path =
            std::env::temp_dir().join(format!("ultravc-session-tiers-{}.bal", std::process::id()));
        alignments.write_to(&path).unwrap();
        let end = reference.len() as u32;
        let regions = [0..end, 0..end / 3, end / 3..2 * end / 3, end - 1..end];
        let reference = Arc::new(reference);
        for held in [alignments, BalFile::open(&path).unwrap()] {
            let tier = held.source().tier_name();
            let session = CallSession::open(CallDriver::openmp(2), Arc::clone(&reference), held);
            for region in &regions {
                let via_session = session.call(region.clone()).unwrap();
                let fresh = CallDriver::openmp(2)
                    .run_region(&reference, &BalFile::open(&path).unwrap(), region.clone())
                    .unwrap();
                assert_eq!(via_session.records, fresh.records, "{tier} {region:?}");
                assert_eq!(via_session.stats, fresh.stats, "{tier} {region:?}");
                assert!(via_session.partial.is_empty());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_runs_are_column_slices_of_the_whole_genome_run() {
        // The whole-genome tester makes a region run's *unfiltered* calls
        // exactly the whole-genome calls restricted to the region.
        let (reference, alignments) = setup(300.0, 101);
        let mut driver = CallDriver::sequential();
        driver.filter = None;
        let end = reference.len() as u32;
        let whole = driver.run(&reference, &alignments).unwrap();
        let session = CallSession::open(driver, Arc::new(reference), alignments);
        for region in [0..end, end / 4..3 * end / 4, 17..18] {
            let sliced: Vec<_> = whole
                .records
                .iter()
                .filter(|r| region.contains(&(r.pos as u32)))
                .cloned()
                .collect();
            let got = session.call(region.clone()).unwrap();
            assert_eq!(got.records, sliced, "{region:?}");
        }
    }

    #[test]
    fn per_request_budgets_do_not_poison_the_session() {
        let (reference, alignments) = setup(250.0, 103);
        let end = reference.len() as u32;
        let session = CallSession::open(
            CallDriver::openmp(2),
            Arc::new(reference),
            alignments.clone(),
        );
        let clean = session.call(0..end).unwrap();
        // A cancelled request comes back partial...
        let cancelled = RunBudget::unbounded();
        cancelled.cancel.cancel();
        let partial = session.call_with_budget(0..end, cancelled).unwrap();
        assert!(!partial.partial.is_empty());
        // ...and the next plain call is untouched by it.
        let after = session.call(0..end).unwrap();
        assert_eq!(after.records, clean.records);
        assert_eq!(after.stats, clean.stats);
    }

    #[test]
    // A reversed span is one of the invalid inputs under test.
    #[allow(clippy::reversed_empty_ranges)]
    fn invalid_regions_and_zero_deadlines_are_rejected() {
        let (reference, alignments) = setup(100.0, 107);
        let end = reference.len() as u32;
        let session = CallSession::open(CallDriver::sequential(), Arc::new(reference), alignments);
        for bad in [end..end + 1, 5..4, 0..u32::MAX] {
            let err = session.call(bad.clone()).unwrap_err();
            assert!(err.to_string().contains("out of bounds"), "{bad:?}: {err}");
        }
        let err = session
            .call_with_budget(0..end, RunBudget::with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
    }

    #[test]
    fn cost_estimates_are_monotone_and_bounded_by_the_file() {
        let (reference, alignments) = setup(300.0, 113);
        let end = reference.len() as u32;
        let session = CallSession::open(CallDriver::sequential(), Arc::new(reference), alignments);
        let whole = session.estimate_cost(&(0..end));
        let half = session.estimate_cost(&(0..end / 2));
        let sliver = session.estimate_cost(&(0..1));
        assert_eq!(
            whole,
            session.total_cost(),
            "whole span prices every record"
        );
        assert!(half <= whole && sliver <= half, "{sliver} {half} {whole}");
        assert!(sliver >= 1, "estimates are never zero");
        // Deeper file ⇒ strictly costlier whole-genome call.
        let (reference2, deeper) = setup(900.0, 113);
        let deeper = CallSession::open(CallDriver::sequential(), Arc::new(reference2), deeper);
        assert!(deeper.total_cost() > whole);
    }

    #[test]
    fn concurrent_session_calls_agree_with_sequential_ones() {
        let (reference, alignments) = setup(200.0, 109);
        let end = reference.len() as u32;
        let session = Arc::new(CallSession::open(
            CallDriver::openmp(2),
            Arc::new(reference),
            alignments,
        ));
        let regions: Vec<Range<u32>> = (0..4).map(|i| (i * end / 4)..((i + 1) * end / 4)).collect();
        let want: Vec<_> = regions
            .iter()
            .map(|r| session.call(r.clone()).unwrap().records)
            .collect();
        let handles: Vec<_> = regions
            .iter()
            .map(|r| {
                let session = Arc::clone(&session);
                let r = r.clone();
                std::thread::spawn(move || session.call(r).unwrap().records)
            })
            .collect();
        for (h, want) in handles.into_iter().zip(want) {
            assert_eq!(h.join().unwrap(), want);
        }
    }
}
