//! Leak-checked shutdown, alone in its binary: the check counts every
//! thread in `/proc/self/task`, so no sibling test may run a server of
//! its own meanwhile. (Thread names cannot tell servers apart: every
//! server names its threads `ultravc-serve-*`.)

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ultravc_genome::fasta::{write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_serve::{http_get, SampleSpec, ServeConfig, Server};

/// Simulate a small fixture; returns its `.bal`, `.fa` and chromosome.
fn write_fixture(dir: &Path) -> (PathBuf, PathBuf, String) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(500), 29);
    let ds = DatasetSpec::new("shutdown", 250.0, 29)
        .with_variants(8, 0.005, 0.05)
        .simulate(&reference);
    let bal = dir.join("s.bal");
    ds.alignments.write_to(&bal).unwrap();
    let mut fasta = Vec::new();
    let record = FastaRecord {
        name: reference.name.clone(),
        seq: reference.seq.clone(),
    };
    write_fasta(&mut fasta, &[record], 70).unwrap();
    let fa = dir.join("s.fa");
    fs::write(&fa, fasta).unwrap();
    (bal, fa, reference.name)
}

fn bind(bal: &Path, fa: &Path) -> Server {
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(SampleSpec {
        name: "s".to_string(),
        bal: bal.to_path_buf(),
        fasta: fa.to_path_buf(),
        fault: None,
    });
    Server::bind(config).unwrap()
}

/// Live OS threads of this process.
fn live_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Worker, acceptor and handler threads must all be gone; give the OS a
/// moment to reap them.
fn assert_back_to(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if live_threads() <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaked threads: {} live vs {baseline} baseline",
            live_threads()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn graceful_shutdown_leaks_no_threads() {
    let dir = std::env::temp_dir().join(format!("ultravc-serve-{}-leak", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let (bal, fa, chrom) = write_fixture(&dir);
    let timeout = Some(Duration::from_secs(30));
    let baseline = live_threads();

    // Idle: one call, shutdown over the wire (what CI's smoke script
    // does), then join.
    let server = bind(&bal, &fa);
    let addr = server.local_addr();
    let resp = http_get(
        addr,
        &format!("/call?sample=s&region={chrom}:1-200"),
        timeout,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(http_get(addr, "/shutdown", timeout).unwrap().status, 200);
    assert_eq!(server.join().requests, 1);
    assert_back_to(baseline);

    // Under load: clients keep calls in flight until the server stops
    // answering (one whole-genome, the rest 200-bp windows), and
    // `/shutdown` races them.
    const CLIENTS: usize = 4;
    let server = bind(&bal, &fa);
    let addr = server.local_addr();
    let answered = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (answered, start) = (Arc::clone(&answered), Arc::clone(&start));
            let region = match c {
                0 => chrom.clone(),
                _ => format!("{chrom}:{}-{}", 100 * c, 100 * c + 199),
            };
            let path = format!("/call?sample=s&region={region}&cache=off");
            std::thread::spawn(move || {
                start.wait();
                let mut statuses = Vec::new();
                // Bounded, so a server that never stops cannot hang the test.
                while statuses.len() < 10_000 {
                    let Ok(resp) = http_get(addr, &path, timeout) else {
                        break;
                    };
                    statuses.push(resp.status);
                    answered.fetch_add(1, Ordering::SeqCst);
                }
                statuses
            })
        })
        .collect();
    start.wait();
    while answered.load(Ordering::SeqCst) < CLIENTS {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(http_get(addr, "/shutdown", timeout).unwrap().status, 200);
    let report = server.join();
    for client in clients {
        let statuses = client.join().unwrap();
        // 206: a call the shutdown cancelled mid-run; 503: a call shed
        // by the cost budget.
        assert!(
            statuses.iter().all(|s| [200, 206, 503].contains(s)),
            "{statuses:?}"
        );
    }
    assert!(report.requests > CLIENTS as u64, "{report:?}");
    assert_back_to(baseline);
    let _ = fs::remove_dir_all(&dir);
}
