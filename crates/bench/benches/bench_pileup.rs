//! Criterion benchmarks of the storage/pileup substrate: BAL block decode
//! throughput and pileup column streaming — the "file decompression" and
//! "BAM iteration" bands of the paper's Figure 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use ultravc_bamlite::RecordBatch;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_pileup::{pileup_region, PileupParams};
use ultravc_readsim::dataset::DatasetSpec;

fn bench_storage(c: &mut Criterion) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(500), 7);
    let ds = DatasetSpec::new("bench", 2_000.0, 0xB17E)
        .with_variants(4, 0.02, 0.05)
        .simulate(&reference);
    let file = ds.alignments.clone();
    let total_bases: u64 = file.n_records() * 100;

    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(file.source().len() as u64));
    group.bench_function("bal_decode_all", |b| {
        b.iter(|| {
            let mut reader = file.reader();
            let mut batch = RecordBatch::new();
            let mut n = 0u64;
            for i in 0..file.n_blocks() {
                reader.decode_batch(black_box(i), &mut batch).unwrap();
                n += batch.len() as u64;
            }
            black_box(n)
        })
    });
    group.throughput(Throughput::Elements(total_bases));
    group.bench_function("pileup_stream_all", |b| {
        b.iter(|| {
            let mut depth_sum = 0usize;
            for col in pileup_region(&file, 0, 500, PileupParams::default()) {
                depth_sum += col.depth();
            }
            black_box(depth_sum)
        })
    });
    for &span in &[50u32, 250] {
        group.throughput(Throughput::Elements(span as u64));
        group.bench_with_input(
            BenchmarkId::new("pileup_region_query", span),
            &span,
            |b, &span| {
                b.iter(|| {
                    let cols =
                        pileup_region(&file, 200, 200 + span, PileupParams::default()).count();
                    black_box(cols)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
