//! Criterion microbenchmarks of the local SpGEMM kernels (§II: the paper
//! uses a hybrid of heap- and hash-based SpGEMM) plus the DCSC-vs-CSC
//! column-source ablation. These justify the hybrid dispatcher's existence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_sparse::gen::{banded, erdos_renyi, rmat};
use sa_sparse::semiring::PlusTimes;
use sa_sparse::spgemm::{spgemm_kernel, Kernel};
use sa_sparse::{Csc, Dcsc};

fn kernel_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_spgemm");
    group.sample_size(10);
    let cases: Vec<(&str, Csc<f64>)> = vec![
        ("er_d4", erdos_renyi(20_000, 20_000, 4.0, 1)),
        ("er_d16", erdos_renyi(8_000, 8_000, 16.0, 2)),
        ("rmat_s13", rmat(13, 8, (0.57, 0.19, 0.19, 0.05), 3)),
    ];
    for (name, a) in &cases {
        for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
            group.bench_with_input(BenchmarkId::new(format!("{kernel:?}"), name), a, |b, a| {
                b.iter(|| spgemm_kernel::<PlusTimes<f64>, _, _>(a, a, kernel));
            });
        }
    }
    group.finish();
}

fn dcsc_vs_csc_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("a_source_format");
    group.sample_size(10);
    // hypersparse A (as after a 1D split): DCSC's target case
    let a = erdos_renyi(40_000, 40_000, 0.5, 4);
    let b = erdos_renyi(40_000, 2_000, 8.0, 5);
    let ad = Dcsc::from_csc(&a);
    group.bench_function("csc_source", |bench| {
        bench.iter(|| spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid));
    });
    group.bench_function("dcsc_source", |bench| {
        bench.iter(|| spgemm_kernel::<PlusTimes<f64>, _, _>(&ad, &b, Kernel::Hybrid));
    });
    // Algorithm 1's local multiply: a rank's Ã (DCSC over every global
    // column of a banded matrix) times its B slice, the first half of the
    // columns. Every B entry is a column lookup in Ã.
    let a = banded(5000, 90, 0.35, false, 6);
    let b = a.extract_cols(0, 2500);
    let ad = Dcsc::from_csc(&a);
    group.bench_function("csc_source_banded", |bench| {
        bench.iter(|| spgemm_kernel::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid));
    });
    group.bench_function("dcsc_source_banded", |bench| {
        bench.iter(|| spgemm_kernel::<PlusTimes<f64>, _, _>(&ad, &b, Kernel::Hybrid));
    });
    group.finish();
}

criterion_group!(benches, kernel_comparison, dcsc_vs_csc_source);
criterion_main!(benches);
