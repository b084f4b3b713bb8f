//! Micro-benchmarks of the substrate kernels: graph generation, CSR
//! construction, the sequential references, message exchange and the bucket
//! relax operation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sssp_bench::{build_family, Family};
use sssp_comm::exchange::{exchange_pooled, Outbox};
use sssp_core::config::DeltaParam;
use sssp_core::seq;
use sssp_core::state::RankState;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::CsrBuilder;

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generation");
    g.sample_size(10);
    g.bench_function("rmat1_scale12_tuples", |b| {
        let gen = RmatGenerator::new(RmatParams::RMAT1, 12, 16).seed(1);
        b.iter(|| black_box(gen.generate_tuples()))
    });
    g.bench_function("rmat1_scale12_weighted", |b| {
        let gen = RmatGenerator::new(RmatParams::RMAT1, 12, 16).seed(1);
        b.iter(|| black_box(gen.generate_weighted(255)))
    });
    g.bench_function("csr_build_scale12", |b| {
        let el = RmatGenerator::new(RmatParams::RMAT1, 12, 16)
            .seed(1)
            .generate_weighted(255);
        b.iter(|| black_box(CsrBuilder::new().build(&el)))
    });
    g.finish();
}

fn bench_seq(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequential");
    g.sample_size(10);
    let csr = build_family(Family::Rmat1, 12, 1);
    g.bench_function("dijkstra_scale12", |b| {
        b.iter(|| black_box(seq::dijkstra(&csr, 0)))
    });
    g.bench_function("delta_stepping25_scale12", |b| {
        b.iter(|| black_box(seq::delta_stepping(&csr, 0, 25)))
    });
    g.finish();
}

fn bench_relax(c: &mut Criterion) {
    let mut g = c.benchmark_group("relax_kernel");
    let delta = DeltaParam::Finite(25);
    g.bench_function("relax_100k_improving", |b| {
        b.iter(|| {
            let mut st = RankState::new(0, 100_000, 4);
            st.begin_phase();
            for i in 0..100_000u32 {
                st.relax(i, (i as u64).wrapping_mul(37) % 10_000, &delta);
            }
            black_box(st.changed.len())
        })
    });
    g.bench_function("relax_100k_rejected", |b| {
        let mut st = RankState::new(0, 100_000, 4);
        st.begin_phase();
        for i in 0..100_000u32 {
            st.relax(i, 10, &delta);
        }
        b.iter(|| {
            st.begin_phase();
            for i in 0..100_000u32 {
                st.relax(i, 500, &delta); // all rejected
            }
            black_box(st.changed.len())
        })
    });
    g.finish();
}

fn bench_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange");
    g.bench_function("exchange_16ranks_64k_msgs", |b| {
        b.iter(|| {
            let p = 16;
            let mut obs: Vec<Outbox<(u32, u64)>> = (0..p).map(|_| Outbox::new(p)).collect();
            for (src, ob) in obs.iter_mut().enumerate() {
                for i in 0..4096u32 {
                    ob.send((src + i as usize) % p, (i, i as u64));
                }
            }
            let mut inboxes: Vec<Vec<(u32, u64)>> = (0..p).map(|_| Vec::new()).collect();
            black_box(exchange_pooled(&mut obs, &mut inboxes, 16, None));
            black_box(inboxes)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_seq,
    bench_relax,
    bench_exchange
);
criterion_main!(benches);
