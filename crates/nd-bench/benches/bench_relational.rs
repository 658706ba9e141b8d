//! E10 — the relational reduction (Lemma 2.2): building `A'(D)` is linear
//! in the database size; rewriting is linear in the query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nd_graph::relational::{adjacency_graph, RelationalDb};
use nd_logic::parse_query;
use nd_logic::relational::rewrite_to_graph;

fn make_db(n: usize) -> RelationalDb {
    let mut db = RelationalDb::new(n);
    let mut tuples = Vec::new();
    for p in 1..n as u32 {
        tuples.push(vec![p, p / 2]);
        tuples.push(vec![p, (p.wrapping_mul(7) + 1) % n as u32]);
    }
    db.add_relation("R", 2, tuples);
    db.add_relation(
        "S",
        1,
        (0..n as u32)
            .filter(|p| p % 3 == 0)
            .map(|p| vec![p])
            .collect(),
    );
    db
}

fn bench_adjacency_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("relational/adjacency_graph");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for n in [2_000usize, 8_000, 32_000] {
        let db = make_db(n);
        group.throughput(Throughput::Elements(db.size() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| adjacency_graph(db))
        });
    }
    group.finish();
}

fn bench_rewrite(c: &mut Criterion) {
    let mut group = c.benchmark_group("relational/rewrite");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let db = make_db(2_000);
    let (_, mapping) = adjacency_graph(&db);
    for src in [
        "R(x, y)",
        "R(x, y) && S(y)",
        "exists z. (R(x, z) && R(z, y))",
    ] {
        let q = parse_query(src).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(src), &q, |b, q| {
            b.iter(|| rewrite_to_graph(q, &mapping))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adjacency_graph, bench_rewrite);
criterion_main!(benches);
