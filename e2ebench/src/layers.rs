//! The traced run's per-layer figures. Prepare is an opaque call, so its
//! layers are measured by replaying the builds it performs with the same
//! arguments: `compile`, then per branch the unary lists, one
//! `DistOracle::try_build` per radius, `Cover::try_build(g, 2r, ε)`,
//! `KernelIndex::try_build_threads`, and `SkipPointers::try_build_with_cap`
//! per far position. The membership store is built inside the cover; it is
//! replayed once more on its own (`KeySet::from_sorted_packed` over the
//! cover's `(bag, vertex)` keys) for `store.*`, and left out of the
//! attributed sum so it is not counted twice.

use crate::gen;
use crate::measure::{Metrics, Samples, Tracer};
use crate::run::prepare_opts;
use nd_core::engine::fragment::{compile, BinKind};
use nd_core::engine::naive::NaiveEngine;
use nd_core::{DistOracle, MmapLoadOpts, SharedPreparedQuery, SkipPointers, VerifyPolicy};
use nd_cover::{Cover, KernelIndex};
use nd_graph::budget::BudgetTracker;
use nd_graph::{bfs, ColoredGraph, Vertex};
use nd_logic::ast::Formula;
use nd_logic::locality::evaluate_unary;
use nd_logic::Query;
use nd_store::{KeySet, StoreParams};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const LAYER_PROBES: usize = 1 << 16;
const PERSIST_REPS: usize = 3;

/// Spans whose durations make up the attributed part of prepare.
const ATTRIBUTED: &[&str] = &[
    "engine.compile",
    "unary.eval",
    "oracle.build",
    "cover.build",
    "kernel.build",
    "skip.build",
    "naive.prepare",
];

/// Per-call latency of `f` over `count` seeded arguments (median, ns).
fn per_call(count: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut s = Samples::default();
    for i in 0..count {
        let t0 = Instant::now();
        f(i);
        s.push(t0.elapsed().as_nanos() as f64);
    }
    s.median()
}

/// Replay and probe every layer of `queries` over `graph`, then break
/// down the persistence of the saved index (`bytes`, written at `path`).
pub fn record(
    m: &mut Metrics,
    tr: &mut Tracer,
    graph: &Arc<ColoredGraph>,
    queries: &[Query],
    bytes: &[u8],
    path: &Path,
    seed: u64,
) -> Result<(), String> {
    let g = &**graph;
    let n = g.n();
    let opts = prepare_opts();
    let unlimited = BudgetTracker::unlimited();
    let mut dist_opts = opts.dist;
    dist_opts.epsilon = opts.epsilon;
    let mut rng = gen::Rng::new(seed, 0x1a7e);

    // ---- Engine: one more cold prepare per query, then its replay. ----
    let (mut oracle_vertices, mut oracle_depth) = (0.0, 0.0);
    let (mut bags, mut degree, mut total_size, mut kernel_degree) = (0.0, 0.0, 0.0, 0.0);
    let (mut store_keys, mut skip_entries, mut skip_truncated) = (0.0, 0.0, 0.0);
    let (mut oracle_ns, mut succ_ns, mut hop_ns) =
        (Samples::default(), Samples::default(), Samples::default());
    for (qi, q) in queries.iter().enumerate() {
        let op = 1_000 + qi as u64;
        tr.span("engine.prepare", op, || {
            SharedPreparedQuery::prepare(Arc::clone(graph), q, &opts)
        })
        .map_err(|e| format!("prepare {q}: {e}"))?;
        let branches = match tr.span("engine.compile", op, || compile(q)) {
            Ok(b) => b,
            Err(_) => {
                tr.span("naive.prepare", op, || {
                    NaiveEngine::try_prepare(g, q, &unlimited)
                })
                .map_err(|e| format!("naive prepare {q}: {e:?}"))?;
                continue;
            }
        };
        for fq in branches {
            let lists: Vec<Vec<Vertex>> = (0..fq.k)
                .map(|j| {
                    tr.span("unary.eval", op, || match &fq.unary[j] {
                        Formula::True => (0..n as Vertex).collect(),
                        f => evaluate_unary(g, f, fq.vars[j]),
                    })
                })
                .collect();
            let mut radii: Vec<u32> = fq
                .binary
                .iter()
                .filter_map(|c| match c.kind {
                    BinKind::Le(d) | BinKind::Gt(d) => Some(d),
                    _ => None,
                })
                .collect();
            radii.sort_unstable();
            radii.dedup();
            for &d in &radii {
                let oracle = tr
                    .span("oracle.build", op, || {
                        DistOracle::try_build(g, d, &dist_opts, &unlimited)
                    })
                    .map_err(|e| format!("oracle: {e:?}"))?;
                let st = oracle.stats();
                oracle_vertices = st.total_vertices as f64;
                oracle_depth = f64::from(st.depth);
                let pairs = gen::tuples(n, 2, LAYER_PROBES, seed, 0x0c1e);
                oracle_ns.push(per_call(pairs.len(), |i| {
                    black_box(oracle.test(pairs[i][0], pairs[i][1]));
                }));
            }
            if radii.is_empty() {
                continue;
            }
            let r = fq.max_radius();
            let cover = tr
                .span("cover.build", op, || {
                    Cover::try_build(g, 2 * r, opts.epsilon, &unlimited)
                })
                .map_err(|e| format!("cover: {e:?}"))?;
            bags = cover.num_bags() as f64;
            degree = cover.degree() as f64;
            total_size = cover.total_bag_size() as f64;

            let params = StoreParams::new(
                n.max(cover.num_bags()).max(1) as u64,
                2,
                opts.epsilon.max(1e-9),
            );
            let packed: Vec<u128> = (0..cover.num_bags() as u32)
                .flat_map(|id| {
                    cover
                        .bag(id)
                        .verts
                        .iter()
                        .map(move |&v| params.pack(&[u64::from(id), u64::from(v)]))
                })
                .collect();
            let store = tr.span("store.build", op, || {
                KeySet::from_sorted_packed(params, packed)
            });
            store_keys = store.len() as f64;
            let keys: Vec<u128> = (0..LAYER_PROBES)
                .map(|_| {
                    let id = rng.below(cover.num_bags() as u64);
                    params.pack(&[id, rng.below(n as u64)])
                })
                .collect();
            succ_ns.push(per_call(keys.len(), |i| {
                black_box(store.successor_inclusive_packed(keys[i]));
            }));

            if !fq.binary.iter().any(|c| c.kind.excluding()) {
                continue;
            }
            let kernels = tr
                .span("kernel.build", op, || {
                    KernelIndex::try_build_threads(g, &cover, r, opts.threads, &unlimited)
                })
                .map_err(|e| format!("kernels: {e:?}"))?;
            kernel_degree = kernels.degree() as f64;
            let cap = (64 * n).max(1_000_000);
            for (j, list) in lists.iter().enumerate() {
                let far = fq.constraints_on(j).filter(|c| c.kind.excluding()).count();
                if far == 0 {
                    continue;
                }
                let sp = tr
                    .span("skip.build", op, || {
                        SkipPointers::try_build_with_cap(
                            n,
                            &kernels,
                            list.clone(),
                            far,
                            cap,
                            &unlimited,
                        )
                    })
                    .map_err(|e| format!("skip: {e:?}"))?;
                skip_entries += sp.table_len() as f64;
                skip_truncated += f64::from(u8::from(sp.truncated()));
                let args: Vec<(Vertex, Vertex)> = (0..LAYER_PROBES)
                    .map(|_| (rng.below(n as u64) as Vertex, rng.below(n as u64) as Vertex))
                    .collect();
                hop_ns.push(per_call(args.len(), |i| {
                    let (a, b) = args[i];
                    black_box(sp.skip(&kernels, b, &[cover.bag_of(a)]));
                }));
            }
        }
    }
    let prepare_ns = tr.total_ns("engine.prepare");
    let attributed_ns: f64 = ATTRIBUTED.iter().map(|s| tr.total_ns(s)).sum();
    m.put("engine.prepare_ms", "ms", prepare_ns * 1e-6, queries.len());
    m.put(
        "engine.attributed_share",
        "ratio",
        attributed_ns / prepare_ns.max(1.0),
        1,
    );
    m.put(
        "engine.unattributed_ms",
        "ms",
        (prepare_ns - attributed_ns) * 1e-6,
        1,
    );
    m.put(
        "engine.compile_us",
        "us",
        tr.total_ns("engine.compile") * 1e-3,
        queries.len(),
    );
    m.put(
        "naive.prepare_ms",
        "ms",
        tr.total_ns("naive.prepare") * 1e-6,
        1,
    );
    m.put("unary.eval_ms", "ms", tr.total_ns("unary.eval") * 1e-6, 1);
    m.put("cover.build_ms", "ms", tr.total_ns("cover.build") * 1e-6, 1);
    m.put("cover.bags", "count", bags, 1);
    m.put("cover.degree", "count", degree, 1);
    m.put("cover.total_size", "count", total_size, 1);
    m.put(
        "kernel.build_ms",
        "ms",
        tr.total_ns("kernel.build") * 1e-6,
        1,
    );
    m.put("kernel.degree", "count", kernel_degree, 1);
    m.put(
        "oracle.build_ms",
        "ms",
        tr.total_ns("oracle.build") * 1e-6,
        1,
    );
    m.put("oracle.vertices", "count", oracle_vertices, 1);
    m.put("oracle.depth", "count", oracle_depth, 1);
    m.put(
        "oracle.test_ns",
        "ns",
        oracle_ns.median(),
        oracle_ns.len() * LAYER_PROBES,
    );
    m.put("store.build_ms", "ms", tr.total_ns("store.build") * 1e-6, 1);
    m.put("store.keys", "count", store_keys, 1);
    m.put(
        "store.succ_ns",
        "ns",
        succ_ns.median(),
        succ_ns.len() * LAYER_PROBES,
    );
    m.put("skip.build_ms", "ms", tr.total_ns("skip.build") * 1e-6, 1);
    m.put("skip.entries", "count", skip_entries, 1);
    m.put("skip.truncated", "count", skip_truncated, 1);
    m.put(
        "skip.hop_ns",
        "ns",
        hop_ns.median(),
        hop_ns.len() * LAYER_PROBES,
    );
    m.put(
        "relational.reduce_ms",
        "ms",
        tr.median_ns("relational.reduce") * 1e-6,
        tr.count("relational.reduce") as usize,
    );
    m.put(
        "logic.rewrite_us",
        "us",
        tr.median_ns("logic.rewrite") * 1e-3,
        tr.count("logic.rewrite") as usize,
    );

    // ---- Live BFS at the query radius (the repair overlay's fallback). ----
    let centers = gen::tuples(n, 1, 4096, seed, 0xba11);
    let ball_ns = per_call(centers.len(), |i| {
        black_box(bfs::ball(g, centers[i][0], 2));
    });
    m.put("graph.ball_ns", "ns", ball_ns, centers.len());

    // ---- Persistence. The index file was written just before the loads
    // (warm page cache); `write_file_atomic` fsyncs the file and its
    // directory. ----
    m.put(
        "persist.encode_ms",
        "ms",
        tr.median_ns("persist.encode") * 1e-6,
        1,
    );
    m.put(
        "persist.write_ms",
        "ms",
        tr.median_ns("persist.write") * 1e-6,
        1,
    );
    m.put(
        "persist.mmap_load_ms",
        "ms",
        tr.median_ns("persist.mmap_load") * 1e-6,
        tr.count("persist.mmap_load") as usize,
    );
    let mut owned = Samples::default();
    let mut lazy = Samples::default();
    let mut settle = Samples::default();
    for rep in 0..PERSIST_REPS as u64 {
        let t0 = Instant::now();
        let l = tr
            .span("persist.owned_load", rep, || {
                SharedPreparedQuery::load_index_bytes(bytes)
            })
            .map_err(|e| format!("load_index_bytes: {e}"))?;
        owned.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(l);
        let lopts = MmapLoadOpts {
            verify: VerifyPolicy::Lazy,
            prewarm: false,
        };
        let t0 = Instant::now();
        let l = tr
            .span("persist.lazy_load", rep, || {
                SharedPreparedQuery::load_index_mmap(path, &lopts)
            })
            .map_err(|e| format!("lazy load: {e}"))?;
        lazy.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(d) = &l.deferred {
            let t0 = Instant::now();
            tr.span("persist.settle", rep, || d.verify())
                .map_err(|e| format!("deferred CRC settle: {e}"))?;
            settle.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.put("persist.owned_load_ms", "ms", owned.median(), owned.len());
    m.put("persist.lazy_load_ms", "ms", lazy.median(), lazy.len());
    m.put("persist.settle_ms", "ms", settle.median(), settle.len());
    let mut crc = Samples::default();
    for rep in 0..PERSIST_REPS as u64 {
        let t0 = Instant::now();
        black_box(tr.span("persist.crc", rep, || nd_persist::crc32(black_box(bytes))));
        crc.push(bytes.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e9);
    }
    m.put("persist.crc_gbps", "GB/s", crc.median(), crc.len());
    let full = SharedPreparedQuery::load_index_mmap(
        path,
        &MmapLoadOpts {
            verify: VerifyPolicy::Full,
            prewarm: false,
        },
    )
    .map_err(|e| format!("load_index_mmap: {e}"))?;
    m.put(
        "persist.bytes_mapped",
        "B",
        full.stats.bytes_mapped as f64,
        1,
    );
    m.put(
        "persist.bytes_decoded",
        "B",
        full.stats.bytes_decoded as f64,
        1,
    );
    m.put("trace.spans", "count", tr.spans() as f64, 1);
    Ok(())
}
