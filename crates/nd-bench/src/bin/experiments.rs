//! The experiment harness: one sub-command per claim of the paper
//! (DESIGN.md §6, results recorded in EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p nd-bench --bin experiments            # all
//! cargo run --release -p nd-bench --bin experiments -- e1 e4   # subset
//! cargo run --release -p nd-bench --bin experiments -- --quick # smaller sweeps
//! cargo run --release -p nd-bench --bin experiments -- --json  # + @json lines
//! cargo run --release -p nd-bench --bin experiments -- a7 --smoke --json
//! cargo run --release -p nd-bench --bin experiments -- a8 --smoke   # warm restart
//! cargo run --release -p nd-bench --bin experiments -- a9 --smoke   # incremental update
//! cargo run --release -p nd-bench --bin experiments -- a10 --smoke  # flat store layout
//! cargo run --release -p nd-bench --bin experiments -- a11 --smoke  # zero-copy mmap load
//! cargo run --release -p nd-bench --bin experiments -- e10 --smoke  # Lemma 2.2 agreement
//! ```
//!
//! `--smoke` is an alias for `--quick` (CI-sized sweeps).

use nd_baseline::{BfsDistanceBaseline, NaiveEnumerator, NaiveTester};
use nd_bench::*;
use nd_core::dist::{DistOracle, DistOracleOpts};
use nd_core::{PrepareOpts, PreparedQuery, SkipPointers};
use nd_cover::{Cover, KernelIndex};
use nd_graph::stats::{degeneracy_ordering, max_weak_accessibility};
use nd_logic::parse_query;
use nd_splitter::{
    play_game, BallCenter, ConnectorStrategy, MaxDegree, SplitterStrategy, TakeCenter,
};
use nd_store::{FlatStore, FnStore, Lookup, StoreParams};
use std::time::Instant;

struct Config {
    quick: bool,
    /// Mirror table rows as `@json` lines (see [`nd_bench::emit_json`]).
    json: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let cfg = Config { quick, json };
    let all = selected.is_empty();
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    println!("== nowhere-dense experiment harness ==");
    println!(
        "(mode: {}; see EXPERIMENTS.md for the claim each table validates)\n",
        if quick { "quick" } else { "full" }
    );

    if want("e1") {
        e1_storing(&cfg);
    }
    if want("e2") {
        e2_cover(&cfg);
    }
    if want("e3") {
        e3_splitter(&cfg);
    }
    if want("e4") {
        e4_dist_oracle(&cfg);
    }
    if want("e5") {
        e5_next_solution(&cfg);
    }
    if want("e6") {
        e6_testing(&cfg);
    }
    if want("e7") {
        e7_enumeration(&cfg);
    }
    if want("e8") {
        e8_skip(&cfg);
    }
    if want("e9") {
        e9_kernel(&cfg);
    }
    if want("e10") {
        e10_relational(&cfg);
    }
    if want("e11") {
        e11_dynamic(&cfg);
    }
    if want("a1") {
        a1_ablation_extend(&cfg);
    }
    if want("a2") {
        a2_ablation_splitter(&cfg);
    }
    if want("a3") {
        a3_sparse_vs_dense(&cfg);
    }
    if want("a4") {
        a4_budget_ladder(&cfg);
    }
    if want("a5") {
        a5_serving(&cfg);
    }
    if want("a6") {
        a6_conform(&cfg);
    }
    // A7, A8 and A10 share one results document (`BENCH_prepare.json`):
    // whichever subset runs writes the sections it produced.
    let a7_doc = want("a7").then(|| a7_prepare(&cfg));
    let a8_doc = want("a8").then(|| a8_warm_start(&cfg));
    if want("a9") {
        a9_update(&cfg);
    }
    let a10_doc = want("a10").then(|| a10_flat_store(&cfg));
    let a11_doc = want("a11").then(|| a11_mmap_start(&cfg));
    if a7_doc.is_some() || a8_doc.is_some() || a10_doc.is_some() || a11_doc.is_some() {
        write_bench_prepare(&cfg, a7_doc, a8_doc, a10_doc, a11_doc);
    }
}

/// Resident set size in bytes, read from `/proc/self/status` (0 where
/// that interface is absent). Coarse — page-granular and subject to the
/// allocator's retention policy — but exactly the figure an operator
/// watching `ps` sees, which is what A11's RSS column claims.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")
                    .and_then(|kb| kb.trim().parse::<u64>().ok())
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Thread counts swept by A7; also decides `parallelism_limited` in the
/// written report.
const A7_THREADS: [usize; 3] = [1, 2, 4];

/// E1 — Storing Theorem (Thm 3.1): init ~ |Dom|·n^ε, lookup flat in n.
fn e1_storing(cfg: &Config) {
    println!("\n[E1] Storing Theorem (Thm 3.1): trie init/lookup/space vs n");
    let t = Table::new(
        &["k", "eps", "n", "|Dom|", "init", "ns/lookup", "regs/|Dom|"],
        &[3, 5, 9, 8, 9, 10, 10],
    );
    let tops: &[u32] = if cfg.quick {
        &[14, 18]
    } else {
        &[12, 14, 16, 18, 20]
    };
    for &k in &[1usize, 2] {
        for &log_n in tops {
            let n = 1u64 << log_n;
            let dom = (n / 4).min(1 << 16) as usize;
            let params = StoreParams::new(n, k, 0.25);
            let keys: Vec<Vec<u64>> = (0..dom as u64)
                .map(|i| {
                    (0..k)
                        .map(|c| mix(i * k as u64 + c as u64, 7) % n)
                        .collect()
                })
                .collect();
            let (store, init) = time_it(|| {
                let mut s = FnStore::new(params);
                for key in &keys {
                    s.insert(key, 1);
                }
                s
            });
            let probes: Vec<Vec<u64>> = (0..20_000u64)
                .map(|i| (0..k).map(|c| mix(i * 31 + c as u64, 9) % n).collect())
                .collect();
            let t0 = Instant::now();
            let mut found = 0usize;
            for p in &probes {
                if matches!(store.lookup(p), Lookup::Found(_)) {
                    found += 1;
                }
            }
            let per = t0.elapsed().as_nanos() as f64 / probes.len() as f64;
            std::hint::black_box(found);
            t.row(&[
                format!("{k}"),
                "0.25".into(),
                format!("{n}"),
                format!("{}", store.len()),
                fmt_dur(init),
                format!("{per:.0}"),
                format!(
                    "{:.1}",
                    store.registers() as f64 / store.len().max(1) as f64
                ),
            ]);
        }
    }
}

/// E2 — Neighborhood covers (Thm 4.4): pseudo-linear time, low degree on
/// sparse families, degradation on dense ones.
fn e2_cover(cfg: &Config) {
    println!("\n[E2] Neighborhood cover (Thm 4.4): build time and degree");
    let t = Table::new(
        &["family", "n", "r", "bags", "degree", "Σ|X|/n", "time"],
        &[7, 8, 3, 7, 7, 8, 9],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in ALL_FAMILIES {
        for &n in sizes {
            if !f.sparse() && n > 4_000 {
                continue;
            }
            let g = f.build(n, 1);
            for &r in &[2u32, 4] {
                let (cover, dur) = time_it(|| Cover::build(&g, r, 0.5));
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    format!("{}", cover.num_bags()),
                    format!("{}", cover.degree()),
                    format!("{:.2}", cover.total_bag_size() as f64 / g.n().max(1) as f64),
                    fmt_dur(dur),
                ]);
            }
        }
    }
}

/// E3 — Splitter game (Thm 4.6): rounds until Splitter wins, per family
/// and strategy.
fn e3_splitter(cfg: &Config) {
    println!("\n[E3] Splitter game (Thm 4.6): rounds to win (lower = sparser)");
    let t = Table::new(
        &["family", "n", "r", "strategy", "rounds"],
        &[7, 7, 3, 12, 7],
    );
    let n = if cfg.quick { 2_000 } else { 10_000 };
    let strategies: [&dyn SplitterStrategy; 3] = [&BallCenter, &MaxDegree, &TakeCenter];
    for &f in ALL_FAMILIES {
        let size = if f.sparse() { n } else { 400 };
        let g = f.build(size, 3);
        for &r in &[1u32, 2] {
            for s in strategies {
                let res = play_game(
                    &g,
                    r,
                    s,
                    &ConnectorStrategy::SampledAdversary {
                        samples: 8,
                        seed: 5,
                    },
                );
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    s.name().to_string(),
                    format!("{}", res.rounds),
                ]);
            }
        }
    }
}

/// E4 — Distance oracle (Prop 4.2): prep scaling, O(1) tests, crossover vs
/// per-query BFS.
fn e4_dist_oracle(cfg: &Config) {
    println!("\n[E4] Distance oracle (Prop 4.2) vs BFS baseline");
    let t = Table::new(
        &["family", "n", "r", "prep", "ns/test", "ns/bfs", "speedup"],
        &[7, 8, 3, 9, 9, 9, 8],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let queries = 50_000usize;
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 2);
            for &r in &[4u32, 8] {
                let (oracle, prep) =
                    time_it(|| DistOracle::build(&g, r, &DistOracleOpts::default()));
                let a = random_vertices(g.n(), queries, 11);
                let b = random_vertices(g.n(), queries, 13);
                let t0 = Instant::now();
                let mut hits = 0usize;
                for i in 0..queries {
                    if oracle.test(a[i], b[i]) {
                        hits += 1;
                    }
                }
                let per_test = t0.elapsed().as_nanos() as f64 / queries as f64;
                let mut bfs = BfsDistanceBaseline::new(&g);
                let bfs_queries = queries / 10;
                let t0 = Instant::now();
                let mut hits_bfs = 0usize;
                for i in 0..bfs_queries {
                    if bfs.test(a[i], b[i], r) {
                        hits_bfs += 1;
                    }
                }
                let per_bfs = t0.elapsed().as_nanos() as f64 / bfs_queries as f64;
                std::hint::black_box((hits, hits_bfs));
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{r}"),
                    fmt_dur(prep),
                    format!("{per_test:.0}"),
                    format!("{per_bfs:.0}"),
                    format!("{:.1}x", per_bfs / per_test.max(1.0)),
                ]);
            }
        }
    }
}

const E5_QUERY: &str = "dist(x,y) > 2 && Blue(y)";
const E5_QUERY3: &str = "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)";

/// E5 — Theorem 2.3: next_solution constant vs n after pseudo-linear prep.
fn e5_next_solution(cfg: &Config) {
    println!("\n[E5] next_solution (Thm 2.3): prep scaling + flat query time");
    let t = Table::new(&["family", "n", "k", "prep", "ns/next"], &[7, 8, 3, 9, 10]);
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build_colored(n, 4);
            for (k, src) in [(2, E5_QUERY), (3, E5_QUERY3)] {
                let q = parse_query(src).unwrap();
                let (pq, prep) =
                    time_it(|| PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap());
                let probes = 2_000usize;
                let t0 = Instant::now();
                for i in 0..probes {
                    let probe: Vec<u32> = (0..k)
                        .map(|c| (mix((i * k + c) as u64, 17) % g.n() as u64) as u32)
                        .collect();
                    std::hint::black_box(pq.next_solution(&probe));
                }
                let per = t0.elapsed().as_nanos() as f64 / probes as f64;
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{k}"),
                    fmt_dur(prep),
                    format!("{per:.0}"),
                ]);
            }
        }
    }
}

/// E6 — Corollary 2.4: O(1) testing vs naive per-tuple evaluation.
fn e6_testing(cfg: &Config) {
    println!("\n[E6] testing (Cor 2.4) vs naive evaluation");
    let t = Table::new(
        &["family", "n", "ns/test", "ns/naive", "speedup"],
        &[7, 8, 9, 10, 8],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build_colored(n, 5);
            let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
            let tester = NaiveTester::new(&g, q.clone());
            let probes = 20_000usize;
            let a = random_vertices(g.n(), probes, 3);
            let b = random_vertices(g.n(), probes, 4);
            let t0 = Instant::now();
            for i in 0..probes {
                std::hint::black_box(pq.test(&[a[i], b[i]]));
            }
            let per = t0.elapsed().as_nanos() as f64 / probes as f64;
            let naive_probes = probes / 20;
            let t0 = Instant::now();
            for i in 0..naive_probes {
                std::hint::black_box(tester.test(&[a[i], b[i]]));
            }
            let per_naive = t0.elapsed().as_nanos() as f64 / naive_probes as f64;
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{per:.0}"),
                format!("{per_naive:.0}"),
                format!("{:.1}x", per_naive / per.max(1.0)),
            ]);
        }
    }
}

/// E7 — Corollary 2.5: constant delay vs n; naive delay grows.
///
/// Uses a *selective* query (rare color on both sides) so the naive
/// streaming enumerator's gaps between solutions grow with n while the
/// indexed delay stays flat.
fn e7_enumeration(cfg: &Config) {
    println!("\n[E7] enumeration (Cor 2.5): delay vs n, against streaming naive");
    let t = Table::new(
        &[
            "family",
            "n",
            "engine",
            "outputs",
            "mean ns/out",
            "max delay",
        ],
        &[7, 8, 8, 8, 12, 10],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let q = parse_query("Rare(x) && dist(x,y) > 2 && Rare(y)").unwrap();
    let limit = 20_000usize;
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let mut g = f.build(n, 6);
            let rare: Vec<u32> = (0..g.n() as u32)
                .filter(|v| mix(*v as u64, 61).is_multiple_of(51))
                .collect();
            g.add_color(rare, Some("Rare".into()));
            let pq = PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap();
            let s = measure_delays(pq.enumerate(), limit);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                "indexed".into(),
                format!("{}", s.outputs),
                format!("{:.0}", s.mean_delay_ns),
                fmt_dur(s.max_delay),
            ]);
            // The naive stream pays ~51² candidate checks per output; keep
            // its output count small so the row finishes.
            let s = measure_delays(NaiveEnumerator::new(&g, q.clone()), limit / 10);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                "naive".into(),
                format!("{}", s.outputs),
                format!("{:.0}", s.mean_delay_ns),
                fmt_dur(s.max_delay),
            ]);
        }
    }
}

/// E8 — Lemma 5.8: SC(b) table size ~ n·δ^k; skip queries O(1).
fn e8_skip(cfg: &Config) {
    println!("\n[E8] skip pointers (Lemma 5.8): table size and query time");
    let t = Table::new(
        &["family", "n", "k", "entries", "entries/n", "ns/skip"],
        &[7, 8, 3, 9, 10, 9],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 7);
            let r = 2;
            let cover = Cover::build(&g, 2 * r, 0.5);
            let kernels = KernelIndex::build(&g, &cover, r);
            for &k in &[2usize, 3] {
                let list: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
                let sp = SkipPointers::build_with_cap(g.n(), &kernels, list, k, 64 * g.n());
                let probes = 20_000usize;
                let bs = random_vertices(g.n(), probes, 21);
                let anchors = random_vertices(g.n(), probes * k, 22);
                let t0 = Instant::now();
                for i in 0..probes {
                    let bags: Vec<_> = (0..k).map(|c| cover.bag_of(anchors[i * k + c])).collect();
                    std::hint::black_box(sp.skip(&kernels, bs[i], &bags));
                }
                let per = t0.elapsed().as_nanos() as f64 / probes as f64;
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{k}"),
                    format!("{}", sp.table_len()),
                    format!("{:.2}", sp.table_len() as f64 / g.n() as f64),
                    format!("{per:.0}"),
                ]);
            }
        }
    }
}

/// E9 — Lemma 5.7: kernels in `O(p·‖G[X]‖)`.
fn e9_kernel(cfg: &Config) {
    println!("\n[E9] kernels (Lemma 5.7): time linear in p·Σ‖G[X]‖");
    let t = Table::new(
        &["family", "n", "p", "Σ|X|", "time", "ns/bag-vertex"],
        &[7, 8, 3, 9, 9, 14],
    );
    let sizes: &[usize] = if cfg.quick {
        &[16_000]
    } else {
        &[16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 8);
            let cover = Cover::build(&g, 4, 0.5);
            for &p in &[1u32, 2, 4] {
                let (ki, dur) = time_it(|| KernelIndex::build(&g, &cover, p));
                std::hint::black_box(ki.degree());
                let total = cover.total_bag_size();
                t.row(&[
                    f.name().to_string(),
                    format!("{}", g.n()),
                    format!("{p}"),
                    format!("{total}"),
                    fmt_dur(dur),
                    format!("{:.1}", dur.as_nanos() as f64 / total.max(1) as f64),
                ]);
            }
        }
    }
}

/// E10 — Lemma 2.2: reduction sizes, the rung each query lands on, the
/// cost of preparing it there, and agreement with the database answers.
/// Runs the three queries of the repository's Lemma 2.2 integration test;
/// any disagreement with `materialize_db` fails the binary.
fn e10_relational(cfg: &Config) {
    println!("\n[E10] relational reduction (Lemma 2.2): A'(D) blowup, rung, prepare, agreement");
    use nd_graph::relational::{adjacency_graph, RelationalDb};
    use nd_logic::eval::materialize_db;
    use nd_logic::relational::rewrite_to_graph;
    const QUERIES: &[&str] = &[
        "R(x, y)",
        "R(x, y) && S(y)",
        "exists z. (R(x, z) && R(y, z)) && x != y",
    ];
    let t = Table::new(
        &[
            "papers",
            "db size",
            "|A'(D)|",
            "‖A'(D)‖",
            "build",
            "query",
            "rung",
            "prepare",
            "answers",
            "agree",
        ],
        &[7, 8, 8, 9, 9, 42, 14, 9, 8, 6],
    );
    let sizes: &[usize] = if cfg.quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };
    for &n in sizes {
        let mut db = RelationalDb::new(n);
        let mut tuples = Vec::new();
        for p in 1..n as u32 {
            tuples.push(vec![p, p / 2]);
            tuples.push(vec![p, (p * 7 + 1) % n as u32]);
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
        let ((g, mapping), build) = time_it(|| adjacency_graph(&db));
        for &src in QUERIES {
            let phi = parse_query(src).unwrap();
            let psi = rewrite_to_graph(&phi, &mapping);
            let want = materialize_db(&db, &phi);
            let (pq, prepare) =
                time_it(|| PreparedQuery::prepare(&g, &psi, &PrepareOpts::default()).unwrap());
            let got: Vec<_> = pq.enumerate().collect();
            let rung = pq.stats().rung.name();
            let agree = got == want;
            t.row(&[
                format!("{n}"),
                format!("{}", db.size()),
                format!("{}", g.n()),
                format!("{}", g.size()),
                fmt_dur(build),
                src.to_string(),
                rung.to_string(),
                fmt_dur(prepare),
                format!("{}", want.len()),
                format!("{agree}"),
            ]);
            emit_json(cfg.json, "e10", |o| {
                o.field_u64("papers", n as u64)
                    .field_str("query", src)
                    .field_str("rung", rung)
                    .field_f64("prepare_ms", prepare.as_secs_f64() * 1e3)
                    .field_u64("answers", want.len() as u64)
                    .field_bool("agree", agree);
            });
            assert!(
                agree,
                "E10: {src} over {n} papers answers {} tuples, the database {}",
                got.len(),
                want.len()
            );
        }
    }
}

/// E11 — dynamic far-query index (the conclusion's future-work direction):
/// update and query cost under churn, vs. rebuilding from scratch.
fn e11_dynamic(cfg: &Config) {
    use nd_core::DynamicFarQuery;
    println!("\n[E11] dynamic far index (future work): updates vs rebuilds");
    let t = Table::new(
        &["family", "n", "ns/update", "ns/skip1", "rebuild"],
        &[7, 8, 10, 9, 9],
    );
    let sizes: &[usize] = if cfg.quick {
        &[4_000, 16_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    for &f in SPARSE_FAMILIES {
        for &n in sizes {
            let g = f.build(n, 14);
            let witnesses: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
            let (mut q, rebuild) = time_it(|| DynamicFarQuery::new(&g, 2, &witnesses, 0.5));
            let updates = 20_000usize;
            let vs = random_vertices(g.n(), updates, 41);
            let t0 = Instant::now();
            for &v in &vs {
                q.toggle(v);
            }
            let per_update = t0.elapsed().as_nanos() as f64 / updates as f64;
            let queries = 20_000usize;
            let aa = random_vertices(g.n(), queries, 42);
            let bb = random_vertices(g.n(), queries, 43);
            let t0 = Instant::now();
            for i in 0..queries {
                std::hint::black_box(q.next_far_witness(aa[i], bb[i]));
            }
            let per_query = t0.elapsed().as_nanos() as f64 / queries as f64;
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{per_update:.0}"),
                format!("{per_query:.0}"),
                fmt_dur(rebuild),
            ]);
        }
    }
}

/// A1 — ablation: extendability pruning on vs off (backtracking waste).
fn a1_ablation_extend(cfg: &Config) {
    println!("\n[A1] ablation: extendability pruning (Thm 5.1 induction) on/off");
    let t = Table::new(
        &["family", "n", "check", "outputs", "total", "max delay"],
        &[7, 8, 6, 8, 9, 10],
    );
    let n = if cfg.quick { 8_000 } else { 32_000 };
    // Rare solutions stress backtracking: far-far with a rare color.
    for &f in &[GraphFamily::Grid, GraphFamily::BoundedDegree4] {
        let mut g = f.build(n, 9);
        let rare: Vec<u32> = (0..g.n() as u32).filter(|v| v % 301 == 7).collect();
        g.add_color(rare, Some("Blue".into()));
        let q =
            parse_query("Blue(x) && dist(x,y) > 4 && Blue(y) && dist(y,z) > 4 && Blue(z)").unwrap();
        for check in [true, false] {
            let opts = PrepareOpts {
                extendability_check: check,
                ..PrepareOpts::default()
            };
            let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
            let s = measure_delays(pq.enumerate(), 5_000);
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{check}"),
                format!("{}", s.outputs),
                fmt_dur(s.total),
                fmt_dur(s.max_delay),
            ]);
        }
    }
}

/// A2 — ablation: distance oracle recursion depth (splitter) vs flat base.
fn a2_ablation_splitter(cfg: &Config) {
    println!("\n[A2] ablation: oracle with splitter recursion vs flat naive bags");
    let t = Table::new(
        &["family", "n", "variant", "prep", "index verts", "ns/test"],
        &[7, 8, 10, 9, 12, 9],
    );
    let n = if cfg.quick { 16_000 } else { 64_000 };
    for &f in &[GraphFamily::Grid, GraphFamily::RandomTree] {
        let g = f.build(n, 10);
        let r = 6;
        for (name, opts) in [
            ("recursive", DistOracleOpts::default()),
            (
                "flat",
                DistOracleOpts {
                    max_rounds: 0, // immediate naive base case: all balls
                    ..DistOracleOpts::default()
                },
            ),
        ] {
            let (oracle, prep) = time_it(|| DistOracle::build(&g, r, &opts));
            let probes = 50_000usize;
            let a = random_vertices(g.n(), probes, 31);
            let b = random_vertices(g.n(), probes, 32);
            let t0 = Instant::now();
            for i in 0..probes {
                std::hint::black_box(oracle.test(a[i], b[i]));
            }
            let per = t0.elapsed().as_nanos() as f64 / probes as f64;
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                name.into(),
                fmt_dur(prep),
                format!("{}", oracle.stats().total_vertices),
                format!("{per:.0}"),
            ]);
        }
    }
}

/// A3 — sparse vs dense contrast: weak accessibility, cover degree,
/// prep time, delay all degrade on dense inputs.
fn a3_sparse_vs_dense(cfg: &Config) {
    println!("\n[A3] sparse vs dense contrast (nowhere-dense boundary)");
    let t = Table::new(
        &[
            "family",
            "n",
            "‖G‖/n",
            "weak-acc(2)",
            "cover deg",
            "prep",
            "mean ns/out",
        ],
        &[7, 7, 8, 12, 10, 9, 12],
    );
    let n = if cfg.quick { 1_000 } else { 3_000 };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in ALL_FAMILIES {
        let size = if f.sparse() { n } else { n.min(800) };
        let g = f.build_colored(size, 12);
        let (_, ord) = degeneracy_ordering(&g);
        let ord: Vec<_> = ord.into_iter().rev().collect();
        let wa = max_weak_accessibility(&g, &ord, 2);
        let cover = Cover::build(&g, 4, 0.5);
        let (pq, prep) =
            time_it(|| PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).unwrap());
        let s = measure_delays(pq.enumerate(), 5_000);
        t.row(&[
            f.name().to_string(),
            format!("{}", g.n()),
            format!("{:.1}", g.size() as f64 / g.n().max(1) as f64),
            format!("{wa}"),
            format!("{}", cover.degree()),
            fmt_dur(prep),
            format!("{:.0}", s.mean_delay_ns),
        ]);
    }
}

/// A4 — preprocessing budgets and the degradation ladder: sweep the
/// node-expansion cap and report which rung the ladder lands on. A
/// `BudgetExceeded` is a measured outcome here (with its partial spend),
/// not a crash.
fn a4_budget_ladder(cfg: &Config) {
    use nd_core::{Budget, DegradationRung, PrepareError};

    println!("\n[A4] preprocessing budgets: ladder rung vs node-expansion cap");
    let t = Table::new(
        &["family", "n", "node cap", "outcome", "nodes spent", "prep"],
        &[7, 7, 12, 24, 12, 9],
    );
    let n = if cfg.quick { 500 } else { 2_000 };
    let q = parse_query(E5_QUERY).unwrap();
    for &f in ALL_FAMILIES {
        if !f.sparse() {
            continue;
        }
        let g = f.build_colored(n, 12);
        for cap in [u64::MAX, 1 << 22, 1 << 16, 1 << 10] {
            let opts = PrepareOpts {
                budget: if cap == u64::MAX {
                    Budget::UNLIMITED
                } else {
                    Budget::UNLIMITED.with_node_expansions(cap)
                },
                ..PrepareOpts::default()
            };
            let (res, prep) = time_it(|| PreparedQuery::prepare(&g, &q, &opts));
            let (outcome, spent) = match &res {
                Ok(pq) => {
                    let s = pq.stats();
                    let rung = match s.rung {
                        DegradationRung::Indexed => "indexed",
                        DegradationRung::CoarsenedEpsilon => "coarsened ε",
                        DegradationRung::NaiveFallback => "naive fallback",
                    };
                    (rung.to_string(), s.budget_nodes_spent)
                }
                Err(PrepareError::BudgetExceeded { exceeded, partial }) => (
                    format!("exceeded in {}", exceeded.phase),
                    partial.budget_nodes_spent,
                ),
                Err(e) => (format!("error: {e}"), 0),
            };
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                if cap == u64::MAX {
                    "∞".into()
                } else {
                    format!("{cap}")
                },
                outcome.clone(),
                format!("{spent}"),
                fmt_dur(prep),
            ]);
            emit_json(cfg.json, "a4", |o| {
                o.field_str("family", f.name())
                    .field_u64("n", g.n() as u64)
                    .field_u64("node_cap", cap)
                    .field_str("outcome", &outcome)
                    .field_u64("nodes_spent", spent)
                    .field_f64("prep_s", prep.as_secs_f64());
            });
        }
    }
}

/// A5 — serving throughput (nd-serve): closed-loop clients submit batches
/// of `test` probes against one shared snapshot while the worker count is
/// swept. Validates that the prepare-once/probe-many serving runtime keeps
/// the paper's constant-time probes constant *under concurrency* — and
/// shows where worker scaling lands on the current host (on a single-core
/// host multi-worker rows can only tie the single-worker row).
fn a5_serving(cfg: &Config) {
    use nd_graph::Vertex;
    use nd_serve::{Request, ServeOpts, ServerPool, Snapshot};
    use std::sync::Arc;

    println!("\n[A5] serving throughput: worker scaling over one shared snapshot");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("(host cores: {cores}; closed loop, 4 clients x batches of 256 test probes)");
    let t = Table::new(
        &["family", "n", "workers", "req/s", "p50 ns", "p99 ns"],
        &[7, 7, 8, 12, 9, 9],
    );
    let n = if cfg.quick { 1_000 } else { 4_000 };
    let total_requests: u64 = if cfg.quick { 40_000 } else { 200_000 };
    let (clients, batch) = (4usize, 256usize);
    let q = parse_query(E5_QUERY).unwrap();
    for &f in &[GraphFamily::Grid, GraphFamily::RandomTree] {
        let g = f.build_colored(n, 12);
        let gn = g.n();
        let snap =
            Snapshot::build_owned(g, &q, &PrepareOpts::default()).expect("a5 snapshot build");
        for workers in [1usize, 2, 4] {
            let pool = Arc::new(ServerPool::start(
                snap.clone(),
                &ServeOpts {
                    workers,
                    ..Default::default()
                },
            ));
            // Pre-generate the batches so the timed section measures the
            // serving runtime, not the load generator.
            let per_client = total_requests / clients as u64;
            let all_batches: Vec<Vec<Vec<Request>>> = (0..clients)
                .map(|c| {
                    let seed = 0xa5 + c as u64;
                    let mut made = 0u64;
                    let mut batches = Vec::new();
                    while made < per_client {
                        let b = batch.min((per_client - made) as usize);
                        batches.push(
                            (0..b)
                                .map(|i| Request::Test {
                                    tuple: vec![
                                        (mix(made + i as u64, seed) % gn as u64) as Vertex,
                                        (mix(made + i as u64, seed ^ 0xffff) % gn as u64) as Vertex,
                                    ],
                                })
                                .collect(),
                        );
                        made += b as u64;
                    }
                    batches
                })
                .collect();
            let (completed, elapsed) = time_it(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = all_batches
                        .into_iter()
                        .map(|batches| {
                            let pool = Arc::clone(&pool);
                            s.spawn(move || {
                                let mut ok = 0u64;
                                for reqs in batches {
                                    if let Ok(h) = pool.submit(reqs) {
                                        ok += h.wait().iter().filter(|r| r.is_ok()).count() as u64;
                                    }
                                }
                                ok
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
                })
            });
            assert_eq!(completed, per_client * clients as u64, "a5 lost requests");
            let rps = completed as f64 / elapsed.as_secs_f64().max(1e-9);
            let m = pool.metrics_snapshot();
            let lat = &m.kind(nd_serve::RequestKind::Test).latency;
            let fmt_q = |q: Option<u64>| q.map_or_else(|| "-".into(), |v| v.to_string());
            t.row(&[
                f.name().to_string(),
                format!("{gn}"),
                format!("{workers}"),
                format!("{rps:.0}"),
                fmt_q(lat.quantile_ns(0.50)),
                fmt_q(lat.quantile_ns(0.99)),
            ]);
            emit_json(cfg.json, "a5", |o| {
                o.field_str("family", f.name())
                    .field_u64("n", gn as u64)
                    .field_u64("host_cores", cores as u64)
                    .field_u64("workers", workers as u64)
                    .field_u64("completed", completed)
                    .field_f64("throughput_rps", rps);
                match lat.quantile_ns(0.50) {
                    Some(v) => o.field_u64("p50_ns", v),
                    None => o.field_null("p50_ns"),
                };
                match lat.quantile_ns(0.99) {
                    Some(v) => o.field_u64("p99_ns", v),
                    None => o.field_null("p99_ns"),
                };
            });
        }
    }
}

/// A6 — conformance throughput: the differential harness as an experiment.
/// Reports how many engine configurations and probes per second the
/// harness covers, per seed — and loudly fails the table if any
/// configuration ever disagrees with the naive-semantics oracle.
fn a6_conform(cfg: &Config) {
    use nd_conform::{protocol_fuzz, run, ConformOpts};

    println!("\n[A6] conformance: all engine configs vs the naive oracle");
    let t = Table::new(
        &[
            "seed", "cases", "configs", "probes", "skipped", "disagree", "time",
        ],
        &[6, 7, 8, 9, 8, 9, 9],
    );
    let cases = if cfg.quick { 40 } else { 200 };
    for seed in [42u64, 7, 0xbeef] {
        let opts = ConformOpts {
            seed,
            cases,
            ..ConformOpts::default()
        };
        let t0 = Instant::now();
        let mut report = run(&opts);
        let fuzz = protocol_fuzz::fuzz_protocol(seed, 200);
        report.probes += fuzz.probes;
        report.disagreements.extend(fuzz.disagreements);
        let dt = t0.elapsed();
        t.row(&[
            format!("{seed}"),
            format!("{cases}"),
            format!("{}", report.configs_checked),
            format!("{}", report.probes),
            format!("{}", report.skipped),
            format!("{}", report.disagreements.len()),
            fmt_dur(dt),
        ]);
        emit_json(cfg.json, "a6", |o| {
            o.field_u64("seed", seed)
                .field_u64("cases", cases as u64)
                .field_u64("configs_checked", report.configs_checked)
                .field_u64("probes", report.probes)
                .field_u64("skipped", report.skipped)
                .field_u64("disagreements", report.disagreements.len() as u64)
                .field_bool("ok", report.disagreements.is_empty())
                .field_f64("secs", dt.as_secs_f64());
        });
        for d in &report.disagreements {
            println!("  DISAGREEMENT {}", d.to_json());
        }
        assert!(
            report.disagreements.is_empty(),
            "A6: conformance disagreements found (seed {seed})"
        );
    }
}

/// Full-graph BFS from each source over the CSR adjacency, returning a
/// checksum so the traversal cannot be optimized away.
fn a7_bfs_csr(g: &nd_graph::ColoredGraph, sources: &[u32]) -> u64 {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue: Vec<u32> = Vec::with_capacity(g.n());
    let mut sum = 0u64;
    for &s in sources {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    sum += (dv + 1) as u64;
                    queue.push(w);
                }
            }
        }
    }
    sum
}

/// The same BFS over a `Vec<Vec<u32>>` adjacency (the layout the CSR core
/// replaces): one heap allocation per vertex, no cache-contiguous edges.
fn a7_bfs_vecvec(adj: &[Vec<u32>], sources: &[u32]) -> u64 {
    let mut dist = vec![u32::MAX; adj.len()];
    let mut queue: Vec<u32> = Vec::with_capacity(adj.len());
    let mut sum = 0u64;
    for &s in sources {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v as usize];
            for &w in &adj[v as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    sum += (dv + 1) as u64;
                    queue.push(w);
                }
            }
        }
    }
    sum
}

/// A7 — parallel pseudo-linear preprocessing: prepare wall clock at 1/2/4
/// worker threads over far-constraint queries (cover + kernels + skip
/// pointers all build), with the parallel index *asserted* structurally
/// identical to the sequential one, plus a CSR-vs-`Vec<Vec<_>>` adjacency
/// microbenchmark. Returns the `(runs, csr_microbench)` JSON fragments
/// for [`write_bench_prepare`].
///
/// Honesty: the report always carries `host_cores` and
/// `parallelism_limited` — on a single-core host the extra threads cannot
/// win, and the JSON says so rather than hiding the speedup column.
fn a7_prepare(cfg: &Config) -> (String, String) {
    use nd_graph::json::{JsonArray, JsonObject};

    println!("\n[A7] parallel prepare: wall clock vs threads (identical indexes)");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let thread_counts = A7_THREADS;
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let parallelism_limited = max_threads > cores;
    println!(
        "(host cores: {cores}{})",
        if parallelism_limited {
            "; thread counts above the core count cannot show real scaling"
        } else {
            ""
        }
    );
    let t = Table::new(
        &["family", "n", "threads", "prep", "speedup", "identical"],
        &[7, 8, 7, 9, 8, 9],
    );
    let n = if cfg.quick { 2_000 } else { 16_000 };
    let q = parse_query(E5_QUERY3).unwrap();
    let mut runs = JsonArray::new();
    let families = [
        GraphFamily::Grid,
        GraphFamily::RandomTree,
        GraphFamily::BoundedDegree4,
    ];
    for &f in &families {
        let g = f.build_colored(n, 15);
        // Untimed warm-up: the very first prepare pays first-touch page
        // faults and allocator growth that later runs reuse; without it
        // the threads=1 baseline looks slower than it is and the speedup
        // column overstates parallelism.
        std::hint::black_box(
            PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).expect("a7 warm-up"),
        );
        let mut baseline: Option<(nd_core::PrepareStats, f64)> = None;
        for &threads in &thread_counts {
            let opts = PrepareOpts {
                threads,
                ..PrepareOpts::default()
            };
            let (pq, prep) = time_it(|| PreparedQuery::prepare(&g, &q, &opts).expect("a7 prepare"));
            let stats = pq.stats();
            let secs = prep.as_secs_f64();
            let (identical, speedup) = match &baseline {
                None => {
                    baseline = Some((stats.clone(), secs));
                    (true, 1.0)
                }
                Some((base, base_secs)) => (stats == *base, base_secs / secs.max(1e-9)),
            };
            assert!(
                identical,
                "A7: parallel prepare (threads={threads}) diverged from sequential on {}",
                f.name()
            );
            t.row(&[
                f.name().to_string(),
                format!("{}", g.n()),
                format!("{threads}"),
                fmt_dur(prep),
                format!("{speedup:.2}x"),
                format!("{identical}"),
            ]);
            emit_json(cfg.json, "a7", |o| {
                o.field_str("family", f.name())
                    .field_u64("n", g.n() as u64)
                    .field_u64("threads", threads as u64)
                    .field_f64("prep_s", secs)
                    .field_f64("speedup_vs_1", speedup)
                    .field_bool("identical_to_sequential", identical);
            });
            let mut o = JsonObject::new();
            o.field_str("family", f.name())
                .field_u64("n", g.n() as u64)
                .field_str("query", E5_QUERY3)
                .field_u64("threads", threads as u64)
                .field_f64("prep_s", secs)
                .field_f64("speedup_vs_1", speedup)
                .field_bool("identical_to_sequential", identical)
                .field_raw("stats", &stats.to_json(&pq.timings()));
            runs.push_raw(&o.finish());
        }
    }

    // CSR-vs-Vec-of-Vec adjacency microbenchmark: the same BFS workload
    // the cover/kernel builders run, over both layouts of the same graph.
    println!("  csr microbench: full-graph BFS, CSR vs Vec<Vec<_>> adjacency");
    let tm = Table::new(
        &["family", "n", "csr", "vec-of-vec", "csr/vecvec"],
        &[7, 8, 9, 11, 10],
    );
    let sources_n = if cfg.quick { 8 } else { 32 };
    let mut micro = JsonArray::new();
    for &f in &families {
        let g = f.build(n, 15);
        let adj: Vec<Vec<u32>> = (0..g.n() as u32).map(|v| g.neighbors(v).to_vec()).collect();
        let sources = random_vertices(g.n(), sources_n, 51);
        // Warm both layouts once so neither pays first-touch page faults
        // inside the timed section.
        std::hint::black_box(a7_bfs_csr(&g, &sources));
        std::hint::black_box(a7_bfs_vecvec(&adj, &sources));
        let (csr_sum, csr_dur) = time_it(|| a7_bfs_csr(&g, &sources));
        let (vv_sum, vv_dur) = time_it(|| a7_bfs_vecvec(&adj, &sources));
        assert_eq!(csr_sum, vv_sum, "A7: CSR and Vec-of-Vec BFS disagree");
        let ratio = csr_dur.as_secs_f64() / vv_dur.as_secs_f64().max(1e-9);
        tm.row(&[
            f.name().to_string(),
            format!("{}", g.n()),
            fmt_dur(csr_dur),
            fmt_dur(vv_dur),
            format!("{ratio:.2}"),
        ]);
        let mut o = JsonObject::new();
        o.field_str("family", f.name())
            .field_u64("n", g.n() as u64)
            .field_u64("bfs_sources", sources_n as u64)
            .field_f64("csr_s", csr_dur.as_secs_f64())
            .field_f64("vecvec_s", vv_dur.as_secs_f64())
            .field_f64("csr_over_vecvec", ratio);
        micro.push_raw(&o.finish());
    }

    (runs.finish(), micro.finish())
}

/// A8 — warm restart (PR 6): cold prepare vs `--save`/`--load`, measured
/// to the *first answered probe* (the restart-latency a server operator
/// cares about). Loading a saved index skips the cover/kernel/skip-pointer
/// builds entirely and only pays decode + re-validation, so the win is
/// largest exactly where prepare is most expensive — the dense contrast
/// family. Asserted there: warm start is ≥10x faster than cold.
fn a8_warm_start(cfg: &Config) -> String {
    use nd_core::SharedPreparedQuery;
    use nd_graph::json::{JsonArray, JsonObject};
    use std::sync::Arc;

    println!("\n[A8] warm restart: cold prepare vs load-from-disk, to first probe");
    let t = Table::new(
        &["family", "n", "cold", "warm", "speedup", "bytes", "rung"],
        &[7, 8, 9, 9, 9, 10, 9],
    );
    let q = parse_query(E5_QUERY).unwrap();
    let n_sparse = if cfg.quick { 2_000 } else { 16_000 };
    // Dense prepare scales ~n^1.7 while the saved index (and hence warm
    // decode) scales ~n^2 bytes, so the contrast is sized where the gap is
    // widest without making the quick run crawl.
    let n_dense = 2_400;
    let families = [
        GraphFamily::Grid,
        GraphFamily::RandomTree,
        GraphFamily::BoundedDegree4,
        GraphFamily::DenseGnm,
    ];
    let mut runs = JsonArray::new();
    for &f in &families {
        let n = if f.sparse() { n_sparse } else { n_dense };
        let g = f.build_colored(n, 16).into_shared();
        let probe = [0u32, 1];
        // Untimed warm-up (first-touch page faults, allocator growth),
        // exactly as A7 does for its threads=1 baseline.
        std::hint::black_box(
            SharedPreparedQuery::prepare(Arc::clone(&g), &q, &PrepareOpts::default())
                .expect("a8 warm-up"),
        );
        // Cold start: build the index from the graph, answer one probe.
        let ((cold_pq, cold_first), cold) = time_it(|| {
            let pq = SharedPreparedQuery::prepare(Arc::clone(&g), &q, &PrepareOpts::default())
                .expect("a8 prepare");
            let first = pq.test(&probe);
            (pq, first)
        });
        let path =
            std::env::temp_dir().join(format!("nd-a8-{}-{}.idx", f.name(), std::process::id()));
        cold_pq.save_index(&q, E5_QUERY, &path).expect("a8 save");
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        // Warm start: load the saved index, answer the same probe.
        let ((loaded, warm_first), warm) = time_it(|| {
            let loaded = SharedPreparedQuery::load_index(&path).expect("a8 load");
            let first = loaded.prepared.test(&probe);
            (loaded, first)
        });
        std::fs::remove_file(&path).ok();
        assert_eq!(
            cold_first,
            warm_first,
            "A8: warm index diverged from cold on {}",
            f.name()
        );
        let rung = loaded.prepared.stats().rung.name().to_string();
        // Honesty: say how the bytes came back. The owned loader decodes
        // every payload byte, so `bytes_mapped` is 0 here — the contrast
        // with A11's mmap loader is the point of recording it.
        let (bytes_decoded, bytes_mapped) = (
            loaded.stats.bytes_decoded as u64,
            loaded.stats.bytes_mapped as u64,
        );
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        if !f.sparse() {
            assert!(
                speedup >= 10.0,
                "A8: warm start on {} only {speedup:.1}x faster than cold prepare \
                 (acceptance floor is 10x)",
                f.name()
            );
        }
        t.row(&[
            f.name().to_string(),
            format!("{n}"),
            fmt_dur(cold),
            fmt_dur(warm),
            format!("{speedup:.1}x"),
            format!("{bytes}"),
            rung.clone(),
        ]);
        emit_json(cfg.json, "a8", |o| {
            o.field_str("family", f.name())
                .field_u64("n", n as u64)
                .field_f64("cold_s", cold.as_secs_f64())
                .field_f64("warm_s", warm.as_secs_f64())
                .field_f64("warm_speedup", speedup)
                .field_u64("index_bytes", bytes)
                .field_u64("bytes_decoded", bytes_decoded)
                .field_u64("bytes_mapped", bytes_mapped)
                .field_str("rung", &rung);
        });
        let mut o = JsonObject::new();
        o.field_str("family", f.name())
            .field_u64("n", n as u64)
            .field_str("query", E5_QUERY)
            .field_f64("cold_s", cold.as_secs_f64())
            .field_f64("warm_s", warm.as_secs_f64())
            .field_f64("warm_speedup", speedup)
            .field_u64("index_bytes", bytes)
            .field_u64("bytes_decoded", bytes_decoded)
            .field_u64("bytes_mapped", bytes_mapped)
            .field_str("rung", &rung)
            .field_bool("dense", !f.sparse())
            .field_bool("first_probe_identical", cold_first == warm_first);
        runs.push_raw(&o.finish());
    }
    runs.finish()
}

/// Deterministic probe-panel checksum over a prepared index: count plus
/// 64 mixed `test`/`next_solution` probes folded into one u64. Cheap
/// enough to run on every load path, strong enough that any divergence
/// between two indices claiming the same answers shows up.
fn probe_checksum<G: std::borrow::Borrow<nd_graph::ColoredGraph>>(
    pq: &PreparedQuery<G>,
    seed: u64,
) -> u64 {
    let n = pq.graph().n() as u64;
    let arity = pq.arity();
    let mut acc = pq.count() as u64;
    for i in 0..64u64 {
        let probe: Vec<u32> = (0..arity)
            .map(|j| (mix(seed ^ i, 91 + j as u64) % n.max(1)) as u32)
            .collect();
        acc = mix(acc ^ u64::from(pq.test(&probe)), 97);
        if let Some(next) = pq.next_solution(&probe) {
            for v in next {
                acc = mix(acc ^ v as u64, 101);
            }
        }
    }
    acc
}

/// A11 — zero-copy mmap serving (this PR): time to first probe for a cold
/// prepare, an owned decode (`--load`) and an mmap load (`--load-mmap
/// --verify lazy`), plus the RSS each load path costs. The mmap figure is
/// the tentpole claim: the bulk sections come back as borrowed slices
/// over the mapped pages, so "load" is framing + small-section decode +
/// O(1) shape checks — no O(bytes) copy, no CRC sweep before the first
/// answer (the deferred bulk CRCs are settled right after, untimed here
/// but asserted to pass). On the dense family the mmap path is
/// *asserted* ≥5x faster to first probe than the owned decode (the PR's
/// acceptance floor), and every path is checksum-asserted to answer
/// identically. RSS is page-granular and the mapped pages are shared
/// with the page cache, so the mmap RSS delta measures only what the
/// first probe actually touched.
///
/// The returned JSON lands in `BENCH_prepare.json` as `mmap_start`.
fn a11_mmap_start(cfg: &Config) -> String {
    use nd_core::{MmapLoadOpts, SharedPreparedQuery, VerifyPolicy};
    use nd_graph::json::{JsonArray, JsonObject};
    use std::sync::Arc;

    println!("\n[A11] zero-copy mmap load: cold prepare vs owned decode vs mmap, to first probe");
    let t = Table::new(
        &[
            "family", "n", "cold", "owned", "mmap", "own/mmap", "mapped", "rss_own", "rss_mmap",
        ],
        &[7, 8, 9, 9, 9, 9, 10, 9, 9],
    );
    let q = parse_query(E5_QUERY).unwrap();
    let n_sparse = if cfg.quick { 2_000 } else { 16_000 };
    let n_dense = 2_400;
    let families = [
        GraphFamily::Grid,
        GraphFamily::RandomTree,
        GraphFamily::BoundedDegree4,
        GraphFamily::DenseGnm,
    ];
    let mut runs = JsonArray::new();
    for &f in &families {
        let n = if f.sparse() { n_sparse } else { n_dense };
        let g = f.build_colored(n, 16).into_shared();
        let probe = [0u32, 1];
        // Untimed warm-up, as in A7/A8: first-touch faults and allocator
        // growth belong to the process, not to either load path.
        std::hint::black_box(
            SharedPreparedQuery::prepare(Arc::clone(&g), &q, &PrepareOpts::default())
                .expect("a11 warm-up"),
        );
        let ((cold_pq, cold_first), cold) = time_it(|| {
            let pq = SharedPreparedQuery::prepare(Arc::clone(&g), &q, &PrepareOpts::default())
                .expect("a11 prepare");
            let first = pq.test(&probe);
            (pq, first)
        });
        let want_sum = probe_checksum(&cold_pq, 0xA11);
        let path =
            std::env::temp_dir().join(format!("nd-a11-{}-{}.idx", f.name(), std::process::id()));
        cold_pq.save_index(&q, E5_QUERY, &path).expect("a11 save");
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

        let rss0 = rss_bytes();
        let ((owned, owned_first), owned_t) = time_it(|| {
            let loaded = SharedPreparedQuery::load_index(&path).expect("a11 owned load");
            let first = loaded.prepared.test(&probe);
            (loaded, first)
        });
        let rss_owned = rss_bytes().saturating_sub(rss0);
        assert_eq!(
            owned_first,
            cold_first,
            "A11: owned load diverged on {}",
            f.name()
        );
        assert_eq!(
            probe_checksum(&owned.prepared, 0xA11),
            want_sum,
            "A11: owned-load answers diverged on {}",
            f.name()
        );
        drop(owned);

        let rss0 = rss_bytes();
        let ((mapped, mmap_first), mmap_t) = time_it(|| {
            let opts = MmapLoadOpts {
                verify: VerifyPolicy::Lazy,
                prewarm: false,
            };
            let loaded = SharedPreparedQuery::load_index_mmap(&path, &opts).expect("a11 mmap load");
            let first = loaded.prepared.test(&probe);
            (loaded, first)
        });
        let rss_mmap = rss_bytes().saturating_sub(rss0);
        assert_eq!(
            mmap_first,
            cold_first,
            "A11: mmap load diverged on {}",
            f.name()
        );
        assert_eq!(
            probe_checksum(&mapped.prepared, 0xA11),
            want_sum,
            "A11: mmap-load answers diverged on {}",
            f.name()
        );
        // Settle the deferred bulk CRCs (untimed: the claim is time to
        // first probe, and the CLI's lazy mode does exactly this — probe
        // first, verify after, exit 15 on mismatch).
        if let Some(deferred) = &mapped.deferred {
            deferred.verify().expect("a11 deferred CRC pass");
        }
        let mapped_bytes = mapped.stats.bytes_mapped as u64;
        let decoded_bytes = mapped.stats.bytes_decoded as u64;
        assert!(
            mapped_bytes > 0,
            "A11: mmap load of {} mapped nothing — zero-copy path not taken",
            f.name()
        );
        drop(mapped);
        std::fs::remove_file(&path).ok();

        let speedup = owned_t.as_secs_f64() / mmap_t.as_secs_f64().max(1e-9);
        if !f.sparse() {
            assert!(
                speedup >= 5.0,
                "A11: mmap load on {} only {speedup:.1}x faster to first probe than owned \
                 decode (acceptance floor is 5x)",
                f.name()
            );
        }
        t.row(&[
            f.name().to_string(),
            format!("{n}"),
            fmt_dur(cold),
            fmt_dur(owned_t),
            fmt_dur(mmap_t),
            format!("{speedup:.1}x"),
            format!("{mapped_bytes}"),
            format!("{}K", rss_owned / 1024),
            format!("{}K", rss_mmap / 1024),
        ]);
        emit_json(cfg.json, "a11", |o| {
            o.field_str("family", f.name())
                .field_u64("n", n as u64)
                .field_f64("cold_s", cold.as_secs_f64())
                .field_f64("owned_s", owned_t.as_secs_f64())
                .field_f64("mmap_s", mmap_t.as_secs_f64())
                .field_f64("mmap_speedup_vs_owned", speedup)
                .field_u64("bytes_mapped", mapped_bytes)
                .field_u64("bytes_decoded", decoded_bytes);
        });
        let mut o = JsonObject::new();
        o.field_str("family", f.name())
            .field_u64("n", n as u64)
            .field_str("query", E5_QUERY)
            .field_str("verify", "lazy")
            .field_f64("cold_s", cold.as_secs_f64())
            .field_f64("owned_s", owned_t.as_secs_f64())
            .field_f64("mmap_s", mmap_t.as_secs_f64())
            .field_f64("mmap_speedup_vs_owned", speedup)
            .field_u64("index_bytes", bytes)
            .field_u64("bytes_mapped", mapped_bytes)
            .field_u64("bytes_decoded", decoded_bytes)
            .field_u64("rss_delta_owned", rss_owned)
            .field_u64("rss_delta_mmap", rss_mmap)
            .field_bool("dense", !f.sparse())
            .field_bool("answers_identical", true);
        runs.push_raw(&o.finish());
    }
    // The RSS and timing figures above depend on page-cache state: the
    // save immediately precedes both loads, so the file is warm in cache
    // for each — the contrast isolates decode-and-copy vs map-and-fault.
    runs.finish()
}

/// Write `BENCH_prepare.json`: host facts plus whichever of the A7
/// (`runs`, `csr_microbench`), A8 (`warm_start`), A10 (`flat_store`) and
/// A11 (`mmap_start`) sections ran.
fn write_bench_prepare(
    cfg: &Config,
    a7: Option<(String, String)>,
    a8: Option<String>,
    a10: Option<String>,
    a11: Option<String>,
) {
    use nd_graph::json::JsonObject;

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let max_threads = A7_THREADS.iter().copied().max().unwrap_or(1);
    let mut doc = JsonObject::new();
    doc.field_str("bench", "prepare")
        .field_u64("host_cores", cores as u64)
        .field_bool("parallelism_limited", max_threads > cores)
        .field_bool("quick", cfg.quick);
    if let Some((runs, micro)) = a7 {
        doc.field_raw("runs", &runs)
            .field_raw("csr_microbench", &micro);
    }
    if let Some(warm) = a8 {
        doc.field_raw("warm_start", &warm);
    }
    if let Some(flat) = a10 {
        doc.field_raw("flat_store", &flat);
    }
    if let Some(mmap) = a11 {
        doc.field_raw("mmap_start", &mmap);
    }
    let path = "BENCH_prepare.json";
    match std::fs::write(path, doc.finish() + "\n") {
        Ok(()) => println!("\n  wrote {path}"),
        Err(e) => println!("\n  WARNING: could not write {path}: {e}"),
    }
}

/// Deterministic edge-mutation log: even slots add an absent edge, odd
/// slots remove a present one, all picked by the `mix` stream so reruns
/// see the same batch.
fn a9_log(g: &nd_graph::ColoredGraph, batch: usize, seed: u64) -> nd_update::MutationLog {
    use nd_update::Mutation;
    let n = g.n() as u64;
    let mut log = nd_update::MutationLog::new();
    let mut salt = seed;
    for i in 0..batch {
        salt = salt.wrapping_add(1);
        if i % 2 == 0 {
            // Add: first non-adjacent distinct pair the stream yields.
            loop {
                let u = (mix(salt, 71) % n) as u32;
                let v = (mix(salt, 73) % n) as u32;
                if u != v && g.neighbors(u).binary_search(&v).is_err() {
                    log.push(Mutation::AddEdge(u, v));
                    break;
                }
                salt = salt.wrapping_add(1);
            }
        } else {
            // Remove: first vertex with a neighbor; drop its lowest edge.
            loop {
                let u = (mix(salt, 79) % n) as u32;
                if let Some(&v) = g.neighbors(u).first() {
                    log.push(Mutation::RemoveEdge(u, v));
                    break;
                }
                salt = salt.wrapping_add(1);
            }
        }
    }
    log
}

/// A9 — incremental update (PR 7): `PreparedQuery::apply` (dirty-bag
/// repair) vs a full re-prepare of the mutated graph, across mutation
/// batch sizes, on the grid and dense families. Each batch applies to the
/// same base index, so rows are independent measurements, and both paths
/// are asserted to answer identically (shared enumeration prefix + probe
/// sweep). The win comes from skipping the cover build and re-kernelizing
/// only dirty bags — largest exactly where prepare is most expensive, the
/// dense family, where the single-edge row is *asserted* ≥5x faster than
/// re-prepare (the PR's acceptance floor). Writes `BENCH_update.json`.
///
/// Honesty: the report carries `host_cores`/`parallelism_limited` like
/// BENCH_prepare.json — both timed paths here are single-threaded, so the
/// flag only records that the host was not the bottleneck.
fn a9_update(cfg: &Config) {
    use nd_core::SharedPreparedQuery;
    use nd_graph::json::{JsonArray, JsonObject};
    use std::sync::Arc;

    println!("\n[A9] incremental update: apply (dirty-bag repair) vs full re-prepare");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let opts = PrepareOpts::default();
    println!("(host cores: {cores}; both paths single-threaded)");
    let t = Table::new(
        &[
            "family", "n", "batch", "repair", "re-prep", "speedup", "bags", "rebuilt",
        ],
        &[7, 8, 6, 9, 9, 9, 6, 8],
    );
    let q = parse_query(E5_QUERY).unwrap();
    let n_sparse = if cfg.quick { 2_000 } else { 16_000 };
    // Same dense sizing rationale as A8: prepare scales ~n^1.7 there, so
    // the repair-vs-rebuild contrast is widest without a crawling run.
    let n_dense = 2_400;
    let batches: &[usize] = if cfg.quick { &[1, 8] } else { &[1, 4, 16, 64] };
    let check_prefix = 2_000usize;
    let probes = 2_000usize;
    let mut runs = JsonArray::new();
    for &f in &[GraphFamily::Grid, GraphFamily::DenseGnm] {
        let n = if f.sparse() { n_sparse } else { n_dense };
        let g = f.build_colored(n, 17).into_shared();
        let base = SharedPreparedQuery::prepare(Arc::clone(&g), &q, &opts).expect("a9 prepare");
        // Untimed warm-up of both paths (first-touch page faults,
        // allocator growth), exactly as A7/A8 do for their baselines.
        {
            let warm = base
                .apply(&a9_log(&g, 1, 0xa9), &q, &opts)
                .expect("a9 warm apply");
            std::hint::black_box(
                SharedPreparedQuery::prepare(warm.graph_shared(), &q, &opts).expect("a9 warm prep"),
            );
        }
        for &batch in batches {
            let log = a9_log(&g, batch, 0xa900 + batch as u64);
            let (inc, repair) = time_it(|| base.apply(&log, &q, &opts).expect("a9 apply"));
            let mg = inc.graph_shared();
            let (full, reprep) = time_it(|| {
                SharedPreparedQuery::prepare(Arc::clone(&mg), &q, &opts).expect("a9 re-prepare")
            });
            // Both paths must answer identically on the mutated graph.
            let got: Vec<_> = inc.enumerate().take(check_prefix).collect();
            let want: Vec<_> = full.enumerate().take(check_prefix).collect();
            assert_eq!(
                got,
                want,
                "A9: repair diverged from re-prepare on {}",
                f.name()
            );
            for i in 0..probes {
                let a = (mix(i as u64, 83) % mg.n() as u64) as u32;
                let b = (mix(i as u64, 89) % mg.n() as u64) as u32;
                assert_eq!(
                    inc.test(&[a, b]),
                    full.test(&[a, b]),
                    "A9: probe ({a},{b}) diverged on {}",
                    f.name()
                );
            }
            let s = inc.stats();
            let speedup = reprep.as_secs_f64() / repair.as_secs_f64().max(1e-9);
            if !f.sparse() && batch == 1 {
                assert!(
                    !s.rebuilt,
                    "A9: single-edge mutation on {} fell back to a full rebuild ({:?})",
                    f.name(),
                    s.rebuild_reason
                );
                assert!(
                    speedup >= 5.0,
                    "A9: single-edge repair on {} only {speedup:.1}x faster than \
                     re-prepare (acceptance floor is 5x)",
                    f.name()
                );
            }
            t.row(&[
                f.name().to_string(),
                format!("{n}"),
                format!("{batch}"),
                fmt_dur(repair),
                fmt_dur(reprep),
                format!("{speedup:.1}x"),
                format!("{}", s.repaired_bags),
                format!("{}", s.rebuilt),
            ]);
            emit_json(cfg.json, "a9", |o| {
                o.field_str("family", f.name())
                    .field_u64("n", n as u64)
                    .field_u64("batch", batch as u64)
                    .field_f64("repair_s", repair.as_secs_f64())
                    .field_f64("reprepare_s", reprep.as_secs_f64())
                    .field_f64("speedup", speedup)
                    .field_u64("repaired_bags", s.repaired_bags as u64)
                    .field_bool("rebuilt", s.rebuilt);
            });
            let mut o = JsonObject::new();
            o.field_str("family", f.name())
                .field_u64("n", n as u64)
                .field_str("query", E5_QUERY)
                .field_u64("batch", batch as u64)
                .field_u64("ops", log.len() as u64)
                .field_f64("repair_s", repair.as_secs_f64())
                .field_f64("reprepare_s", reprep.as_secs_f64())
                .field_f64("speedup", speedup)
                .field_u64("repaired_bags", s.repaired_bags as u64)
                .field_bool("rebuilt", s.rebuilt)
                .field_u64("epoch", s.epoch)
                .field_bool("dense", !f.sparse())
                .field_bool("answers_identical", true);
            runs.push_raw(&o.finish());
        }
    }
    let mut doc = JsonObject::new();
    doc.field_str("bench", "update")
        .field_u64("host_cores", cores as u64)
        .field_bool("parallelism_limited", cores < 2)
        .field_bool("quick", cfg.quick)
        .field_raw("runs", &runs.finish());
    let path = "BENCH_update.json";
    match std::fs::write(path, doc.finish() + "\n") {
        Ok(()) => println!("\n  wrote {path}"),
        Err(e) => println!("\n  WARNING: could not write {path}: {e}"),
    }
}

/// A10 — flat arena store (this PR): the Storing-Theorem structure after
/// the trie → flat-arena rewrite, measured two ways.
///
/// * **Layout microbench** — lookup-or-successor (Thm 3.1's `O(1)` claim)
///   and bulk build over identical domains and probe streams, pointer
///   trie vs flat arena, packed-key API on both sides. The flat layout is
///   *asserted* no slower than the trie on lookup-or-successor (the
///   regression gate CI runs on every push; `benches/store_lookup.rs` is
///   the criterion-disciplined version of the same number).
/// * **Dense-family prepare share** — the skip-closure fraction of a full
///   prepare on the bounded-degree family. The seed's insert-at-a-time
///   trie build put store+skip at ~71% of dense prepare (store 1991ms +
///   skip 565ms of 3594ms at n=16000). The cover no longer builds a
///   membership store, so prepare has no store phase and the share is
///   skip alone; the full-size run asserts it stays below 55%.
///
/// The returned JSON lands in `BENCH_prepare.json` as `flat_store`.
fn a10_flat_store(cfg: &Config) -> String {
    use nd_graph::json::{JsonArray, JsonObject};

    println!("\n[A10] flat arena store: layout microbench + dense prepare share");
    let t = Table::new(
        &["probe-set", "n", "trie", "flat", "flat/trie"],
        &[11, 9, 9, 9, 9],
    );
    let mut micro = JsonArray::new();
    let probe_count = 1_024usize;
    let mut lookup_ratios: Vec<f64> = Vec::new();
    for log_n in if cfg.quick {
        vec![12u32, 16]
    } else {
        vec![12u32, 16, 20]
    } {
        let n = 1u64 << log_n;
        let params = StoreParams::new(n, 2, 0.25);
        let dom = keys_for(n, 2, 8_192, 3);
        let trie = FnStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64)));
        let flat = FlatStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64)));
        let probes: Vec<u128> = keys_for(n, 2, probe_count, 5)
            .iter()
            .map(|k| params.pack(k))
            .collect();
        // Repeat the sweep enough for a stable per-probe number, with an
        // untimed warm-up against first-touch effects, same as A7.
        let reps = if cfg.quick { 200 } else { 1_000 };
        let sweep_trie = || {
            let mut acc = 0u64;
            for _ in 0..reps {
                for &p in &probes {
                    acc = acc.wrapping_add(
                        std::hint::black_box(trie.successor_inclusive_packed(p))
                            .map_or(1, |s| s as u64),
                    );
                }
            }
            acc
        };
        let sweep_flat = || {
            let mut acc = 0u64;
            for _ in 0..reps {
                for &p in &probes {
                    acc = acc.wrapping_add(
                        std::hint::black_box(flat.successor_inclusive_packed(p))
                            .map_or(1, |s| s as u64),
                    );
                }
            }
            acc
        };
        std::hint::black_box(sweep_trie());
        std::hint::black_box(sweep_flat());
        let (trie_acc, trie_dur) = time_it(sweep_trie);
        let (flat_acc, flat_dur) = time_it(sweep_flat);
        assert_eq!(trie_acc, flat_acc, "A10: layouts disagree on a probe sweep");
        let per_probe = |d: std::time::Duration| d.as_secs_f64() / (reps * probe_count) as f64;
        let (trie_ns, flat_ns) = (per_probe(trie_dur) * 1e9, per_probe(flat_dur) * 1e9);
        let ratio = flat_ns / trie_ns.max(1e-12);
        lookup_ratios.push(ratio);
        t.row(&[
            "lookup-or-succ".to_string(),
            format!("{n}"),
            format!("{trie_ns:.1}ns"),
            format!("{flat_ns:.1}ns"),
            format!("{ratio:.2}"),
        ]);
        emit_json(cfg.json, "a10", |o| {
            o.field_str("probe_set", "lookup_or_successor")
                .field_u64("n", n)
                .field_f64("trie_ns", trie_ns)
                .field_f64("flat_ns", flat_ns)
                .field_f64("flat_over_trie", ratio);
        });
        let mut o = JsonObject::new();
        o.field_str("probe_set", "lookup_or_successor")
            .field_u64("n", n)
            .field_u64("domain", dom.len() as u64)
            .field_u64("probes", (reps * probe_count) as u64)
            .field_f64("trie_ns", trie_ns)
            .field_f64("flat_ns", flat_ns)
            .field_f64("flat_over_trie", ratio);
        micro.push_raw(&o.finish());

        // Bulk build, same pairs: one sorted pass vs insert-at-a-time.
        let (_, trie_build) =
            time_it(|| FnStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64))));
        let (_, flat_build) =
            time_it(|| FlatStore::from_pairs(params, dom.iter().map(|k| (k.as_slice(), 1u64))));
        let bratio = flat_build.as_secs_f64() / trie_build.as_secs_f64().max(1e-12);
        t.row(&[
            "bulk-build".to_string(),
            format!("{n}"),
            fmt_dur(trie_build),
            fmt_dur(flat_build),
            format!("{bratio:.2}"),
        ]);
        let mut o = JsonObject::new();
        o.field_str("probe_set", "bulk_build")
            .field_u64("n", n)
            .field_u64("domain", dom.len() as u64)
            .field_f64("trie_s", trie_build.as_secs_f64())
            .field_f64("flat_s", flat_build.as_secs_f64())
            .field_f64("flat_over_trie", bratio);
        micro.push_raw(&o.finish());
    }
    // The regression gate: flat lookup-or-successor must not be slower
    // than the trie (median across sizes; 10% head-room for timer noise).
    let mut sorted = lookup_ratios.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let median = sorted[sorted.len() / 2];
    assert!(
        median <= 1.10,
        "A10: flat lookup-or-successor regressed vs the pointer trie \
         (median flat/trie = {median:.2}, gate is 1.10)"
    );

    // Dense-family prepare share: where does the wall clock go now?
    println!("  dense-family prepare: skip share of total");
    let ts = Table::new(&["family", "n", "prep", "skip", "share"], &[7, 8, 9, 8, 7]);
    let n = if cfg.quick { 2_000 } else { 16_000 };
    let q = parse_query(E5_QUERY3).unwrap();
    let mut shares = JsonArray::new();
    for &f in &[GraphFamily::BoundedDegree4, GraphFamily::Grid] {
        let g = f.build_colored(n, 15);
        std::hint::black_box(
            PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).expect("a10 warm-up"),
        );
        let (pq, prep) = time_it(|| {
            PreparedQuery::prepare(&g, &q, &PrepareOpts::default()).expect("a10 prepare")
        });
        let stats = pq.timings();
        let share = stats.skip_ms as f64 / (prep.as_millis() as f64).max(1.0);
        ts.row(&[
            f.name().to_string(),
            format!("{}", g.n()),
            fmt_dur(prep),
            format!("{}ms", stats.skip_ms),
            format!("{:.0}%", share * 100.0),
        ]);
        emit_json(cfg.json, "a10", |o| {
            o.field_str("family", f.name())
                .field_u64("n", g.n() as u64)
                .field_f64("prep_s", prep.as_secs_f64())
                .field_u64("skip_ms", stats.skip_ms)
                .field_f64("skip_share", share);
        });
        let mut o = JsonObject::new();
        o.field_str("family", f.name())
            .field_u64("n", g.n() as u64)
            .field_str("query", E5_QUERY3)
            .field_f64("prep_s", prep.as_secs_f64())
            .field_u64("skip_ms", stats.skip_ms)
            .field_f64("skip_share", share);
        shares.push_raw(&o.finish());
        // The headline claim, asserted only at full size (quick-mode
        // phases are a handful of milliseconds and the ratio is noise):
        // the seed's trie build put store+skip at ~71% of dense prepare.
        if !cfg.quick && f == GraphFamily::BoundedDegree4 {
            assert!(
                share < 0.55,
                "A10: skip share of dense prepare is {:.0}% — it should stay \
                 below 55% (seed store+skip baseline ~71%)",
                share * 100.0
            );
        }
    }

    let mut doc = JsonObject::new();
    doc.field_raw("microbench", &micro.finish())
        .field_raw("dense_prepare", &shares.finish())
        .field_f64("lookup_ratio_median", median);
    doc.finish()
}

/// Deterministic pseudo-random keys for the A10 store microbench (same
/// stream as `benches/bench_store.rs` / `benches/store_lookup.rs`).
fn keys_for(n: u64, k: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..count as u64)
        .map(|i| {
            (0..k)
                .map(|c| mix(i * k as u64 + c as u64, seed) % n)
                .collect()
        })
        .collect()
}
