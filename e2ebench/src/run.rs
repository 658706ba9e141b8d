//! One benchmark run: generate inputs, prepare (set-up), then the timed
//! phases — load, probes, enumeration, serving, repair — each followed by
//! its correctness checks, which are never timed.

use crate::check::{self, Expected};
use crate::gen::{self, Edits, Family, Input};
use crate::layers;
use crate::measure::{ns, HostRef, Metrics, Samples, Tracer};
use crate::serve::{serve_batches, serve_round, SERVE_CLIENTS, SERVE_WORKERS};
use nd_core::{MmapLoadOpts, PrepareOpts, SharedPreparedQuery, VerifyPolicy};
use nd_graph::{ColoredGraph, Vertex};
use nd_logic::relational::rewrite_to_graph;
use nd_logic::{parse_query, Query};
use nd_serve::{Request, Response, ServeOpts, ServerPool, Snapshot};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fractions of `--seconds` given to each timed phase.
#[derive(Clone, Copy)]
pub struct Weights {
    pub load: f64,
    pub test: f64,
    pub next: f64,
    pub enumerate: f64,
    pub serve: f64,
}

/// A workload: inputs, queries and how the run's time is spent.
#[derive(Clone)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub queries: &'static [&'static str],
    /// The query every phase after set-up runs on.
    pub primary: usize,
    /// Cold prepares timed in set-up; `setup_s` is their median.
    pub setup_reps: usize,
    /// Mutation batch sizes, cycled along the repair chain.
    pub batch_sizes: &'static [usize],
    /// Batches in one turn of the chain's batch sizes and op kinds;
    /// `repair_p50_ms` is the median over turns of their mean batch.
    pub repair_cycle: usize,
    /// Batches applied per round: a fixed amount of repair work, so every
    /// run reaches the same epochs (probe cost drifts with the epoch).
    pub batches_per_round: usize,
    /// The mutations of the repair chain (ignored by `lemma22-db`, whose
    /// chain deletes and restores tuple incidences).
    pub edits: Edits,
    /// Probe `test` in a burst after every repair (on the freshly repaired
    /// epoch) instead of in its own phase, followed by a `next_solution`
    /// burst whose figure (`next_repaired_*`) is reported unbounded.
    pub probes_after_repair: bool,
    pub weights: Weights,
    /// The reference speed: the host-speed reference's time per ball, in
    /// ns, to which every end-to-end timing is scaled. It only sets the
    /// scale; it is the reference's typical time on the host the benchmark
    /// was defined on, so scaled and raw figures read alike there.
    pub ref_ns: f64,
}

const Q2: &str = "dist(x,y) > 2 && Blue(y)";
const Q3: &str = "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)";
const LEMMA22: &[&str] = &[
    "R(x, y)",
    "R(x, y) && S(y)",
    "exists z. (R(x, z) && R(y, z)) && x != y",
];

pub const WORKLOADS: &[&str] = &["pgrid-serve", "bdeg-build", "pgrid-churn", "lemma22-db"];

// Reference speeds (`Spec::ref_ns`): the host-speed reference's median
// on each full-size workload, on the 2-vCPU Xeon host of README.md. The
// toy sizes of the self-test use the same values.
const REF_PGRID_SERVE: f64 = 207.0;
const REF_BDEG_BUILD: f64 = 264.0;
const REF_PGRID_CHURN: f64 = 200.0;
const REF_LEMMA22_DB: f64 = 72.0;

/// The named workload at full size, or at toy size for the self-test.
pub fn spec(name: &str, toy: bool) -> Option<Spec> {
    let w = |load, test, next, enumerate, serve| Weights {
        load,
        test,
        next,
        enumerate,
        serve,
    };
    let s = match name {
        "pgrid-serve" => Spec {
            name: "pgrid-serve",
            family: if toy {
                Family::PerturbedGrid {
                    w: 20,
                    h: 20,
                    chords: 20,
                }
            } else {
                Family::PerturbedGrid {
                    w: 200,
                    h: 200,
                    chords: 2000,
                }
            },
            queries: &[Q2],
            primary: 0,
            setup_reps: 7,
            batch_sizes: &[1],
            repair_cycle: 4,
            batches_per_round: 8,
            edits: Edits::Local,
            probes_after_repair: false,
            weights: w(0.10, 0.15, 0.15, 0.15, 0.30),
            ref_ns: REF_PGRID_SERVE,
        },
        "bdeg-build" => Spec {
            name: "bdeg-build",
            family: Family::BoundedDegree {
                n: if toy { 400 } else { 16_000 },
                d: 4,
            },
            queries: &[Q3],
            primary: 0,
            setup_reps: 5,
            batch_sizes: &[1],
            repair_cycle: 2,
            batches_per_round: 10,
            edits: Edits::Colors,
            probes_after_repair: false,
            weights: w(0.30, 0.10, 0.10, 0.10, 0.20),
            ref_ns: REF_BDEG_BUILD,
        },
        "pgrid-churn" => Spec {
            name: "pgrid-churn",
            family: if toy {
                Family::PerturbedGrid {
                    w: 16,
                    h: 16,
                    chords: 10,
                }
            } else {
                Family::PerturbedGrid {
                    w: 128,
                    h: 128,
                    chords: 800,
                }
            },
            queries: &[Q2],
            primary: 0,
            setup_reps: 9,
            batch_sizes: &[1, 4, 16, 64],
            repair_cycle: 4,
            batches_per_round: 1,
            edits: Edits::Random,
            probes_after_repair: true,
            weights: w(0.10, 0.0, 0.10, 0.15, 0.25),
            ref_ns: REF_PGRID_CHURN,
        },
        "lemma22-db" => Spec {
            name: "lemma22-db",
            family: Family::Lemma22 {
                domain: if toy { 8 } else { 24 },
            },
            queries: LEMMA22,
            primary: 0,
            setup_reps: 3,
            batch_sizes: &[1],
            repair_cycle: 2,
            batches_per_round: 4,
            edits: Edits::Colors,
            probes_after_repair: false,
            weights: w(0.10, 0.10, 0.10, 0.10, 0.30),
            ref_ns: REF_LEMMA22_DB,
        },
        _ => return None,
    };
    Some(s)
}

/// Everything a run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of every failure.
    pub failures: Vec<String>,
    pub trace: Tracer,
}

/// Run-wide settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the saved index and the trace dump.
    pub work_dir: PathBuf,
    /// Self-test only: flip the brute-force checker's `Blue` table, so a
    /// working correctness gate must report failures.
    pub wrong_expected: bool,
}

struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `checked` operations, `bad` of which failed.
    fn checked(&mut self, checked: u64, bad: u64, what: &str) {
        self.attempted += checked;
        if bad > 0 {
            self.failures
                .push(format!("{what}: {bad} of {checked} wrong"));
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }
}

/// Prepare options used everywhere: one thread, defaults otherwise.
pub fn prepare_opts() -> PrepareOpts {
    PrepareOpts {
        threads: 1,
        ..PrepareOpts::default()
    }
}

const ENUM_BLOCK: usize = 8;
const ENUM_RUN: usize = 1 + 8 * ENUM_BLOCK;
const SAMPLE_CAP: usize = 2_000_000;
const BURST_TESTS: usize = 16_384;
const BURST_NEXTS: usize = 4096;

/// The prepared queries of one set-up repetition.
struct Prepared {
    graph: Arc<ColoredGraph>,
    queries: Vec<Query>,
    indexes: Vec<SharedPreparedQuery>,
}

pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(cfg.trace, origin);
    let mut led = Ledger {
        attempted: 0,
        failures: Vec::new(),
    };
    let mut m = Metrics::default();
    let opts = prepare_opts();

    // ---- Inputs, all from the seed, before anything is timed. ----
    let input = gen::input(spec.family, cfg.seed);
    // Probe tuples range over the vertices answers can use: all of them,
    // or the domain elements of the Lemma 2.2 graph.
    let n = match spec.family {
        Family::Lemma22 { domain } => domain,
        _ => input.graph.n(),
    };
    let parsed: Vec<Query> = spec
        .queries
        .iter()
        .map(|s| parse_query(s).map_err(|e| format!("query {s}: {e:?}")))
        .collect::<Result<_, _>>()?;
    let arity = parsed[spec.primary].arity();
    let probe_tuples = gen::tuples(n, arity, 1 << 16, cfg.seed, 1);
    let check_tuples = gen::tuples(n, arity, 256, cfg.seed, 2);
    let enum_starts = gen::tuples(n, arity, 4096, cfg.seed, 3);
    let serve_batches: Vec<Vec<Vec<Request>>> = (0..SERVE_CLIENTS)
        .map(|c| serve_batches(n, arity, cfg.seed, 10 + c as u64))
        .collect();
    let grid_w = match spec.family {
        Family::PerturbedGrid { w, .. } => Some(w),
        _ => None,
    };
    let max_batches = spec.batches_per_round * ROUNDS;
    let logs = match spec.family {
        Family::Lemma22 { .. } => gen::lemma22_chain(&input.graph, max_batches, cfg.seed),
        _ => gen::mutation_chain(
            &input.graph,
            &input.blue,
            spec.edits,
            grid_w,
            spec.batch_sizes,
            max_batches,
            cfg.seed,
        ),
    };
    let mut expected = expected(&input, &parsed[spec.primary]);
    if cfg.wrong_expected {
        match &mut expected {
            Expected::FarFromBlue { blue, .. } => blue.iter_mut().for_each(|b| *b = !*b),
            Expected::Listed(ans) => ans.clear(),
        }
    }

    let href = HostRef::new(&input.graph, cfg.seed);
    let mut ref_samples = Samples::default();

    // ---- Set-up: cold prepare from the in-memory input, each repetition
    // scaled by the host-speed reference taken just before and after. ----
    let graph = Arc::new(input.graph.clone());
    let (mut setup, mut setup_raw) = (Samples::default(), Samples::default());
    let mut prepared = None;
    for rep in 0..spec.setup_reps.max(1) {
        let before = href.sample();
        let t0 = Instant::now();
        let p = prepare_all(&input, &graph, &parsed, &opts, &mut tr, rep as u64)?;
        let dt = t0.elapsed().as_secs_f64();
        let after = href.sample();
        ref_samples.push(before);
        ref_samples.push(after);
        setup.push(dt * spec.ref_ns * 2.0 / (before + after));
        setup_raw.push(dt);
        led.ok(p.indexes.len() as u64);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up repetition");
    m.put("setup_s", "s", setup.median(), setup.len());
    m.put("raw.setup_s", "s", setup_raw.median(), setup_raw.len());
    let mut rungs = [0.0f64; 3];
    for pq in &prepared.indexes {
        rungs[match pq.stats().rung {
            nd_core::DegradationRung::Indexed => 0,
            nd_core::DegradationRung::CoarsenedEpsilon => 1,
            nd_core::DegradationRung::NaiveFallback => 2,
        }] += 1.0;
    }
    let pq_mem = &prepared.indexes[spec.primary];
    let query = &prepared.queries[spec.primary];
    let src = query.to_string();

    // ---- Persist: encode and write once; the file is then warm in the
    // page cache for every load below. ----
    let bytes = tr
        .span("persist.encode", 0, || pq_mem.save_index_bytes(query, &src))
        .map_err(|e| format!("save_index_bytes: {e}"))?;
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let nth = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = cfg.work_dir.join(format!(
        "{}-{}-{}-{nth}.ndqidx",
        spec.name,
        cfg.seed,
        std::process::id()
    ));
    tr.span("persist.write", 0, || {
        nd_core::write_file_atomic(&path, &bytes)
    })
    .map_err(|e| format!("write_file_atomic: {e}"))?;
    m.put("index_bytes", "B", bytes.len() as f64, 1);
    led.ok(1);

    let ws = Workset {
        spec,
        cfg,
        prepared: &prepared,
        path: &path,
        probe_tuples: &probe_tuples,
        check_tuples: &check_tuples,
        enum_starts: &enum_starts,
        serve_batches: &serve_batches,
        logs: &logs,
        expected: &expected,
        href: &href,
    };
    let mut result = timed_phases(&ws, &mut tr, &mut led, &mut m, &mut ref_samples);
    m.put("host.ref_ns", "ns", ref_samples.median(), ref_samples.len());
    if cfg.trace {
        if result.is_ok() {
            result = layers::record(
                &mut m,
                &mut tr,
                &prepared.graph,
                &prepared.queries,
                &bytes,
                &path,
                cfg.seed,
            );
        }
        m.put("engine.rung.indexed", "count", rungs[0], 1);
        m.put("engine.rung.coarsened", "count", rungs[1], 1);
        m.put("engine.rung.naive", "count", rungs[2], 1);
    }
    let _ = std::fs::remove_file(&path);
    result?;

    let failed = led.failures.len() as u64;
    Ok(Outcome {
        metrics: m,
        attempted: led.attempted.max(1),
        failed,
        failures: led.failures,
        trace: tr,
    })
}

fn expected(input: &Input, q: &Query) -> Expected {
    match &input.db {
        Some((db, _)) => {
            let mut ans = nd_logic::eval::materialize_db(db, q);
            ans.sort();
            Expected::Listed(ans)
        }
        None => Expected::FarFromBlue {
            blue: input.blue.clone(),
            // Answer positions follow first occurrence in the query text:
            // (x, y) for Q2 and (x, z, y) for Q3, so the colored variable
            // sits at position 1 in both.
            target: 1,
        },
    }
}

/// One set-up repetition: (Lemma 2.2 only: reduce the database and rewrite
/// each query, then) prepare every query of the workload over `graph`.
fn prepare_all(
    input: &Input,
    graph: &Arc<ColoredGraph>,
    parsed: &[Query],
    opts: &PrepareOpts,
    tr: &mut Tracer,
    op: u64,
) -> Result<Prepared, String> {
    let (graph, queries) = match &input.db {
        Some((db, _)) => {
            let (g, mapping) = tr.span("relational.reduce", op, || {
                nd_graph::relational::adjacency_graph(db)
            });
            let qs: Vec<Query> = parsed
                .iter()
                .map(|q| tr.span("logic.rewrite", op, || rewrite_to_graph(q, &mapping)))
                .collect();
            (Arc::new(g), qs)
        }
        None => (Arc::clone(graph), parsed.to_vec()),
    };
    let mut indexes = Vec::with_capacity(queries.len());
    for q in &queries {
        let pq = tr
            .span("core.prepare", op, || {
                SharedPreparedQuery::prepare(Arc::clone(&graph), q, opts)
            })
            .map_err(|e| format!("prepare {q}: {e}"))?;
        indexes.push(pq);
    }
    Ok(Prepared {
        graph,
        queries,
        indexes,
    })
}

/// Per-call latency of `call` over `tuples` until `deadline`, and at least
/// `min` calls; returns the number of calls.
fn time_calls<'t, R>(
    tuples: impl Iterator<Item = &'t Vec<Vertex>>,
    deadline: Instant,
    min: usize,
    tr: &mut Tracer,
    span: &'static str,
    out: &mut Samples,
    call: impl Fn(&[Vertex]) -> R,
) -> u64 {
    let mut calls = 0u64;
    for (i, t) in tuples.enumerate() {
        if i >= min
            && ((i - min).is_multiple_of(256) && Instant::now() >= deadline
                || out.len() >= SAMPLE_CAP)
        {
            break;
        }
        let t0 = Instant::now();
        black_box(tr.span(span, i as u64, || call(black_box(t))));
        out.push(ns(t0.elapsed()));
        calls += 1;
    }
    calls
}

/// The timed phases run in this many interleaved rounds; each per-round
/// figure is summarized over the rounds by its median, so a disturbance
/// that hits one round does not move the result.
pub const ROUNDS: usize = 20;

/// What the timed phases work on, all generated before the first of them.
struct Workset<'a> {
    spec: &'a Spec,
    cfg: &'a Config,
    prepared: &'a Prepared,
    path: &'a Path,
    probe_tuples: &'a [Vec<Vertex>],
    check_tuples: &'a [Vec<Vertex>],
    enum_starts: &'a [Vec<Vertex>],
    serve_batches: &'a [Vec<Vec<Request>>],
    logs: &'a [nd_core::MutationLog],
    expected: &'a Expected,
    href: &'a HostRef,
}

fn load_full(path: &Path) -> Result<SharedPreparedQuery, String> {
    let opts = MmapLoadOpts {
        verify: VerifyPolicy::Full,
        prewarm: false,
    };
    SharedPreparedQuery::load_index_mmap(path, &opts)
        .map(|l| l.prepared)
        .map_err(|e| format!("load_index_mmap: {e}"))
}

fn timed_phases(
    ws: &Workset<'_>,
    tr: &mut Tracer,
    led: &mut Ledger,
    m: &mut Metrics,
    ref_samples: &mut Samples,
) -> Result<(), String> {
    let spec = ws.spec;
    let w = spec.weights;
    let slice = |w: f64| Duration::from_secs_f64(ws.cfg.seconds * w / ROUNDS as f64);
    let pq_mem = &ws.prepared.indexes[spec.primary];
    let query = &ws.prepared.queries[spec.primary];
    let g = &*ws.prepared.graph;

    // ---- Untimed checks of the in-memory and the mmap-loaded index. ----
    let (c, bad) = check::probes(pq_mem, ws.expected, g, ws.check_tuples);
    led.checked(c, bad, "in-memory index vs brute force");
    let want_sum = check::checksum(pq_mem, ws.check_tuples);
    let probe = load_full(ws.path)?;
    led.checked(
        1,
        u64::from(check::checksum(&probe, ws.check_tuples) != want_sum),
        "mmap-loaded index vs in-memory index",
    );

    let snapshot =
        Snapshot::from_prepared(load_full(ws.path)?, query.clone(), query.to_string(), 0);
    let mut chain = Chain {
        cur: load_full(ws.path)?,
        done: 0,
        repairs: Samples::default(),
        repairs_scaled: Samples::default(),
        apply_to: Samples::default(),
        reprepare: Samples::default(),
        repaired_bags: 0,
        rebuilds: 0,
        drift: None,
    };
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut kept = Vec::new();
    let mut serve_requests = 0u64;
    let mut serve_rejected = 0u64;
    let (mut serve_time, mut serve_time_raw) = (0.0f64, 0.0f64);
    let mut serve_batches = 0usize;
    for round in 0..ROUNDS {
        let mut rm = Metrics::default();
        let offset = round * ws.probe_tuples.len() / ROUNDS;
        // The host-speed reference, taken before every phase and after
        // the last; its median scales this round's call timings (each
        // `apply` is scaled by its own, in `Chain::run`).
        let mut refs = Samples::default();
        refs.push(ws.href.sample());

        // Load to first answer: mmap with full verification, then one test.
        let mut loads = Samples::default();
        let deadline = Instant::now() + slice(w.load);
        while loads.len() < 2 || Instant::now() < deadline {
            let op = (round * 1000 + loads.len()) as u64;
            let t0 = Instant::now();
            let l = tr.span("persist.mmap_load", op, || load_full(ws.path))?;
            black_box(tr.span("core.test", op, || l.test(&ws.probe_tuples[0])));
            loads.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        led.ok(loads.len() as u64);
        refs.push(ws.href.sample());

        // In-process probes.
        let mut tests = Samples::default();
        let mut nexts = Samples::default();
        let mut nexts_repaired = Samples::default();
        if !spec.probes_after_repair {
            let deadline = Instant::now() + slice(w.test);
            let tuples = ws.probe_tuples.iter().cycle().skip(offset);
            let call = |t: &[Vertex]| probe.test(t);
            led.ok(time_calls(
                tuples,
                deadline,
                1024,
                tr,
                "core.test",
                &mut tests,
                call,
            ));
        }
        let deadline = Instant::now() + slice(w.next);
        let tuples = ws.probe_tuples.iter().cycle().skip(offset);
        let call = |t: &[Vertex]| probe.next_solution(t);
        led.ok(time_calls(
            tuples,
            deadline,
            1024,
            tr,
            "core.next",
            &mut nexts,
            call,
        ));
        refs.push(ws.href.sample());

        // Enumeration delay.
        let delays = enumerate_phase(
            ws,
            &probe,
            round,
            Instant::now() + slice(w.enumerate),
            tr,
            led,
        )?;
        refs.push(ws.href.sample());

        // Serving. The pool runs only in this phase, so its idle workers
        // do not wake up during the single-threaded phases.
        let pool = ServerPool::start(
            snapshot.clone(),
            &ServeOpts {
                workers: SERVE_WORKERS,
                ..ServeOpts::default()
            },
        );
        let serve = serve_round(
            &pool,
            ws.serve_batches,
            round,
            slice(w.serve),
            ws.cfg.trace,
            tr.origin(),
        );
        pool.shutdown();
        refs.push(ws.href.sample());
        serve_requests += serve.requests;
        serve_rejected += serve.rejected;
        serve_batches += serve.rtt.len();
        led.ok(serve.requests);
        for e in &serve.errors {
            led.fail(format!("serve: {e}"));
        }
        if round == 0 {
            kept = serve.kept;
        }
        if let Some(t) = serve.trace {
            tr.merge(t);
        }

        // Repair, chained across rounds.
        chain.run(
            ws,
            round + 1 == ROUNDS,
            tr,
            led,
            &mut tests,
            &mut nexts_repaired,
        )?;
        refs.push(ws.href.sample());

        // Every timing of the round, scaled to the reference speed, and
        // as measured under `raw.`.
        let scale = spec.ref_ns / refs.median();
        for (prefix, f) in [("", scale), ("raw.", 1.0)] {
            rm.put(
                &format!("{prefix}load_first_answer_ms"),
                "ms",
                loads.median() * f,
                loads.len(),
            );
            rm.put_timing(&format!("{prefix}test"), "ns", &tests, 99, f);
            rm.put_timing(&format!("{prefix}next"), "ns", &nexts, 99, f);
            rm.put_timing(
                &format!("{prefix}next_repaired"),
                "ns",
                &nexts_repaired,
                99,
                f,
            );
            rm.put_timing(&format!("{prefix}enum_delay"), "ns", &delays, 99, f);
            rm.put_timing(&format!("{prefix}serve"), "us", &serve.rtt, 99, 1e-3 * f);
        }
        serve_time += serve.elapsed.as_secs_f64() * scale;
        serve_time_raw += serve.elapsed.as_secs_f64();
        ref_samples.extend(&refs);
        rounds.push(rm);
    }
    m.put_round_medians(&rounds);
    // Throughput is total over total: requests served in all rounds over
    // the time the serve loops ran.
    for (prefix, time, reps) in [
        ("", serve_time, &chain.repairs_scaled),
        ("raw.", serve_time_raw, &chain.repairs),
    ] {
        m.put(
            &format!("{prefix}serve_rps"),
            "req/s",
            serve_requests as f64 / time,
            serve_batches,
        );
        m.put_timing(&format!("{prefix}repair"), "ms", reps, 90, 1.0);
        let cycle_means = reps.chunk_means(spec.repair_cycle);
        m.put(
            &format!("{prefix}repair_p50_ms"),
            "ms",
            cycle_means.median(),
            reps.len(),
        );
    }

    // Serve responses against the in-process answers (untimed).
    let mut serve_bad = 0u64;
    let mut serve_checked = 0u64;
    for (reqs, resps) in &kept {
        for (req, resp) in reqs.iter().zip(resps) {
            serve_checked += 1;
            let good = match (req, resp) {
                (Request::Test { tuple }, Ok(Response::Test(b))) => probe.test(tuple) == *b,
                (Request::NextSolution { from }, Ok(Response::NextSolution(s))) => {
                    probe.next_solution(from) == *s
                }
                (Request::EnumeratePage { from, limit }, Ok(Response::Page { solutions, .. })) => {
                    probe.page(from, *limit).ok().as_ref() == Some(solutions)
                }
                _ => false,
            };
            serve_bad += u64::from(!good);
        }
    }
    led.checked(
        serve_checked,
        serve_bad,
        "serve responses vs in-process answers",
    );

    if ws.cfg.trace {
        m.put("serve.completed", "count", serve_requests as f64, 1);
        m.put("serve.rejected", "count", serve_rejected as f64, 1);
        m.put(
            "serve.submit_us",
            "us",
            tr.median_ns("serve.submit") * 1e-3,
            tr.count("serve.submit") as usize,
        );
        m.put(
            "serve.wait_us",
            "us",
            tr.median_ns("serve.wait") * 1e-3,
            tr.count("serve.wait") as usize,
        );
        let n = chain.repairs.len().max(1) as f64;
        m.put(
            "update.apply_to_ms",
            "ms",
            chain.apply_to.median(),
            chain.apply_to.len(),
        );
        m.put(
            "update.repair_ms",
            "ms",
            chain.repairs.median(),
            chain.repairs.len(),
        );
        m.put(
            "update.repaired_bags",
            "count",
            chain.repaired_bags as f64 / n,
            chain.repairs.len(),
        );
        m.put(
            "update.rebuild_share",
            "ratio",
            chain.rebuilds as f64 / n,
            chain.repairs.len(),
        );
        m.put(
            "update.reprepare_ms",
            "ms",
            chain.reprepare.median(),
            chain.reprepare.len(),
        );
        m.put("update.probe_drift", "ratio", chain.drift.unwrap_or(0.0), 1);
        m.put(
            "trace.overhead_share",
            "ratio",
            tracer_overhead(&probe, ws.probe_tuples, tr),
            1,
        );
    }
    Ok(())
}

/// Gaps between consecutive answers of `enumerate_from`, from seeded
/// starts: each sample is the mean gap over a block of up to
/// [`ENUM_BLOCK`] consecutive answers (single gaps of an indexed run split
/// into a fast and a slow mode whose balance shifts with the input, which
/// makes a per-gap median jump between them).
fn enumerate_phase(
    ws: &Workset<'_>,
    pq: &SharedPreparedQuery,
    round: usize,
    deadline: Instant,
    tr: &mut Tracer,
    led: &mut Ledger,
) -> Result<Samples, String> {
    let mut delays = Samples::default();
    let mut answers: Vec<Vec<Vertex>> = Vec::with_capacity(ENUM_RUN);
    let mut not_increasing = 0u64;
    let offset = round * ws.enum_starts.len() / ROUNDS;
    for (i, start) in ws.enum_starts.iter().cycle().skip(offset).enumerate() {
        if (i >= 16 && Instant::now() >= deadline) || delays.len() >= SAMPLE_CAP {
            break;
        }
        let op = (offset + i) as u64;
        let mut it = pq
            .enumerate_from(start)
            .map_err(|e| format!("enumerate_from: {e}"))?;
        answers.clear();
        if let Some(first) = tr.span("core.enum_next", op, || it.next()) {
            answers.push(first);
        }
        let mut exhausted = answers.is_empty();
        while !exhausted && answers.len() < ENUM_RUN {
            let before = answers.len();
            let t0 = Instant::now();
            for _ in 0..ENUM_BLOCK {
                match tr.span("core.enum_next", op, || it.next()) {
                    Some(a) => answers.push(a),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            let dt = ns(t0.elapsed());
            if answers.len() > before {
                delays.push(dt / (answers.len() - before) as f64);
            }
        }
        led.ok(answers.len() as u64);
        not_increasing += u64::from(!check::strictly_increasing(&answers));
        if i % 64 == 0 {
            // Spot-check the run's first answer against brute force.
            let want = ws.expected.next(&ws.prepared.graph, start);
            led.checked(
                1,
                u64::from(answers.first() != want.as_ref()),
                "enumeration first answer",
            );
        }
    }
    led.checked(
        0,
        not_increasing,
        "enumeration runs not strictly lex-increasing",
    );
    Ok(delays)
}

/// The repair chain: mutation batches applied one after another, each to
/// the previous epoch, across all rounds.
struct Chain {
    cur: SharedPreparedQuery,
    done: usize,
    /// `apply` times as measured, and scaled by the host-speed reference
    /// taken just before and after each.
    repairs: Samples,
    repairs_scaled: Samples,
    apply_to: Samples,
    reprepare: Samples,
    repaired_bags: u64,
    rebuilds: u64,
    drift: Option<f64>,
}

impl Chain {
    /// Apply this round's batches. A chain with a multi-size cycle is
    /// checked against a fresh prepare of its graph after every cycle, any
    /// other after the `last` round.
    fn run(
        &mut self,
        ws: &Workset<'_>,
        last: bool,
        tr: &mut Tracer,
        led: &mut Ledger,
        tests: &mut Samples,
        nexts_repaired: &mut Samples,
    ) -> Result<(), String> {
        let spec = ws.spec;
        let query = &ws.prepared.queries[spec.primary];
        let opts = prepare_opts();
        let cycle = spec.batch_sizes.len();
        let end = (self.done + spec.batches_per_round).min(ws.logs.len());
        while self.done < end {
            let i = self.done;
            let log = &ws.logs[i];
            if ws.cfg.trace {
                let g_cur = self.cur.graph();
                let t0 = Instant::now();
                let applied = tr.span("update.apply_to", i as u64, || log.apply_to(g_cur));
                self.apply_to.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = applied {
                    led.fail(format!("apply_to batch {i}: {e:?}"));
                }
            }
            let before = ws.href.sample();
            let t0 = Instant::now();
            let next = tr.span("core.apply", i as u64, || self.cur.apply(log, query, &opts));
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            let after = ws.href.sample();
            let next = next.map_err(|e| format!("apply batch {i}: {e}"))?;
            self.repairs.push(dt);
            self.repairs_scaled
                .push(dt * spec.ref_ns * 2.0 / (before + after));
            led.ok(1);
            self.repaired_bags += next.lineage().repaired_bags as u64;
            self.rebuilds += u64::from(next.lineage().rebuilt);
            self.cur = next;
            self.done += 1;
            if spec.probes_after_repair {
                let off = (i * BURST_TESTS) % ws.probe_tuples.len();
                let now = Instant::now();
                let cur = &self.cur;
                let tuples = ws.probe_tuples.iter().cycle().skip(off);
                let call = |t: &[Vertex]| cur.test(t);
                led.ok(time_calls(
                    tuples,
                    now,
                    BURST_TESTS,
                    tr,
                    "core.test",
                    tests,
                    call,
                ));
                let tuples = ws.probe_tuples.iter().cycle().skip(off);
                let call = |t: &[Vertex]| cur.next_solution(t);
                led.ok(time_calls(
                    tuples,
                    now,
                    BURST_NEXTS,
                    tr,
                    "core.next",
                    nexts_repaired,
                    call,
                ));
            }
            if cycle > 1 && self.done.is_multiple_of(cycle) {
                self.check(ws, tr, led)?;
            }
        }
        if cycle == 1 && last {
            self.check(ws, tr, led)?;
        }
        Ok(())
    }

    /// The current epoch against a fresh prepare of the same graph.
    fn check(&mut self, ws: &Workset<'_>, tr: &mut Tracer, led: &mut Ledger) -> Result<(), String> {
        let query = &ws.prepared.queries[ws.spec.primary];
        let i = self.done;
        let t0 = Instant::now();
        let fresh = tr
            .span("update.reprepare", i as u64, || {
                SharedPreparedQuery::prepare(self.cur.graph_shared(), query, &prepare_opts())
            })
            .map_err(|e| format!("fresh prepare at epoch {i}: {e}"))?;
        self.reprepare.push(t0.elapsed().as_secs_f64() * 1e3);
        let t = ws.check_tuples;
        let same = check::checksum(&self.cur, t) == check::checksum(&fresh, t)
            && first_answers(&self.cur, &t[0]) == first_answers(&fresh, &t[0]);
        led.checked(
            1,
            u64::from(!same),
            &format!("repaired epoch {i} vs fresh prepare"),
        );
        if ws.cfg.trace {
            self.drift = Some(probe_drift(&self.cur, &fresh, ws.probe_tuples));
        }
        Ok(())
    }
}

fn first_answers(pq: &SharedPreparedQuery, from: &[Vertex]) -> Vec<Vec<Vertex>> {
    pq.page(from, ENUM_RUN).unwrap_or_default()
}

/// `test` p50 on the repaired index ÷ on a fresh prepare of the same graph.
fn probe_drift(
    repaired: &SharedPreparedQuery,
    fresh: &SharedPreparedQuery,
    tuples: &[Vec<Vertex>],
) -> f64 {
    let mut off = Tracer::new(false, Instant::now());
    let (mut a, mut b) = (Samples::default(), Samples::default());
    for chunk in tuples.chunks(4096).take(8) {
        let now = Instant::now();
        time_calls(chunk.iter(), now, chunk.len(), &mut off, "", &mut a, |t| {
            repaired.test(t)
        });
        time_calls(chunk.iter(), now, chunk.len(), &mut off, "", &mut b, |t| {
            fresh.test(t)
        });
    }
    a.median() / b.median().max(1.0)
}

/// Relative cost of recording a span around `test`: alternating blocks
/// with the recorder on and off over the same tuples.
fn tracer_overhead(pq: &SharedPreparedQuery, tuples: &[Vec<Vertex>], tr: &mut Tracer) -> f64 {
    let mut off = Tracer::new(false, tr.origin());
    let (mut on_s, mut off_s) = (Samples::default(), Samples::default());
    for chunk in tuples.chunks(4096).take(8) {
        let now = Instant::now();
        time_calls(
            chunk.iter(),
            now,
            chunk.len(),
            tr,
            "core.test",
            &mut on_s,
            |t| pq.test(t),
        );
        time_calls(
            chunk.iter(),
            now,
            chunk.len(),
            &mut off,
            "",
            &mut off_s,
            |t| pq.test(t),
        );
    }
    (on_s.median() - off_s.median()) / off_s.median().max(1.0)
}
