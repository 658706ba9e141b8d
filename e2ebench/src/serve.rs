//! The serving phase: a closed loop of client threads submitting fixed
//! batches to one `ServerPool`, each batch timed from `submit` to the
//! return of `wait` on this crate's clock.

use crate::gen;
use crate::measure::{ns, Samples, Tracer};
use crate::run::ROUNDS;
use nd_graph::Vertex;
use nd_serve::{Request, Response, ServeError, ServerPool};
use std::time::{Duration, Instant};

pub const SERVE_WORKERS: usize = 2;
pub const SERVE_CLIENTS: usize = 1;
const SERVE_BATCH: usize = 128;
const PAGE_LIMIT: usize = 32;

/// Seeded serve batches of one client: about 70% `test`, 25%
/// `next_solution`, 5% `page(32)`.
pub fn serve_batches(n: usize, arity: usize, seed: u64, stream: u64) -> Vec<Vec<Request>> {
    let mut rng = gen::Rng::new(seed, stream);
    let tuple = |rng: &mut gen::Rng| -> Vec<Vertex> {
        (0..arity).map(|_| rng.below(n as u64) as Vertex).collect()
    };
    (0..1024)
        .map(|_| {
            (0..SERVE_BATCH)
                .map(|_| match rng.below(100) {
                    0..70 => Request::Test {
                        tuple: tuple(&mut rng),
                    },
                    70..95 => Request::NextSolution {
                        from: tuple(&mut rng),
                    },
                    _ => Request::EnumeratePage {
                        from: tuple(&mut rng),
                        limit: PAGE_LIMIT,
                    },
                })
                .collect()
        })
        .collect()
}

/// One submitted batch with the responses it got back.
pub type ServedBatch = (Vec<Request>, Vec<Result<Response, ServeError>>);

pub struct ServeResult {
    pub requests: u64,
    pub rejected: u64,
    pub elapsed: Duration,
    pub rtt: Samples,
    pub errors: Vec<String>,
    /// The first batches of each client with their responses, for checking.
    pub kept: Vec<ServedBatch>,
    pub trace: Option<Tracer>,
}

pub fn serve_round(
    pool: &ServerPool,
    batches: &[Vec<Vec<Request>>],
    round: usize,
    budget: Duration,
    trace: bool,
    origin: Instant,
) -> ServeResult {
    let t_start = Instant::now();
    let deadline = t_start + budget;
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(c, batches)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(trace, origin);
                    let mut rtt = Samples::default();
                    let (mut requests, mut rejected) = (0u64, 0u64);
                    let mut errors = Vec::new();
                    let mut kept = Vec::new();
                    let skip = round * batches.len() / ROUNDS;
                    for (i, batch) in batches.iter().cycle().skip(skip).enumerate() {
                        if i >= 8 && Instant::now() >= deadline {
                            break;
                        }
                        let reqs = batch.clone();
                        let op = ((round as u64) << 48) | ((c as u64) << 32) | i as u64;
                        let t0 = Instant::now();
                        let handle = tr.span("serve.submit", op, || pool.submit(reqs));
                        let resps = match handle {
                            Ok(h) => tr.span("serve.wait", op, || h.wait()),
                            Err(e) => {
                                rejected += 1;
                                errors.push(e.to_string());
                                continue;
                            }
                        };
                        rtt.push(ns(t0.elapsed()));
                        requests += resps.len() as u64;
                        for r in resps.iter().filter_map(|r| r.as_ref().err()) {
                            errors.push(r.to_string());
                        }
                        if i < 32 {
                            kept.push((batch.clone(), resps));
                        }
                    }
                    (requests, rejected, rtt, errors, kept, tr, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let mut out = ServeResult {
        requests: 0,
        rejected: 0,
        elapsed: Duration::ZERO,
        rtt: Samples::default(),
        errors: Vec::new(),
        kept: Vec::new(),
        trace: trace.then(|| Tracer::new(true, origin)),
    };
    for (requests, rejected, rtt, errors, kept, tr, end) in per_client {
        out.requests += requests;
        out.rejected += rejected;
        out.rtt.extend(&rtt);
        out.errors.extend(errors);
        out.kept.extend(kept);
        out.elapsed = out.elapsed.max(end - t_start);
        if let Some(t) = out.trace.as_mut() {
            t.merge(tr);
        }
    }
    out
}
