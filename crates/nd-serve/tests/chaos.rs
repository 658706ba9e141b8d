//! Chaos harness for the serving runtime (DESIGN.md §9).
//!
//! The robustness contract under test: whatever faults fire — worker
//! panics, snapshot swaps mid-load, shutdown under load, corrupted index
//! files — the pool **always answers or typed-rejects every admitted
//! request, and never hangs**. Faults are injected deterministically
//! (`ServeOpts::chaos_panic_period`, byte-level file corruption), so a
//! failure here reproduces byte-for-byte.

use nd_core::{PrepareOpts, SharedPreparedQuery};
use nd_graph::generators;
use nd_graph::ColoredGraph;
use nd_logic::parse_query;
use nd_serve::{Reply, Request, Response, ServeError, ServeOpts, ServerPool, Session, Snapshot};
use std::path::PathBuf;
use std::time::Duration;

const QUERY: &str = "dist(x,y) <= 2 && Blue(y)";

fn chaos_graph() -> ColoredGraph {
    let mut g = generators::grid(8, 8);
    let members: Vec<_> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
    g.add_color(members, Some("Blue".into()));
    g
}

fn snapshot() -> Snapshot {
    Snapshot::build_owned(
        chaos_graph(),
        &parse_query(QUERY).unwrap(),
        &PrepareOpts::default(),
    )
    .unwrap()
}

/// Save an index for `QUERY` over the chaos graph to a unique temp path.
fn saved_index(tag: &str) -> PathBuf {
    let q = parse_query(QUERY).unwrap();
    let prepared =
        SharedPreparedQuery::prepare(chaos_graph().into_shared(), &q, &PrepareOpts::default())
            .unwrap();
    let path = std::env::temp_dir().join(format!("nd-chaos-{tag}-{}.idx", std::process::id()));
    prepared.save_index(&q, QUERY, &path).unwrap();
    path
}

/// Total over all reply shapes, so assertions print what they got.
fn line(reply: Option<Reply>) -> String {
    match reply {
        Some(Reply::Line(s)) => s,
        Some(Reply::Quit) => "<quit>".to_string(),
        None => "<no reply>".to_string(),
    }
}

#[test]
fn injected_worker_panics_are_quarantined() {
    let snap = snapshot();
    let pool = ServerPool::start(
        snap.clone(),
        &ServeOpts {
            workers: 2,
            chaos_panic_period: 5,
            ..Default::default()
        },
    );
    let mut ok = 0u64;
    let mut panicked = 0u64;
    for round in 0..40u32 {
        let batch: Vec<Request> = (0..5)
            .map(|i| Request::Test {
                tuple: vec![(round + i) % 8, (round * 7 + i) % 64],
            })
            .collect();
        let results = pool.submit(batch.clone()).unwrap().wait();
        assert_eq!(results.len(), batch.len());
        for (req, res) in batch.iter().zip(results) {
            match res {
                // Untouched requests answer exactly as a clean snapshot.
                Ok(resp) => {
                    assert_eq!(resp, snap.execute(req).unwrap());
                    ok += 1;
                }
                // The panicking request is quarantined with a typed
                // error; its batch-mates above still succeeded.
                Err(ServeError::WorkerPanic(msg)) => {
                    assert!(msg.contains("chaos"), "{msg}");
                    panicked += 1;
                }
                Err(other) => unreachable!("unexpected error kind: {other:?}"),
            }
        }
    }
    // The tick counter is global and every request consumes one tick, so
    // exactly every 5th of the 200 requests panicked.
    assert_eq!((ok, panicked), (160, 40));
    assert_eq!(pool.worker_panics(), 40);
    // Liveness after 40 panics: the pool still answers promptly.
    let res = pool.call(Request::Test { tuple: vec![0, 1] });
    assert!(
        matches!(res, Ok(_) | Err(ServeError::WorkerPanic(_))),
        "{res:?}"
    );
}

#[test]
fn shutdown_under_load_answers_or_rejects_everything() {
    let pool = ServerPool::start(
        snapshot(),
        &ServeOpts {
            workers: 2,
            ..Default::default()
        },
    );
    // Pile up more page work than two workers clear instantly.
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let batch = vec![
                Request::EnumeratePage {
                    from: vec![0, 0],
                    limit: 50,
                };
                4
            ];
            pool.submit(batch).unwrap()
        })
        .collect();
    // Zero deadline: whatever is still queued is typed-rejected.
    pool.shutdown_with_deadline(Duration::ZERO);
    let (mut answered, mut rejected) = (0u64, 0u64);
    for h in handles {
        for res in h.wait() {
            match res {
                Ok(Response::Page { .. }) => answered += 1,
                Ok(other) => unreachable!("page request answered {other:?}"),
                Err(ServeError::Shutdown) => rejected += 1,
                Err(other) => unreachable!("unexpected error kind: {other:?}"),
            }
        }
    }
    // The whole point: nothing was dropped and nothing hung.
    assert_eq!(answered + rejected, 64 * 4);
}

#[test]
fn begin_shutdown_rejects_new_submits_typed() {
    let pool = ServerPool::start(
        snapshot(),
        &ServeOpts {
            workers: 1,
            ..Default::default()
        },
    );
    pool.begin_shutdown();
    let res = pool.submit(vec![Request::Test { tuple: vec![0, 1] }]);
    assert!(matches!(res, Err(ServeError::Shutdown)), "{res:?}");
    assert!(pool.drain_with_deadline(Duration::from_secs(1)));
}

#[test]
fn shutdown_under_chaos_still_terminates() {
    let pool = ServerPool::start(
        snapshot(),
        &ServeOpts {
            workers: 2,
            chaos_panic_period: 3,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..32)
        .map(|_| {
            pool.submit(vec![Request::Test { tuple: vec![0, 1] }; 4])
                .unwrap()
        })
        .collect();
    pool.shutdown_with_deadline(Duration::from_millis(50));
    for h in handles {
        for res in h.wait() {
            // Every admitted request resolves to an answer or a typed
            // rejection — panics included — and the join above returned,
            // so no worker hung.
            assert!(
                matches!(
                    res,
                    Ok(_)
                        | Err(ServeError::Shutdown)
                        | Err(ServeError::WorkerPanic(_))
                        | Err(ServeError::DeadlineExceeded { .. })
                ),
                "{res:?}"
            );
        }
    }
}

#[test]
fn swap_under_load_never_fails_inflight_requests() {
    let path = saved_index("swap");
    let mut session = Session::start(
        chaos_graph().into_shared(),
        &parse_query(QUERY).unwrap(),
        PrepareOpts::default(),
        ServeOpts {
            workers: 2,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let swap_cmd = format!("swap {}", path.display());
    for round in 1..=4u64 {
        // Queue real page work on the current pool...
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let batch = vec![
                    Request::EnumeratePage {
                        from: vec![0, 0],
                        limit: 64,
                    };
                    4
                ];
                session.pool().submit(batch).unwrap()
            })
            .collect();
        // ...then hot-swap while those batches are queued or in flight.
        let reply = line(session.handle(&swap_cmd));
        assert!(
            reply.starts_with(&format!("swapped epoch={round} ")),
            "{reply}"
        );
        // Acceptance criterion: every request admitted before the swap
        // completes successfully on its old epoch — zero failures.
        for h in handles {
            for res in h.wait() {
                let resp = res.expect("in-flight request failed across a swap");
                assert!(matches!(resp, Response::Page { .. }), "{resp:?}");
            }
        }
    }
    assert_eq!(session.epoch(), 4);
    // The swapped-in snapshot serves probes.
    let t = line(session.handle("test 0,3"));
    assert!(t == "true" || t == "false", "{t}");
    let m = line(session.handle("metrics"));
    assert!(m.contains("\"swaps\":4"), "{m}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_swap_files_yield_typed_errors_and_keep_serving() {
    let path = saved_index("corrupt");
    let clean = std::fs::read(&path).unwrap();
    let mut session = Session::start(
        chaos_graph().into_shared(),
        &parse_query(QUERY).unwrap(),
        PrepareOpts::default(),
        ServeOpts {
            workers: 1,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let swap_cmd = format!("swap {}", path.display());

    // Flip one byte somewhere in every region of the file.
    for at in [0, 8, 16, clean.len() / 2, clean.len() - 1] {
        let mut bad = clean.clone();
        bad[at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let reply = line(session.handle(&swap_cmd));
        assert!(reply.starts_with("err read:"), "byte {at}: {reply}");
    }
    // Truncations, including an empty file.
    for len in [0, 7, clean.len() / 3, clean.len() - 1] {
        std::fs::write(&path, &clean[..len]).unwrap();
        let reply = line(session.handle(&swap_cmd));
        assert!(reply.starts_with("err read:"), "len {len}: {reply}");
    }
    // A directory and a missing file are read errors, not panics.
    let dir_reply = line(session.handle(&format!("swap {}", std::env::temp_dir().display())));
    assert!(dir_reply.starts_with("err read:"), "{dir_reply}");
    std::fs::remove_file(&path).ok();
    let gone_reply = line(session.handle(&swap_cmd));
    assert!(gone_reply.starts_with("err read:"), "{gone_reply}");

    // No failed swap advanced the epoch, and the original index still
    // serves.
    assert_eq!(session.epoch(), 0);
    let t = line(session.handle("test 0,3"));
    assert!(t == "true" || t == "false", "{t}");
}

/// Hostile inputs on the zero-copy path (`load-mmap PATH`): every flip,
/// truncation and alignment lie yields a typed `err read:` reply — never
/// a panic, never a SIGBUS, never a silently-served corrupt index — and
/// the session keeps serving its current snapshot throughout.
#[test]
fn mmap_load_hostile_inputs_yield_typed_errors_and_keep_serving() {
    let path = saved_index("mmap-hostile");
    let clean = std::fs::read(&path).unwrap();
    let mut session = Session::start(
        chaos_graph().into_shared(),
        &parse_query(QUERY).unwrap(),
        PrepareOpts::default(),
        ServeOpts {
            workers: 1,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let cmd = format!("load-mmap {}", path.display());

    // A clean file swaps in and reports the mapping.
    let reply = line(session.handle(&cmd));
    assert!(reply.starts_with("swapped epoch=1 "), "{reply}");
    assert!(reply.contains("mapped_bytes="), "{reply}");
    let t = line(session.handle("test 0,3"));
    assert!(t == "true" || t == "false", "{t}");

    // Byte flips in every region: magic, version, section headers, bulk
    // payload (caught by the deferred CRC pass, settled before the swap
    // is acknowledged), trailing pad.
    for at in [0, 8, 16, clean.len() / 2, clean.len() - 1] {
        let mut bad = clean.clone();
        bad[at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let reply = line(session.handle(&cmd));
        assert!(reply.starts_with("err read:"), "byte {at}: {reply}");
    }

    // Truncations: the up-front length checks reject before any slice is
    // formed over the mapping, so a short file can never SIGBUS.
    for len in [0, 7, 15, clean.len() / 3, clean.len() - 1] {
        std::fs::write(&path, &clean[..len]).unwrap();
        let reply = line(session.handle(&cmd));
        assert!(reply.starts_with("err read:"), "len {len}: {reply}");
    }

    // Retired format generations (the v3.1 and v4 version words) are
    // refused by the framing check before any section is decoded or cast.
    for word in [0x0001_0003u32, 4] {
        let mut retired = clean.clone();
        retired[8..12].copy_from_slice(&word.to_le_bytes());
        std::fs::write(&path, &retired).unwrap();
        let reply = line(session.handle(&cmd));
        assert!(
            reply.starts_with("err read:"),
            "retired version {word:#x}: {reply}"
        );
    }

    // A directory and a missing file are read errors, not panics.
    let dir_reply = line(session.handle(&format!("load-mmap {}", std::env::temp_dir().display())));
    assert!(dir_reply.starts_with("err read:"), "{dir_reply}");

    // None of the failures advanced the epoch past the one good swap, and
    // probes still answer out of the mapped snapshot whose backing file
    // has been overwritten with garbage several times over — the save
    // protocol only ever replaces the directory entry (atomic rename or
    // a fresh `write`), never truncates a mapped inode in place, so the
    // established mapping stays valid.
    assert_eq!(session.epoch(), 1);
    let t = line(session.handle("test 0,3"));
    assert!(t == "true" || t == "false", "{t}");

    std::fs::remove_file(&path).ok();
}

/// Mid-serve replacement: while a session serves zero-copy out of a
/// mapped index, the file is atomically replaced by a *smaller* index.
/// The live mapping is pinned to the old inode (Arc'd per slab), so
/// in-flight and subsequent probes on the old epoch stay valid, and the
/// next `load-mmap` picks up the new file cleanly.
#[test]
fn mmap_serving_survives_atomic_file_replacement() {
    let path = saved_index("mmap-shrink");
    let big = std::fs::read(&path).unwrap();
    let mut session = Session::start(
        chaos_graph().into_shared(),
        &parse_query(QUERY).unwrap(),
        PrepareOpts::default(),
        ServeOpts {
            workers: 1,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let cmd = format!("load-mmap {}", path.display());
    let reply = line(session.handle(&cmd));
    assert!(reply.starts_with("swapped epoch=1 "), "{reply}");
    let before = line(session.handle("test 0,3"));

    // Build a smaller index (tiny graph, same query) and atomically
    // replace the file the session is currently mapping.
    let q = parse_query(QUERY).unwrap();
    let mut small_g = nd_graph::generators::grid(3, 3);
    let members: Vec<_> = (0..small_g.n() as u32).filter(|v| v % 3 == 0).collect();
    small_g.add_color(members, Some("Blue".into()));
    let small_pq =
        SharedPreparedQuery::prepare(small_g.into_shared(), &q, &PrepareOpts::default()).unwrap();
    let small = small_pq.save_index_bytes(&q, QUERY).unwrap();
    assert!(
        small.len() < big.len(),
        "shrink fixture must actually shrink"
    );
    nd_persist::write_file_atomic(&path, &small).unwrap();

    // The old mapping still serves: same answer as before the swap-out.
    let after = line(session.handle("test 0,3"));
    assert_eq!(before, after, "old epoch diverged after file replacement");

    // And the new, smaller file loads on the next verb.
    let reply = line(session.handle(&cmd));
    assert!(reply.starts_with("swapped epoch=2 "), "{reply}");
    let t = line(session.handle("test 0,3"));
    assert!(t == "true" || t == "false", "{t}");

    std::fs::remove_file(&path).ok();
}
