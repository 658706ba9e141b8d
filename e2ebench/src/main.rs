//! End-to-end benchmark of the enumeration engine.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload pgrid-serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a report line and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when any
//! answer is wrong or any operation fails, 2 on bad arguments. See
//! `e2ebench/README.md` for the workloads and the metric definitions.

mod check;
mod gen;
mod layers;
mod measure;
mod run;
mod serve;

use measure::Metrics;
use std::path::PathBuf;

/// End-to-end metrics, each with a regression bound in `BENCHMARK.json`:
/// emitted by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("load_first_answer_ms", "ms"),
    ("index_bytes", "B"),
    ("test_p50_ns", "ns"),
    ("next_p50_ns", "ns"),
    ("enum_delay_p50_ns", "ns"),
    ("serve_p50_us", "us"),
    ("repair_p50_ms", "ms"),
];

/// Figures measured in every run but too unsteady from run to run to hold
/// to a bound (see README.md, "Steadiness"): printed in the report line,
/// and as `traced.<name>` with `--trace 1`.
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("serve_rps", "req/s"),
    ("test_p99_ns", "ns"),
    ("next_p99_ns", "ns"),
    ("next_repaired_p50_ns", "ns"),
    ("enum_delay_p99_ns", "ns"),
    ("serve_p99_us", "us"),
    ("repair_p90_ms", "ms"),
];

/// Per-layer metrics: emitted by every workload with `--trace 1`, next to
/// `traced.<name>` for each end-to-end and unbounded metric as measured in
/// that run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cover.build_ms", "ms"),
    ("cover.bags", "count"),
    ("cover.degree", "count"),
    ("cover.total_size", "count"),
    ("kernel.build_ms", "ms"),
    ("kernel.degree", "count"),
    ("oracle.build_ms", "ms"),
    ("oracle.vertices", "count"),
    ("oracle.depth", "count"),
    ("oracle.test_ns", "ns"),
    ("store.build_ms", "ms"),
    ("store.keys", "count"),
    ("store.succ_ns", "ns"),
    ("skip.build_ms", "ms"),
    ("skip.entries", "count"),
    ("skip.truncated", "count"),
    ("skip.hop_ns", "ns"),
    ("unary.eval_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.attributed_share", "ratio"),
    ("engine.unattributed_ms", "ms"),
    ("engine.compile_us", "us"),
    ("engine.rung.indexed", "count"),
    ("engine.rung.coarsened", "count"),
    ("engine.rung.naive", "count"),
    ("naive.prepare_ms", "ms"),
    ("persist.encode_ms", "ms"),
    ("persist.write_ms", "ms"),
    ("persist.owned_load_ms", "ms"),
    ("persist.mmap_load_ms", "ms"),
    ("persist.lazy_load_ms", "ms"),
    ("persist.settle_ms", "ms"),
    ("persist.crc_gbps", "GB/s"),
    ("persist.bytes_mapped", "B"),
    ("persist.bytes_decoded", "B"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("update.apply_to_ms", "ms"),
    ("update.repair_ms", "ms"),
    ("update.repaired_bags", "count"),
    ("update.rebuild_share", "ratio"),
    ("update.reprepare_ms", "ms"),
    ("update.probe_drift", "ratio"),
    ("graph.ball_ns", "ns"),
    ("relational.reduce_ms", "ms"),
    ("logic.rewrite_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("host.ref_ns", "ns"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Scratch directory for index files and trace dumps: inside the build
/// directory, so it stays within the checkout and out of version control.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
    target.join("e2ebench-work")
}

/// The commit the checkout came from, read from `.git` without running
/// git; "unknown" outside a repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The metrics a run of this mode must print: end-to-end (`trace` off) or
/// per-layer plus the traced end-to-end figures (`trace` on).
pub fn reported_names(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(
                END_TO_END
                    .iter()
                    .chain(UNBOUNDED)
                    .map(|&(n, u)| (format!("traced.{n}"), u)),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// The final result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    trace: bool,
) -> String {
    let mut fields = Vec::new();
    if !metrics.0.is_empty() {
        for (name, unit) in reported_names(trace) {
            let source = if trace {
                name.strip_prefix("traced.").unwrap_or(&name)
            } else {
                &name
            };
            fields.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&name),
                json_num(metrics.get(source)),
                json_str(unit)
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

fn report_line(a: &Args, out: &run::Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let details: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, m)| {
            let beyond = m.beyond.map_or(String::new(), |b| {
                format!(",\"beyond\":{b},\"tail_resolved\":{}", b >= 10)
            });
            let rounds = if m.rounds.is_empty() {
                String::new()
            } else {
                let r: Vec<String> = m.rounds.iter().map(|&v| json_num(v)).collect();
                format!(",\"rounds\":[{}]", r.join(","))
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}{beyond}{rounds}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"git_commit\":{},\"page_cache\":\"warm: index written by this run just before every load\",\
         \"flush_policy\":\"write_file_atomic: fsync file, rename, fsync directory\",\
         \"prepare_threads\":1,\"serve_workers\":{},\"serve_clients\":{},\
         \"error_rate\":{},\"failures\":[{}],\"metrics\":{{{}}}}}}}",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace,
        json_str(&git_commit()),
        serve::SERVE_WORKERS,
        serve::SERVE_CLIENTS,
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
        failures.join(","),
        details.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds S --trace 0|1",
                run::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = run::spec(&args.workload, false) else {
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            run::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let cfg = run::Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir(),
        wrong_expected: false,
    };
    match run::run(&spec, &cfg) {
        Ok(out) => {
            if args.trace {
                let dump = cfg
                    .work_dir
                    .join(format!("trace-{}-{}.json", spec.name, args.seed));
                if let Err(e) = std::fs::write(&dump, out.trace.to_json()) {
                    eprintln!("warning: could not write {}: {e}", dump.display());
                }
            }
            for f in &out.failures {
                eprintln!("FAILED: {f}");
            }
            println!("{}", report_line(&args, &out));
            let correct = out.failed == 0;
            println!(
                "{}",
                result_line(correct, out.attempted, out.failed, &out.metrics, args.trace)
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!(
                "{}",
                result_line(false, 1, 1, &Metrics::default(), args.trace)
            );
            std::process::exit(1);
        }
    }
}

/// The benchmark's self-test: every workload at toy size, in both modes.
#[cfg(test)]
mod tests {
    use super::*;

    fn config(trace: bool, wrong_expected: bool) -> run::Config {
        run::Config {
            seed: 7,
            seconds: 0.3,
            trace,
            work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/selftest-work")),
            wrong_expected,
        }
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        for &w in run::WORKLOADS {
            let spec = run::spec(w, true).expect("known workload");
            for trace in [false, true] {
                let out = run::run(&spec, &config(trace, false)).expect("toy run");
                assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
                for (name, unit) in reported_names(trace) {
                    let source = name.strip_prefix("traced.").unwrap_or(&name);
                    let m = out
                        .metrics
                        .0
                        .get(source)
                        .unwrap_or_else(|| panic!("{w}: {name} missing"));
                    assert_eq!(m.unit, unit, "{w}: unit of {name}");
                    assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
                }
                let line = result_line(true, out.attempted, out.failed, &out.metrics, trace);
                for (name, unit) in reported_names(trace) {
                    let field = format!("\"{name}\":{{\"value\":");
                    assert!(line.contains(&field), "{w}: {name} not printed");
                    assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
                }
            }
        }
    }

    #[test]
    fn a_wrong_expected_answer_trips_the_gate() {
        for &w in run::WORKLOADS {
            let spec = run::spec(w, true).expect("known workload");
            let out = run::run(&spec, &config(false, true)).expect("toy run");
            assert!(out.failed > 0, "{w}: gate did not trip");
            let line = result_line(
                out.failed == 0,
                out.attempted,
                out.failed,
                &out.metrics,
                false,
            );
            assert!(line.starts_with("{\"correct\":false,"), "{w}: {line}");
        }
    }
}
