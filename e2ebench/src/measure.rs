//! Timing summaries, the metric table, the span recorder, and the
//! host-speed reference.
//!
//! Every latency the benchmark reports is taken from `std::time::Instant`
//! in this crate, one sample per call, and summarized by nearest-rank
//! percentiles over the raw samples. Nothing is read back from the serving
//! layer's log2-bucket histogram: its bucket bounds double, so a
//! percentile read from it can only move in 2× steps.

use std::collections::BTreeMap;
use std::time::Instant;

/// A duration in nanoseconds, as a sample value.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Raw samples of one quantity.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`; 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut s = self.0.clone();
        s.sort_unstable_by(f64::total_cmp);
        let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    /// The mean of each consecutive chunk of `k` samples, as new samples.
    pub fn chunk_means(&self, k: usize) -> Samples {
        Samples(
            self.0
                .chunks(k.max(1))
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect(),
        )
    }
}

/// The host-speed reference: a fixed piece of this crate's own work, timed
/// next to the program's calls so that each timing can be scaled to one
/// reference speed of the host (README.md, "Host-speed scaling").
///
/// The work is the radius-2 ball (gather, sort, dedup) around seeded roots
/// of the input graph, over a copy of its adjacency in this crate's own
/// arrays: graph-shaped work like the program's, whose code and data do not
/// change when the program does.
pub struct HostRef {
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    roots: Vec<u32>,
}

impl HostRef {
    const ROOTS: u64 = 256;

    pub fn new(g: &nd_graph::ColoredGraph, seed: u64) -> HostRef {
        let mut offsets = Vec::with_capacity(g.n() + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for v in 0..g.n() as u32 {
            adjacency.extend_from_slice(g.neighbors(v));
            offsets.push(adjacency.len() as u32);
        }
        let roots = (0..Self::ROOTS)
            .map(|i| (crate::gen::mix(i, seed ^ 0x4ef) % g.n().max(1) as u64) as u32)
            .collect();
        HostRef {
            offsets,
            adjacency,
            roots,
        }
    }

    fn balls(&self) -> usize {
        let nb = |v: u32| {
            &self.adjacency
                [self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
        };
        let mut ball = Vec::with_capacity(64);
        let mut total = 0;
        for &r in &self.roots {
            ball.clear();
            ball.push(r);
            for &u in nb(r) {
                ball.push(u);
                ball.extend_from_slice(nb(u));
            }
            ball.sort_unstable();
            ball.dedup();
            total += ball.len();
        }
        total
    }

    /// Nanoseconds per ball: one untimed pass to bring the roots' data
    /// into cache (so the program's own cache footprint does not move the
    /// figure), then one timed pass.
    pub fn sample(&self) -> f64 {
        std::hint::black_box(self.balls());
        let t0 = Instant::now();
        std::hint::black_box(self.balls());
        ns(t0.elapsed()) / Self::ROOTS as f64
    }
}

/// One reported metric.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Number of samples the value summarizes (1 for counts and sizes).
    pub samples: usize,
    /// For tail percentiles: the number of samples beyond the reported
    /// rank. A percentile is resolved when at least ten lie beyond it.
    pub beyond: Option<usize>,
    /// The per-round values the reported median was taken over.
    pub rounds: Vec<f64>,
}

/// Metrics in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
                beyond: None,
                rounds: Vec::new(),
            },
        );
    }

    /// `name_p50` (median) and `name_p<tail>` from the same samples,
    /// scaled by `scale`.
    pub fn put_timing(
        &mut self,
        base: &str,
        unit: &'static str,
        s: &Samples,
        tail: u32,
        scale: f64,
    ) {
        let n = s.len();
        self.put(&format!("{base}_p50_{unit}"), unit, s.median() * scale, n);
        let p = f64::from(tail) / 100.0;
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.0.insert(
            format!("{base}_p{tail}_{unit}"),
            Metric {
                value: s.pct(p) * scale,
                unit,
                samples: n,
                beyond: Some(n.saturating_sub(rank)),
                rounds: Vec::new(),
            },
        );
    }

    /// Each metric of the per-round tables as the median of its per-round
    /// values. Sample counts add up; a tail's `beyond` is the smallest of
    /// any round.
    pub fn put_round_medians(&mut self, rounds: &[Metrics]) {
        let Some(first) = rounds.first() else { return };
        for (name, m) in &first.0 {
            let mut values = Samples::default();
            let (mut samples, mut beyond) = (0, m.beyond);
            for r in rounds {
                if let Some(x) = r.0.get(name) {
                    values.push(x.value);
                    samples += x.samples;
                    beyond = beyond.zip(x.beyond).map(|(a, b)| a.min(b));
                }
            }
            self.0.insert(
                name.clone(),
                Metric {
                    value: values.median(),
                    unit: m.unit,
                    samples,
                    beyond,
                    rounds: values.0,
                },
            );
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }
}

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Operation id: spans of one logical operation share it.
    pub op: u64,
}

/// Per-name totals over every span recorded, including those past the raw
/// record cap.
#[derive(Default, Clone)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations of the first [`DURATION_CAP`] spans, for medians.
    pub durations: Samples,
}

const RAW_CAP: usize = 20_000;
const DURATION_CAP: usize = 200_000;

/// In-memory span recorder for one thread. Disabled recorders run the
/// wrapped call and nothing else.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Open spans: (raw index or u32::MAX, name, start, child coverage, op).
    stack: Vec<(u32, &'static str, u64, u64, u64)>,
    pub raw: Vec<Span>,
    pub agg: BTreeMap<&'static str, SpanAgg>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            stack: Vec::new(),
            raw: Vec::new(),
            agg: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name` for operation `op`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let idx = if self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map(|s| s.0).filter(|&p| p != u32::MAX);
            self.raw.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                op,
            });
            (self.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push((idx, name, start, 0, op));
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        let (idx, name, start, child, _) = self.stack.pop().expect("span stack underflow");
        let dur = end.saturating_sub(start);
        if idx != u32::MAX {
            self.raw[idx as usize].end_ns = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.3 += dur;
        }
        let a = self.agg.entry(name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child);
        if a.durations.len() < DURATION_CAP {
            a.durations.push(dur as f64);
        }
        out
    }

    /// Fold another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.raw.len() as u32;
        for mut s in other.raw {
            if self.raw.len() >= RAW_CAP {
                break;
            }
            s.parent = s.parent.map(|p| p + base);
            self.raw.push(s);
        }
        for (name, a) in other.agg {
            let mine = self.agg.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
            mine.durations.extend(&a.durations);
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Median duration of the spans named `name`, in ns (0 if none).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.agg.get(name).map_or(0.0, |a| a.durations.median())
    }

    /// Summed duration of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.agg.get(name).map_or(0.0, |a| a.total_ns as f64)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.agg.get(name).map_or(0, |a| a.count)
    }

    /// Spans recorded in all (raw and aggregated).
    pub fn spans(&self) -> u64 {
        self.agg.values().map(|a| a.count).sum()
    }

    /// JSON dump: per-name totals with self time, then the raw spans.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"aggregate\":[");
        for (i, (name, a)) in self.agg.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"median_ns\":{}}}",
                a.count,
                a.total_ns,
                a.self_ns,
                a.durations.median()
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out.push_str("]}");
        out
    }
}
