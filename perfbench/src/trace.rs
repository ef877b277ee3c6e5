//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Nothing inside the engine is instrumented: a traced
//! run times the calls the workload makes, and repeats in-process the
//! layer calls that a request over the wire makes inside the server.
//!
//! Each thread keeps its spans in memory; they are merged and written out
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::util::{median, median_or_zero, us_between};

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// The request (or operation) the span belongs to.
    pub request: u64,
}

/// One thread's spans.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = Instant::now();
    }

    /// Record an already-timed interval.
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.push(name, request, parent, start, Instant::now());
        r
    }
}

/// All threads' spans after the run, with each span's self time.
pub struct Analysis {
    pub spans: Vec<Span>,
    /// Self time of `spans[i]` in µs: its duration minus the part of its
    /// interval that its children cover.
    pub self_us: Vec<f64>,
}

impl Analysis {
    pub fn new(traces: Vec<Trace>) -> Analysis {
        let mut spans = Vec::new();
        let mut self_us = Vec::new();
        for t in traces {
            let base = spans.len();
            let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    children[p].push((s.start, s.end));
                }
            }
            for (i, s) in t.spans.iter().enumerate() {
                let covered = union_us(&mut children[i]);
                self_us.push((us_between(s.start, s.end) - covered).max(0.0));
                spans.push(Span {
                    parent: s.parent.map(|p| p + base),
                    ..*s
                });
            }
        }
        Analysis { spans, self_us }
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us_between(s.start, s.end))
            .collect()
    }

    /// Median duration (µs) of the spans named `name`; 0 when there are
    /// none, which marks a layer the workload does not exercise.
    pub fn p50_us(&self, name: &str) -> f64 {
        median_or_zero(&self.durations(name))
    }

    /// Per request: the self time of every span of that request except
    /// the ones named in `roots` (the end-to-end operation spans).
    pub fn covered_by_request(&self, roots: &[&str]) -> BTreeMap<u64, f64> {
        let mut covered = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(&self.self_us) {
            if !roots.contains(&s.name) {
                *covered.entry(s.request).or_insert(0.0) += self_us;
            }
        }
        covered
    }

    /// `(name, calls, total self ms, median self µs)` per span name.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(&self.self_us) {
            by_name.entry(s.name).or_default().push(*self_us);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, v.len(), v.iter().sum::<f64>() / 1e3, median(&v)))
            .collect()
    }

    /// Write every span as tab-separated
    /// `id parent request name start_us end_us self_us`, times relative to
    /// the earliest span.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_us\tend_us\tself_us")?;
        for (i, (s, self_us)) in self.spans.iter().zip(&self.self_us).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
                s.request,
                s.name,
                us_between(epoch, s.start),
                us_between(epoch, s.end),
                self_us
            )?;
        }
        out.flush()
    }
}

/// Total length (µs) of the union of `intervals`.
fn union_us(intervals: &mut [(Instant, Instant)]) -> f64 {
    intervals.sort_by_key(|i| i.0);
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += us_between(cs, ce);
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += us_between(cs, ce);
    }
    total
}
