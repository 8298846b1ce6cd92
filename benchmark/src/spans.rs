//! Outside-in span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call into
//! a layer's public functions; nothing inside the program is instrumented.
//! They are kept in memory and only aggregated (or written to
//! `--trace-out`) after the measured loop ends.  A disabled tracer records
//! nothing, so the untraced run pays one predictable branch per call site.

use std::io::Write;
use std::time::Instant;

use crate::stats::median;

const NO_SPAN: u32 = u32::MAX;

/// One recorded span; `parent` indexes into the same span list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, round: u64) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            round,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `open` returned (spans close innermost-first).
    pub fn close(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    /// Record a leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, round);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Median duration of the spans called `name`, in ms (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Self times (ms) of every span called `name`: its duration minus the
    /// part its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// Share of the `parent`-named spans' wall time that their direct
    /// children cover (1.0 = the children sum to the whole).
    pub fn coverage(&self, parent: &str) -> f64 {
        let total: f64 = self.durations_ms(parent).iter().sum();
        let own: f64 = self.self_ms(parent).iter().sum();
        if total > 0.0 {
            (total - own) / total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line, labelled with the
    /// pass it was recorded in (`parent` is an `id` of the same pass).
    pub fn write_jsonl(&self, out: &mut impl Write, pass: &str) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_sums() {
        let mut t = Tracer::new(true);
        let round = t.open("round", 0);
        t.time("phase", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.time("phase", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(round);
        let total = t.durations_ms("round")[0];
        let own = t.self_ms("round")[0];
        let phases: f64 = t.durations_ms("phase").iter().sum();
        assert!(phases >= 10.0);
        assert!((total - own - phases).abs() < 1e-6);
        assert!(t.coverage("round") > 0.9);
        assert_eq!(t.self_ms("phase").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("round", 0);
        assert_eq!(t.time("phase", 0, || 7), 7);
        t.close(id);
        assert!(t.durations_ms("round").is_empty());
        assert_eq!(t.median_ms("round"), 0.0);
    }
}
