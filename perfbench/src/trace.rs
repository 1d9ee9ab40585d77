//! In-memory spans around the benchmark's calls into each layer, written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: its layer-qualified name, the transfer it served (none
/// for per-pass work such as building cells), the span that caused it, and
/// its interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<module>.<function>`, or `transfer` for a transfer's root span.
    pub name: &'static str,
    /// Index of the transfer within its pass.
    pub transfer: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// The spans of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span, in the order opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a span whose interval is already known; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        transfer: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            transfer,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        transfer: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let now = Instant::now();
        self.record(name, transfer, parent, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a new span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        transfer: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, transfer, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Seconds spent in spans called `name`, summed.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Seconds covered by spans without a parent.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Each span name's self time: its spans' durations minus the part
    /// their child spans cover, summed per name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0.0) += s.secs() - child;
        }
        out
    }
}

/// Writes the spans of every traced pass as JSON lines (`pass`, `id`,
/// `name`, `transfer`, `parent`, and start and end in nanoseconds from
/// `origin`).
pub fn dump(path: &std::path::Path, origin: Instant, passes: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let ns = |t: Instant| t.duration_since(origin).as_nanos();
    let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    for (pass, tracer) in passes.iter().enumerate() {
        for (id, s) in tracer.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"transfer\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.transfer),
                opt(s.parent),
                ns(s.start),
                ns(s.end),
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::default();
        let root = t.record("transfer", Some(0), None, at(0), at(10));
        let call = t.record(
            "experiment.run_data_point",
            Some(0),
            Some(root),
            at(1),
            at(7),
        );
        t.record("machine.run", Some(0), Some(call), at(2), at(6));
        let selfs = t.self_secs();
        assert!((selfs["transfer"] - 0.004).abs() < 1e-9);
        assert!((selfs["experiment.run_data_point"] - 0.002).abs() < 1e-9);
        assert!((selfs["machine.run"] - 0.004).abs() < 1e-9);
        assert!((t.root_secs() - 0.010).abs() < 1e-9);
        assert!((t.total_secs("machine.run") - 0.004).abs() < 1e-9);
    }
}
