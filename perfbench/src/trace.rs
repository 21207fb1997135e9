//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start and end (ns since the tracer was made),
//! the span open around it when it started, and the request (op) it
//! belongs to. A span's self time is its duration minus the durations of
//! its direct children. Spans are kept in memory and written out as JSON
//! lines when the run ends. A disabled tracer records nothing and only
//! calls through, so untraced runs execute the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Mean duration of the spans named `name`, in seconds (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        crate::common::mean(&self.durations(name))
    }

    /// Mean self time of the spans named `name`, in seconds (0 if none).
    pub fn mean_self(&self, name: &str) -> f64 {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children = child_ns.get(&i).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9
            })
            .collect();
        crate::common::mean(&selfs)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Share of a traced op that the layer self times on its blocking path
/// must explain, or the traced run fails.
pub const MIN_COVERAGE: f64 = 0.9;

/// What every traced run reports about itself: the overhead of tracing
/// (mean traced op minus mean untraced op, same inputs) and how much of
/// the traced op the layer self times on its blocking path explain.
/// Fails the stage-coverage check below [`MIN_COVERAGE`].
pub fn coverage_metrics(
    report: &mut crate::common::Report,
    traced_op_s: f64,
    untraced_op_s: f64,
    layers: &[(&'static str, f64)],
) -> Result<(), String> {
    let explained: f64 = layers.iter().map(|(_, s)| s).sum();
    report
        .metrics
        .insert("trace.overhead_s", traced_op_s - untraced_op_s);
    report
        .metrics
        .insert("trace.coverage", explained / traced_op_s);
    report
        .metrics
        .insert("trace.unexplained_s", traced_op_s - explained);
    let names: Vec<String> = layers.iter().map(|(n, _)| format!("{n:?}")).collect();
    report
        .context
        .insert("blocking_path".into(), format!("[{}]", names.join(", ")));
    eprintln!(
        "[perfbench] {} coverage: layers explain {explained:.6} s of a {traced_op_s:.6} s traced op \
         ({:.1}%); unexplained {:.6} s; tracing overhead {:+.6} s vs untraced {untraced_op_s:.6} s",
        report.context.get("workload").map_or("?", String::as_str),
        100.0 * explained / traced_op_s,
        traced_op_s - explained,
        traced_op_s - untraced_op_s,
    );
    if explained / traced_op_s < MIN_COVERAGE {
        return Err(format!(
            "stage-coverage check: layers explain {:.1}% of the traced op, below {:.0}%",
            100.0 * explained / traced_op_s,
            100.0 * MIN_COVERAGE
        ));
    }
    Ok(())
}
