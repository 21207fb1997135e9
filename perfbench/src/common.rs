//! Shared plumbing: arguments, statistics, the server process, the
//! metric tables and the result line.

use spechd_core::SpecHdConfig;
use spechd_server::JobConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const USAGE: &str = "usage: spechd-perfbench --workload <batch|stream_job|incremental|search> \
--seed N --seconds S --trace <0|1> --server-bin PATH --work-dir DIR --spans-dir DIR [--perturb]";

/// Hypervector dimensionality of every workload (the paper's `D`).
pub const DIM: usize = 2048;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans (kept after the run).
    pub spans_dir: PathBuf,
    pub perturb: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut server_bin = None;
        let mut work_dir = None;
        let mut spans_dir = None;
        let mut perturb = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
                "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
                "--spans-dir" => spans_dir = Some(PathBuf::from(value()?)),
                "--perturb" => perturb = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            server_bin: server_bin.ok_or("--server-bin is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            spans_dir: spans_dir.ok_or("--spans-dir is required")?,
            perturb,
        })
    }
}

impl Args {
    /// The file a traced run writes its spans to.
    pub fn spans_path(&self) -> PathBuf {
        self.spans_dir
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// Cores available to this process; every program worker count is set to
/// it, and load comes from one client thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The served job configuration: pipeline defaults, `nproc` workers.
pub fn job_config() -> JobConfig {
    JobConfig {
        workers: nproc() as u32,
        ..JobConfig::default()
    }
}

/// The library pipeline configuration the served one maps to, with
/// `threads` bucket-parallel clustering workers.
pub fn engine_config(threads: usize) -> SpecHdConfig {
    SpecHdConfig {
        threads,
        ..job_config().pipeline_config()
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Steal time of all CPUs so far, in clock ticks (`/proc/stat`): time the
/// hypervisor ran other guests while this machine's CPUs wanted to run.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            cpu.get(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Clock ticks per second of `/proc/stat` (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;
/// An op is clean when the hypervisor stole at most this share of the
/// CPU time the machine had during it.
const MAX_STEAL_SHARE: f64 = 0.05;
/// Fewest clean ops the metrics are computed from; with fewer, they use
/// every op.
const MIN_CLEAN_USED: usize = 5;

/// The measured ops of an untraced run. On a shared host, other guests
/// steal CPU time in bursts of many seconds that slow every op they
/// overlap; an op during which more than `MAX_STEAL_SHARE` of the CPU
/// time was stolen is kept but not used when the run has enough clean
/// ones. The run measures for `seconds`, and past
/// that until it holds `min_ops` clean ops or six times `seconds` (at most
/// 90 s) have passed.
pub struct Sampler {
    start: Instant,
    seconds: f64,
    limit: f64,
    min_ops: usize,
    max_ops: usize,
    /// `(seconds, spectra, clean)` per op.
    ops: Vec<(f64, usize, bool)>,
}

impl Sampler {
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            limit: (6.0 * seconds).min(90.0).max(seconds),
            min_ops: min_ops.max(1),
            max_ops: usize::MAX,
            ops: Vec::new(),
        }
    }

    /// Stops the run after `max_ops` ops, for workloads whose state grows
    /// with every op.
    pub fn max_ops(mut self, max_ops: usize) -> Self {
        self.max_ops = max_ops;
        self
    }

    fn clean(&self) -> usize {
        self.ops.iter().filter(|op| op.2).count()
    }

    /// Whether to run another op.
    pub fn more(&self) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        self.ops.is_empty()
            || (self.ops.len() < self.max_ops
                && t < self.limit
                && (t < self.seconds || self.clean() < self.min_ops))
    }

    /// Runs and times one op that completes `spectra` spectra.
    pub fn time<T>(&mut self, spectra: usize, f: impl FnOnce() -> T) -> T {
        let steal = steal_ticks();
        let (out, secs) = timed(f);
        let stolen = steal_ticks().saturating_sub(steal) as f64;
        let clean = stolen <= MAX_STEAL_SHARE * secs * nproc() as f64 * TICKS_PER_S;
        self.ops.push((secs, spectra, clean));
        out
    }

    /// Ops attempted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The ops the metrics use — the clean ones when there are enough of
    /// them, else all — as `(seconds, spectra)` lists; records the counts
    /// in the report's context.
    pub fn used(&self, report: &mut Report) -> (Vec<f64>, Vec<usize>) {
        let use_clean = self.clean() >= self.min_ops.min(MIN_CLEAN_USED);
        report.ctx("ops_measured", self.ops.len());
        report.ctx("ops_clean", self.clean());
        report.ctx("ops_used_clean_only", use_clean);
        self.ops
            .iter()
            .filter(|op| op.2 || !use_clean)
            .map(|op| (op.0, op.1))
            .unzip()
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `setup` `reps` times, keeping the last product; returns it with
/// the median set-up time. Earlier products are dropped before the next
/// repetition starts so their memory is not held twice.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let (product, secs) = timed(|| setup(rep));
        last = Some(product?);
        times.push(secs);
    }
    let product = last.ok_or("no set-up repetitions")?;
    Ok((product, median(&times), times))
}

fn status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn self_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|s| status_kb(&s, "VmHWM:"))
        .unwrap_or(0)
}

pub fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 * 1024.0 / 1e6
}

/// Bytes of the largest data or unified cache at `level` that the kernel
/// reports for CPU 0, or 0 when it reports none.
pub fn cache_bytes(level: u32) -> u64 {
    (0..8)
        .filter_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let this_level: u32 = read("level")?.trim().parse().ok()?;
            if this_level != level || read("type")?.trim() == "Instruction" {
                return None;
            }
            let size = read("size")?;
            let size = size.trim();
            let (digits, unit) = match size.as_bytes().last() {
                Some(b'K') => (&size[..size.len() - 1], 1 << 10),
                Some(b'M') => (&size[..size.len() - 1], 1 << 20),
                _ => (size, 1),
            };
            Some(digits.parse::<u64>().ok()? * unit)
        })
        .max()
        .unwrap_or(0)
}

/// A `spechd-server` child process on an ephemeral loopback port. Dropping
/// it kills the process and waits for it to end.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProcess {
    pub fn spawn(args: &Args, tag: &str, store_dir: Option<&Path>) -> Result<Self, String> {
        std::fs::create_dir_all(&args.work_dir)
            .map_err(|e| format!("cannot create work dir: {e}"))?;
        let port_file = args.work_dir.join(format!("server-{tag}.addr"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(&args.server_bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.server_bin.display()))?;
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("spechd-server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("spechd-server did not report its address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the server so far, in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map(|s| status_kb(&s, "VmHWM:"))
            .unwrap_or(0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("spectra_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("yield_ratio", "ratio"),
    ("precision_ratio", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.self_s", "s"),
    ("parse.bytes", "B"),
    ("preprocess.self_s", "s"),
    ("preprocess.kept_ratio", "ratio"),
    ("encode.self_s", "s"),
    ("encode.spectra", "count"),
    ("encode.peaks", "count"),
    ("encode.ns_per_peak", "ns"),
    ("bucket.self_s", "s"),
    ("bucket.count", "count"),
    ("bucket.max_size", "count"),
    ("bucket.pairwise_work", "count"),
    ("cluster.self_s", "s"),
    ("cluster.comparisons", "count"),
    ("cluster.self_s_t1", "s"),
    ("stream.self_s", "s"),
    ("stream.self_s_t1", "s"),
    ("incremental.fold_self_s", "s"),
    ("incremental.dirty_buckets", "count"),
    ("incremental.absorbed", "count"),
    ("incremental.residual", "count"),
    ("incremental.absorb_ratio", "ratio"),
    ("store.persist_self_s", "s"),
    ("store.bytes_written", "B"),
    ("store.bytes_per_spectrum", "B"),
    ("store.load_self_s", "s"),
    ("store.refresh_self_s", "s"),
    ("store.refreshed", "count"),
    ("store.merged", "count"),
    ("search.self_s", "s"),
    ("search.rows_scored", "count"),
    ("search.bytes_scanned", "B"),
    ("search.self_s_t1", "s"),
    ("wire.self_s", "s"),
    ("wire.bytes", "B"),
    ("wire.reconnects", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.unexplained_s", "s"),
];

/// Inputs of the end-to-end metrics that every workload measures.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_kb: u64,
    /// Spectra completed per op, parallel to `op_s`.
    pub op_spectra: Vec<usize>,
    /// Latency of each measured op, in seconds.
    pub op_s: Vec<f64>,
    /// Time per op spent in measured calls that are not ops (store
    /// persists and refreshes), counted in the throughput's denominator.
    pub other_s_per_op: f64,
    pub yield_ratio: f64,
    pub precision_ratio: f64,
}

/// One run's outcome: the result line plus the context line before it.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run context (`nproc`, worker counts, input sizes, sample counts),
    /// as JSON values keyed by name.
    pub context: BTreeMap<String, String>,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        let mut context = BTreeMap::new();
        context.insert("workload".into(), format!("{:?}", args.workload));
        context.insert("seed".into(), args.seed.to_string());
        context.insert("seconds".into(), args.seconds.to_string());
        context.insert("trace".into(), u8::from(args.trace).to_string());
        context.insert("nproc".into(), nproc().to_string());
        Self {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            context,
        }
    }

    pub fn ctx(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.insert(key.to_string(), value.to_string());
    }

    /// Fills the end-to-end metrics from `e`.
    pub fn set_end_to_end(&mut self, e: &EndToEnd) {
        // Throughput from the median op, so a burst of interference from
        // outside the benchmark moves it no more than it moves the median.
        let ops = e.op_s.len() as f64;
        let spectra_per_op = e.op_spectra.iter().sum::<usize>() as f64 / ops;
        let secs_per_op = median(&e.op_s) + e.other_s_per_op;
        let ok = self.attempted.saturating_sub(self.failed);
        self.metrics.insert("setup_s", e.setup_s);
        self.metrics.insert("peak_rss_mb", kb_to_mb(e.peak_rss_kb));
        self.metrics
            .insert("ok_frac", ok as f64 / self.attempted.max(1) as f64);
        self.metrics
            .insert("spectra_per_s", spectra_per_op / secs_per_op);
        self.metrics.insert("op_p50_ms", median(&e.op_s) * 1e3);
        self.metrics
            .insert("op_p90_ms", percentile(&e.op_s, 0.9) * 1e3);
        self.metrics.insert("yield_ratio", e.yield_ratio);
        self.metrics.insert("precision_ratio", e.precision_ratio);
        self.ctx("op_samples", e.op_s.len());
        self.ctx(
            "op_samples_beyond_p90",
            e.op_s.len() - ((0.9 * e.op_s.len() as f64).ceil() as usize).max(1),
        );
    }

    /// Prints the context line, then the result line (always last).
    pub fn print(&self, args: &Args) {
        let wanted = if args.trace { PER_LAYER } else { END_TO_END };
        let ctx: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{k:?}: {v}"))
            .collect();
        println!("{{\"context\": {{{}}}}}", ctx.join(", "));
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A gate comparison: `Err` with `what` when the two sides differ.
pub fn gate_eq<T: PartialEq>(what: &str, served: &T, reference: &T) -> Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!(
            "correctness gate: {what} differs from the reference"
        ))
    }
}
