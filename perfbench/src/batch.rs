//! `batch`: MGF bytes of a `SyntheticConfig::hard` run go through
//! `mgf::read` and `SpecHd::run` — the paper's workload, with no wire and
//! no store. One op parses and clusters the whole dataset.

use crate::common::{
    engine_config, gate_eq, mean, nproc, repeat_setup, self_peak_rss_kb, timed, Args, EndToEnd,
    Report, Sampler,
};
use crate::trace::{coverage_metrics, Tracer};
use spechd_core::SpecHd;
use spechd_hdc::HvPack;
use spechd_ms::formats::mgf;
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::SpectrumDataset;
use spechd_preprocess::{bucket_stats, Bucket};
use std::time::Instant;

/// Spectra per dataset, shared with `stream_job`.
pub const SPECTRA: usize = 4_000;

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 9;

/// Clean ops an untraced run needs before it stops (see `Sampler`).
pub const MIN_OPS: usize = 3;

/// The labelled dataset both clustering workloads run on.
pub fn dataset(seed: u64) -> SpectrumDataset {
    SyntheticGenerator::new(SyntheticConfig::hard(SPECTRA, seed)).generate()
}

fn parse(bytes: &[u8]) -> Result<SpectrumDataset, String> {
    mgf::read(bytes)
        .map(SpectrumDataset::from_spectra)
        .map_err(|e| format!("mgf::read failed: {e}"))
}

/// What the composed layer calls produce, plus their work counters.
pub struct Layers {
    pub labels: Vec<usize>,
    pub kept: Vec<usize>,
    pub consensus: Vec<usize>,
    pub kept_ratio: f64,
    pub spectra: usize,
    pub peaks: usize,
    pub bucket_count: usize,
    pub bucket_max: usize,
    pub pairwise_work: u64,
    pub comparisons: u64,
    pub buckets: Vec<Bucket>,
    pub pack: HvPack,
}

/// `SpecHd::run` as its four layer calls — preprocess, encode, bucket,
/// cluster — each in its own span. The batch gate proves the result is
/// identical to `run`.
pub fn layers(engine: &SpecHd, tr: &mut Tracer, request: u64, ds: &SpectrumDataset) -> Layers {
    let pre = tr.span("preprocess", request, |_| engine.preprocess().run(ds));
    let pack = tr.span("encode", request, |_| {
        engine.encode_dataset_packed(&pre.dataset)
    });
    let (buckets, stats) = tr.span("bucket", request, |_| {
        let buckets = engine.bucketer().bucketize(pre.dataset.spectra());
        let stats = bucket_stats(&buckets);
        (buckets, stats)
    });
    let (assignment, medoids, hac) = tr.span("cluster", request, |_| {
        engine.cluster_encoded_packed(&buckets, &pack)
    });
    Layers {
        labels: assignment.labels().to_vec(),
        consensus: medoids.iter().map(|&m| pre.kept[m]).collect(),
        kept_ratio: pre.kept.len() as f64 / ds.len().max(1) as f64,
        spectra: pack.len(),
        peaks: pre.dataset.spectra().iter().map(|s| s.peak_count()).sum(),
        kept: pre.kept,
        bucket_count: stats.count,
        bucket_max: stats.max_size,
        pairwise_work: stats.pairwise_work,
        comparisons: hac.comparisons,
        buckets,
        pack,
    }
}

/// Per-layer metrics of the four clustering layers, from their spans.
pub fn layer_metrics(report: &mut Report, tr: &Tracer, l: &Layers) {
    let encode_s = tr.mean_self("encode");
    let m = &mut report.metrics;
    m.insert("preprocess.self_s", tr.mean_self("preprocess"));
    m.insert("preprocess.kept_ratio", l.kept_ratio);
    m.insert("encode.self_s", encode_s);
    m.insert("encode.spectra", l.spectra as f64);
    m.insert("encode.peaks", l.peaks as f64);
    m.insert("encode.ns_per_peak", encode_s * 1e9 / l.peaks.max(1) as f64);
    m.insert("bucket.self_s", tr.mean_self("bucket"));
    m.insert("bucket.count", l.bucket_count as f64);
    m.insert("bucket.max_size", l.bucket_max as f64);
    m.insert("bucket.pairwise_work", l.pairwise_work as f64);
    m.insert("cluster.self_s", tr.mean_self("cluster"));
    m.insert("cluster.comparisons", l.comparisons as f64);
    m.insert("cluster.self_s_t1", tr.mean("cluster_t1"));
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args);
    let threads = nproc();
    let ((truth, bytes, engine), setup_s, setup_all) = repeat_setup(SETUP_REPS, |_| {
        let truth = dataset(args.seed);
        let bytes = mgf::to_string(truth.spectra()).into_bytes();
        Ok((truth, bytes, SpecHd::new(engine_config(threads))))
    })?;
    report.ctx("setup_samples", setup_all.len());
    report.ctx("spectra", truth.len());
    report.ctx("mgf_bytes", bytes.len());
    report.ctx("spechd_threads", threads);

    // Gate: the composed layer calls give exactly what `run` gives.
    let parsed = parse(&bytes)?;
    if parsed.len() != truth.len() {
        return Err(format!(
            "mgf round trip kept {} of {} spectra",
            parsed.len(),
            truth.len()
        ));
    }
    let ds = SpectrumDataset::from_parts(parsed.spectra().to_vec(), truth.labels().to_vec());
    let full = engine.run(&ds);
    let mut composed = layers(&engine, &mut Tracer::new(false), 0, &ds);
    if args.perturb {
        composed.labels[0] += 1;
    }
    gate_eq(
        "composed labels",
        &composed.labels,
        &full.assignment().labels().to_vec(),
    )?;
    gate_eq("composed kept set", &composed.kept, &full.kept().to_vec())?;
    gate_eq(
        "composed consensus",
        &composed.consensus,
        &full.consensus().to_vec(),
    )?;
    let eval = full.evaluate(&ds);
    eprintln!("[perfbench] batch gate passed: composed layers == SpecHd::run");

    let start = Instant::now();
    if !args.trace {
        let mut sampler = Sampler::new(args.seconds, MIN_OPS);
        while sampler.more() {
            let outcome = sampler.time(truth.len(), || -> Result<_, String> {
                Ok(engine.run(&parse(&bytes)?))
            });
            std::hint::black_box(outcome?);
        }
        report.attempted = sampler.len() as u64;
        let (op_s, op_spectra) = sampler.used(&mut report);
        report.set_end_to_end(&EndToEnd {
            setup_s,
            peak_rss_kb: self_peak_rss_kb(),
            op_spectra,
            op_s,
            other_s_per_op: 0.0,
            yield_ratio: eval.clustered_ratio,
            precision_ratio: 1.0 - eval.incorrect_ratio,
        });
        return Ok(report);
    }

    let engine_t1 = SpecHd::new(engine_config(1));
    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut last = None;
    let mut request = 0u64;
    while untraced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (outcome, secs) = timed(|| -> Result<_, String> { Ok(engine.run(&parse(&bytes)?)) });
        std::hint::black_box(outcome?);
        untraced.push(secs);
        // The traced op is `run` as its layer calls, which the gate proves
        // equal to `run`; the overhead metric shows what that costs.
        request += 1;
        let l = tr.span("op", request, |tr| -> Result<_, String> {
            let ds = tr.span("parse", request, |_| parse(&bytes))?;
            Ok(layers(&engine, tr, request, &ds))
        })?;
        std::hint::black_box(tr.span("cluster_t1", request, |_| {
            engine_t1.cluster_encoded_packed(&l.buckets, &l.pack)
        }));
        last = Some(l);
    }
    let l = last.ok_or("no traced op")?;
    report.attempted = 2 * untraced.len() as u64;
    report.metrics.insert("parse.self_s", tr.mean_self("parse"));
    report.metrics.insert("parse.bytes", bytes.len() as f64);
    layer_metrics(&mut report, &tr, &l);
    let blocking = [
        ("parse", tr.mean_self("parse")),
        ("preprocess", tr.mean_self("preprocess")),
        ("encode", tr.mean_self("encode")),
        ("bucket", tr.mean_self("bucket")),
        ("cluster", tr.mean_self("cluster")),
    ];
    coverage_metrics(&mut report, tr.mean("op"), mean(&untraced), &blocking)?;
    tr.write(&args.spans_path())
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(report)
}
