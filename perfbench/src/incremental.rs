//! `incremental`: one `StoreClient` session on a store grown in set-up
//! from the same peptide population. It sends a long sequence of small
//! installments, a `PersistStore` every few installments and one
//! `RefreshStore` at the end — the only workload that writes. One op is
//! one installment.

use crate::common::{
    engine_config, gate_eq, job_config, mean, median, nproc, repeat_setup, self_peak_rss_kb, timed,
    Args, EndToEnd, Report, Sampler, ServerProcess,
};
use crate::trace::{coverage_metrics, Tracer};
use spechd_core::{ClusterStore, SpecHd};
use spechd_metrics::ClusteringEval;
use spechd_ms::stream::SpectrumStream;
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_preprocess::bucket_stats;
use spechd_server::protocol::{encode_frame, Frame};
use spechd_server::{ClientError, RetryPolicy, StoreClient};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spectra in the archive the store is grown from in set-up.
const ARCHIVE: usize = 5_000;
/// Installments the archive is grown in.
const ARCHIVE_PARTS: usize = 4;
/// Spectra per installment.
const INSTALLMENT: usize = 100;
/// A `PersistStore` follows every this many installments.
const PERSIST_EVERY: usize = 10;
/// Installments checked against the library twin before timing.
const GATE_INSTALLMENTS: usize = 5;
/// Installments per run at least, so ten lie beyond p90.
const MIN_INSTALLMENTS: usize = 100;
/// Installments per run at most: the store grows with each one, so an
/// unbounded run would fold a different amount of work into a larger store.
const MAX_INSTALLMENTS: usize = 200;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 3;
const STORE: &str = "archive";
const CLIENT_ID: u64 = 0x005E_C510;

/// Installments drawn lazily from one generator: the archive and every
/// later installment share its peptide population.
struct Source<'a> {
    stream: spechd_ms::synth::SyntheticStream<'a>,
}

impl Source<'_> {
    fn take(&mut self, n: usize) -> (Vec<Spectrum>, Vec<Option<u32>>) {
        let mut spectra = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, l) = self
                .stream
                .next_spectrum()
                .expect("the generator is sized far beyond any run");
            spectra.push(s);
            labels.push(l);
        }
        (spectra, labels)
    }
}

struct Setup<'a> {
    /// Installments after the archive, from the same generator.
    source: Source<'a>,
    client: StoreClient,
    server: ServerProcess,
    engine: SpecHd,
    /// The library twin of the server's store, kept in lockstep.
    twin: ClusterStore,
    /// Truth label per global spectrum id of the twin.
    truth: Vec<Option<u32>>,
    dir: PathBuf,
}

fn client_err(e: ClientError) -> String {
    format!("store session: {e}")
}

/// Folds one installment into the twin, recording truth by global id.
fn fold_twin(
    engine: &SpecHd,
    twin: &mut ClusterStore,
    truth: &mut Vec<Option<u32>>,
    spectra: &[Spectrum],
    labels: &[Option<u32>],
) -> Result<spechd_core::IncrementalOutcome, String> {
    let ds = SpectrumDataset::from_spectra(spectra.to_vec());
    let out = engine
        .run_incremental(twin, &ds)
        .map_err(|e| format!("run_incremental: {e}"))?;
    truth.extend(out.kept().iter().map(|&k| labels[k]));
    Ok(out)
}

fn setup<'a>(args: &Args, rep: usize, gen: &'a SyntheticGenerator) -> Result<Setup<'a>, String> {
    let mut source = Source {
        stream: gen.stream(),
    };
    let archive = source.take(ARCHIVE);
    let engine = SpecHd::new(engine_config(nproc()));
    let mut twin = engine
        .new_store_keeping_rows()
        .map_err(|e| format!("new store: {e}"))?;
    let mut truth = Vec::new();
    let part = ARCHIVE.div_ceil(ARCHIVE_PARTS);
    for (spectra, labels) in archive.0.chunks(part).zip(archive.1.chunks(part)) {
        fold_twin(&engine, &mut twin, &mut truth, spectra, labels)?;
    }
    let dir = args.work_dir.join(format!("stores-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create store dir: {e}"))?;
    twin.save(store_path(&dir))
        .map_err(|e| format!("save archive: {e}"))?;
    let server = ServerProcess::spawn(args, &format!("store-{rep}"), Some(&dir))?;
    let client = StoreClient::connect_with(
        server.addr,
        STORE,
        job_config(),
        CLIENT_ID,
        RetryPolicy::default(),
    )
    .map_err(client_err)?;
    if client.opened().spectra != twin.next_spectrum_id() {
        return Err("the server did not load the archive store".into());
    }
    Ok(Setup {
        source,
        client,
        server,
        engine,
        twin,
        truth,
        dir,
    })
}

fn store_path(dir: &Path) -> PathBuf {
    dir.join(format!("{STORE}.shpk"))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args);
    let gen = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: usize::MAX / 2,
        num_peptides: ARCHIVE / 5,
        ..SyntheticConfig::hard(ARCHIVE, args.seed)
    });
    report.ctx("archive_spectra", ARCHIVE);
    report.ctx("installment_spectra", INSTALLMENT);
    report.ctx("persist_every", PERSIST_EVERY);
    report.ctx("spechd_threads", nproc());
    // The server builds each store session's engine from the wire config,
    // so its `SpecHdConfig::threads` stays at the default;
    // `run_incremental` and `refresh_store` do not read it.
    report.ctx(
        "server_spechd_threads",
        spechd_core::SpecHdConfig::default().threads,
    );

    let (mut s, setup_s, setup_all) = repeat_setup(SETUP_REPS, |rep| setup(args, rep, &gen))?;
    report.ctx("setup_samples", setup_all.len());

    // Gate: every served ack equals the library twin's installment, and
    // the persisted SHPK bytes equal the twin's `to_bytes`.
    let mut last = None;
    for i in 0..GATE_INSTALLMENTS {
        let (spectra, labels) = s.source.take(INSTALLMENT);
        let mut ack = s
            .client
            .submit_incremental(spectra.clone())
            .map_err(client_err)?;
        let out = fold_twin(&s.engine, &mut s.twin, &mut s.truth, &spectra, &labels)?;
        if args.perturb && i == 0 {
            ack.labels[0] += 1;
        }
        let kept: Vec<u32> = out.kept().iter().map(|&k| k as u32).collect();
        let labels: Vec<u64> = out.installment_labels().iter().map(|&l| l as u64).collect();
        gate_eq("served base id", &ack.base_id, &out.base_id())?;
        gate_eq("served kept set", &ack.kept, &kept)?;
        gate_eq("served labels", &ack.labels, &labels)?;
        last = Some(out);
    }
    s.client.persist().map_err(client_err)?;
    let persisted = std::fs::read(store_path(&s.dir)).map_err(|e| format!("read store: {e}"))?;
    gate_eq("persisted SHPK bytes", &persisted, &s.twin.to_bytes())?;
    let last = last.ok_or("no gate installment")?;
    let eval = ClusteringEval::compute(last.assignment().labels(), &s.truth);
    eprintln!("[perfbench] incremental gate passed: served acks and SHPK bytes == library twin");

    let start = Instant::now();
    let mut installments = 0usize;
    let reconnects_before = s.client.reconnects();
    if !args.trace {
        let mut sampler = Sampler::new(args.seconds, MIN_INSTALLMENTS).max_ops(MAX_INSTALLMENTS);
        let mut persist_s = Vec::new();
        while sampler.more() {
            let (spectra, _) = s.source.take(INSTALLMENT);
            let before = s.client.reconnects();
            let ack = sampler.time(INSTALLMENT, || s.client.submit_incremental(spectra));
            std::hint::black_box(ack.map_err(client_err)?);
            report.attempted += 1;
            report.failed += u64::from(s.client.reconnects() > before);
            installments += 1;
            if installments.is_multiple_of(PERSIST_EVERY) {
                let before = s.client.reconnects();
                let (ack, secs) = timed(|| s.client.persist());
                ack.map_err(client_err)?;
                report.attempted += 1;
                report.failed += u64::from(s.client.reconnects() > before);
                persist_s.push(secs);
            }
        }
        let before = s.client.reconnects();
        let (ack, refresh_s) = timed(|| s.client.refresh());
        let ack = ack.map_err(client_err)?;
        report.attempted += 1;
        report.failed += u64::from(s.client.reconnects() > before);
        report.ctx("persist_samples", persist_s.len());
        report.ctx("persist_p50_ms", median(&persist_s) * 1e3);
        report.ctx("refresh_s", refresh_s);
        report.ctx("refresh_merged", ack.merged);
        report.ctx("store_spectra", ack.spectra);
        let (op_s, op_spectra) = sampler.used(&mut report);
        report.set_end_to_end(&EndToEnd {
            setup_s,
            peak_rss_kb: self_peak_rss_kb() + s.server.peak_rss_kb(),
            op_spectra,
            op_s,
            other_s_per_op: median(&persist_s) / PERSIST_EVERY as f64
                + refresh_s / installments as f64,
            yield_ratio: eval.clustered_ratio,
            precision_ratio: 1.0 - eval.incorrect_ratio,
        });
        return Ok(report);
    }

    let mut tr = Tracer::new(true);
    let twin_path = args.work_dir.join(format!("twin-{}.shpk", args.seed));
    let mut untraced = Vec::new();
    let (mut dirty, mut absorbed, mut residual) = (0usize, 0usize, 0usize);
    let (mut kept, mut encoded, mut peaks, mut spectra_in) = (0usize, 0usize, 0usize, 0usize);
    let (mut bucket_count, mut bucket_max, mut pairwise) = (0usize, 0usize, 0u64);
    let mut request_bytes = 0usize;
    let (mut bytes_written, mut persisted_spectra) = (0u64, 0u64);
    let mut request = 0u64;
    while installments < MIN_INSTALLMENTS || start.elapsed().as_secs_f64() < args.seconds {
        // Untraced installment, folded into the twin untimed.
        let (spectra, labels) = s.source.take(INSTALLMENT);
        let (ack, secs) = timed(|| s.client.submit_incremental(spectra.clone()));
        ack.map_err(client_err)?;
        untraced.push(secs);
        fold_twin(&s.engine, &mut s.twin, &mut s.truth, &spectra, &labels)?;

        // Traced installment, then its library twin and layer calls.
        request += 1;
        let (spectra, labels) = s.source.take(INSTALLMENT);
        request_bytes += encode_frame(&Frame::SubmitIncremental {
            name: STORE.to_string(),
            seq: 0,
            spectra: spectra.clone(),
        })
        .len();
        let ack = tr.span("op", request, |_| {
            s.client.submit_incremental(spectra.clone())
        });
        ack.map_err(client_err)?;
        let out = tr.span("incremental", request, |_| {
            fold_twin(&s.engine, &mut s.twin, &mut s.truth, &spectra, &labels)
        })?;
        let ds = SpectrumDataset::from_spectra(spectra);
        let pre = tr.span("preprocess", request, |_| s.engine.preprocess().run(&ds));
        let pack = tr.span("encode", request, |_| {
            s.engine.encode_dataset_packed(&pre.dataset)
        });
        let stats = tr.span("bucket", request, |_| {
            bucket_stats(&s.engine.bucketer().bucketize(pre.dataset.spectra()))
        });
        let st = out.stats();
        dirty += st.dirty_buckets;
        absorbed += st.absorbed;
        residual += st.residual;
        spectra_in += st.spectra_in;
        kept += st.spectra_kept;
        encoded += pack.len();
        peaks += pre
            .dataset
            .spectra()
            .iter()
            .map(|s| s.peak_count())
            .sum::<usize>();
        bucket_count += stats.count;
        bucket_max = bucket_max.max(stats.max_size);
        pairwise += stats.pairwise_work;
        installments += 2;
        if installments.is_multiple_of(PERSIST_EVERY) {
            tr.span("persist_op", request, |_| s.client.persist())
                .map_err(client_err)?;
            tr.span("store.save", request, |_| s.twin.save(&twin_path))
                .map_err(|e| format!("save twin: {e}"))?;
            bytes_written = std::fs::metadata(&twin_path).map_or(0, |m| m.len());
            persisted_spectra = s.twin.next_spectrum_id();
            std::hint::black_box(
                tr.span("store.load", request, |_| {
                    ClusterStore::load_or_recover(&twin_path)
                })
                .map_err(|e| format!("load twin: {e}"))?,
            );
        }
    }
    tr.span("refresh_op", request, |_| s.client.refresh())
        .map_err(client_err)?;
    let refreshed = tr
        .span("store.refresh", request, |_| {
            s.engine.refresh_store(&mut s.twin)
        })
        .map_err(|e| format!("refresh twin: {e}"))?;
    let traced = request as f64;
    report.attempted = installments as u64 + 1;
    let reconnects = s.client.reconnects() - reconnects_before;
    report.failed = reconnects;

    let pre_s = tr.mean_self("preprocess");
    let encode_s = tr.mean_self("encode");
    let bucket_s = tr.mean_self("bucket");
    let fold_s = tr.mean("incremental") - pre_s - encode_s - bucket_s;
    let wire_s = tr.mean("op") - tr.mean("incremental");
    let m = &mut report.metrics;
    m.insert("preprocess.self_s", pre_s);
    m.insert(
        "preprocess.kept_ratio",
        kept as f64 / spectra_in.max(1) as f64,
    );
    m.insert("encode.self_s", encode_s);
    m.insert("encode.spectra", encoded as f64 / traced);
    m.insert("encode.peaks", peaks as f64 / traced);
    m.insert(
        "encode.ns_per_peak",
        encode_s * 1e9 * traced / peaks.max(1) as f64,
    );
    m.insert("bucket.self_s", bucket_s);
    m.insert("bucket.count", bucket_count as f64 / traced);
    m.insert("bucket.max_size", bucket_max as f64);
    m.insert("bucket.pairwise_work", pairwise as f64 / traced);
    m.insert("incremental.fold_self_s", fold_s);
    m.insert("incremental.dirty_buckets", dirty as f64 / traced);
    m.insert("incremental.absorbed", absorbed as f64 / traced);
    m.insert("incremental.residual", residual as f64 / traced);
    m.insert(
        "incremental.absorb_ratio",
        absorbed as f64 / (absorbed + residual).max(1) as f64,
    );
    m.insert(
        "store.persist_self_s",
        median_or_zero(&tr.durations("store.save")),
    );
    m.insert("store.bytes_written", bytes_written as f64);
    m.insert(
        "store.bytes_per_spectrum",
        bytes_written as f64 / persisted_spectra.max(1) as f64,
    );
    m.insert(
        "store.load_self_s",
        median_or_zero(&tr.durations("store.load")),
    );
    m.insert("store.refresh_self_s", tr.mean("store.refresh"));
    m.insert("store.refreshed", refreshed.refreshed as f64);
    m.insert("store.merged", refreshed.merged as f64);
    m.insert("wire.self_s", wire_s);
    m.insert("wire.bytes", request_bytes as f64 / traced);
    m.insert("wire.reconnects", reconnects as f64);
    report.ctx("persist_samples", tr.durations("store.save").len());
    report.ctx("served_refresh_s", tr.mean("refresh_op"));
    let blocking = [
        ("wire", wire_s),
        ("preprocess", pre_s),
        ("encode", encode_s),
        ("bucket", bucket_s),
        ("incremental.fold", fold_s),
    ];
    coverage_metrics(&mut report, tr.mean("op"), mean(&untraced), &blocking)?;
    tr.write(&args.spans_path())
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(report)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}
