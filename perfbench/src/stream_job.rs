//! `stream_job`: one `JobClient` streams the `batch` dataset to a real
//! `spechd-server` in Submit batches, then `close_and_wait`s for the
//! assembled labels. Same compute as `batch`, but through the SPHD wire,
//! `JobRegistry` sessions and the `run_streaming` worker pool. One op is
//! one whole served job.

use crate::batch::{dataset, layer_metrics, layers, MIN_OPS};
use crate::common::{
    engine_config, gate_eq, job_config, mean, nproc, repeat_setup, self_peak_rss_kb, timed, Args,
    EndToEnd, Report, Sampler, ServerProcess,
};
use crate::trace::{coverage_metrics, Tracer};
use spechd_core::{SpecHd, StreamConfig};
use spechd_ms::stream::DatasetStream;
use spechd_ms::Spectrum;
use spechd_server::protocol::{encode_frame, Frame};
use spechd_server::{JobClient, RetryPolicy, ServiceOutcome};
use std::net::SocketAddr;
use std::time::Instant;

/// Spectra per `Submit` frame.
const SUBMIT_BATCH: usize = 500;

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 9;

/// One served job over `spectra`; returns the outcome and how many times
/// the client reconnected.
fn served_job(
    addr: SocketAddr,
    job_id: u64,
    spectra: &[Spectrum],
) -> Result<(ServiceOutcome, u64), String> {
    let err = |e: spechd_server::ClientError| format!("job {job_id}: {e}");
    let mut client =
        JobClient::connect_with(addr, job_id, job_config(), job_id, RetryPolicy::default())
            .map_err(err)?;
    for batch in spectra.chunks(SUBMIT_BATCH) {
        client.submit(batch.to_vec()).map_err(err)?;
    }
    let reconnects = client.reconnects();
    Ok((client.close_and_wait().map_err(err)?, reconnects))
}

/// Bytes of the frames one job sends (computed from their encodings).
fn request_bytes(spectra: &[Spectrum]) -> usize {
    let open = encode_frame(&Frame::OpenJob {
        job_id: 0,
        client_id: 0,
        config: job_config(),
    })
    .len();
    let submits: usize = spectra
        .chunks(SUBMIT_BATCH)
        .enumerate()
        .map(|(seq, batch)| {
            encode_frame(&Frame::Submit {
                job_id: 0,
                seq: seq as u64,
                spectra: batch.to_vec(),
            })
            .len()
        })
        .sum();
    open + submits + encode_frame(&Frame::CloseJob { job_id: 0 }).len()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args);
    let threads = nproc();
    let ((truth, engine, server), setup_s, setup_all) = repeat_setup(SETUP_REPS, |rep| {
        let truth = dataset(args.seed);
        let server = ServerProcess::spawn(args, &format!("stream-{rep}"), None)?;
        Ok((truth, SpecHd::new(engine_config(threads)), server))
    })?;
    let spectra = truth.spectra().to_vec();
    report.ctx("setup_samples", setup_all.len());
    report.ctx("spectra", spectra.len());
    report.ctx("submit_batch", SUBMIT_BATCH);
    report.ctx("job_workers", job_config().workers);
    report.ctx("spechd_threads", threads);
    let mut next_job = 1u64;

    // Gate: the served assignment is bit-identical to `run`.
    let (mut served, _) = served_job(server.addr, next_job, &spectra)?;
    next_job += 1;
    let full = engine.run(&truth);
    if args.perturb {
        served.labels[0] += 1;
    }
    let kept: Vec<u64> = full.kept().iter().map(|&k| k as u64).collect();
    let consensus: Vec<u64> = full.consensus().iter().map(|&c| c as u64).collect();
    gate_eq(
        "served labels",
        &served.labels,
        &full.assignment().labels().to_vec(),
    )?;
    gate_eq("served kept set", &served.kept, &kept)?;
    gate_eq("served consensus", &served.consensus, &consensus)?;
    let eval = full.evaluate(&truth);
    eprintln!("[perfbench] stream_job gate passed: served assignment == SpecHd::run");

    let start = Instant::now();
    if !args.trace {
        let mut sampler = Sampler::new(args.seconds, MIN_OPS);
        while sampler.more() {
            report.attempted += 1;
            let outcome = sampler.time(spectra.len(), || {
                served_job(server.addr, next_job, &spectra)
            });
            next_job += 1;
            let (outcome, reconnects) = outcome?;
            std::hint::black_box(outcome);
            report.failed += reconnects.min(1);
        }
        let (op_s, op_spectra) = sampler.used(&mut report);
        report.set_end_to_end(&EndToEnd {
            setup_s,
            peak_rss_kb: self_peak_rss_kb() + server.peak_rss_kb(),
            op_spectra,
            op_s,
            other_s_per_op: 0.0,
            yield_ratio: eval.clustered_ratio,
            precision_ratio: 1.0 - eval.incorrect_ratio,
        });
        return Ok(report);
    }

    let engine_t1 = SpecHd::new(engine_config(1));
    let stream_n = StreamConfig {
        workers: threads,
        ..job_config().stream_config()
    };
    let stream_1 = StreamConfig {
        workers: 1,
        ..stream_n
    };
    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut last = None;
    let mut reconnects = 0u64;
    while untraced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (outcome, secs) = timed(|| served_job(server.addr, next_job, &spectra));
        next_job += 1;
        let retried = outcome?.1;
        reconnects += retried;
        report.failed += retried.min(1);
        untraced.push(secs);
        let request = next_job;
        let outcome = tr.span("op", request, |_| {
            served_job(server.addr, request, &spectra)
        });
        next_job += 1;
        let retried = outcome?.1;
        reconnects += retried;
        report.failed += retried.min(1);
        // Library twins of the served job on the same input.
        std::hint::black_box(tr.span("run_streaming", request, |_| {
            engine.run_streaming(DatasetStream::new(&truth), &stream_n)
        }));
        std::hint::black_box(tr.span("run_streaming_t1", request, |_| {
            engine.run_streaming(DatasetStream::new(&truth), &stream_1)
        }));
        let l = tr.span("layers", request, |tr| layers(&engine, tr, request, &truth));
        std::hint::black_box(tr.span("cluster_t1", request, |_| {
            engine_t1.cluster_encoded_packed(&l.buckets, &l.pack)
        }));
        last = Some(l);
    }
    let l = last.ok_or("no traced op")?;
    report.attempted = 2 * untraced.len() as u64;
    layer_metrics(&mut report, &tr, &l);
    // `run` on the same input is the four layer calls (the batch gate
    // proves them identical), so their sum stands in for it.
    let run_n = ["preprocess", "encode", "bucket", "cluster"]
        .iter()
        .map(|n| tr.mean_self(n))
        .sum::<f64>();
    let run_1 = run_n - tr.mean_self("cluster") + tr.mean("cluster_t1");
    let stream_s = tr.mean("run_streaming") - run_n;
    let wire_s = tr.mean("op") - tr.mean("run_streaming");
    let m = &mut report.metrics;
    m.insert("stream.self_s", stream_s);
    m.insert("stream.self_s_t1", tr.mean("run_streaming_t1") - run_1);
    m.insert("wire.self_s", wire_s);
    m.insert("wire.bytes", request_bytes(&spectra) as f64);
    m.insert("wire.reconnects", reconnects as f64);
    let blocking = [
        ("wire", wire_s),
        ("stream", stream_s),
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
