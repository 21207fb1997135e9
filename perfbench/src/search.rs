//! `search`: one `SearchClient` loads a library in set-up — the
//! `HvLibrary::from_database` encoding of the query generator's peptide
//! DB (targets plus reversed decoys), padded with random filler rows split
//! evenly between target and decoy to `LIBRARY_ROWS` rows. The client
//! encodes noisy query spectra and sends open-modification batches;
//! read-only, dominated by the Hamming sweep. One op is one batch.

use crate::common::{
    cache_bytes, gate_eq, mean, nproc, repeat_setup, self_peak_rss_kb, timed, Args, EndToEnd,
    Report, Sampler, ServerProcess, DIM,
};
use crate::trace::{coverage_metrics, Tracer};
use spechd_hdc::{BinaryHypervector, EncoderConfig, IdLevelEncoder};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_rng::{Rng, Xoshiro256StarStar};
use spechd_search::{
    encode_spectrum_peaks, filter_at_fdr, HdPsm, HvLibrary, HvLibraryBuilder, PackedSearchConfig,
    PackedSearchEngine, PeptideDatabase,
};
use spechd_server::{LibraryEntryWire, QueryHits, QueryWire, RetryPolicy, SearchClient};
use std::time::Instant;

/// Library rows after padding: 128 MiB of packed rows at D = 2048.
const LIBRARY_ROWS: usize = 1 << 19;
/// Mass range of the filler rows. It is fixed, not taken from the DB, so
/// every query whose window lies inside it scans the same number of rows
/// whatever the seed.
const FILLER_MASS_DA: (f64, f64) = (500.0, 3500.0);
/// Target peptides of the query generator (the DB adds their decoys).
const PEPTIDES: usize = 2_000;
/// Distinct query spectra; ops cycle through them.
const QUERY_POOL: usize = 2_048;
/// Queries per op.
const BATCH: usize = 16;
/// Open-modification window half-width, Da.
const WINDOW_DA: f64 = 250.0;
const TOP_K: u32 = 5;
/// Batches checked against the library engine before timing.
const GATE_BATCHES: usize = 4;
/// Batches per run at least, so ten lie beyond p90 and the pool is
/// searched whole at least once.
const MIN_BATCHES: usize = QUERY_POOL / BATCH;
/// Entries per `LoadLibrary` call.
const LOAD_CHUNK: usize = 65_536;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 3;
const JOB_ID: u64 = 7;

/// The DB encoding merged in mass order with seeded random filler rows,
/// so the builder keeps the rows as pushed.
fn build_library(encoder: &IdLevelEncoder, db: &PeptideDatabase, seed: u64) -> HvLibrary {
    let db_lib = HvLibrary::from_database(db, encoder, 1);
    let (lo, hi) = FILLER_MASS_DA;
    let filler = LIBRARY_ROWS.saturating_sub(db_lib.len());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x00F1_11E5);
    let mut words = vec![0u64; DIM / 64];
    let mut b = HvLibraryBuilder::new(DIM);
    let mut d = 0;
    let push_db = |b: &mut HvLibraryBuilder, d: usize| {
        b.push_row_words(
            db_lib.pack().row(d),
            db_lib.mass(d),
            db_lib.charge(d),
            db_lib.id(d),
            db_lib.is_decoy(d),
        )
    };
    for f in 0..filler {
        let mass = lo + (hi - lo) * (f as f64 + 0.5) / filler as f64;
        while d < db_lib.len() && db_lib.mass(d) <= mass {
            push_db(&mut b, d);
            d += 1;
        }
        for w in &mut words {
            *w = rng.next_u64();
        }
        b.push_row_words(&words, mass, 0, format!("filler{f}"), f % 2 == 1);
    }
    for d in d..db_lib.len() {
        push_db(&mut b, d);
    }
    b.build()
}

fn load(client: &mut SearchClient, lib: &HvLibrary) -> Result<(), String> {
    for start in (0..lib.len()).step_by(LOAD_CHUNK) {
        let chunk: Vec<LibraryEntryWire> = (start..(start + LOAD_CHUNK).min(lib.len()))
            .map(|i| LibraryEntryWire {
                mass: lib.mass(i),
                charge: lib.charge(i),
                is_decoy: lib.is_decoy(i),
                id: lib.id(i).to_string(),
                words: lib.pack().row(i).to_vec(),
            })
            .collect();
        client
            .load(&chunk)
            .map_err(|e| format!("load library: {e}"))?;
    }
    Ok(())
}

struct Setup {
    gen: SyntheticGenerator,
    /// The query spectra, with truth labels.
    pool: SpectrumDataset,
    db_entries: usize,
    client: SearchClient,
    server: ServerProcess,
    encoder: IdLevelEncoder,
    lib: HvLibrary,
}

/// The client side of one op: encode the batch's spectra into queries.
fn encode_batch(encoder: &IdLevelEncoder, batch: &[Spectrum]) -> Vec<QueryWire> {
    batch
        .iter()
        .map(|s| QueryWire {
            mass: s.precursor().neutral_mass(),
            words: encode_spectrum_peaks(encoder, s.peaks()).words().to_vec(),
        })
        .collect()
}

fn serve(client: &mut SearchClient, queries: &[QueryWire]) -> Result<Vec<QueryHits>, String> {
    client
        .search(queries, WINDOW_DA, TOP_K)
        .map(|(hits, _)| hits)
        .map_err(|e| format!("search: {e}"))
}

fn twin_queries(queries: &[QueryWire]) -> Vec<(BinaryHypervector, f64)> {
    queries
        .iter()
        .map(|q| (BinaryHypervector::from_words(DIM, q.words.clone()), q.mass))
        .collect()
}

type HitKey = (u64, u16, f64, bool, String);

fn served_keys(hits: &[QueryHits]) -> Vec<Vec<HitKey>> {
    hits.iter()
        .map(|q| {
            q.hits
                .iter()
                .map(|h| {
                    (
                        h.library_index,
                        h.distance,
                        h.mass_delta,
                        h.is_decoy,
                        h.id.clone(),
                    )
                })
                .collect()
        })
        .collect()
}

fn library_keys(lib: &HvLibrary, hits: &[Vec<HdPsm>]) -> Vec<Vec<HitKey>> {
    hits.iter()
        .map(|q| {
            q.iter()
                .map(|h| {
                    let id = lib.id(h.library_index).to_string();
                    (
                        h.library_index as u64,
                        h.distance,
                        h.mass_delta,
                        h.is_decoy,
                        id,
                    )
                })
                .collect()
        })
        .collect()
}

/// Keeps the top hit of each query of pool batch `b` as a PSM for the
/// target–decoy FDR cut.
fn record_top1(top1: &mut [Option<HdPsm>], b: usize, hits: &[QueryHits]) {
    for (j, q) in hits.iter().enumerate() {
        top1[b * BATCH + j] = q.hits.first().map(|h| HdPsm {
            query_index: b * BATCH + j,
            library_index: h.library_index as usize,
            distance: h.distance,
            mass_delta: h.mass_delta,
            is_decoy: h.is_decoy,
        });
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args);
    let threads = nproc();
    report.ctx("library_rows", LIBRARY_ROWS);
    report.ctx("library_bytes", LIBRARY_ROWS * DIM / 8);
    report.ctx("query_pool", QUERY_POOL);
    report.ctx("batch_queries", BATCH);
    report.ctx("window_da", WINDOW_DA);
    report.ctx("top_k", TOP_K);
    report.ctx("search_threads", threads);
    let (l2, l3) = (cache_bytes(2), cache_bytes(3));
    let lib_bytes = (LIBRARY_ROWS * DIM / 8) as f64;
    report.ctx("l2_bytes", l2);
    report.ctx("l3_bytes", l3);
    report.ctx("library_over_l2", lib_bytes / l2.max(1) as f64);
    report.ctx("library_over_l3", lib_bytes / l3.max(1) as f64);

    let (mut s, setup_s, setup_all) = repeat_setup(SETUP_REPS, |rep| {
        let gen = SyntheticGenerator::new(SyntheticConfig {
            num_peptides: PEPTIDES,
            ..SyntheticConfig::hard(QUERY_POOL, args.seed)
        });
        let pool = gen.generate();
        let db = PeptideDatabase::build(gen.peptide_library());
        let encoder = IdLevelEncoder::new(EncoderConfig::default());
        let lib = build_library(&encoder, &db, args.seed);
        let server = ServerProcess::spawn(args, &format!("search-{rep}"), None)?;
        let mut client =
            SearchClient::connect_with(server.addr, JOB_ID, DIM as u32, RetryPolicy::default())
                .map_err(|e| format!("connect: {e}"))?;
        load(&mut client, &lib)?;
        Ok(Setup {
            gen,
            pool,
            db_entries: db.len(),
            client,
            server,
            encoder,
            lib,
        })
    })?;
    report.ctx("setup_samples", setup_all.len());
    report.ctx("db_entries", s.db_entries);
    let truth: Vec<Option<String>> = s
        .pool
        .labels()
        .iter()
        .map(|l| l.map(|p| s.gen.peptide_library()[p as usize].sequence().to_string()))
        .collect();
    let engine = PackedSearchEngine::new(PackedSearchConfig {
        open_window_da: WINDOW_DA,
        top_k: TOP_K as usize,
        threads,
        ..PackedSearchConfig::default()
    });
    let pool = s.pool.clone();
    let batches: Vec<&[Spectrum]> = pool.spectra().chunks(BATCH).collect();

    // Gate: served hits are bit-identical to the library engine's.
    for (i, batch) in batches.iter().take(GATE_BATCHES).enumerate() {
        let queries = encode_batch(&s.encoder, batch);
        let mut served = serve(&mut s.client, &queries)?;
        if args.perturb && i == 0 {
            served[0].hits[0].distance += 1;
        }
        let local = engine.search_batch_open(&s.lib, &twin_queries(&queries));
        gate_eq(
            "served hits",
            &served_keys(&served),
            &library_keys(&s.lib, &local),
        )?;
    }
    eprintln!("[perfbench] search gate passed: served hits == PackedSearchEngine");

    let start = Instant::now();
    let reconnects_before = s.client.reconnects();
    // Top-1 hit of each pool query, from its first search.
    let mut top1: Vec<Option<HdPsm>> = vec![None; QUERY_POOL];
    let mut op = 0usize;
    if !args.trace {
        let mut sampler = Sampler::new(args.seconds, MIN_BATCHES);
        while sampler.more() {
            let b = op % batches.len();
            let before = s.client.reconnects();
            let hits = sampler.time(BATCH, || {
                serve(&mut s.client, &encode_batch(&s.encoder, batches[b]))
            });
            let hits = hits?;
            report.attempted += 1;
            report.failed += u64::from(s.client.reconnects() > before);
            if op < batches.len() {
                record_top1(&mut top1, b, &hits);
            }
            op += 1;
        }
        // A run cut short by the time limit searches the rest of the pool
        // untimed, so quality always covers the whole pool.
        for (b, batch) in batches.iter().enumerate().skip(op) {
            let hits = serve(&mut s.client, &encode_batch(&s.encoder, batch))?;
            record_top1(&mut top1, b, &hits);
        }
        let psms: Vec<HdPsm> = top1.iter().flatten().copied().collect();
        let accepted = filter_at_fdr(&psms, 0.01);
        let correct = accepted
            .iter()
            .filter(|&&i| {
                truth[psms[i].query_index].as_deref() == Some(s.lib.id(psms[i].library_index))
            })
            .count();
        let id_rate = accepted.len() as f64 / QUERY_POOL as f64;
        report.ctx("id_rate_1pct_fdr", id_rate);
        report.ctx("accepted_1pct_fdr", accepted.len());
        let (op_s, op_spectra) = sampler.used(&mut report);
        report.set_end_to_end(&EndToEnd {
            setup_s,
            peak_rss_kb: self_peak_rss_kb() + s.server.peak_rss_kb(),
            op_spectra,
            op_s,
            other_s_per_op: 0.0,
            yield_ratio: id_rate,
            precision_ratio: correct as f64 / accepted.len().max(1) as f64,
        });
        return Ok(report);
    }

    let engine_t1 = PackedSearchEngine::new(PackedSearchConfig {
        threads: 1,
        ..*engine.config()
    });
    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let (mut rows, mut peaks, mut request_bytes) = (0usize, 0usize, 0usize);
    let mut request = 0u64;
    while op < MIN_BATCHES || start.elapsed().as_secs_f64() < args.seconds {
        let batch = batches[op % batches.len()];
        let (hits, secs) = timed(|| serve(&mut s.client, &encode_batch(&s.encoder, batch)));
        hits?;
        untraced.push(secs);
        op += 1;

        request += 1;
        let batch = batches[op % batches.len()];
        let queries = tr.span("op", request, |tr| -> Result<_, String> {
            let queries = tr.span("encode", request, |_| encode_batch(&s.encoder, batch));
            tr.span("wire_search", request, |_| serve(&mut s.client, &queries))?;
            Ok(queries)
        })?;
        op += 1;
        let twin = twin_queries(&queries);
        std::hint::black_box(tr.span("search", request, |_| {
            engine.search_batch_open(&s.lib, &twin)
        }));
        std::hint::black_box(tr.span("search_t1", request, |_| {
            engine_t1.search_batch_open(&s.lib, &twin)
        }));
        rows += queries
            .iter()
            .map(|q| s.lib.window(q.mass, WINDOW_DA).len())
            .sum::<usize>();
        peaks += batch.iter().map(|sp| sp.peak_count()).sum::<usize>();
        request_bytes +=
            spechd_server::protocol::encode_frame(&spechd_server::protocol::Frame::SearchQuery {
                job_id: JOB_ID,
                dim: DIM as u32,
                window_da: WINDOW_DA,
                top_k: TOP_K,
                queries,
            })
            .len();
    }
    let traced = request as f64;
    report.attempted = op as u64;
    let reconnects = s.client.reconnects() - reconnects_before;
    report.failed = reconnects;
    let encode_s = tr.mean_self("encode");
    let search_s = tr.mean("search");
    let wire_s = tr.mean("wire_search") - search_s;
    let m = &mut report.metrics;
    m.insert("encode.self_s", encode_s);
    m.insert("encode.spectra", BATCH as f64);
    m.insert("encode.peaks", peaks as f64 / traced);
    m.insert(
        "encode.ns_per_peak",
        encode_s * 1e9 * traced / peaks.max(1) as f64,
    );
    m.insert("search.self_s", search_s);
    m.insert("search.rows_scored", rows as f64 / traced);
    m.insert("search.bytes_scanned", (rows * DIM / 8) as f64 / traced);
    m.insert("search.self_s_t1", tr.mean("search_t1"));
    m.insert("wire.self_s", wire_s);
    m.insert("wire.bytes", request_bytes as f64 / traced);
    m.insert("wire.reconnects", reconnects as f64);
    let blocking = [("encode", encode_s), ("search", search_s), ("wire", wire_s)];
    coverage_metrics(&mut report, tr.mean("op"), mean(&untraced), &blocking)?;
    tr.write(&args.spans_path())
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(report)
}
