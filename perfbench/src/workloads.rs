//! The three workloads. Each sets up several times (reporting the median
//! set-up time), checks answers before timing, measures, and emits either
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

use crate::families;
use crate::layers::{self, RequestMix, VerifySet, WriteStats};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::text::{self, sub_seed};
use crate::trace::Tracer;
use crate::{Args, Scale, P99_LIMIT_US};
use ftsl_core::{LiveConfig, LiveFtsl};
use ftsl_exec::engine::ExecOptions;
use ftsl_serve::{QueryRequest, ResultCache, ServeContext};
use rand::RngExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CORPUS: u64 = 0xC0;
const REQUESTS: u64 = 0x5E;
const SCHEDULE: u64 = 0x5C;

/// Share of `--seconds` that `serve_zipf` spends on the closed loop over
/// the paper families (its per-family latencies).
const FAMILY_PROBE_SHARE: f64 = 0.3;

/// Share of `--seconds` a traced run spends on each extra probe of a
/// layer its workload does not drive itself.
const PROBE_SHARE: f64 = 0.3;

/// Builds a `paper_mix` run repeats while it measures, spread over the
/// measured time (`serve_zipf` ingests at each ladder break). The set-ups all fall in a run's first seconds, and
/// a slow stretch of the host that covers them would set
/// `ingest_docs_per_s` alone.
const BUILD_PROBES: usize = 10;

/// `ingest_churn` flushes whose space ratio `index_bytes_per_input_byte`
/// takes the median of (a 30-second run makes about 250).
const SPACE_FLUSHES: usize = 200;

/// Build the workload's engine `n` times; keep the last. Returns it with
/// the median set-up time and the median of the per-set-up sample.
fn setup_repeated<T, F: FnMut() -> (T, f64)>(n: usize, mut build: F) -> (T, f64, f64) {
    let mut times = Vec::with_capacity(n);
    let mut samples = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let (built, sample) = build();
        times.push(t.elapsed().as_secs_f64());
        samples.push(sample);
        kept = Some(built);
    }
    (
        kept.expect("at least one set-up"),
        median(&times),
        median(&samples),
    )
}

/// Emit `ingest_docs_per_s` over a run's build times: a high percentile
/// of the per-build rates (see
/// [`crate::stats::Samples::quiet_quantile_us`]).
fn emit_build_rate(docs: usize, seconds: &[f64], report: &mut Report) {
    let rates: Vec<f64> = seconds.iter().map(|s| docs as f64 / s.max(1e-9)).collect();
    report.info("build_rates", format!("{rates:.0?}"));
    let rate = crate::stats::quiet_high(&rates);
    report.metric("ingest_docs_per_s", rate, "docs/s");
}

/// First `snapshot()` after a version bump, in microseconds.
fn cold_snapshot_us(engine: &LiveFtsl) -> f64 {
    let t = Instant::now();
    std::hint::black_box(engine.snapshot());
    t.elapsed().as_secs_f64() * 1e6
}

fn emit_closed_loop(lat: &mut layers::FamilyLatency, report: &mut Report) {
    report.info("reads", lat.all.len());
    report.info(
        "rate_by_window",
        format!(
            "{:.0?}",
            lat.window_rates.chunks(20).map(median).collect::<Vec<_>>()
        ),
    );
    let p99 = lat.all.quiet_p99_us();
    let qps = lat.queries_per_s();
    report.metric("query_p50_us", lat.all.quiet_p50_us(), "us");
    report.metric("query_p99_us", p99, "us");
    report.metric("queries_per_s", qps, "1/s");
    report.metric(
        "max_qps_within_slo",
        if p99 <= P99_LIMIT_US { qps } else { 0.0 },
        "1/s",
    );
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// Write the first spans out and say where.
fn write_spans(tracer: &Tracer, args: &Args, report: &mut Report) {
    const LIMIT: usize = 50_000;
    let path = spans_path(args);
    match tracer.write_jsonl(&path, LIMIT) {
        Ok(()) => report.info(
            "spans",
            format!(
                "{} recorded, first {} written to {}",
                tracer.spans().len(),
                tracer.spans().len().min(LIMIT),
                path.display()
            ),
        ),
        Err(e) => report.info("spans", format!("not written: {e}")),
    }
}

/// The serving request set shared by `serve_zipf` and the pool probes.
fn serve_requests(scale: &Scale, seed: u64) -> RequestMix {
    RequestMix::new(
        scale.distinct_requests,
        scale.zipf_exponent,
        sub_seed(seed, REQUESTS),
    )
}

/// Per-layer serving metrics for a workload that does not serve through a
/// pool itself: a shortened ladder and a `ServeContext` replay over the
/// serving request set, on this workload's final index.
fn serve_probe(engine: &Arc<LiveFtsl>, scale: &Scale, args: &Args, report: &mut Report) {
    let mix = serve_requests(scale, args.seed);
    let expected = layers::request_digests(engine, &mix.requests, report);
    let pool = layers::warm_pool(
        engine,
        layers::pool_workers(),
        scale.cache_capacity,
        &mix,
        scale.warm_requests,
        sub_seed(args.seed, 0x3A),
    );
    let mut rungs = layers::run_ladder(
        &pool,
        &mix,
        &expected,
        sub_seed(args.seed, SCHEDULE),
        PROBE_SHARE * args.seconds,
        report,
        |_| {},
    );
    drop(pool);
    layers::serve_layer_metrics(&mut rungs, report);
    layers::serve_replay(
        engine,
        &mix,
        scale.warm_requests,
        scale.cache_capacity,
        sub_seed(args.seed, 0x4E),
        report,
    );
}

/// `paper_mix`: one sealed segment, the seven families round-robin.
pub fn paper_mix(args: &Args, scale: &Scale, report: &mut Report) {
    let texts = text::synth_texts(
        scale.docs,
        scale.tokens_per_doc,
        sub_seed(args.seed, CORPUS),
    );
    let input_bytes = text::bytes_of(&texts);
    report.info(
        "corpus",
        format!(
            "{} docs x {} background tokens, {input_bytes} input bytes, one sealed segment",
            scale.docs, scale.tokens_per_doc
        ),
    );
    let queries = families::paper_queries();
    let mut build_s = Vec::new();
    let (engine, setup_s, cold_us) = setup_repeated(scale.setups, || {
        let t = Instant::now();
        let engine = LiveFtsl::from_texts_with(&texts, LiveConfig::default())
            .with_options(ExecOptions::default());
        build_s.push(t.elapsed().as_secs_f64());
        let cold = cold_snapshot_us(&engine);
        layers::warm(&engine, &queries);
        (engine, cold)
    });
    let verify = VerifySet::new(scale, args.seed);
    let expected = layers::verify_families(&engine, &queries, &verify, report);
    drop(verify);
    if !args.trace {
        let mut lat = layers::FamilyLatency::default();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        for i in 0..BUILD_PROBES {
            let t = Instant::now();
            let built = LiveFtsl::from_texts_with(&texts, LiveConfig::default());
            build_s.push(t.elapsed().as_secs_f64());
            drop(built);
            let left = deadline.saturating_duration_since(Instant::now());
            let slice = left.as_secs_f64() / (BUILD_PROBES - i) as f64;
            layers::closed_loop(&engine, &queries, &expected, slice, &mut lat, report);
        }
        emit_closed_loop(&mut lat, report);
        layers::family_metrics(&lat, report);
        report.metric("setup_s", setup_s, "s");
        emit_build_rate(scale.docs, &build_s, report);
        let ratio = layers::footprint(&engine, input_bytes, false, report);
        report.metric("index_bytes_per_input_byte", ratio, "ratio");
        return;
    }
    let mut tracer = Tracer::new();
    layers::stage_probe(
        &engine,
        &queries,
        &expected,
        args.seconds,
        &mut tracer,
        report,
    );
    write_spans(&tracer, args, report);
    report.metric("core.snapshot_cold_us", cold_us, "us");
    layers::stats_compute(&engine, report);
    layers::build_probe(&texts, report);
    layers::footprint(&engine, input_bytes, true, report);
    let probe = LiveFtsl::new();
    let mut writes = WriteStats::default();
    let n = scale.write_probe_docs.min(texts.len());
    layers::ingest(&probe, &texts[..n], scale.write_probe_flush, &mut writes);
    writes.emit(&probe, report);
    drop(probe);
    serve_probe(&Arc::new(engine), scale, args, report);
}

/// `serve_zipf`: a multi-segment index left by ingestion, served through
/// a pool at a fixed ladder of offered rates.
pub fn serve_zipf(args: &Args, scale: &Scale, report: &mut Report) {
    let texts = text::synth_texts(
        scale.serve_docs,
        scale.tokens_per_doc,
        sub_seed(args.seed, CORPUS),
    );
    let input_bytes = text::bytes_of(&texts);
    let mix = serve_requests(scale, args.seed);
    let queries = families::paper_queries();
    let workers = layers::pool_workers();
    let mut ingest_s = Vec::new();
    let mut writes = WriteStats::default();
    let ((engine, pool), setup_s, cold_us) = setup_repeated(scale.setups, || {
        let engine = Arc::new(LiveFtsl::new().with_options(ExecOptions::default()));
        writes = WriteStats::default();
        let t = Instant::now();
        layers::ingest(&engine, &texts, scale.serve_flush_every, &mut writes);
        ingest_s.push(t.elapsed().as_secs_f64());
        let cold = cold_snapshot_us(&engine);
        layers::warm(&engine, &queries);
        let pool = layers::warm_pool(
            &engine,
            workers,
            scale.cache_capacity,
            &mix,
            scale.warm_requests,
            sub_seed(args.seed, 0x3A),
        );
        ((engine, pool), cold)
    });
    report.info(
        "corpus",
        format!(
            "{} docs x {} background tokens, {input_bytes} input bytes, ingested in batches of \
             {} ({} segments after settling merges); {} distinct requests, cache {} entries, \
             Zipf s={}, {workers} pool worker(s)",
            scale.serve_docs,
            scale.tokens_per_doc,
            scale.serve_flush_every,
            engine.snapshot().num_segments(),
            scale.distinct_requests,
            scale.cache_capacity,
            scale.zipf_exponent
        ),
    );
    let verify = VerifySet::new(scale, args.seed);
    let family_expected = layers::verify_families(&engine, &queries, &verify, report);
    drop(verify);
    let expected = layers::request_digests(&engine, &mix.requests, report);
    let ladder_s = (1.0 - FAMILY_PROBE_SHARE) * args.seconds;
    // The closed loop over the paper families runs in slices before,
    // between and after the rungs, so it samples the whole run.
    let slice_s = FAMILY_PROBE_SHARE * args.seconds / layers::LADDER_BREAKS as f64;
    let mut lat = layers::FamilyLatency::default();
    let mut rungs = layers::run_ladder(
        &pool,
        &mix,
        &expected,
        sub_seed(args.seed, SCHEDULE),
        ladder_s,
        report,
        |report| {
            // An ingestion at every break: with the set-ups, fifteen
            // spread over the run.
            {
                let probe = LiveFtsl::new().with_options(ExecOptions::default());
                let t = Instant::now();
                layers::ingest(
                    &probe,
                    &texts,
                    scale.serve_flush_every,
                    &mut WriteStats::default(),
                );
                ingest_s.push(t.elapsed().as_secs_f64());
            }
            layers::closed_loop(
                &engine,
                &queries,
                &family_expected,
                slice_s,
                &mut lat,
                report,
            )
        },
    );
    if !args.trace {
        let peak = rungs
            .iter()
            .map(|r| r.ok as f64 / r.elapsed_s.max(1e-9))
            .fold(0.0, f64::max);
        let nominal = layers::nominal_latency(&rungs);
        report.metric("query_p50_us", nominal.quiet_p50_us(), "us");
        report.metric("query_p99_us", nominal.quiet_p99_us(), "us");
        report.metric("queries_per_s", peak, "1/s");
        report.metric(
            "max_qps_within_slo",
            layers::max_qps_within_slo(&mut rungs),
            "1/s",
        );
        drop(pool);
        layers::family_metrics(&lat, report);
        report.metric("setup_s", setup_s, "s");
        emit_build_rate(scale.serve_docs, &ingest_s, report);
        let ratio = layers::footprint(&engine, input_bytes, false, report);
        report.metric("index_bytes_per_input_byte", ratio, "ratio");
        return;
    }
    layers::serve_layer_metrics(&mut rungs, report);
    drop(pool);
    layers::serve_replay(
        &engine,
        &mix,
        scale.warm_requests,
        scale.cache_capacity,
        sub_seed(args.seed, 0x4E),
        report,
    );
    let mut tracer = Tracer::new();
    layers::stage_probe(
        &engine,
        &queries,
        &family_expected,
        PROBE_SHARE * args.seconds,
        &mut tracer,
        report,
    );
    write_spans(&tracer, args, report);
    report.metric("core.snapshot_cold_us", cold_us, "us");
    layers::stats_compute(&engine, report);
    writes.emit(&engine, report);
    layers::build_probe(&texts, report);
    layers::footprint(&engine, input_bytes, true, report);
}

/// Bookkeeping of the churned collection: which global ids hold which
/// text, and which are deleted.
struct Collection {
    /// `(global id, index into the text pool)` of every document added.
    docs: Vec<(u32, usize)>,
    /// Global ids of the live documents, in no particular order.
    live: Vec<u32>,
    /// Deleted flag by global id.
    deleted: Vec<bool>,
    /// Text bytes by global id.
    bytes: Vec<usize>,
    /// Text bytes of the live documents.
    live_bytes: usize,
}

impl Collection {
    fn live_texts<'a>(&self, pool: &'a [String]) -> Vec<(u32, &'a str)> {
        self.docs
            .iter()
            .filter(|(id, _)| !self.deleted[*id as usize])
            .map(|&(id, t)| (id, pool[t].as_str()))
            .collect()
    }
}

/// `ingest_churn`: write batches alternate with reads on one thread.
pub fn ingest_churn(args: &Args, scale: &Scale, report: &mut Report) {
    let pool_docs = scale.churn_base_docs * 3;
    let texts = text::synth_texts(pool_docs, scale.tokens_per_doc, sub_seed(args.seed, CORPUS));
    let base = &texts[..scale.churn_base_docs];
    let mix = RequestMix::new(
        scale.churn_read_set,
        scale.zipf_exponent,
        sub_seed(args.seed, 0x2E),
    );
    let reads = &mix.requests;
    let queries = families::paper_queries();
    let (mut ctx_engine, setup_s, _) = setup_repeated(scale.setups, || {
        let engine = Arc::new(
            LiveFtsl::from_texts_with(base, LiveConfig::default())
                .with_options(ExecOptions::default()),
        );
        let mut ctx = ServeContext::new(
            Arc::clone(&engine),
            Arc::new(ResultCache::new(scale.cache_capacity)),
        );
        for req in reads {
            let _ = ctx.serve(req);
        }
        ((engine, ctx), 0.0)
    });
    let engine = Arc::clone(&ctx_engine.0);
    report.info(
        "corpus",
        format!(
            "{} base docs x {} background tokens; each batch deletes {} older docs, adds {} and \
             flushes, then {} reads over {} distinct requests (cache {} entries)",
            scale.churn_base_docs,
            scale.tokens_per_doc,
            scale.churn_deletes,
            scale.churn_batch,
            scale.churn_reads,
            reads.len(),
            scale.cache_capacity
        ),
    );
    let verify = VerifySet::new(scale, args.seed);
    layers::verify_families(&engine, &queries, &verify, report);

    let mut coll = Collection {
        docs: (0..base.len()).map(|i| (i as u32, i)).collect(),
        live: (0..base.len() as u32).collect(),
        deleted: vec![false; base.len()],
        bytes: base.iter().map(String::len).collect(),
        live_bytes: text::bytes_of(base),
    };
    // Resident bytes over live input bytes after each flush.
    let mut space = Vec::new();
    let mut writes = WriteStats::default();
    writes.note_segments(&engine);
    let (mut read_lat, mut read_s, mut write_s) = (Samples::new(), 0.0f64, 0.0f64);
    let (mut snapshot_cold, mut stats_ms) = (Samples::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut rng = text::rng(sub_seed(args.seed, 0xD1));
    let mut next_text = base.len();
    let mut batches = 0u64;
    let ctx = &mut ctx_engine.1;
    let mut families_lat = layers::FamilyLatency::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        batches += 1;
        let req_id = tracer.request();
        let t_write = Instant::now();
        let batch_span = args
            .trace
            .then(|| tracer.open("bench.write_batch", req_id, None));
        // Delete older live documents, chosen by the seed.
        for _ in 0..scale.churn_deletes.min(coll.live.len()) {
            let id = coll.live.swap_remove(rng.random_range(0..coll.live.len()));
            let span = batch_span.map(|p| tracer.open("core.delete", req_id, Some(p)));
            report.attempt(1);
            if !engine.delete(ftsl_model::NodeId(id)) {
                report.fail(format!("delete of live document {id} refused"));
            }
            if let Some(s) = span {
                tracer.close(s);
            }
            coll.deleted[id as usize] = true;
            coll.live_bytes -= coll.bytes[id as usize];
        }
        for _ in 0..scale.churn_batch {
            let t = next_text % texts.len();
            next_text += 1;
            let span = batch_span.map(|p| tracer.open("core.add", req_id, Some(p)));
            let ta = Instant::now();
            let id = engine.add(&texts[t]);
            writes.add.push(ta.elapsed());
            if let Some(s) = span {
                tracer.close(s);
            }
            writes.docs += 1;
            writes.input_bytes += texts[t].len() as u64;
            coll.docs.push((id.0, t));
            coll.live.push(id.0);
            if coll.deleted.len() <= id.0 as usize {
                coll.deleted.resize(id.0 as usize + 1, false);
                coll.bytes.resize(id.0 as usize + 1, 0);
            }
            coll.bytes[id.0 as usize] = texts[t].len();
            coll.live_bytes += texts[t].len();
        }
        let span = batch_span.map(|p| tracer.open("core.flush", req_id, Some(p)));
        let tf = Instant::now();
        engine.flush();
        writes.flush.push(tf.elapsed());
        if let Some(s) = span {
            tracer.close(s);
        }
        // The batch ends when the merges its flush calls for are done,
        // whether the background thread or this one ran them. Left to run
        // beside the reads, merges leave a segment layout that depends on
        // timing: the same seed's per-family medians then differed by a
        // factor of two between runs.
        let span = batch_span.map(|p| tracer.open("core.merge", req_id, Some(p)));
        layers::settle_merges(&engine);
        if let Some(s) = span {
            tracer.close(s);
        }
        if let Some(s) = batch_span {
            tracer.close(s);
        }
        write_s += t_write.elapsed().as_secs_f64();
        if space.len() < SPACE_FLUSHES {
            let resident: usize = engine
                .segment_reports()
                .iter()
                .map(|r| r.resident_bytes)
                .sum();
            space.push(resident as f64 / coll.live_bytes.max(1) as f64);
        }
        report.attempt(scale.churn_batch as u64 + 1);
        if args.trace {
            let span = tracer.open("core.snapshot", req_id, None);
            let snapshot = engine.snapshot();
            snapshot_cold.push_ns(tracer.close(span));
            let span = tracer.open("scoring.stats_compute", req_id, None);
            std::hint::black_box(ftsl_scoring::SnapshotStats::compute(&snapshot));
            stats_ms.push(tracer.close(span) as f64 / 1e6);
            writes.note_segments(&engine);
        }
        let t_read = Instant::now();
        for _ in 0..scale.churn_reads {
            let id = mix.sample(&mut rng);
            let span = args.trace.then(|| tracer.open("serve.serve", req_id, None));
            let t = Instant::now();
            let served = ctx.serve(&reads[id]);
            read_lat.push(t.elapsed());
            if let Some(s) = span {
                tracer.close(s);
            }
            report.attempt(1);
            match served {
                Ok(s) => {
                    let nodes = crate::openloop::answer_nodes(&s.answer);
                    if let Some(&bad) = nodes
                        .iter()
                        .find(|&&n| coll.deleted.get(n as usize).copied().unwrap_or(true))
                    {
                        report.fail(format!(
                            "{} returned deleted or unknown document {bad}",
                            reads[id].describe()
                        ));
                    }
                }
                Err(e) => report.fail(format!("{}: {e}", reads[id].describe())),
            }
        }
        read_s += t_read.elapsed().as_secs_f64();
        // One pass over the paper families on the churning index; the
        // answers change with every batch, so only tombstones are checked
        // here and the oracles run on the final state.
        layers::family_round(
            &engine,
            &queries,
            &mut families_lat,
            |_, out| match out
                .nodes
                .iter()
                .find(|&&n| coll.deleted.get(n as usize).copied().unwrap_or(true))
            {
                Some(bad) => Err(format!("returned deleted document {bad}")),
                None => Ok(()),
            },
            report,
        );
    }
    layers::settle_merges(&engine);
    let live = coll.live_texts(&texts);
    report.info(
        "churn",
        format!(
            "{batches} batches, {} docs added, {} live at the end, {} merges",
            writes.docs,
            live.len(),
            engine.live_index().merges_completed()
        ),
    );
    check_against_rebuild(&engine, &live, reads, report);
    let live_texts: Vec<String> = live.iter().map(|(_, t)| t.to_string()).collect();
    let input_bytes = text::bytes_of(&live_texts);
    layers::footprint(&engine, input_bytes, args.trace, report);
    if args.trace {
        writes.emit(&engine, report);
    }
    let family_expected = layers::verify_families(&engine, &queries, &verify, report);
    drop(verify);
    if !args.trace {
        report.info("reads", read_lat.len());
        // The median over the first flushes: the state at the end depends
        // on where in the merge cycle the time limit fell, and the tiers
        // grow over the run, so a fixed number of flushes is compared.
        report.metric("index_bytes_per_input_byte", median(&space), "ratio");
        let p99 = read_lat.quiet_p99_us();
        let qps = read_lat.len() as f64 / read_s.max(1e-9);
        report.metric("query_p50_us", read_lat.quiet_p50_us(), "us");
        report.metric("query_p99_us", p99, "us");
        report.metric("queries_per_s", qps, "1/s");
        report.metric(
            "max_qps_within_slo",
            if p99 <= P99_LIMIT_US { qps } else { 0.0 },
            "1/s",
        );
        report.metric(
            "ingest_docs_per_s",
            writes.docs as f64 / write_s.max(1e-9),
            "docs/s",
        );
        layers::family_metrics(&families_lat, report);
        report.metric("setup_s", setup_s, "s");
        return;
    }
    report.metric("core.snapshot_cold_us", snapshot_cold.p50_us(), "us");
    report.metric("scoring.stats_compute_ms", median(&stats_ms), "ms");
    layers::stage_probe(
        &engine,
        &queries,
        &family_expected,
        PROBE_SHARE * args.seconds,
        &mut tracer,
        report,
    );
    write_spans(&tracer, args, report);
    layers::build_probe(&live_texts, report);
    drop(ctx_engine);
    serve_probe(&engine, scale, args, report);
}

/// Monolithic-rebuild oracle: every read request on the churned engine
/// must return what an engine built from the surviving texts returns
/// (ids mapped through the surviving documents' order).
fn check_against_rebuild(
    engine: &LiveFtsl,
    live: &[(u32, &str)],
    reads: &[QueryRequest],
    report: &mut Report,
) {
    let texts: Vec<&str> = live.iter().map(|(_, t)| *t).collect();
    let rebuilt = LiveFtsl::from_texts(&texts);
    let globals: Vec<u32> = live.iter().map(|(id, _)| *id).collect();
    let mut scratch = ftsl_core::ExecScratch::new();
    for req in reads {
        report.attempt(1);
        let op = layers::request_op(req);
        let checked = families::run_facade(engine, &op, &mut scratch).and_then(|got| {
            let want = families::run_facade(&rebuilt, &op, &mut scratch)?;
            let mapped: Vec<u32> = want.nodes.iter().map(|&n| globals[n as usize]).collect();
            let want = families::Outcome {
                nodes: mapped,
                ..want
            };
            families::matches_oracle(&got, &want.nodes, &want.scores)
        });
        if let Err(e) = checked {
            report.fail(format!("rebuild oracle, {}: {e}", req.describe()));
        }
    }
}
