//! Measurements shared by the workloads: answer checks, the closed loop
//! over the query families, the staged (traced) probe, the build and
//! footprint split, ingestion, the `ServeContext` replay and the offered
//! rate ladder.

use crate::families::{self, Family, Outcome, Query};
use crate::openloop::{self, RungResult};
use crate::report::Report;
use crate::stats::{median, Digest, Samples};
use crate::text;
use crate::trace::Tracer;
use crate::{Scale, CLIMB_PASSES, CLIMB_RESTART, FIXED_RATES, NOMINAL_RUNG, P99_LIMIT_US};
use ftsl_core::{ExecScratch, LiveFtsl};
use ftsl_corpus::zipf::Zipf;
use ftsl_index::{AccessCounters, IndexBuilder, PairConfig, PairIndex};
use ftsl_model::{Corpus, TokenId, TokenInterner, Tokenizer};
use ftsl_serve::{QueryRequest, ResultCache, ServeConfig, ServeContext, ServePool};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The small corpus whose answers the calculus interpreter checks.
pub struct VerifySet {
    /// Engine over the verification texts.
    pub engine: LiveFtsl,
    /// The same texts as a corpus (node id = global id).
    pub corpus: Corpus,
}

impl VerifySet {
    /// Build the verification set for `seed`.
    pub fn new(scale: &Scale, seed: u64) -> VerifySet {
        let texts = text::synth_texts(
            scale.verify_docs,
            scale.verify_tokens,
            text::sub_seed(seed, 0x7E),
        );
        VerifySet {
            engine: LiveFtsl::from_texts(&texts),
            corpus: Corpus::from_texts(&texts),
        }
    }
}

/// Check every query's answer before timing, and return the digest of its
/// answer on `engine`:
/// - on the verification corpus, searches against the calculus
///   interpreter, top-k and NEAR against their oracles;
/// - on `engine`, each family's detected class and engine against its
///   label, and its answer against [`families::oracle`].
///
/// A mismatch counts as a failed operation and fails the run. Per-family
/// answer digests go to the header.
pub fn verify_families(
    engine: &LiveFtsl,
    queries: &[Query],
    verify: &VerifySet,
    report: &mut Report,
) -> Vec<Digest> {
    let mut scratch = ExecScratch::new();
    let started = Instant::now();
    for q in queries {
        report.attempt(1);
        let checked = families::run_facade(&verify.engine, &q.op, &mut scratch).and_then(|out| {
            let (nodes, scores) = match &q.op {
                families::Op::Search { text, .. } => (
                    families::interpreter_nodes(&verify.corpus, verify.engine.registry(), text)?,
                    Vec::new(),
                ),
                _ => families::oracle(&verify.engine, q)?,
            };
            families::matches_oracle(&out, &nodes, &scores)
        });
        if let Err(e) = checked {
            report.fail(format!("verification corpus, {}: {e}", q.op.describe()));
        }
    }
    let verify_s = started.elapsed().as_secs_f64();
    let mut digests = Vec::with_capacity(queries.len());
    let mut per_family = [Digest::default(); 7];
    for q in queries {
        report.attempt(1);
        let out = families::run_facade(engine, &q.op, &mut scratch);
        let checked = out.as_ref().map_err(Clone::clone).and_then(|out| {
            families::check_label(q.family, out)?;
            let (nodes, scores) = families::oracle(engine, q)?;
            families::matches_oracle(out, &nodes, &scores)
        });
        if let Err(e) = checked {
            report.fail(format!("{}: {e}", q.op.describe()));
        }
        let digest = out.map(|o| o.digest()).unwrap_or_default();
        per_family[q.family.index()] = per_family[q.family.index()].combine(digest);
        digests.push(digest);
    }
    report.info(
        "answer_checks_s",
        format!(
            "{verify_s:.3} on the verification corpus, {:.3} on the measured index",
            started.elapsed().as_secs_f64() - verify_s
        ),
    );
    for f in Family::ALL {
        let d = per_family[f.index()];
        report.info(
            &format!("answers.{}", f.name()),
            format!("hits={} hash={:016x}", d.hits, d.hash),
        );
    }
    digests
}

/// One facade pass over every query (warm-up).
pub fn warm(engine: &LiveFtsl, queries: &[Query]) {
    let mut scratch = ExecScratch::new();
    for q in queries {
        let _ = families::run_facade(engine, &q.op, &mut scratch);
    }
}

/// Latencies of the closed loop over the query families.
#[derive(Debug, Default)]
pub struct FamilyLatency {
    /// Per query, in the order of the query list.
    pub per_query: Vec<Samples>,
    /// Family of each query.
    pub families: Vec<Family>,
    /// Every request, in order.
    pub all: Samples,
    /// Completed requests per second in each run of
    /// [`crate::stats::WINDOW`] requests.
    pub window_rates: Vec<f64>,
}

impl FamilyLatency {
    /// Completed requests per second: a high percentile over windows
    /// (see [`Samples::quiet_quantile_us`]).
    pub fn queries_per_s(&self) -> f64 {
        crate::stats::quiet_high(&self.window_rates)
    }
}

/// A closed loop on this thread: round-robin through `queries` via the
/// facade until `seconds` have passed, checking every answer's digest and
/// appending the latencies to `lat`.
pub fn closed_loop(
    engine: &LiveFtsl,
    queries: &[Query],
    expected: &[Digest],
    seconds: f64,
    lat: &mut FamilyLatency,
    report: &mut Report,
) {
    let mut scratch = ExecScratch::new();
    if lat.per_query.is_empty() {
        lat.per_query = vec![Samples::new(); queries.len()];
        lat.families = queries.iter().map(|q| q.family).collect();
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window_start = start;
    let mut ops = 0u64;
    'rounds: loop {
        for (i, (q, want)) in queries.iter().zip(expected).enumerate() {
            let t = Instant::now();
            let out = families::run_facade(engine, &q.op, &mut scratch);
            let d = t.elapsed();
            ops += 1;
            match out {
                Ok(out) if out.digest() == *want => {}
                Ok(out) => report.fail(format!(
                    "{}: answer changed during the run ({} vs {} hits)",
                    q.op.describe(),
                    out.nodes.len(),
                    want.hits
                )),
                Err(e) => report.fail(format!("{}: {e}", q.op.describe())),
            }
            lat.per_query[i].push(d);
            lat.all.push(d);
            let now = Instant::now();
            if ops.is_multiple_of(crate::stats::WINDOW as u64) {
                let secs = now.duration_since(window_start).as_secs_f64();
                lat.window_rates
                    .push(crate::stats::WINDOW as f64 / secs.max(1e-9));
                window_start = now;
            }
            if now >= deadline {
                break 'rounds;
            }
        }
    }
    if ops < crate::stats::WINDOW as u64 {
        lat.window_rates
            .push(ops as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    report.attempt(ops);
}

/// A single query's quiet median takes windows of a sixteenth of its
/// samples, at most [`QUERY_WINDOW_MAX`] each.
const QUERY_WINDOWS: usize = 16;
const QUERY_WINDOW_MAX: usize = 100;

/// Emit the seven per-family latencies: for each family, the mean over
/// its queries of each query's quiet median (see
/// [`Samples::quiet_quantile_us`]) over windows of that query's runs. The median of the family's pooled samples would jump
/// between queries of different cost as noise shifts them.
pub fn family_metrics(lat: &FamilyLatency, report: &mut Report) {
    for f in Family::ALL {
        let mut medians = Vec::new();
        let mut n = 0;
        for (s, fam) in lat.per_query.iter().zip(&lat.families) {
            if *fam == f {
                n += s.len();
                let window = (s.len() / QUERY_WINDOWS).clamp(1, QUERY_WINDOW_MAX);
                medians.push(s.quiet_quantile_us(0.5, window));
            }
        }
        report.info(&format!("{}.samples", f.name()), n);
        let mean = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
        report.metric(&format!("{}_p50_us", f.name()), mean, "us");
    }
}

/// One facade pass over every query, timing each into `lat`; `check`
/// vets each answer.
pub fn family_round(
    engine: &LiveFtsl,
    queries: &[Query],
    lat: &mut FamilyLatency,
    mut check: impl FnMut(usize, &Outcome) -> Result<(), String>,
    report: &mut Report,
) {
    if lat.per_query.is_empty() {
        lat.per_query = vec![Samples::new(); queries.len()];
        lat.families = queries.iter().map(|q| q.family).collect();
    }
    let mut scratch = ExecScratch::new();
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let out = families::run_facade(engine, &q.op, &mut scratch);
        lat.per_query[i].push(t.elapsed());
        report.attempt(1);
        if let Err(e) = out.and_then(|o| check(i, &o)) {
            report.fail(format!("{}: {e}", q.op.describe()));
        }
    }
}

/// Per-query accumulators of the staged probe.
#[derive(Default)]
struct StageAcc {
    /// The facade call, untraced.
    facade: Samples,
    /// The whole staged request, spans included.
    staged: Samples,
    /// The measured calls on the facade's path (see
    /// [`families::StageTimes::path_ns`]).
    path: Samples,
}

/// Largest share by which the measured calls of a family's staged path
/// may differ from the untraced facade before the traced run fails: the
/// two run the same calls, and a span costs two clock reads, so a larger
/// gap means the staged path does work the facade does not, or misses
/// work it does.
pub const RECONCILE_LIMIT: f64 = 0.10;

/// Reconcile a family's facade latency with its measured stages: the
/// share by which the summed per-query medians of the measured calls
/// differ from the summed per-query medians of the facade.
pub fn reconcile_gap(facade_us: f64, path_us: f64) -> f64 {
    if facade_us > 0.0 {
        (path_us / facade_us - 1.0).abs()
    } else {
        0.0
    }
}

/// The traced probe: for `seconds`, run each query twice per round — once
/// through the facade untimed by spans, once stage by stage with a span
/// around every layer call — alternating which goes first. Emits the
/// `lang.*`, `exec.*` and `trace.*` per-layer metrics (`trace.overhead_frac`:
/// how much slower the staged requests are, spans included, than the
/// facade, over all queries), and fails the run
/// when a family's measured stages do not reconcile with its facade
/// latency within [`RECONCILE_LIMIT`].
pub fn stage_probe(
    engine: &LiveFtsl,
    queries: &[Query],
    expected: &[Digest],
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut scratch = ExecScratch::new();
    let mut acc: Vec<StageAcc> = queries.iter().map(|_| StageAcc::default()).collect();
    let mut exec: Vec<Samples> = Family::ALL.iter().map(|_| Samples::new()).collect();
    let mut counters = [AccessCounters::default(); 7];
    let mut hits = [0u64; 7];
    let mut per_family = [0u64; 7];
    let (mut parse_all, mut rewrite_all, mut classify_all) =
        (Samples::new(), Samples::new(), Samples::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    let mut ops = 0u64;
    'rounds: loop {
        for ((q, want), a) in queries.iter().zip(expected).zip(&mut acc) {
            let f = q.family.index();
            let facade_first = round.is_multiple_of(2);
            let mut staged: Option<Result<(Outcome, families::StageTimes), String>> = None;
            if !facade_first {
                staged = Some(families::run_staged(engine, &q.op, &mut scratch, tracer));
            }
            let t = Instant::now();
            let facade = families::run_facade(engine, &q.op, &mut scratch);
            a.facade.push(t.elapsed());
            if facade_first {
                staged = Some(families::run_staged(engine, &q.op, &mut scratch, tracer));
            }
            ops += 2;
            match facade {
                Ok(out) if out.digest() == *want => {}
                Ok(_) => report.fail(format!("{}: facade answer changed", q.op.describe())),
                Err(e) => report.fail(format!("{}: {e}", q.op.describe())),
            }
            match staged.expect("staged run happened") {
                Ok((out, times)) => {
                    if out.digest() != *want {
                        report.fail(format!(
                            "{}: staged answer differs from the facade",
                            q.op.describe()
                        ));
                    }
                    if let Some(ns) = times.parse_ns {
                        parse_all.push_ns(ns);
                    }
                    if let Some(ns) = times.rewrite_ns {
                        rewrite_all.push_ns(ns);
                    }
                    if let Some(ns) = times.classify_ns {
                        classify_all.push_ns(ns);
                    }
                    exec[f].push_ns(times.exec_ns);
                    a.staged.push_ns(times.total_ns);
                    a.path.push_ns(times.path_ns);
                    if round == 0 {
                        counters[f] += out.counters;
                        hits[f] += out.nodes.len() as u64;
                        per_family[f] += 1;
                    }
                }
                Err(e) => report.fail(format!("{} (staged): {e}", q.op.describe())),
            }
        }
        round += 1;
        if Instant::now() >= deadline {
            break 'rounds;
        }
    }
    report.attempt(ops);
    report.info("stage_probe.rounds", round);
    report.metric("lang.parse_us", parse_all.p50_us(), "us");
    report.metric("lang.rewrite_us", rewrite_all.p50_us(), "us");
    report.metric("lang.classify_us", classify_all.p50_us(), "us");
    let (mut staged_all, mut facade_all, mut worst_gap) = (0.0, 0.0, 0.0f64);
    for fam in Family::ALL {
        let f = fam.index();
        let name = fam.name();
        let n = per_family[f].max(1) as f64;
        let c = counters[f];
        report.metric(&format!("exec.{name}.us"), exec[f].p50_us(), "us");
        for (field, v) in [
            ("entries", c.entries),
            ("positions_decoded", c.positions_decoded),
            ("tuples", c.tuples),
            ("skipped", c.skipped),
            ("blocks_skipped", c.blocks_skipped),
            ("segments_skipped", c.segments_skipped),
            ("pair_entries", c.pair_entries),
        ] {
            report.metric(&format!("exec.{name}.{field}"), v as f64 / n, "count");
        }
        let decoded = (c.entries + c.pair_entries).max(1) as f64;
        report.metric(
            &format!("exec.{name}.hits_per_entry"),
            hits[f] as f64 / decoded,
            "ratio",
        );
        let (mut facade, mut staged, mut path) = (0.0, 0.0, 0.0);
        for (q, a) in queries.iter().zip(&mut acc) {
            if q.family == fam {
                facade += a.facade.p50_us();
                staged += a.staged.p50_us();
                path += a.path.p50_us();
            }
        }
        staged_all += staged;
        facade_all += facade;
        let gap = reconcile_gap(facade, path);
        worst_gap = worst_gap.max(gap);
        if gap > RECONCILE_LIMIT {
            report.fail(format!(
                "{name}: measured stages ({path:.2}us) differ from the facade ({facade:.2}us) \
                 by {gap:.3}, more than {RECONCILE_LIMIT}"
            ));
        }
        report.info(
            &format!("stages.{name}"),
            format!(
                "summed per-query medians: facade={facade:.2}us staged={staged:.2}us \
                 measured_path={path:.2}us gap={gap:.4}"
            ),
        );
    }
    let overhead_frac = if facade_all > 0.0 {
        staged_all / facade_all - 1.0
    } else {
        0.0
    };
    report.info("trace_overhead_frac", format!("{overhead_frac:.4}"));
    report.metric("trace.overhead_frac", overhead_frac, "ratio");
    report.metric("trace.reconcile_gap", worst_gap, "ratio");
    for (name, mut s) in tracer.self_times() {
        report.info(
            &format!("self_time.{name}"),
            format!("p50={:.2}us n={}", s.p50_us(), s.len()),
        );
    }
}

/// Postings against pairs: build each part of the index on its own over
/// `texts`, and time tokenization.
pub fn build_probe(texts: &[String], report: &mut Report) {
    let kb = text::bytes_of(texts) as f64 / 1024.0;
    let tokenizer = Tokenizer::new();
    let mut interner = TokenInterner::new();
    let t = Instant::now();
    for text in texts {
        std::hint::black_box(tokenizer.tokenize(text, &mut interner));
    }
    let tokenize_us = t.elapsed().as_secs_f64() * 1e6;
    report.metric(
        "model.tokenize_us_per_kb",
        tokenize_us / kb.max(1e-9),
        "us/KB",
    );

    let corpus = Corpus::from_texts(texts);
    let t = Instant::now();
    let postings = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(&corpus);
    let postings_s = t.elapsed().as_secs_f64();
    let dfs: Vec<u32> = (0..postings.num_tokens())
        .map(|i| u32::try_from(postings.df(TokenId(i as u32))).unwrap_or(u32::MAX))
        .collect();
    let t = Instant::now();
    let pairs = PairIndex::build(corpus.documents(), &dfs, PairConfig::default());
    let pairs_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&pairs);
    report.metric("index.build_postings_s", postings_s, "s");
    report.metric("index.build_pairs_s", pairs_s, "s");
    report.info(
        "setup_split",
        format!(
            "postings {postings_s:.3}s, pairs {pairs_s:.3}s ({:.1}% of index build), \
             {} pair entries over {} docs",
            100.0 * pairs_s / (postings_s + pairs_s).max(1e-12),
            pairs.num_entries(),
            texts.len()
        ),
    );
}

/// Space at the end of the run: a header line, the per-layer postings,
/// decoded and pair bytes, segments and tombstones when `trace`, and the
/// returned resident bytes over input text bytes.
pub fn footprint(engine: &LiveFtsl, input_bytes: usize, trace: bool, report: &mut Report) -> f64 {
    let snapshot = engine.snapshot();
    let (mut postings, mut decoded, mut pairs) = (0usize, 0usize, 0usize);
    for seg in snapshot.segments() {
        let f = seg.data().index().memory_footprint();
        postings += f.compressed;
        decoded += f.decoded;
        pairs += f.pairs;
    }
    let reports = engine.segment_reports();
    let resident: usize = reports.iter().map(|r| r.resident_bytes).sum();
    let tombstones: usize = reports.iter().map(|r| r.tombstones).sum();
    report.info(
        "space",
        format!(
            "{} segments, resident {resident} B = postings {postings} + decoded {decoded} + pairs \
             {pairs}, input {input_bytes} B, {tombstones} tombstones",
            reports.len()
        ),
    );
    if trace {
        report.metric("index.postings_bytes", postings as f64, "bytes");
        report.metric("index.decoded_bytes", decoded as f64, "bytes");
        report.metric("index.pair_bytes", pairs as f64, "bytes");
        report.metric("index.segments", reports.len() as f64, "count");
        report.metric("index.tombstones", tombstones as f64, "count");
    }
    resident as f64 / input_bytes.max(1) as f64
}

/// Write-path measurements of an ingestion.
#[derive(Debug, Default)]
pub struct WriteStats {
    /// `LiveFtsl::add` calls.
    pub add: Samples,
    /// `LiveFtsl::flush` calls.
    pub flush: Samples,
    /// Documents added.
    pub docs: u64,
    /// Text bytes added.
    pub input_bytes: u64,
    /// Resident bytes of every segment id that appeared.
    pub written_bytes: u64,
    /// Segment ids seen so far.
    pub seen: BTreeSet<u64>,
}

impl WriteStats {
    /// Account every segment id in the current reports not seen before.
    pub fn note_segments(&mut self, engine: &LiveFtsl) {
        for r in engine.segment_reports() {
            if self.seen.insert(r.id) {
                self.written_bytes += r.resident_bytes as u64;
            }
        }
    }

    /// Emit `index.add_us`, `index.flush_ms_*`, `index.merges` and
    /// `index.write_amp`.
    pub fn emit(&mut self, engine: &LiveFtsl, report: &mut Report) {
        report.metric("index.add_us", self.add.p50_us(), "us");
        report.metric("index.flush_ms_p50", self.flush.p50_us() / 1e3, "ms");
        report.metric("index.flush_ms_p99", self.flush.p99_us() / 1e3, "ms");
        report.metric(
            "index.merges",
            engine.live_index().merges_completed() as f64,
            "count",
        );
        report.metric(
            "index.write_amp",
            self.written_bytes as f64 / self.input_bytes.max(1) as f64,
            "ratio",
        );
        report.info(
            "write_path",
            format!(
                "{} docs, {} flushes, {} merges, {} segment ids written",
                self.docs,
                self.flush.len(),
                engine.live_index().merges_completed(),
                self.seen.len()
            ),
        );
    }
}

/// Run the tiered merge policy to its fixed point (waits for a background
/// merge in flight), so the segment layout no longer depends on timing.
pub fn settle_merges(engine: &LiveFtsl) {
    while engine.live_index().maybe_merge() {}
}

/// Ingest `texts` through `add`, flushing every `flush_every` documents
/// and settling merges after each flush.
pub fn ingest(engine: &LiveFtsl, texts: &[String], flush_every: usize, stats: &mut WriteStats) {
    for chunk in texts.chunks(flush_every.max(1)) {
        for text in chunk {
            let t = Instant::now();
            engine.add(text);
            stats.add.push(t.elapsed());
            stats.docs += 1;
            stats.input_bytes += text.len() as u64;
        }
        let t = Instant::now();
        engine.flush();
        stats.flush.push(t.elapsed());
        stats.note_segments(engine);
        settle_merges(engine);
        stats.note_segments(engine);
    }
}

/// `SnapshotStats::compute` on the current snapshot, median of 5.
pub fn stats_compute(engine: &LiveFtsl, report: &mut Report) {
    let snapshot = engine.snapshot();
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(ftsl_scoring::SnapshotStats::compute(&snapshot));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("scoring.stats_compute_ms", median(&ms), "ms");
}

/// Request shapes of the serving mix, with their share of the traffic:
/// equal shares of the three request kinds (`Search`, `TopK`, `Near`),
/// the `Search` share split equally between BOOL, DIST, phrase PPRED and
/// NPRED shapes. The shares are an assumption, not measured from a query
/// log: with nothing to fit them to, every kind weighs the same.
const SHAPES: [(Shape, f64); 6] = [
    (Shape::And, 1.0 / 12.0),
    (Shape::Dist, 1.0 / 12.0),
    (Shape::Phrase, 1.0 / 12.0),
    (Shape::NotSameSent, 1.0 / 12.0),
    (Shape::TopK, 1.0 / 3.0),
    (Shape::Near, 1.0 / 3.0),
];

#[derive(Clone, Copy, Debug)]
enum Shape {
    And,
    Dist,
    Phrase,
    NotSameSent,
    TopK,
    Near,
}

/// A set of distinct serving requests and their popularity: a request's
/// shape is drawn by its share of [`SHAPES`], then a request of that
/// shape by Zipf rank over the shape's requests. Each shape holds
/// distinct requests in proportion to its share.
pub struct RequestMix {
    /// The distinct requests, grouped by shape.
    pub requests: Vec<QueryRequest>,
    /// Per shape: first request index and its popularity.
    groups: Vec<(usize, Zipf)>,
    /// Cumulative traffic share of each shape.
    cumulative: Vec<f64>,
}

impl RequestMix {
    /// `n` distinct requests (at least one per shape) over background
    /// tokens, with Zipf exponent `s` inside each shape.
    pub fn new(n: usize, s: f64, seed: u64) -> RequestMix {
        let mut rng = text::rng(text::sub_seed(seed, 0x5E));
        let mut seen = BTreeSet::new();
        let mut requests = Vec::with_capacity(n);
        let mut groups = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (shape, share) in SHAPES {
            let size = ((n as f64 * share).round() as usize).max(1);
            let first = requests.len();
            while requests.len() < first + size {
                let req = shape_request(shape, &mut rng);
                if seen.insert(req.describe()) {
                    requests.push(req);
                }
            }
            groups.push((first, Zipf::new(size, s)));
            total += share;
            cumulative.push(total);
        }
        RequestMix {
            requests,
            groups,
            cumulative,
        }
    }

    /// Draw a request index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.random::<f64>() * self.cumulative[self.cumulative.len() - 1];
        let g = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.groups.len() - 1);
        let (first, zipf) = &self.groups[g];
        first + zipf.sample(rng)
    }

    /// `count` request indices drawn with `seed`.
    pub fn schedule(&self, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = text::rng(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }
}

/// One request of `shape` over background tokens: `a` among the 60 most
/// frequent, `b` among the 400 most frequent.
fn shape_request(shape: Shape, rng: &mut StdRng) -> QueryRequest {
    let tok = |rng: &mut StdRng, lo: usize, hi: usize| format!("t{}", rng.random_range(lo..hi));
    let a = tok(rng, 2, 60);
    let mut b = tok(rng, 20, 400);
    while b == a {
        b = tok(rng, 20, 400);
    }
    match shape {
        Shape::And => QueryRequest::search(&format!("'{a}' AND '{b}'")),
        Shape::Dist => QueryRequest::search(&format!(
            "dist('{a}', '{b}', {})",
            rng.random_range(1..11usize)
        )),
        Shape::Phrase => QueryRequest::search(&format!(
            "SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' AND ordered(p1,p2) AND \
             distance(p1,p2,{}))",
            rng.random_range(0..3usize)
        )),
        Shape::NotSameSent => QueryRequest::search(&format!(
            "SOME p1 SOME p2 (p1 HAS '{b}' AND p2 HAS '{a}' AND not_samesent(p1,p2))"
        )),
        Shape::TopK => {
            let c = tok(rng, 60, 2000);
            QueryRequest::top_k(
                &format!("'{a}' OR '{b}' OR '{c}'"),
                ftsl_core::RankModel::TfIdf,
                10,
            )
        }
        Shape::Near => {
            QueryRequest::near(&a, &b, rng.random_range(1..17u32), rng.random::<bool>(), 10)
        }
    }
}

/// The facade operation a serving request runs.
pub fn request_op(req: &QueryRequest) -> families::Op {
    match req {
        QueryRequest::Search { query } => families::Op::Search {
            text: query.clone(),
            engine: ftsl_exec::engine::EngineKind::Auto,
        },
        QueryRequest::TopK { query, k, .. } => families::Op::TopK {
            text: query.clone(),
            k: *k,
        },
        QueryRequest::Near {
            first,
            second,
            bound,
            ordered,
            k,
        } => families::Op::Near {
            first: first.clone(),
            second: second.clone(),
            bound: *bound,
            ordered: *ordered,
            k: *k,
        },
    }
}

/// The facade's answer digest for each request: what every served reply
/// must match while the index does not change.
pub fn request_digests(
    engine: &LiveFtsl,
    requests: &[QueryRequest],
    report: &mut Report,
) -> Vec<Digest> {
    let mut scratch = ExecScratch::new();
    requests
        .iter()
        .map(|req| {
            report.attempt(1);
            match families::run_facade(engine, &request_op(req), &mut scratch) {
                Ok(out) => out.digest(),
                Err(e) => {
                    report.fail(format!("{}: {e}", req.describe()));
                    Digest::default()
                }
            }
        })
        .collect()
}

/// Replay a request stream through a fresh `ServeContext` with a cache of
/// `capacity`, the code a pool worker runs for each request: `warm`
/// requests untimed, then `warm` more timed one by one, split by
/// `Served::cached`. Emits exact service-time quantiles.
pub fn serve_replay(
    engine: &Arc<LiveFtsl>,
    mix: &RequestMix,
    warm: usize,
    capacity: usize,
    seed: u64,
    report: &mut Report,
) {
    let mut ctx = ServeContext::new(Arc::clone(engine), Arc::new(ResultCache::new(capacity)));
    let stream = mix.schedule(2 * warm, seed);
    let (warm_ids, timed_ids) = stream.split_at(warm);
    for &id in warm_ids {
        let _ = ctx.serve(&mix.requests[id]);
    }
    let (mut all, mut hit, mut miss) = (Samples::new(), Samples::new(), Samples::new());
    for &id in timed_ids {
        let t = Instant::now();
        let served = ctx.serve(&mix.requests[id]);
        let d = t.elapsed();
        report.attempt(1);
        match served {
            Ok(s) => {
                all.push(d);
                if s.cached {
                    hit.push(d);
                } else {
                    miss.push(d);
                }
            }
            Err(e) => report.fail(format!("replay {}: {e}", mix.requests[id].describe())),
        }
    }
    report.info(
        "serve_replay",
        format!(
            "{} hits, {} misses after {warm} untimed requests",
            hit.len(),
            miss.len()
        ),
    );
    report.metric("serve.service_p50_us", all.p50_us(), "us");
    report.metric("serve.service_p99_us", all.p99_us(), "us");
    report.metric("serve.hit_us", hit.p50_us(), "us");
    report.metric("serve.miss_us", miss.p50_us(), "us");
}

/// A pool of `workers` over `engine` with a result cache of `capacity`,
/// warmed by `warm` closed-loop requests drawn from `mix`.
pub fn warm_pool(
    engine: &Arc<LiveFtsl>,
    workers: usize,
    capacity: usize,
    mix: &RequestMix,
    warm: usize,
    seed: u64,
) -> ServePool {
    // Workers are spawned off the last CPU, which the load generator takes.
    let pool = crate::affinity::without_last(|| {
        ServePool::new(
            Arc::clone(engine),
            ServeConfig {
                workers,
                cache_capacity: capacity,
                ..ServeConfig::default()
            },
        )
    });
    for &id in &mix.schedule(warm, seed) {
        let _ = pool.execute(mix.requests[id].clone());
    }
    pool
}

/// Shares of a ladder's time: the nominal rate (split over its offers),
/// each other fixed rung, and each climbing rung (the first climb takes 13
/// to 20 rungs when the pool's capacity is 70 000 to 100 000 requests per
/// second, a later one about 7).
const NOMINAL_SHARE: f64 = 0.3;
const FIXED_SHARE: f64 = 0.05;
const CLIMB_SHARE: f64 = 0.012;

/// Times a ladder calls its `between` hook.
pub const LADDER_BREAKS: usize = FIXED_RATES.len() + CLIMB_PASSES + 1;

/// The ladder of offered rates: every rung of [`FIXED_RATES`], then
/// [`CLIMB_PASSES`] climbs through [`crate::climb_rates`], each preceded by
/// another offer of the nominal rate. A climbing rung that misses the
/// latency limit is offered once more, and the climb stops at a rung that
/// misses twice, so a single stall of the host does not end it. Header
/// lines record each rung's latency, generator lateness and backlog.
/// `between` runs before each fixed rung, before each climb and after the
/// ladder.
pub fn run_ladder(
    pool: &ServePool,
    mix: &RequestMix,
    expected: &[Digest],
    seed: u64,
    seconds: f64,
    report: &mut Report,
    mut between: impl FnMut(&mut Report),
) -> Vec<RungResult> {
    let mut rungs = Vec::new();
    let mut offer = |rate: f64, share: f64, tag: u64, report: &mut Report| {
        let count = ((rate * share * seconds).round() as usize).max(1);
        let ids = mix.schedule(count, text::sub_seed(seed, tag));
        let mut r = openloop::run_rung(pool, &mix.requests, expected, &ids, rate, report);
        let meets = r.meets(P99_LIMIT_US);
        report.info(
            &format!("rung.{rate}"),
            format!(
                "offered={} ok={} failed={} completed_per_s={:.0} p50={:.1}us p99={:.1}us \
                 quiet_p99={:.1}us pool_service_mean_whole_us={:.1}us \
                 pool_service_p99_log2_bound={}us wait_p99={:.1}us generator_lag_p99={:.1}us \
                 backlog_max={} backlog_end={} hit_rate={:.3} meets_limit={meets}",
                r.offered,
                r.ok,
                r.failed,
                r.ok as f64 / r.elapsed_s.max(1e-9),
                r.latency.p50_us(),
                r.latency.p99_us(),
                r.latency.quiet_p99_us(),
                r.service.sum as f64 / r.service.count().max(1) as f64,
                r.service.p99(),
                r.wait.p99_us(),
                r.lag.p99_us(),
                r.backlog_max,
                r.backlog_end,
                r.cache_hits as f64 / r.cache_lookups.max(1) as f64,
            ),
        );
        rungs.push(r);
        meets
    };
    let nominal_offers = (CLIMB_PASSES + 1) as f64;
    let mut tag = 0x100;
    for (i, &rate) in FIXED_RATES.iter().enumerate() {
        between(report);
        let share = if i == NOMINAL_RUNG {
            NOMINAL_SHARE / nominal_offers
        } else {
            FIXED_SHARE
        };
        offer(rate, share, tag, report);
        tag += 1;
    }
    let climb = crate::climb_rates();
    let mut best = 0.0f64;
    for _ in 0..CLIMB_PASSES {
        between(report);
        offer(
            FIXED_RATES[NOMINAL_RUNG],
            NOMINAL_SHARE / nominal_offers,
            tag,
            report,
        );
        tag += 1;
        let start = climb
            .iter()
            .rposition(|&r| r <= CLIMB_RESTART * best)
            .unwrap_or(0);
        for &rate in &climb[start..] {
            let mut meets = false;
            for _ in 0..2 {
                meets = offer(rate, CLIMB_SHARE, tag, report);
                tag += 1;
                if meets {
                    break;
                }
            }
            if !meets {
                break;
            }
            best = best.max(rate);
        }
    }
    between(report);
    rungs
}

/// Latencies of every offer of the nominal rate, in order.
pub fn nominal_latency(rungs: &[RungResult]) -> Samples {
    let mut all = Samples::new();
    for r in rungs.iter().filter(|r| r.rate == FIXED_RATES[NOMINAL_RUNG]) {
        all.extend(&r.latency);
    }
    all
}

/// The highest rung that met the latency limit without a growing backlog
/// in any offer (0 when none did).
pub fn max_qps_within_slo(rungs: &mut [RungResult]) -> f64 {
    rungs
        .iter_mut()
        .filter_map(|r| r.meets(P99_LIMIT_US).then_some(r.rate))
        .fold(0.0, f64::max)
}

/// Per-layer serving metrics from a ladder: cache, waits at the fixed
/// rungs and at the highest rung within the limit, allocations, backlog
/// and generator lateness.
pub fn serve_layer_metrics(rungs: &mut [RungResult], report: &mut Report) {
    for r in rungs.iter_mut().take(FIXED_RATES.len()) {
        let rate = r.rate as u64;
        report.metric(&format!("serve.wait_p50_us.r{rate}"), r.wait.p50_us(), "us");
        report.metric(&format!("serve.wait_p99_us.r{rate}"), r.wait.p99_us(), "us");
    }
    let top = max_qps_within_slo(rungs);
    let (p50, p99) = match rungs.iter_mut().find(|r| r.rate == top) {
        Some(r) => (r.wait.p50_us(), r.wait.p99_us()),
        None => (0.0, 0.0),
    };
    report.metric("serve.wait_p50_us.top", p50, "us");
    report.metric("serve.wait_p99_us.top", p99, "us");
    let n = &mut rungs[NOMINAL_RUNG];
    report.metric(
        "serve.cache_hit_rate",
        n.cache_hits as f64 / n.cache_lookups.max(1) as f64,
        "ratio",
    );
    report.metric("serve.cache_evictions", n.cache_evictions as f64, "count");
    report.metric(
        "serve.allocs_per_query",
        n.allocs as f64 / n.cache_lookups.max(1) as f64,
        "count",
    );
    report.metric("serve.backlog_max", n.backlog_max as f64, "count");
    report.metric("serve.generator_lag_p99_us", n.lag.p99_us(), "us");
}

/// Workers the pool runs: every core but the one the load generator takes.
pub fn pool_workers() -> usize {
    crate::nproc().saturating_sub(1).max(1)
}
