//! End-to-end and per-layer benchmark of the ftsl engine.
//!
//! Three workloads drive the public API from outside the program, on the
//! configuration users get (`ExecOptions::default()`: decoded layout with
//! dual residency; `LiveConfig::default()`: background tiered merge):
//!
//! - `paper_mix`: a closed loop on one thread over the `LiveFtsl` facade
//!   and one sealed segment, round-robin through the seven query families
//!   of [`families`] (the paper's BOOL ⊂ DIST ⊂ PPRED ⊂ NPRED ⊂ COMP axis
//!   plus top-k and NEAR).
//! - `serve_zipf`: an open loop through a `ServePool` at a fixed ladder of
//!   offered rates, over a multi-segment index left by ingestion, with a
//!   Zipf-popular request set larger than the result cache.
//! - `ingest_churn`: one client thread alternating write batches (add,
//!   delete, flush) with reads through a `ServeContext`, under the default
//!   background merge.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each call into a layer and prints the
//! per-layer metrics. See `README.md` beside this crate for every metric's
//! definition.

pub mod affinity;
pub mod families;
pub mod layers;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod text;
pub mod trace;
pub mod workloads;

pub use report::Report;

/// The p99 latency limit, in microseconds, that a `serve_zipf` rung must
/// meet (and that a closed-loop workload's p99 must meet for its rate to
/// count in `max_qps_within_slo`). `BENCHMARK.json` states the same value.
pub const P99_LIMIT_US: f64 = 20_000.0;

/// Fixed rungs of the `serve_zipf` ladder, requests per second: light to
/// moderate load, each reported with its queueing wait.
pub const FIXED_RATES: [f64; 4] = [5_000.0, 10_000.0, 20_000.0, 40_000.0];

/// The rung of [`FIXED_RATES`] at which `serve_zipf` reports its query
/// latency. The ladder offers this rate again before each climb, so the
/// reported latency samples the whole run.
pub const NOMINAL_RUNG: usize = 1;

/// Above the fixed rungs the ladder climbs in steps of this ratio, well
/// inside the 0.25 bound of `max_qps_within_slo`, until a rung misses the
/// latency limit twice in a row.
pub const CLIMB_STEP: f64 = 1.05;

/// Climbs per run, spread over it. The reference host slows by up to 1.6x
/// for tens of seconds at a time; one climb measures the capacity of
/// whatever stretch it fell in, the best of several that of the quieter
/// stretches.
pub const CLIMB_PASSES: usize = 5;

/// A climb after the first starts at the highest rung at most this share
/// of the best rate met so far, rather than at the bottom.
pub const CLIMB_RESTART: f64 = 0.85;

/// Highest rate a climb offers, requests per second.
pub const CLIMB_MAX: f64 = 400_000.0;

/// The climbing rungs: `FIXED_RATES`' last rate times powers of
/// [`CLIMB_STEP`], up to [`CLIMB_MAX`], each rounded to 100 requests per
/// second.
pub fn climb_rates() -> Vec<f64> {
    let base = FIXED_RATES[FIXED_RATES.len() - 1];
    (1..)
        .map(|k| (base * CLIMB_STEP.powi(k) / 100.0).round() * 100.0)
        .take_while(|&r| r <= CLIMB_MAX)
        .collect()
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop paper query families over one sealed segment.
    PaperMix,
    /// Open-loop Zipf serving through a pool at fixed offered rates.
    ServeZipf,
    /// Write batches alternating with reads on one thread.
    IngestChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::ServeZipf,
        Workload::IngestChurn,
    ];

    /// Command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::ServeZipf => "serve_zipf",
            Workload::IngestChurn => "ingest_churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Run with spans and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Input and run sizes.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `paper_mix` corpus documents. The reference host's 300 MB L3 is
    /// shared with other tenants, whose traffic slows a larger working
    /// set by up to 1.6x for tens of seconds at a time; at this size the
    /// hot lists stay in the 2 MB L2.
    pub docs: usize,
    /// Background tokens per generated document.
    pub tokens_per_doc: usize,
    /// Documents in the small corpus checked against the calculus
    /// interpreter.
    pub verify_docs: usize,
    /// Tokens per verification document.
    pub verify_tokens: usize,
    /// Set-ups per run (the reported `setup_s` is their median).
    pub setups: usize,
    /// `serve_zipf` documents, ingested through `add` and `flush`.
    pub serve_docs: usize,
    /// `serve_zipf` ingestion batch between flushes.
    pub serve_flush_every: usize,
    /// Distinct `serve_zipf` requests (larger than the cache, so the hit
    /// rate lies strictly between 0 and 1; about 0.78 with the mix of
    /// [`layers::RequestMix`]). A choice, not taken from a query log.
    pub distinct_requests: usize,
    /// Result-cache capacity (`ServeConfig::default()`).
    pub cache_capacity: usize,
    /// Zipf exponent of request popularity within each request shape. An
    /// assumption, not fitted to a query log.
    pub zipf_exponent: f64,
    /// Closed-loop pool requests that warm the cache before timing.
    pub warm_requests: usize,
    /// `ingest_churn` documents present before the first batch.
    pub churn_base_docs: usize,
    /// Documents added per write batch. This and the next three sizes are
    /// choices, not measured from a workload: they make a 30-second run
    /// cover hundreds of flushes and merges with reads between them.
    pub churn_batch: usize,
    /// Older documents deleted per write batch.
    pub churn_deletes: usize,
    /// Reads after each write batch. Each batch's first top-k read
    /// recomputes the snapshot's scoring statistics; at 64 reads those
    /// reads are 1.6% of all, so `query_p99_us` lies among them rather
    /// than on the edge between them and the other misses (at 96 reads,
    /// 1.04%, its run-to-run spread was 0.27).
    pub churn_reads: usize,
    /// Distinct `ingest_churn` read requests (fit in the cache, so version
    /// bumps, not capacity, set the hit rate).
    pub churn_read_set: usize,
    /// Documents of the write probe a write-free workload's traced run
    /// makes on a fresh engine.
    pub write_probe_docs: usize,
    /// Flush interval of the write probe.
    pub write_probe_flush: usize,
}

impl Scale {
    /// The sizes the benchmark runs at.
    pub fn full() -> Scale {
        Scale {
            docs: 300,
            tokens_per_doc: 150,
            verify_docs: 60,
            verify_tokens: 100,
            setups: 5,
            serve_docs: 450,
            serve_flush_every: 150,
            distinct_requests: 3000,
            cache_capacity: 1024,
            zipf_exponent: 1.0,
            warm_requests: 4000,
            churn_base_docs: 600,
            churn_batch: 32,
            churn_deletes: 32,
            churn_reads: 64,
            churn_read_set: 32,
            write_probe_docs: 256,
            write_probe_flush: 32,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            docs: 120,
            tokens_per_doc: 80,
            verify_docs: 30,
            verify_tokens: 60,
            setups: 2,
            serve_docs: 120,
            serve_flush_every: 30,
            distinct_requests: 200,
            cache_capacity: 64,
            zipf_exponent: 1.0,
            warm_requests: 200,
            churn_base_docs: 60,
            churn_batch: 8,
            churn_deletes: 6,
            churn_reads: 12,
            churn_read_set: 16,
            write_probe_docs: 40,
            write_probe_flush: 10,
        }
    }
}

/// Number of CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload and collect its report.
pub fn run(args: &Args, scale: &Scale) -> Report {
    let mut report = Report::new();
    report.info("workload", args.workload.name());
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", u8::from(args.trace));
    report.info("nproc", nproc());
    report.info(
        "toolchain",
        option_env!("PERFBENCH_RUSTC").unwrap_or("unknown"),
    );
    report.info(
        "config",
        "ExecOptions::default() (Decoded layout, Dual residency), LiveConfig::default()",
    );
    report.info("p99_limit_us", P99_LIMIT_US);
    match args.workload {
        Workload::PaperMix => workloads::paper_mix(args, scale, &mut report),
        Workload::ServeZipf => workloads::serve_zipf(args, scale, &mut report),
        Workload::IngestChurn => workloads::ingest_churn(args, scale, &mut report),
    }
    if !args.trace {
        let frac = report.success_frac();
        report.metric("success_frac", frac, "ratio");
    }
    if let Some(kb) = peak_rss_kb() {
        report.info("peak_rss_mb", kb / 1024);
    }
    report
}

/// Peak resident set of this process, where the platform reports it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climb_steps_stay_inside_the_bound() {
        let rates = climb_rates();
        assert!(rates[0] > FIXED_RATES[FIXED_RATES.len() - 1]);
        assert!(*rates.last().unwrap() <= CLIMB_MAX);
        let mut prev = FIXED_RATES[FIXED_RATES.len() - 1];
        for r in rates {
            assert!(r / prev < 1.06, "{prev} -> {r}");
            prev = r;
        }
    }
}
