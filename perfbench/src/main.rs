//! `ftsl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints header lines (`# key: value`) recording the run's validity, then
//! one JSON line with `correct`, `attempted`, `failed` and the metrics.
//! Exits non-zero when any answer check or operation failed.

use ftsl_perfbench::{run, Args, Scale};

// Counting allocator, so the pool's per-worker allocation counters measure
// real heap traffic (`serve.allocs_per_query`).
#[global_allocator]
static ALLOC: ftsl_serve::CountingAlloc = ftsl_serve::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ftsl-perfbench --workload <paper_mix|serve_zipf|ingest_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = run(&args, &Scale::full());
    print!("{}", report.render());
    if !report.correct() {
        std::process::exit(1);
    }
}
