//! Open-loop load through a `ServePool`: requests are sent on a fixed
//! schedule whether or not earlier ones have finished, each is timed from
//! when it was due, and the generator's own lateness is recorded.
//!
//! The generator thread paces and submits; the calling thread collects
//! replies in submission order and checks each answer. Together they are
//! the client and share the core the pool's workers leave free.

use crate::affinity;
use crate::report::Report;
use crate::stats::{Digest, Samples};
use ftsl_serve::{Answer, HistogramSnapshot, QueryRequest, ServePool, Ticket};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Outcome of one rung of offered load.
#[derive(Debug)]
pub struct RungResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub offered: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Errors, unanswered tickets and wrong answers.
    pub failed: u64,
    /// Client latency from due time to reply.
    pub latency: Samples,
    /// Time each request waited before a worker could start it: its start
    /// is the later of its submission and the moment a worker finished an
    /// earlier request (exact for FIFO service).
    pub wait: Samples,
    /// How late the generator submitted each request.
    pub lag: Samples,
    /// Largest number of submitted but unanswered requests.
    pub backlog_max: u64,
    /// Unanswered requests when the generator sent its last one.
    pub backlog_end: u64,
    /// Worker-side service times recorded by the pool during the rung.
    pub service: HistogramSnapshot,
    /// Cache hits and lookups during the rung.
    pub cache_hits: u64,
    /// Cache lookups during the rung.
    pub cache_lookups: u64,
    /// Cache evictions during the rung.
    pub cache_evictions: u64,
    /// Worker allocations during the rung.
    pub allocs: u64,
    /// From the first due time to the last reply, seconds.
    pub elapsed_s: f64,
}

impl RungResult {
    /// Whether this rung meets the latency limit without a growing
    /// backlog: the p99 from due time of every request of the rung within
    /// `limit_us`, no failures, and no more requests queued when sending
    /// stopped than the pool can drain within the limit.
    pub fn meets(&mut self, limit_us: f64) -> bool {
        let drainable = self.rate * limit_us / 1e6;
        self.failed == 0
            && self.ok > 0
            && self.latency.p99_us() <= limit_us
            && (self.backlog_end as f64) <= drainable.max(1.0)
    }
}

/// Hit node ids of a served answer.
pub fn answer_nodes(answer: &Answer) -> Vec<u32> {
    match answer {
        Answer::Search(r) => r.nodes.iter().map(|n| n.0).collect(),
        Answer::TopK(r) => r.hits.iter().map(|(n, _)| n.0).collect(),
        Answer::Near(r) => r.hits.iter().map(|(n, _)| n.0).collect(),
    }
}

/// Wait until `deadline`: sleep while it is far off, then spin, yielding
/// the core to the collector. Sleeping close to the deadline would let
/// timer slack make the generator late.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(5) {
            std::thread::sleep(left - Duration::from_millis(3));
        } else {
            std::thread::yield_now();
        }
    }
}

fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = after.clone();
    for (c, b) in d.counts.iter_mut().zip(before.counts.iter()) {
        *c = c.saturating_sub(*b);
    }
    d.sum = after.sum.wrapping_sub(before.sum);
    d
}

/// Offer `schedule` (indices into `requests`) at `rate` per second and
/// check every reply against `expected`.
pub fn run_rung(
    pool: &ServePool,
    requests: &[QueryRequest],
    expected: &[Digest],
    schedule: &[usize],
    rate: f64,
    report: &mut Report,
) -> RungResult {
    let before = pool.stats();
    let saved_cpus = affinity::current();
    affinity::pin_last();
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Ticket)>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut latency = Samples::new();
    let mut wait = Samples::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut last_done = start;
    let (lag, backlog_max, backlog_end) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            affinity::pin_last();
            let mut lag = Samples::new();
            let mut backlog_max = 0u64;
            for (i, &id) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                let submitted = Instant::now();
                let ticket = pool.submit(requests[id].clone());
                lag.push(submitted.saturating_duration_since(due));
                let backlog = (i as u64 + 1).saturating_sub(completed.load(Ordering::Relaxed));
                backlog_max = backlog_max.max(backlog);
                if tx.send((id, due, submitted, ticket)).is_err() {
                    break;
                }
            }
            let backlog_end =
                (schedule.len() as u64).saturating_sub(completed.load(Ordering::Relaxed));
            drop(tx);
            (lag, backlog_max, backlog_end)
        });
        // Times at which each worker last became free, earliest first.
        let mut free: BinaryHeap<Reverse<Instant>> =
            (0..pool.workers()).map(|_| Reverse(start)).collect();
        for (id, due, submitted, ticket) in rx {
            let reply = ticket.wait();
            let done = Instant::now();
            completed.fetch_add(1, Ordering::Relaxed);
            match reply {
                Ok(served) => {
                    let got = Digest::of(answer_nodes(&served.answer));
                    if got == expected[id] {
                        ok += 1;
                    } else {
                        failed += 1;
                        report.fail(format!(
                            "pool answer differs from the facade for {}: {} vs {} hits",
                            requests[id].describe(),
                            got.hits,
                            expected[id].hits
                        ));
                    }
                }
                Err(e) => {
                    failed += 1;
                    report.fail(format!("pool error for {}: {e}", requests[id].describe()));
                }
            }
            latency.push(done.saturating_duration_since(due));
            let Reverse(free_at) = free.pop().expect("at least one worker");
            let begin = submitted.max(free_at);
            wait.push(begin.saturating_duration_since(due));
            free.push(Reverse(done));
            last_done = done;
        }
        generator.join().expect("load generator thread")
    });
    if let Some(old) = saved_cpus {
        affinity::set(&old);
    }
    let unanswered = (schedule.len() as u64).saturating_sub(ok + failed);
    for _ in 0..unanswered {
        report.fail(format!("unanswered ticket at {rate}/s"));
    }
    report.attempt(schedule.len() as u64);
    let after = pool.stats();
    let worker_allocs = |s: &ftsl_serve::PoolStats| s.workers.iter().map(|w| w.allocs).sum::<u64>();
    RungResult {
        rate,
        offered: schedule.len() as u64,
        ok,
        failed: failed + unanswered,
        latency,
        wait,
        lag,
        backlog_max,
        backlog_end,
        service: histogram_delta(&after.latency, &before.latency),
        cache_hits: after.cache.hits - before.cache.hits,
        cache_lookups: (after.cache.hits + after.cache.misses)
            - (before.cache.hits + before.cache.misses),
        cache_evictions: after.cache.evictions - before.cache.evictions,
        allocs: worker_allocs(&after) - worker_allocs(&before),
        elapsed_s: last_done.saturating_duration_since(start).as_secs_f64(),
    }
}
