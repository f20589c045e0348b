//! Criterion bench for the portfolio evaluator: candidate count k × worker
//! count, over one fixed crash-safe segment log.
//!
//! The claim under test is Fig 1's economics made operational: scoring 128
//! candidate policies in the one-pass evaluator costs a small multiple of
//! scoring one, because the per-record work that dominates — segment
//! recovery, frame decode, the cross-segment outcome join — is shared
//! across the whole portfolio, and only the per-candidate accumulator fold
//! scales with k. The full run writes a `portfolio_eval` section into
//! `BENCH_serve.json` and prints the k=128 / k=1 wall-time ratio at 8
//! workers beside its target (under 4×). The ratio is printed, not
//! asserted: nothing fails when it is missed.

use criterion::{black_box, criterion_group, Criterion};
use harvest_bench::bench_json::{merge_section, AxisResult};
use harvest_core::scorer::LinearScorer;
use harvest_estimators::{Candidate, EvaluatorConfig, GreedyScorerCandidate, PortfolioEvaluator};
use harvest_log::record::{DecisionRecord, LogRecord, OutcomeRecord};
use harvest_log::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
use harvest_serve::Histogram;

const REQUESTS: u64 = 6_000;
const ACTIONS: usize = 2;
const KS: [usize; 3] = [1, 16, 128];
const WORKERS: [usize; 2] = [1, 8];
const WARMUP_RUNS: usize = 1;
const MEASURED_RUNS: usize = 5;

/// The fixed workload every axis scores: a deterministic crossing-reward
/// log where half the rewards resolve through trailing outcome records, so
/// recovery, decode, and the cross-segment join are all on the timed path.
fn build_segments() -> Vec<Vec<u8>> {
    let mut w = SegmentedLogWriter::new(
        MemorySegments::new(),
        SegmentConfig {
            max_records: 256,
            max_bytes: usize::MAX,
            max_span_ns: u64::MAX,
        },
    );
    let mut pending: Vec<(u64, f64)> = Vec::new();
    for i in 0..REQUESTS {
        let x = ((i as f64) * 0.618_033_988_749_895).fract();
        let action = (i % 3 == 0) as usize;
        let reward = if action == 0 { x } else { 1.0 - x };
        let deferred = i % 2 == 1;
        w.write(&LogRecord::Decision(DecisionRecord {
            request_id: i,
            timestamp_ns: i * 1_000,
            component: "bench-portfolio".to_string(),
            shared_features: vec![x],
            action_features: None,
            num_actions: ACTIONS,
            action,
            propensity: Some(if action == 0 { 0.7 } else { 0.3 }),
            reward: (!deferred).then_some(reward),
        }))
        .unwrap();
        if deferred {
            pending.push((i, reward));
        }
        if pending.len() >= 64 {
            for (rid, r) in pending.drain(..) {
                w.write(&LogRecord::Outcome(OutcomeRecord {
                    request_id: rid,
                    timestamp_ns: rid * 1_000 + 500,
                    reward: r,
                }))
                .unwrap();
            }
        }
    }
    for (rid, r) in pending.drain(..) {
        w.write(&LogRecord::Outcome(OutcomeRecord {
            request_id: rid,
            timestamp_ns: rid * 1_000 + 500,
            reward: r,
        }))
        .unwrap();
    }
    w.into_sink().unwrap().snapshot()
}

/// k distinct threshold candidates plus a shared DR reward model.
fn evaluator(k: usize, parallelism: usize) -> PortfolioEvaluator {
    PortfolioEvaluator::builder()
        .config(
            EvaluatorConfig::builder()
                .clip(10.0)
                .delta(0.05)
                .parallelism(parallelism)
                .build(),
        )
        .candidates((0..k).map(|j| {
            let theta = 0.1 + 0.8 * (j as f64 + 0.5) / k as f64;
            Candidate::new(
                format!("cand-{j:03}"),
                GreedyScorerCandidate::new(
                    LinearScorer::PerAction {
                        weights: vec![vec![1.0, 0.0], vec![-1.0, 2.0 * theta]],
                    },
                    0.1,
                ),
            )
        }))
        .model(LinearScorer::PerAction {
            weights: vec![vec![1.0, 0.0], vec![-1.0, 1.0]],
        })
        .build()
        .unwrap()
}

fn bench_portfolio(c: &mut Criterion) {
    let segments = build_segments();
    let mut g = c.benchmark_group("portfolio_eval");
    g.sample_size(10);
    for &workers in &WORKERS {
        for &k in &KS {
            let ev = evaluator(k, workers);
            g.bench_function(&format!("k{k}_{workers}workers"), |b| {
                b.iter(|| {
                    let (report, _) = ev.evaluate_segments(&segments);
                    black_box(report.entries.len());
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_portfolio);

/// Regenerates the `portfolio_eval` section of `BENCH_serve.json`: one axis
/// per (k, workers) cell — median wall time of five runs, one pass each —
/// with candidate-evaluations/sec as the throughput figure. Also prints the
/// k=128 / k=1 wall-time ratio at 8 workers, the ISSUE's acceptance
/// headline (< 4× means the shared pass dominates, as designed).
fn write_json_report() -> std::io::Result<()> {
    let segments = build_segments();
    let mut axes = Vec::new();
    let mut median_ns = std::collections::BTreeMap::new();
    for &workers in &WORKERS {
        for &k in &KS {
            let ev = evaluator(k, workers);
            for _ in 0..WARMUP_RUNS {
                black_box(ev.evaluate_segments(&segments).0.n);
            }
            let mut elapsed = Vec::with_capacity(MEASURED_RUNS);
            let mut pooled = Histogram::new();
            let mut joined = 0usize;
            for _ in 0..MEASURED_RUNS {
                let t0 = std::time::Instant::now();
                let (report, _) = ev.evaluate_segments(&segments);
                let ns = t0.elapsed().as_nanos() as u64;
                joined = report.n;
                elapsed.push(ns);
                pooled.record(ns);
            }
            elapsed.sort_unstable();
            let median = elapsed[elapsed.len() / 2];
            median_ns.insert((k, workers), median);
            axes.push(AxisResult::from_run(
                format!("k{k}_{workers}workers"),
                (joined * k) as u64,
                median,
                &pooled,
            ));
        }
    }
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve.json"
    ));
    merge_section(path, "portfolio_eval", &axes)?;
    let ratio = median_ns[&(128, 8)] as f64 / median_ns[&(1, 8)] as f64;
    eprintln!(
        "wrote portfolio_eval section ({} axes) to {}",
        axes.len(),
        path.display()
    );
    eprintln!(
        "portfolio amortization: k=128 / k=1 wall time at 8 workers = {ratio:.2}x (target < 4x)"
    );
    Ok(())
}

fn main() {
    benches();
    write_json_report().expect("write BENCH_serve.json");
}
