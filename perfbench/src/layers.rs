//! The traced run: per-layer attribution measured from outside.
//!
//! Every number here comes from timing a call into one layer's public API
//! from this crate, on the seed's own inputs, or from a layer's public
//! counters. Nothing inside the program is instrumented. The suite is the
//! same for every workload, so each traced run reports every per-layer
//! metric; the `<workload>.unattributed_share` metrics say how much of each
//! workload's blocking path no timed call covers.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harvest_core::sample::LoggedDecision;
use harvest_core::scorer::LinearScorer;
use harvest_core::{Dataset, Scorer, SimpleContext};
use harvest_log::record::{BatchDecision, BatchRecord, LogRecord};
use harvest_log::scavenge::{scavenge_with_outcomes, OutcomeIndex};
use harvest_log::segment::{crc32, encode_frame, FRAME_HEADER_LEN};
use harvest_log::{
    recover_segment, recover_segments, MemorySegments, SegmentConfig, SegmentedLogWriter,
};
use harvest_serve::{Backpressure, LoggerConfig, ObsConfig, ServeConfig};
use harvest_wire::{
    decode_frame, decode_request_frame, decode_response_payload, encode_request, encode_response,
    Admission, Decoded, Request, Response, WireConfig, WireCore,
};

use crate::harness::{setup, Bench};
use crate::inputs::{Inputs, ACTIONS, BATCH, CANDIDATES, REWARD_DELAY_NS, STEP_NS};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::{drive_harvest, drive_wire, settle_log, Args, Report};

/// Decisions replayed through the in-process wire calls. With their
/// rewards they stay below the shipped 4,096-record log queue, so no call
/// waits on the writer.
const WIRE_REPLAY: u64 = 2048;
/// Decisions per block of the single-path serve replay (same bound).
const SERVE_BLOCK: u64 = 1024;
/// Timed blocks of the single-path serve replay, half of them traced.
const SERVE_BLOCKS: u64 = 8;
/// Batches the harvest attribution serves into an unbounded queue.
const ATTRIBUTION_BATCHES: u64 = 512;
/// Batches per run of the obs-on / obs-off harvest comparison.
const OBS_BATCHES: u64 = 512;
/// Repetitions of each read-side probe; the median is reported.
const READ_REPS: usize = 5;

/// The wire calls on a decision's blocking path, in order: span name and
/// the metric it feeds.
const WIRE_CALLS: [(&str, &str); 6] = [
    ("wire.encode_request", "wire.encode_request_us"),
    ("wire.decode_request", "wire.decode_request_us"),
    ("wire.admit", "wire.admit_us"),
    ("wire.process", "wire.process_us"),
    ("wire.encode_response", "wire.encode_response_us"),
    ("wire.decode_response", "wire.decode_response_us"),
];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median_us(samples: &[Duration]) -> f64 {
    median(&samples.iter().map(|&d| us(d)).collect::<Vec<_>>())
}

/// Durations in µs of the spans called `name` whose parent is called
/// `parent`, among spans recorded at or after index `from`.
fn child_durations(spans: &Spans, from: usize, name: &str, parent: &str) -> Vec<f64> {
    let all = spans.spans();
    all[from..]
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| all[p].name == parent))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn one(report: &mut Report, name: &'static str, unit: &'static str, v: f64) {
    report.metric(name, unit, Summary::single(v));
}

pub fn run(workload: &str, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(true);

    let mut bench = setup(args.seed, ServeConfig::default())?;
    let wire_calls = wire_replay(&mut bench, &mut spans, &mut report)?;
    let tcp_budget = Duration::from_secs(args.seconds.div_ceil(2).max(3));
    let run = drive_wire(&mut bench, tcp_budget, &mut spans, &mut report.ledger)?;
    report.check("wire_ledger_ok", run.wire.ledger_ok);
    let p50 = median(&run.latencies_us);
    let attributed: f64 = wire_calls.iter().sum();
    let transport = p50 - attributed;
    for ((_, metric), v) in WIRE_CALLS.iter().zip(&wire_calls) {
        one(&mut report, metric, "us", *v);
    }
    one(&mut report, "wire.transport_us", "us", transport);
    let w = &run.wire;
    one(
        &mut report,
        "wire.requests",
        "count",
        (w.decide_requests + w.batch_requests + w.reward_requests) as f64,
    );
    one(
        &mut report,
        "wire.shed",
        "count",
        (w.shed_total + w.rewards_shed) as f64,
    );
    one(
        &mut report,
        "wire.errored",
        "count",
        w.decisions_errored as f64,
    );
    one(
        &mut report,
        "wire_mixed.unattributed_share",
        "share",
        transport / p50,
    );

    serve_single(&mut bench, &mut spans, &mut report);
    let closed = bench.shutdown()?;
    settle_log(&closed, &mut report);

    let write_us = log_probes(&closed.eval_log, &mut spans, &mut report)?;
    read_side(&closed.inputs, &closed.eval_log, &mut spans, &mut report);
    harvest_attribution(args.seed, write_us, &mut spans, &mut report)?;
    obs_cost(args.seed, &mut report)?;

    let path =
        PathBuf::from("perfbench/out").join(format!("spans-{workload}-seed{}.jsonl", args.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        spans.spans().len(),
        path.display()
    );
    Ok(report)
}

/// Replays the `wire_mixed` request stream in process through each public
/// `proto` and `WireCore` call. Returns, per call in [`WIRE_CALLS`] order,
/// its time on one decision's blocking path: the decide's own call plus,
/// weighted by the share of decisions that follow a reward, the reward's.
fn wire_replay(
    bench: &mut Bench,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let core = WireCore::new(Arc::clone(&bench.svc), WireConfig::default());
    let mut conn = core.connect();
    let from = spans.spans().len();
    let mut seq = 0u64;
    let mut rewards = 0u64;
    let mut call = |spans: &mut Spans,
                    parent_name: &'static str,
                    rid: u64,
                    req: Request|
     -> Result<Response, String> {
        seq += 1;
        let parent = spans.open(parent_name, None, rid);
        let p = Some(parent);
        let frame = spans.time("wire.encode_request", p, rid, || encode_request(seq, &req));
        let (s, req, _) = spans
            .time("wire.decode_request", p, rid, || {
                decode_request_frame(&frame)
            })
            .map_err(|e| format!("request frame: {e}"))?;
        let admitted = spans.time("wire.admit", p, rid, || core.admit(&mut conn, s, req));
        let (s, resp) = match admitted {
            Admission::Enqueue(job) => spans.time("wire.process", p, rid, || core.process(job)),
            Admission::Reply(s, resp) => (s, resp),
        };
        let bytes = spans.time("wire.encode_response", p, rid, || encode_response(s, &resp));
        let resp = spans.time("wire.decode_response", p, rid, || {
            match decode_frame(&bytes) {
                Decoded::Frame { payload, .. } => decode_response_payload(&payload).ok(),
                _ => None,
            }
        });
        spans.close(parent);
        resp.ok_or_else(|| "undecodable response frame".to_string())
    };
    for _ in 0..WIRE_REPLAY {
        let i = bench.next;
        bench.next += 1;
        let now_ns = i * STEP_NS;
        let decide = Request::Decide {
            shard: 0,
            now_ns,
            budget_ns: 0,
            context: bench.inputs.context(i).clone(),
        };
        report.ledger.attempted += 1;
        let Response::Decision(d) = call(spans, "wire.decide", i, decide)? else {
            report.ledger.errored += 1;
            continue;
        };
        bench
            .harvester
            .expect(d.request_id, d.action as usize, d.propensity);
        if bench.inputs.rewarded(i) {
            rewards += 1;
            report.ledger.attempted += 1;
            let reward = Request::Reward {
                request_id: d.request_id,
                now_ns: now_ns + REWARD_DELAY_NS,
                reward: bench.inputs.reward(i, d.action as usize),
            };
            if !matches!(
                call(spans, "wire.reward", d.request_id, reward)?,
                Response::RewardAck { .. }
            ) {
                report.ledger.errored += 1;
            }
        }
    }
    let wire = core.metrics().snapshot();
    report.check("wire_replay_ledger_ok", wire.ledger_ok);
    drop(core);
    bench.harvest_round();
    let reward_share = rewards as f64 / WIRE_REPLAY as f64;
    Ok(WIRE_CALLS
        .iter()
        .map(|(name, _)| {
            let decide = median(&child_durations(spans, from, name, "wire.decide"));
            let reward = median(&child_durations(spans, from, name, "wire.reward"));
            decide + reward_share * reward
        })
        .collect())
}

/// The single-call serve path in blocks of alternating order (untraced,
/// traced, traced, untraced, ...), after one discarded warm block:
/// `serve.decide_us` from the traced blocks, and the tracing overhead as
/// the traced blocks' extra wall time over the untraced ones.
fn serve_single(bench: &mut Bench, spans: &mut Spans, report: &mut Report) {
    let mut off = Spans::new(false);
    let block = |bench: &mut Bench, recorder: &mut Spans| {
        let start = Instant::now();
        for _ in 0..SERVE_BLOCK {
            bench.serve_one(recorder);
        }
        let took = start.elapsed();
        bench.harvest_round();
        took
    };
    block(bench, &mut off);
    let from = spans.spans().len();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for b in 0..SERVE_BLOCKS {
        if matches!(b % 4, 0 | 3) {
            untraced.push(block(bench, &mut off));
        } else {
            traced.push(block(bench, spans));
        }
    }
    report.ledger.attempted += (SERVE_BLOCKS + 1) * SERVE_BLOCK;
    one(
        report,
        "serve.decide_us",
        "us",
        median(&spans.durations_us_since("serve.decide", from)),
    );
    let (u, t) = (median_us(&untraced), median_us(&traced));
    one(report, "trace.overhead_share", "share", (t - u) / u);
}

/// Frames the evaluation log's own records again — batch frames of 64 and
/// outcome frames, in log order — through the public log calls. Returns
/// `log.write_us`, per logical record.
fn log_probes(log: &[Vec<u8>], spans: &mut Spans, report: &mut Report) -> Result<f64, String> {
    let (flat, _) = recover_segments(log);
    let records = rebatch(flat);
    let logical: usize = records.iter().map(LogRecord::record_count).sum();
    let decisions: usize = records
        .iter()
        .filter(|r| !matches!(r, LogRecord::Outcome(_)))
        .map(LogRecord::record_count)
        .sum();
    let from = spans.spans().len();
    let mut frames = Vec::with_capacity(records.len());
    for r in &records {
        let frame = spans
            .time("log.encode_frame", None, r.request_id(), || encode_frame(r))
            .map_err(|e| format!("encode_frame: {e}"))?;
        frames.push(frame);
    }
    for (r, f) in records.iter().zip(&frames) {
        let crc = spans.time("log.crc32", None, r.request_id(), || {
            crc32(&f[FRAME_HEADER_LEN..])
        });
        std::hint::black_box(crc);
    }
    let mut writer = SegmentedLogWriter::new(MemorySegments::new(), SegmentConfig::default());
    for r in &records {
        spans
            .time("log.write", None, r.request_id(), || writer.write(r))
            .map_err(|e| format!("segment write: {e}"))?;
    }
    let total = |name| spans.durations_us_since(name, from).iter().sum::<f64>() / logical as f64;
    let write_us = total("log.write");
    one(
        report,
        "log.encode_frame_us",
        "us",
        total("log.encode_frame"),
    );
    one(report, "log.crc32_us", "us", total("log.crc32"));
    one(report, "log.write_us", "us", write_us);
    let bytes: usize = log.iter().map(Vec::len).sum();
    one(
        report,
        "log.bytes_per_decision",
        "B",
        bytes as f64 / decisions as f64,
    );
    Ok(write_us)
}

/// Regroups recovered decisions into the batch frames they were written as
/// (one logical instant each, at most 64); outcomes stay single frames.
fn rebatch(flat: Vec<LogRecord>) -> Vec<LogRecord> {
    let mut out: Vec<LogRecord> = Vec::new();
    for r in flat {
        match r {
            LogRecord::Decision(d) => {
                if let Some(LogRecord::Batch(b)) = out.last_mut() {
                    let same_instant = b.decisions[0].timestamp_ns == d.timestamp_ns;
                    if same_instant && b.decisions.len() < BATCH {
                        b.decisions.push(BatchDecision::from(d));
                        continue;
                    }
                }
                out.push(LogRecord::Batch(BatchRecord {
                    component: d.component.clone(),
                    decisions: vec![BatchDecision::from(d)],
                }));
            }
            other => out.push(other),
        }
    }
    out
}

/// The read side, phase by phase, against a sequential portfolio pass.
fn read_side(inputs: &Inputs, log: &[Vec<u8>], spans: &mut Spans, report: &mut Report) {
    let eval = inputs.evaluator(1);
    let mut recover = Vec::new();
    let mut join = Vec::new();
    let mut fold = Vec::new();
    let mut pass = Vec::new();
    let mut samples = Vec::new();
    let mut quarantined = 0;
    for _ in 0..READ_REPS {
        let recovered: Vec<_> = spans.time("log.recover", None, 0, || {
            log.iter().map(|s| recover_segment(s)).collect::<Vec<_>>()
        });
        recover.push(spans.last_us());
        quarantined = recovered
            .iter()
            .map(|(_, s)| s.quarantined_records)
            .sum::<usize>();
        samples = spans.time("log.join", None, 0, || {
            let mut index = OutcomeIndex::new();
            for (records, _) in &recovered {
                index.index(records);
            }
            recovered
                .iter()
                .flat_map(|(records, _)| scavenge_with_outcomes(records, &index).0)
                .collect::<Vec<_>>()
        });
        join.push(spans.last_us());
        let data = Dataset::from_samples(
            samples
                .iter()
                .cloned()
                .map(|s| s.with_propensity(1.0 / ACTIONS as f64))
                .collect::<Vec<LoggedDecision<SimpleContext>>>(),
        )
        .expect("scavenged samples are valid");
        let r = spans.time("estimators.fold", None, 0, || eval.evaluate_dataset(&data));
        std::hint::black_box(r);
        fold.push(spans.last_us());
        let r = spans.time("estimators.pass_sequential", None, 0, || {
            eval.evaluate_segments(log)
        });
        std::hint::black_box(r);
        pass.push(spans.last_us());
    }
    let (recover, join, fold, pass) = (
        median(&recover),
        median(&join),
        median(&fold),
        median(&pass),
    );
    let candidate_records = (samples.len() * CANDIDATES) as f64;
    one(report, "log.recover_us", "us", recover);
    one(report, "log.join_us", "us", join);
    one(report, "log.quarantined", "count", quarantined as f64);
    report.ledger.quarantined += quarantined as u64;
    one(
        report,
        "estimators.fold_ns_per_candidate",
        "ns",
        fold * 1e3 / candidate_records,
    );
    one(report, "estimators.pass_sequential_us", "us", pass);
    one(
        report,
        "evaluate_portfolio.unattributed_share",
        "share",
        1.0 - (recover + join + fold) / pass,
    );
    one(
        report,
        "core.score_ns",
        "ns",
        score_ns(&inputs.scorer, &samples, spans),
    );
}

/// Median cost of one `LinearScorer::score` call over the evaluation
/// log's contexts and every action.
fn score_ns(
    scorer: &LinearScorer,
    samples: &[harvest_log::scavenge::ScavengedSample],
    spans: &mut Spans,
) -> f64 {
    let calls = (samples.len() * ACTIONS) as f64;
    let reps: Vec<f64> = (0..READ_REPS)
        .map(|_| {
            let sum = spans.time("core.score", None, 0, || {
                let mut sum = 0.0;
                for s in samples {
                    for a in 0..ACTIONS {
                        sum += scorer.score(&s.context, a);
                    }
                }
                sum
            });
            std::hint::black_box(sum);
            spans.last_us() * 1e3 / calls
        })
        .collect();
    median(&reps)
}

/// The harvest path with a log queue larger than the run, so the producer
/// never blocks: the producer's per-call costs, and the writer's in-situ
/// cost per record as drain time over records written.
fn harvest_attribution(
    seed: u64,
    write_us: f64,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let logger = LoggerConfig::builder()
        .capacity(1 << 22)
        .backpressure(Backpressure::Block)
        .build();
    let cfg = ServeConfig::builder()
        .logger(logger)
        .build()
        .map_err(|e| e.to_string())?;
    let mut bench = setup(seed, cfg)?;
    let before = bench.svc.metrics();
    let from = spans.spans().len();
    let start = Instant::now();
    for _ in 0..ATTRIBUTION_BATCHES {
        bench.serve_batch(spans);
    }
    bench.drain();
    let drained = start.elapsed();
    let after = bench.svc.metrics();
    let decisions = ATTRIBUTION_BATCHES * BATCH as u64;
    report.ledger.attempted += decisions + after.join_hits - before.join_hits;

    let records = after.log_written - before.log_written;
    let writer_record_us = us(drained) / records as f64;
    let decide_batch = median(&spans.durations_us_since("serve.decide_batch", from)) / BATCH as f64;
    one(report, "serve.decide_batch_us", "us", decide_batch);
    one(
        report,
        "serve.reward_us",
        "us",
        median(&spans.durations_us_since("serve.reward", from)),
    );
    one(report, "log.writer_record_us", "us", writer_record_us);
    one(
        report,
        "serve.writer_overhead_us",
        "us",
        writer_record_us - write_us,
    );
    one(
        report,
        "harvest_lossless.unattributed_share",
        "share",
        1.0 - write_us / writer_record_us,
    );
    let obs = bench.svc.obs().ok_or("the shipped config has obs on")?;
    one(
        report,
        "obs.stage_journal_dropped",
        "count",
        obs.stage_journal_dropped() as f64,
    );
    let evicted = bench.svc.trace_audit().map_or(0, |a| a.evictions);
    one(report, "obs.trace_evicted", "count", evicted as f64);
    one(
        report,
        "serve.log_enqueued",
        "count",
        after.log_enqueued as f64,
    );
    one(
        report,
        "serve.log_written",
        "count",
        after.log_written as f64,
    );
    one(
        report,
        "serve.log_dropped",
        "count",
        after.log_dropped as f64,
    );
    one(report, "serve.join_hits", "count", after.join_hits as f64);
    one(
        report,
        "serve.timed_out_decisions",
        "count",
        after.timed_out_decisions as f64,
    );
    let closed = bench.shutdown()?;
    settle_log(&closed, report);
    Ok(())
}

/// Harvested decisions per second at the shipped queue capacity, with the
/// given observability config.
fn harvest_rate(seed: u64, obs: ObsConfig, report: &mut Report) -> Result<f64, String> {
    let cfg = ServeConfig::builder()
        .obs(obs)
        .build()
        .map_err(|e| e.to_string())?;
    let bench = setup(seed, cfg)?;
    let run = drive_harvest(bench, OBS_BATCHES, &mut Spans::new(false))?;
    report.ledger.attempted += OBS_BATCHES * BATCH as u64;
    settle_log(&run.closed, report);
    Ok(median(&run.round_rates))
}

/// One minus the obs-on harvest rate over the obs-off rate.
fn obs_cost(seed: u64, report: &mut Report) -> Result<(), String> {
    let on = harvest_rate(seed, ObsConfig::default(), report)?;
    let off = harvest_rate(seed, ObsConfig::builder().enabled(false).build(), report)?;
    one(report, "obs.cost_share", "share", 1.0 - on / off);
    Ok(())
}
