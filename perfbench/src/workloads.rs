//! The three untraced workloads. Each returns its end-to-end metrics, its
//! failure ledger and its named correctness checks.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harvest_serve::ServeConfig;
use harvest_wire::{
    Connection, Request, Response, TcpClient, TcpServer, WireConfig, WireCore, WireJoinOutcome,
    WireSnapshot,
};

use crate::harness::{setup, Bench, Closed, ROUND_BATCHES};
use crate::inputs::{fnv1a, Inputs, BATCH, FNV_OFFSET, REWARD_DELAY_NS, STEP_NS};
use crate::spans::Spans;
use crate::stats::{median, windowed_percentile, Ledger, Summary};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `harvest_lossless` serves this many decisions per second of `--seconds`:
/// a fixed input size, so a faster writer shortens the run instead of
/// growing the log, the joiner and the process.
const HARVEST_DECISIONS_PER_SECOND: u64 = 16_384;
/// Single decisions between two harvest rounds on `wire_mixed`.
const WIRE_ROUND: u64 = ROUND_BATCHES * BATCH as u64;
/// Portfolio passes over the evaluation log before a serving workload's
/// timed phase.
const EVAL_PASSES: usize = 100;
/// Consecutive operations per latency window: the fewest for which p90
/// still has ten samples beyond it.
const LATENCY_WINDOW: usize = 100;

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub started: Instant,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub checks: Vec<(&'static str, bool)>,
    /// Provenance and fingerprints printed beside the metrics.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, summary: Summary) {
        self.metrics.push(Metric {
            name,
            unit,
            summary,
        });
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
            && self.ledger.attempted > 0
            && self.ledger.failed() == 0
    }
}

/// Runs the shared set-up [`SETUPS`] times, keeping the last service; the
/// first repetition is timed from process start.
fn setups(args: &Args, report: &mut Report) -> Result<Bench, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Bench> = None;
    for r in 0..SETUPS {
        let start = if r == 0 { args.started } else { Instant::now() };
        let bench = setup(args.seed, ServeConfig::default())?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(bench) {
            let old = old.shutdown()?;
            let mut ledger = Ledger::default();
            old.harvester.settle(&mut ledger);
            report.check("discarded_setup_recovered", ledger.failed() == 0);
        }
    }
    report.metric("setup_s", "s", Summary::of(&times));
    let bench = kept.expect("at least one set-up");
    report.facts.push((
        "setup_log_fnv1a",
        format!("{:016x}", bench.harvester.log_hash),
    ));
    Ok(bench)
}

/// Log-side checks after shutdown: the lossless ledger and the recovery of
/// every served decision with the propensity its caller received.
pub fn settle_log(closed: &Closed, report: &mut Report) {
    let m = closed.metrics.snapshot();
    report.check("log_enqueued_eq_written", m.log_enqueued == m.log_written);
    report.ledger.dropped += m.log_dropped;
    report.ledger.quarantined += m.log_quarantined;
    report.ledger.errored += closed.errored;
    closed.harvester.settle(&mut report.ledger);
    report.check(
        "outcomes_recovered_eq_join_hits",
        closed.harvester.outcomes == m.join_hits,
    );
}

/// Timed portfolio passes (k = 16, `parallelism` = nproc) over `log`
/// while `more(passes so far, timed so far)` holds. Each report must match
/// the first byte for byte, and a sequential pass must match too. Returns
/// each pass's wall time and the decisions evaluated in all of them.
fn portfolio_passes(
    inputs: &Inputs,
    log: &[Vec<u8>],
    report: &mut Report,
    more: impl Fn(usize, Duration) -> bool,
) -> (Vec<f64>, u64) {
    let eval = inputs.evaluator(nproc());
    let mut passes = Vec::new();
    let mut decisions = 0;
    let mut first: Option<String> = None;
    let mut clock = Clock::start();
    while more(passes.len(), clock.timed()) {
        let start = Instant::now();
        let (r, stats) = eval.evaluate_segments(log);
        passes.push(start.elapsed().as_secs_f64());
        let checking = Instant::now();
        report.ledger.attempted += 1;
        report.ledger.quarantined += stats.quarantined_records as u64;
        decisions += (r.n + r.skipped) as u64;
        let json = r.to_json();
        if first.get_or_insert_with(|| json.clone()) != &json {
            report.ledger.errored += 1;
        }
        clock.paused += checking.elapsed();
    }
    let first = first.unwrap_or_default();
    let sequential = inputs.evaluator(1).evaluate_segments(log).0.to_json();
    report.check("eval_parallelism_1_matches_nproc", sequential == first);
    report.facts.push((
        "report_fnv1a",
        format!("{:016x}", fnv1a(FNV_OFFSET, first.as_bytes())),
    ));
    (passes, decisions)
}

/// `eval_pass_s` for a serving workload: passes over the evaluation log
/// right after set-up, in the process state `evaluate_portfolio` times
/// them in.
fn eval_passes(bench: &Bench, report: &mut Report) {
    let (passes, _) = portfolio_passes(&bench.inputs, &bench.eval_log, report, |n, _| {
        n < EVAL_PASSES
    });
    report.metric("eval_pass_s", "s", Summary::of(&passes));
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `latency_p50_us` and `latency_p90_us`: each percentile per window of
/// [`LATENCY_WINDOW`] consecutive operations, median across windows.
pub fn latency_metrics(samples_us: &[f64], report: &mut Report) -> Result<(), String> {
    report
        .facts
        .push(("latency_samples", samples_us.len().to_string()));
    report.facts.push((
        "latency_windows",
        (samples_us.len() / LATENCY_WINDOW).to_string(),
    ));
    for (name, p) in [("latency_p50_us", 50.0), ("latency_p90_us", 90.0)] {
        let v = windowed_percentile(samples_us, p, LATENCY_WINDOW).ok_or_else(|| {
            format!(
                "{} samples cannot support {name}: it needs a window of {LATENCY_WINDOW}",
                samples_us.len()
            )
        })?;
        report.metric(
            name,
            "us",
            Summary {
                min: v,
                median: v,
                max: v,
                n: samples_us.len(),
            },
        );
    }
    Ok(())
}

/// Books one reward ack: it must answer a reward in flight and report a join.
fn settle_ack(seq: u64, resp: Response, acks_due: &mut HashSet<u64>, ledger: &mut Ledger) {
    let joined = matches!(
        resp,
        Response::RewardAck {
            outcome: WireJoinOutcome::Joined,
            ..
        }
    );
    if !(acks_due.remove(&seq) && joined) {
        ledger.errored += 1;
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A timed phase's clock: wall time since `start`, minus the harvest-round
/// checks kept off it.
pub struct Clock {
    start: Instant,
    paused: Duration,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    pub fn timed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }
}

/// What a wire closed loop leaves behind once its server has stopped.
pub struct WireRun {
    pub latencies_us: Vec<f64>,
    pub wire: WireSnapshot,
    pub clock: Clock,
}

/// One TCP connection, one client thread, a closed loop of single decides
/// for `budget`; each decision's reward goes out at once, its ack collected
/// as it comes. Stops the server before returning; the caller shuts the
/// service down and so closes the clock.
pub fn drive_wire(
    bench: &mut Bench,
    budget: Duration,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Result<WireRun, String> {
    let core = Arc::new(WireCore::new(Arc::clone(&bench.svc), WireConfig::default()));
    let server = TcpServer::bind(Arc::clone(&core), "127.0.0.1:0", 1)
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut client =
        TcpClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let io = |e: std::io::Error| format!("wire i/o: {e}");
    let first = bench.next;
    let mut latencies_us = Vec::new();
    let mut acks_due: HashSet<u64> = HashSet::new();
    let mut clock = Clock::start();
    while clock.timed() < budget {
        let i = bench.next;
        bench.next += 1;
        let now_ns = i * STEP_NS;
        let decide = Request::Decide {
            shard: 0,
            now_ns,
            budget_ns: 0,
            context: bench.inputs.context(i).clone(),
        };
        ledger.attempted += 1;
        let parent = spans.open("client.decide", None, i);
        let sent = Instant::now();
        let seq = spans
            .time("client.send", Some(parent), i, || client.send(&decide))
            .map_err(io)?;
        let resp = loop {
            let (s, resp) = spans
                .time("client.recv", Some(parent), i, || client.recv())
                .map_err(io)?;
            if s == seq {
                break resp;
            }
            settle_ack(s, resp, &mut acks_due, ledger);
        };
        latencies_us.push(us(sent.elapsed()));
        spans.close(parent);
        match resp {
            Response::Decision(d) => {
                bench
                    .harvester
                    .expect(d.request_id, d.action as usize, d.propensity);
                if bench.inputs.rewarded(i) {
                    ledger.attempted += 1;
                    let reward = Request::Reward {
                        request_id: d.request_id,
                        now_ns: now_ns + REWARD_DELAY_NS,
                        reward: bench.inputs.reward(i, d.action as usize),
                    };
                    let seq = spans
                        .time("client.send", None, d.request_id, || client.send(&reward))
                        .map_err(io)?;
                    acks_due.insert(seq);
                }
            }
            Response::Shed { .. } => ledger.shed += 1,
            _ => ledger.errored += 1,
        }
        if (i + 1 - first).is_multiple_of(WIRE_ROUND) {
            while !acks_due.is_empty() {
                let (s, resp) = client.recv().map_err(io)?;
                settle_ack(s, resp, &mut acks_due, ledger);
            }
            clock.paused += bench.harvest_round();
        }
    }
    while !acks_due.is_empty() {
        let (s, resp) = client.recv().map_err(io)?;
        settle_ack(s, resp, &mut acks_due, ledger);
    }
    drop(client);
    server.shutdown();
    let wire = core.metrics().snapshot();
    ledger.protocol += wire.frames_corrupt + wire.protocol_errors;
    Ok(WireRun {
        latencies_us,
        wire,
        clock,
    })
}

pub fn wire_mixed(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut bench = setups(args, &mut report)?;
    let setup_decisions = bench.next;
    let mut spans = Spans::new(false);
    let budget = Duration::from_secs(args.seconds);
    eval_passes(&bench, &mut report);
    let run = drive_wire(&mut bench, budget, &mut spans, &mut report.ledger)?;
    let closed = bench.shutdown()?;
    let timed = run.clock.timed();

    report.check("wire_ledger_ok", run.wire.ledger_ok);
    settle_log(&closed, &mut report);
    let harvested = closed.harvester.recovered.saturating_sub(setup_decisions);
    report.metric(
        "harvested_per_s",
        "1/s",
        Summary::single(harvested as f64 / timed.as_secs_f64()),
    );
    latency_metrics(&run.latencies_us, &mut report)?;
    Ok(report)
}

/// A harvest phase, closed by the service's shutdown.
pub struct HarvestRun {
    /// Each batch cycle's latency: `decide_batch` and the batch's rewards,
    /// backpressure waits included.
    pub latencies_us: Vec<f64>,
    /// Decisions per second of each harvest round, from its first call to
    /// its drained backlog (the last round: to `shutdown()` returning).
    pub round_rates: Vec<f64>,
    pub closed: Closed,
}

/// Serves `batches` batches of 64 plus their rewards, with a harvest round
/// every [`ROUND_BATCHES`], then shuts the service down.
pub fn drive_harvest(
    mut bench: Bench,
    batches: u64,
    spans: &mut Spans,
) -> Result<HarvestRun, String> {
    let mut latencies_us = Vec::with_capacity(batches as usize);
    let mut round_rates = Vec::new();
    let mut round = Instant::now();
    let mut served = 0;
    for b in 1..=batches {
        let cycle = Instant::now();
        bench.serve_batch(spans);
        latencies_us.push(us(cycle.elapsed()));
        served += BATCH as u64;
        if b % ROUND_BATCHES == 0 && b < batches {
            bench.drain();
            round_rates.push(served as f64 / round.elapsed().as_secs_f64());
            bench.harvest_round();
            round = Instant::now();
            served = 0;
        }
    }
    let closed = bench.shutdown()?;
    round_rates.push(served as f64 / round.elapsed().as_secs_f64());
    Ok(HarvestRun {
        latencies_us,
        round_rates,
        closed,
    })
}

/// In process: one producer, one shard, `decide_batch` of 64 plus rewards,
/// lossless `Block` backpressure at the shipped queue capacity.
pub fn harvest_lossless(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let bench = setups(args, &mut report)?;
    let setup_decisions = bench.next;
    let batches = args.seconds * HARVEST_DECISIONS_PER_SECOND / BATCH as u64;
    eval_passes(&bench, &mut report);
    let run = drive_harvest(bench, batches, &mut Spans::new(false))?;
    let closed = run.closed;

    let decisions = batches * BATCH as u64;
    let rewards = (setup_decisions..setup_decisions + decisions)
        .filter(|&i| closed.inputs.rewarded(i))
        .count() as u64;
    report.ledger.attempted += decisions + rewards;
    settle_log(&closed, &mut report);
    report.metric("harvested_per_s", "1/s", Summary::of(&run.round_rates));
    latency_metrics(&run.latencies_us, &mut report)?;
    Ok(report)
}

/// Repeated portfolio passes over the evaluation log written in set-up.
pub fn evaluate_portfolio(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let bench = setups(args, &mut report)?;
    let budget = Duration::from_secs(args.seconds);
    let (passes, decisions) =
        portfolio_passes(&bench.inputs, &bench.eval_log, &mut report, |_, t| {
            t < budget
        });
    let closed = bench.shutdown()?;
    settle_log(&closed, &mut report);

    let per_pass = decisions as f64 / passes.len() as f64;
    report.metric(
        "harvested_per_s",
        "1/s",
        Summary::single(per_pass / median(&passes)),
    );
    let passes_us: Vec<f64> = passes.iter().map(|p| p * 1e6).collect();
    latency_metrics(&passes_us, &mut report)?;
    report.metric("eval_pass_s", "s", Summary::of(&passes));
    Ok(report)
}
