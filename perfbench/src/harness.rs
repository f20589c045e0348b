//! The service under test, its steady-state set-up, and the check of every
//! decision against the segments it was logged to.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harvest_log::record::LogRecord;
use harvest_log::{recover_segment, MemorySegments};
use harvest_serve::{
    Decision, DecisionBatch, DecisionService, JoinOutcome, ServeConfig, ServeMetrics, ServePolicy,
};

use crate::inputs::{fnv1a, Inputs, BATCH, FNV_OFFSET, REWARD_DELAY_NS, STEP_NS};
use crate::spans::Spans;
use crate::stats::Ledger;

pub type Svc = DecisionService<MemorySegments>;

/// Batches between two harvest rounds: 4,096 decisions.
pub const ROUND_BATCHES: u64 = 64;
/// Warm-up length in rounds: 69,632 decisions, past the 65,536-entry stage
/// journal and the 4,096-trace ring of the one engine shard.
const WARMUP_ROUNDS: u64 = 17;
/// Batches of decisions in the evaluation log: 4,096 decisions.
const EVAL_LOG_BATCHES: u64 = 64;

/// Checks recovered segments against what each caller was told, segment by
/// segment, so the benchmark never holds more than a round of log bytes.
pub struct Harvester {
    store: MemorySegments,
    /// Leading segments already checked and emptied.
    taken: usize,
    /// Served decisions not yet recovered: id → (action, propensity bits).
    expected: HashMap<u64, (usize, u64)>,
    pub recovered: u64,
    pub outcomes: u64,
    pub quarantined: u64,
    /// Recovered decisions whose action or propensity differs from the
    /// served one, or whose id was never served or is recovered twice.
    pub mismatched: u64,
    /// Fingerprint of the set-up log, which a seed fixes byte for byte.
    pub log_hash: u64,
    hashing: bool,
}

impl Harvester {
    fn new(store: MemorySegments) -> Harvester {
        Harvester {
            store,
            taken: 0,
            expected: HashMap::new(),
            recovered: 0,
            outcomes: 0,
            quarantined: 0,
            mismatched: 0,
            log_hash: FNV_OFFSET,
            hashing: false,
        }
    }

    pub fn expect(&mut self, request_id: u64, action: usize, propensity: f64) {
        if self
            .expected
            .insert(request_id, (action, propensity.to_bits()))
            .is_some()
        {
            self.mismatched += 1;
        }
    }

    /// Served decisions that no checked segment has carried yet.
    fn outstanding(&self) -> u64 {
        self.expected.len() as u64
    }

    fn check_segment(&mut self, bytes: &[u8]) {
        if self.hashing {
            self.log_hash = fnv1a(self.log_hash, bytes);
        }
        let (records, stats) = recover_segment(bytes);
        self.quarantined += stats.quarantined_records as u64;
        for record in records {
            match record {
                LogRecord::Decision(d) => {
                    let served = self.expected.remove(&d.request_id);
                    let logged = d.propensity.map(f64::to_bits);
                    match served {
                        Some((action, p)) if action == d.action && Some(p) == logged => {
                            self.recovered += 1
                        }
                        _ => self.mismatched += 1,
                    }
                }
                LogRecord::Outcome(_) => self.outcomes += 1,
                LogRecord::Batch(_) => unreachable!("recovery flattens batch frames"),
            }
        }
    }

    /// Checks and empties every sealed segment. Only call while the service
    /// is quiescent (no producer running, log backlog zero): the writer then
    /// appends nothing, and the segment list keeps its length so the writer
    /// carries on in its current, last segment.
    pub fn take_sealed(&mut self) {
        let mut segments = self.store.snapshot();
        let sealed = segments.len().saturating_sub(1);
        for segment in &mut segments[self.taken.min(sealed)..sealed] {
            let bytes = std::mem::take(segment);
            self.check_segment(&bytes);
        }
        self.taken = self.taken.max(sealed);
        self.store.replace_all(segments);
    }

    /// Checks everything left once the service has shut down.
    pub fn finish(&mut self, store: &MemorySegments) {
        let segments = store.snapshot();
        for segment in &segments[self.taken.min(segments.len())..] {
            self.check_segment(segment);
        }
        self.taken = segments.len();
    }

    /// Folds the log-side failures into `ledger`.
    pub fn settle(&self, ledger: &mut Ledger) {
        ledger.quarantined += self.quarantined;
        ledger.unrecovered += self.outstanding() + self.mismatched;
    }
}

/// A booted service with its inputs, driven in decision-index order.
pub struct Bench {
    pub inputs: Inputs,
    pub svc: Arc<Svc>,
    pub harvester: Harvester,
    /// Index of the next decision; its logical time is `next * STEP_NS`.
    pub next: u64,
    /// The evaluation log, written in set-up by a service of its own.
    pub eval_log: Vec<Vec<u8>>,
    /// Failed serve calls and reward joins.
    pub errored: u64,
    out: DecisionBatch,
}

impl Bench {
    /// Boots `cfg` and promotes the greedy incumbent, so every decide
    /// scores all actions.
    pub fn boot(inputs: Inputs, cfg: ServeConfig) -> Bench {
        let store = MemorySegments::new();
        let svc = DecisionService::new(cfg, store.clone());
        svc.registry().promote(
            ServePolicy::Greedy(inputs.scorer.clone()),
            "perfbench-incumbent",
        );
        Bench {
            inputs,
            svc: Arc::new(svc),
            harvester: Harvester::new(store),
            next: 0,
            eval_log: Vec::new(),
            errored: 0,
            out: DecisionBatch::with_capacity(BATCH),
        }
    }

    /// Serves the next batch of 64 on shard 0 and rewards all but the
    /// unrewarded share of it.
    pub fn serve_batch(&mut self, spans: &mut Spans) {
        let first = self.next;
        let now_ns = first * STEP_NS;
        let contexts = self.inputs.batch(first);
        let served = spans.time("serve.decide_batch", None, first, || {
            self.svc.decide_batch(0, now_ns, contexts, &mut self.out)
        });
        self.next += BATCH as u64;
        if served.is_err() {
            self.errored += BATCH as u64;
            return;
        }
        let out = std::mem::take(&mut self.out);
        for (k, d) in out.decisions().iter().enumerate() {
            self.settle(first + k as u64, now_ns, d, spans);
        }
        self.out = out;
    }

    /// Serves the next decision through the single-call path.
    pub fn serve_one(&mut self, spans: &mut Spans) {
        let i = self.next;
        self.next += 1;
        let now_ns = i * STEP_NS;
        let context = self.inputs.context(i);
        let served = spans.time("serve.decide", None, i, || {
            self.svc.decide(0, now_ns, context)
        });
        match served {
            Ok(d) => self.settle(i, now_ns, &d, spans),
            Err(_) => self.errored += 1,
        }
    }

    /// Records what decision `i` told its caller and sends its reward,
    /// unless it falls in the unrewarded share.
    fn settle(&mut self, i: u64, now_ns: u64, d: &Decision, spans: &mut Spans) {
        self.harvester.expect(d.request_id, d.action, d.propensity);
        if !self.inputs.rewarded(i) {
            return;
        }
        let reward = self.inputs.reward(i, d.action);
        let joined = spans.time("serve.reward", None, d.request_id, || {
            self.svc
                .reward(d.request_id, now_ns + REWARD_DELAY_NS, reward)
        });
        if joined != JoinOutcome::Joined {
            self.errored += 1;
        }
    }

    /// Waits until the writer has persisted everything enqueued.
    pub fn drain(&self) {
        while self.svc.metrics().log_backlog > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// One harvest round boundary: drain, then check the sealed segments.
    /// Returns the time spent checking, which callers keep off the clock.
    pub fn harvest_round(&mut self) -> Duration {
        self.drain();
        let start = Instant::now();
        self.harvester.take_sealed();
        start.elapsed()
    }

    /// Shuts the service down (every wire handle must be dropped first),
    /// which drains the writer, and checks the rest of the log.
    pub fn shutdown(self) -> Result<Closed, String> {
        let svc = Arc::try_unwrap(self.svc).map_err(|_| "a service handle outlived its users")?;
        let metrics = svc.metrics_handle();
        let store = svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let mut harvester = self.harvester;
        harvester.finish(&store);
        Ok(Closed {
            inputs: self.inputs,
            harvester,
            eval_log: self.eval_log,
            errored: self.errored,
            metrics,
        })
    }
}

/// What is left of a [`Bench`] after shutdown.
pub struct Closed {
    pub inputs: Inputs,
    pub harvester: Harvester,
    pub eval_log: Vec<Vec<u8>>,
    pub errored: u64,
    /// The service's counters, final once shutdown has drained the queue.
    pub metrics: Arc<ServeMetrics>,
}

/// Steady-state set-up shared by every workload: the evaluation log,
/// inputs, boot, and the warm-up past every bounded buffer.
pub fn setup(seed: u64, cfg: ServeConfig) -> Result<Bench, String> {
    let eval_log = write_eval_log(seed, cfg.clone())?;
    let mut bench = Bench::boot(Inputs::generate(seed), cfg);
    let mut spans = Spans::new(false);
    bench.harvester.hashing = true;
    for _ in 0..WARMUP_ROUNDS {
        for _ in 0..ROUND_BATCHES {
            bench.serve_batch(&mut spans);
        }
        bench.harvest_round();
    }
    bench.harvester.hashing = false;
    for segment in &eval_log {
        bench.harvester.log_hash = fnv1a(bench.harvester.log_hash, segment);
    }
    bench.eval_log = eval_log;
    if bench.errored > 0 {
        return Err(format!(
            "{} serve calls failed during set-up",
            bench.errored
        ));
    }
    check_steady(&bench.svc)?;
    Ok(bench)
}

/// A fresh service writes the evaluation log, so that every seed's log
/// holds exactly [`EVAL_LOG_BATCHES`] batches of decisions and their
/// rewards, starting on a segment boundary.
fn write_eval_log(seed: u64, cfg: ServeConfig) -> Result<Vec<Vec<u8>>, String> {
    let mut bench = Bench::boot(Inputs::generate(seed), cfg);
    let mut spans = Spans::new(false);
    for _ in 0..EVAL_LOG_BATCHES {
        bench.serve_batch(&mut spans);
    }
    let store = bench.harvester.store.clone();
    let closed = bench.shutdown()?;
    let mut ledger = Ledger::default();
    closed.harvester.settle(&mut ledger);
    if closed.errored + ledger.failed() > 0 {
        return Err("the evaluation log did not recover every decision".into());
    }
    let log = store.snapshot();
    if log.len() < 2 {
        return Err("the evaluation log spans fewer than two segments".into());
    }
    Ok(log)
}

/// Refuses to time a service whose bounded observability buffers are not
/// yet full: both defects the benchmark exists to expose only show once
/// the stage journal evicts and the trace ring wraps.
fn check_steady(svc: &Svc) -> Result<(), String> {
    let Some(obs) = svc.obs() else {
        return Ok(());
    };
    if obs.stage_journal_dropped() == 0 {
        return Err("timed phase would start below the stage-journal cap".into());
    }
    let evicted = svc.trace_audit().map_or(0, |a| a.evictions);
    if evicted == 0 {
        return Err("timed phase would start before the trace ring wrapped".into());
    }
    Ok(())
}
