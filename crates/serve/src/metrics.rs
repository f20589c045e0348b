//! Service health counters.
//!
//! Every counter is a relaxed atomic: the hot decision path pays one
//! `fetch_add` per event and never takes a lock. [`ServeMetrics::snapshot`]
//! reads them all at one instant into a plain struct with the derived rates
//! a dashboard would plot (exploration rate, join hit-rate, log backlog,
//! decision throughput).
//!
//! Time is *logical*: callers stamp decisions with their own monotonic
//! nanosecond clock (the simulators use [`harvest_sim_net::time::SimTime`]),
//! so throughput is decisions per logical second and the whole service stays
//! deterministic — no wall-clock reads anywhere in the decision path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::obs::ServeObs;

const RELAXED: Ordering = Ordering::Relaxed;

/// Shared atomic counters updated by the engine, logger, and joiner.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    decisions: AtomicU64,
    explorations: AtomicU64,
    log_enqueued: AtomicU64,
    log_written: AtomicU64,
    log_dropped: AtomicU64,
    join_hits: AtomicU64,
    join_duplicates: AtomicU64,
    join_late: AtomicU64,
    join_unknown: AtomicU64,
    timed_out_decisions: AtomicU64,
    swaps: AtomicU64,
    first_decision_ns: AtomicU64,
    last_decision_ns: AtomicU64,
    // Robustness counters: every fault the chaos harness can inject is
    // visible here, so "no silent data loss" is checkable from a snapshot.
    log_quarantined: AtomicU64,
    lock_recoveries: AtomicU64,
    /// Wedged shards recovered at acquisition — the successor of
    /// `lock_recoveries` for the shard-level chaos fault. Every wedge
    /// recovery also bumps `lock_recoveries`, so the breaker's fault signal
    /// and existing dashboards keep working unchanged.
    shard_wedges: AtomicU64,
    writer_restarts: AtomicU64,
    trainer_crashes: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_rearms: AtomicU64,
    degraded_decisions: AtomicU64,
    rewards_lost: AtomicU64,
    /// Requests refused by an admission layer *in front of* the service —
    /// wire-level rate limits, queue budgets, and deadline sheds. These
    /// never reach a shard or the log pipeline, so they are ledgered
    /// separately from `log_dropped`: the conservation law for the log
    /// stays `enqueued == written + dropped + quarantined`, and this
    /// counter extends it outward to cover work turned away at the door.
    admission_shed: AtomicU64,
    /// Watchdog alerts wired into the breaker's fault signal: each firing
    /// of a scope watchdog configured with `feed_breaker` bumps this once,
    /// so a sustained SLO burn can trip the breaker even when the raw
    /// fault counters alone would not.
    watchdog_faults: AtomicU64,
    // Durability counters: the warm-restart path is as observable as the
    // fault path — every checkpoint written or rejected, every record
    // replayed, every restart is counted.
    checkpoints_written: AtomicU64,
    checkpoints_discarded: AtomicU64,
    last_checkpoint_ns: AtomicU64,
    recovered_records: AtomicU64,
    replayed_joins: AtomicU64,
    segments_compacted: AtomicU64,
    restart_count: AtomicU64,
    /// Optional observability bundle (tracer + histograms). Riding inside
    /// the metrics handle means every component that already holds
    /// `Arc<ServeMetrics>` can emit trace events without new plumbing.
    obs: Option<Arc<ServeObs>>,
}

impl ServeMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServeMetrics {
            first_decision_ns: AtomicU64::new(u64::MAX),
            last_checkpoint_ns: AtomicU64::new(u64::MAX),
            ..ServeMetrics::default()
        }
    }

    /// Fresh counters carrying an observability bundle.
    pub fn with_obs(obs: Arc<ServeObs>) -> Self {
        ServeMetrics {
            obs: Some(obs),
            ..ServeMetrics::new()
        }
    }

    /// The observability bundle, if this service was built with one.
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// Records one decision at logical time `now_ns`.
    pub fn record_decision(&self, now_ns: u64, explored: bool) {
        self.decisions.fetch_add(1, RELAXED);
        if explored {
            self.explorations.fetch_add(1, RELAXED);
        }
        self.first_decision_ns.fetch_min(now_ns, RELAXED);
        self.last_decision_ns.fetch_max(now_ns, RELAXED);
    }

    /// Records `n` decisions sharing one logical stamp, of which
    /// `explorations` fired the exploration branch — the batched hot path's
    /// equivalent of `n` [`record_decision`](Self::record_decision) calls,
    /// paid as one pass over the atomics.
    pub fn record_decisions(&self, now_ns: u64, n: u64, explorations: u64) {
        if n == 0 {
            return;
        }
        self.decisions.fetch_add(n, RELAXED);
        if explorations > 0 {
            self.explorations.fetch_add(explorations, RELAXED);
        }
        self.first_decision_ns.fetch_min(now_ns, RELAXED);
        self.last_decision_ns.fetch_max(now_ns, RELAXED);
    }

    /// Records one record offered to the log pipeline. Every offer lands
    /// here; the pipeline's conservation law is
    /// `enqueued == written + dropped + quarantined` once drained.
    pub fn record_enqueued(&self) {
        self.log_enqueued.fetch_add(1, RELAXED);
    }

    /// Records `n` records offered to the log pipeline at once (a batch
    /// frame counts every decision it carries — the ledger is in logical
    /// records, not frames).
    pub fn record_enqueued_n(&self, n: u64) {
        self.log_enqueued.fetch_add(n, RELAXED);
    }

    /// Records one record persisted by the writer thread.
    pub fn record_written(&self) {
        self.log_written.fetch_add(1, RELAXED);
    }

    /// Records `n` records persisted at once (one batch frame).
    pub fn record_written_n(&self, n: u64) {
        self.log_written.fetch_add(n, RELAXED);
    }

    /// Records one record dropped: refused by backpressure, offered after
    /// shutdown, or discarded by a permanently-failed writer.
    pub fn record_dropped(&self) {
        self.log_dropped.fetch_add(1, RELAXED);
    }

    /// Records `n` records dropped at once (a refused batch frame drops
    /// every decision it carries).
    pub fn record_dropped_n(&self, n: u64) {
        self.log_dropped.fetch_add(n, RELAXED);
    }

    /// Records a reward joined to its decision within the TTL.
    pub fn record_join_hit(&self) {
        self.join_hits.fetch_add(1, RELAXED);
    }

    /// Records a reward for an already-joined decision.
    pub fn record_join_duplicate(&self) {
        self.join_duplicates.fetch_add(1, RELAXED);
    }

    /// Records a reward that arrived after its decision's TTL.
    pub fn record_join_late(&self) {
        self.join_late.fetch_add(1, RELAXED);
    }

    /// Records a reward whose decision was never tracked.
    pub fn record_join_unknown(&self) {
        self.join_unknown.fetch_add(1, RELAXED);
    }

    /// Records a tracked decision whose TTL lapsed with no reward.
    pub fn record_timed_out(&self) {
        self.timed_out_decisions.fetch_add(1, RELAXED);
    }

    /// Records one policy hot-swap.
    pub fn record_swap(&self) {
        self.swaps.fetch_add(1, RELAXED);
    }

    /// Records `n` log records lost to damage: a torn write, a failed
    /// append, or a frame quarantined by segment recovery.
    pub fn record_quarantined(&self, n: u64) {
        self.log_quarantined.fetch_add(n, RELAXED);
    }

    /// Records one poisoned lock recovered instead of propagating the panic.
    pub fn record_lock_recovery(&self) {
        self.lock_recoveries.fetch_add(1, RELAXED);
    }

    /// Records one wedged shard recovered at its next acquisition —
    /// the shard-level chaos fault that replaced lock poisoning. Bumps the
    /// legacy `lock_recoveries` alias too, so the circuit breaker's fault
    /// signal and existing dashboards see the fault without renaming.
    pub fn record_shard_wedge(&self) {
        self.shard_wedges.fetch_add(1, RELAXED);
        self.lock_recoveries.fetch_add(1, RELAXED);
    }

    /// Records one writer-thread restart by the supervisor.
    pub fn record_writer_restart(&self) {
        self.writer_restarts.fetch_add(1, RELAXED);
    }

    /// Records one trainer crash caught mid-fit.
    pub fn record_trainer_crash(&self) {
        self.trainer_crashes.fetch_add(1, RELAXED);
    }

    /// Records the circuit breaker opening (fall back to the safe policy).
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, RELAXED);
    }

    /// Records the circuit breaker re-arming after sustained health.
    pub fn record_breaker_rearm(&self) {
        self.breaker_rearms.fetch_add(1, RELAXED);
    }

    /// Records one decision served by the safe fallback policy.
    pub fn record_degraded(&self) {
        self.degraded_decisions.fetch_add(1, RELAXED);
    }

    /// Records `n` decisions served by the safe fallback policy.
    pub fn record_degraded_n(&self, n: u64) {
        if n > 0 {
            self.degraded_decisions.fetch_add(n, RELAXED);
        }
    }

    /// Records one reward delivery lost before reaching the joiner.
    pub fn record_reward_lost(&self) {
        self.rewards_lost.fetch_add(1, RELAXED);
    }

    /// Records `n` requests refused by a front-door admission layer (rate
    /// limit, queue budget, or deadline shed) before reaching a shard.
    pub fn record_admission_shed_n(&self, n: u64) {
        if n > 0 {
            self.admission_shed.fetch_add(n, RELAXED);
        }
    }

    /// Records one watchdog alert firing with `feed_breaker` set — folded
    /// into [`fault_signal`](Self::fault_signal) so the breaker sees it.
    pub fn record_watchdog_fault(&self) {
        self.watchdog_faults.fetch_add(1, RELAXED);
    }

    /// Records one control-plane checkpoint published at logical time
    /// `now_ns`; the stamp feeds the `checkpoint_age_ns` gauge.
    pub fn record_checkpoint(&self, now_ns: u64) {
        self.checkpoints_written.fetch_add(1, RELAXED);
        self.last_checkpoint_ns.store(now_ns, RELAXED);
    }

    /// Records `n` checkpoints rejected at recovery (torn, corrupt, or
    /// unparsable) before a valid one was found.
    pub fn record_checkpoints_discarded(&self, n: u64) {
        if n > 0 {
            self.checkpoints_discarded.fetch_add(n, RELAXED);
        }
    }

    /// Records `n` log records recovered from durable segments at startup.
    pub fn record_recovered_records(&self, n: u64) {
        if n > 0 {
            self.recovered_records.fetch_add(n, RELAXED);
        }
    }

    /// Records one outcome replayed into the joiner during warm restart.
    pub fn record_replayed_join(&self) {
        self.replayed_joins.fetch_add(1, RELAXED);
    }

    /// Records `n` cold segments folded into training shards by the
    /// lifecycle compactor.
    pub fn record_segments_compacted(&self, n: u64) {
        if n > 0 {
            self.segments_compacted.fetch_add(n, RELAXED);
        }
    }

    /// Records one warm restart (a service resumed from a checkpoint or
    /// rebuilt its state by full-log replay).
    pub fn record_restart(&self) {
        self.restart_count.fetch_add(1, RELAXED);
    }

    /// Exports the durable counters for the control-plane checkpoint.
    pub fn checkpoint_counters(&self) -> MetricsState {
        MetricsState {
            decisions: self.decisions.load(RELAXED),
            explorations: self.explorations.load(RELAXED),
            log_enqueued: self.log_enqueued.load(RELAXED),
            log_written: self.log_written.load(RELAXED),
            log_dropped: self.log_dropped.load(RELAXED),
            log_quarantined: self.log_quarantined.load(RELAXED),
            join_hits: self.join_hits.load(RELAXED),
            join_duplicates: self.join_duplicates.load(RELAXED),
            join_late: self.join_late.load(RELAXED),
            join_unknown: self.join_unknown.load(RELAXED),
            timed_out_decisions: self.timed_out_decisions.load(RELAXED),
            swaps: self.swaps.load(RELAXED),
            first_decision_ns: self.first_decision_ns.load(RELAXED),
            last_decision_ns: self.last_decision_ns.load(RELAXED),
            lock_recoveries: self.lock_recoveries.load(RELAXED),
            shard_wedges: self.shard_wedges.load(RELAXED),
            writer_restarts: self.writer_restarts.load(RELAXED),
            trainer_crashes: self.trainer_crashes.load(RELAXED),
            breaker_trips: self.breaker_trips.load(RELAXED),
            breaker_rearms: self.breaker_rearms.load(RELAXED),
            degraded_decisions: self.degraded_decisions.load(RELAXED),
            rewards_lost: self.rewards_lost.load(RELAXED),
            admission_shed: self.admission_shed.load(RELAXED),
            watchdog_faults: self.watchdog_faults.load(RELAXED),
            checkpoints_written: self.checkpoints_written.load(RELAXED),
            checkpoints_discarded: self.checkpoints_discarded.load(RELAXED),
            last_checkpoint_ns: self.last_checkpoint_ns.load(RELAXED),
            recovered_records: self.recovered_records.load(RELAXED),
            replayed_joins: self.replayed_joins.load(RELAXED),
            segments_compacted: self.segments_compacted.load(RELAXED),
            restart_count: self.restart_count.load(RELAXED),
        }
    }

    /// Restores checkpointed counters verbatim. The conservation ledger
    /// resumes exactly where the previous incarnation left it; replay then
    /// advances it for the post-checkpoint log suffix.
    pub fn restore_counters(&self, s: &MetricsState) {
        self.decisions.store(s.decisions, RELAXED);
        self.explorations.store(s.explorations, RELAXED);
        self.log_enqueued.store(s.log_enqueued, RELAXED);
        self.log_written.store(s.log_written, RELAXED);
        self.log_dropped.store(s.log_dropped, RELAXED);
        self.log_quarantined.store(s.log_quarantined, RELAXED);
        self.join_hits.store(s.join_hits, RELAXED);
        self.join_duplicates.store(s.join_duplicates, RELAXED);
        self.join_late.store(s.join_late, RELAXED);
        self.join_unknown.store(s.join_unknown, RELAXED);
        self.timed_out_decisions
            .store(s.timed_out_decisions, RELAXED);
        self.swaps.store(s.swaps, RELAXED);
        self.first_decision_ns.store(s.first_decision_ns, RELAXED);
        self.last_decision_ns.store(s.last_decision_ns, RELAXED);
        self.lock_recoveries.store(s.lock_recoveries, RELAXED);
        self.shard_wedges.store(s.shard_wedges, RELAXED);
        self.writer_restarts.store(s.writer_restarts, RELAXED);
        self.trainer_crashes.store(s.trainer_crashes, RELAXED);
        self.breaker_trips.store(s.breaker_trips, RELAXED);
        self.breaker_rearms.store(s.breaker_rearms, RELAXED);
        self.degraded_decisions.store(s.degraded_decisions, RELAXED);
        self.rewards_lost.store(s.rewards_lost, RELAXED);
        self.admission_shed.store(s.admission_shed, RELAXED);
        self.watchdog_faults.store(s.watchdog_faults, RELAXED);
        self.checkpoints_written
            .store(s.checkpoints_written, RELAXED);
        self.checkpoints_discarded
            .store(s.checkpoints_discarded, RELAXED);
        self.last_checkpoint_ns.store(s.last_checkpoint_ns, RELAXED);
        self.recovered_records.store(s.recovered_records, RELAXED);
        self.replayed_joins.store(s.replayed_joins, RELAXED);
        self.segments_compacted.store(s.segments_compacted, RELAXED);
        self.restart_count.store(s.restart_count, RELAXED);
    }

    /// The fault signal the circuit breaker watches: a monotone count of
    /// everything that indicates the log pipeline or trainer is degrading.
    /// Healthy operation keeps this flat; the breaker trips on its slope.
    pub fn fault_signal(&self) -> u64 {
        self.log_dropped.load(RELAXED)
            + self.log_quarantined.load(RELAXED)
            + self.lock_recoveries.load(RELAXED)
            + self.writer_restarts.load(RELAXED)
            + self.trainer_crashes.load(RELAXED)
            + self.watchdog_faults.load(RELAXED)
    }

    /// Reads every counter at one instant and derives the rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let decisions = self.decisions.load(RELAXED);
        let explorations = self.explorations.load(RELAXED);
        let enqueued = self.log_enqueued.load(RELAXED);
        let written = self.log_written.load(RELAXED);
        let dropped = self.log_dropped.load(RELAXED);
        let quarantined = self.log_quarantined.load(RELAXED);
        let hits = self.join_hits.load(RELAXED);
        let duplicates = self.join_duplicates.load(RELAXED);
        let late = self.join_late.load(RELAXED);
        let unknown = self.join_unknown.load(RELAXED);
        let attempts = hits + duplicates + late + unknown;
        let first = self.first_decision_ns.load(RELAXED);
        let last = self.last_decision_ns.load(RELAXED);
        let elapsed_s = if first == u64::MAX || last <= first {
            0.0
        } else {
            (last - first) as f64 / 1e9
        };
        MetricsSnapshot {
            decisions,
            explorations,
            exploration_rate: ratio(explorations, decisions),
            decisions_per_sec: if elapsed_s > 0.0 {
                decisions as f64 / elapsed_s
            } else {
                0.0
            },
            log_enqueued: enqueued,
            log_written: written,
            log_dropped: dropped,
            log_quarantined: quarantined,
            log_backlog: enqueued.saturating_sub(written + dropped + quarantined),
            join_hits: hits,
            join_duplicates: duplicates,
            join_late: late,
            join_unknown: unknown,
            join_hit_rate: ratio(hits, attempts),
            timed_out_decisions: self.timed_out_decisions.load(RELAXED),
            swaps: self.swaps.load(RELAXED),
            lock_recoveries: self.lock_recoveries.load(RELAXED),
            shard_wedges: self.shard_wedges.load(RELAXED),
            writer_restarts: self.writer_restarts.load(RELAXED),
            trainer_crashes: self.trainer_crashes.load(RELAXED),
            breaker_trips: self.breaker_trips.load(RELAXED),
            breaker_rearms: self.breaker_rearms.load(RELAXED),
            degraded_decisions: self.degraded_decisions.load(RELAXED),
            rewards_lost: self.rewards_lost.load(RELAXED),
            admission_shed: self.admission_shed.load(RELAXED),
            watchdog_faults: self.watchdog_faults.load(RELAXED),
            checkpoints_written: self.checkpoints_written.load(RELAXED),
            checkpoints_discarded: self.checkpoints_discarded.load(RELAXED),
            checkpoint_age_ns: {
                let ckpt = self.last_checkpoint_ns.load(RELAXED);
                if ckpt == u64::MAX {
                    0
                } else {
                    last.saturating_sub(ckpt)
                }
            },
            recovered_records: self.recovered_records.load(RELAXED),
            replayed_joins: self.replayed_joins.load(RELAXED),
            segments_compacted: self.segments_compacted.load(RELAXED),
            restart_count: self.restart_count.load(RELAXED),
        }
    }
}

/// Zero-guarded rate: an empty window yields 0.0, never NaN or ±inf.
/// Every derived rate in [`MetricsSnapshot`] goes through here (or the
/// equivalent `elapsed_s` guard), so an empty snapshot always serializes
/// finite numbers — exporters and dashboards never see a NaN.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A point-in-time reading of the service counters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Decisions served.
    pub decisions: u64,
    /// Decisions where the exploration branch fired.
    pub explorations: u64,
    /// `explorations / decisions`.
    pub exploration_rate: f64,
    /// Decisions per logical second (stamped-time span).
    pub decisions_per_sec: f64,
    /// Records offered to the log pipeline.
    pub log_enqueued: u64,
    /// Records persisted by the writer thread.
    pub log_written: u64,
    /// Records dropped: backpressure, post-shutdown offers, or a
    /// permanently-failed writer discarding its queue.
    pub log_dropped: u64,
    /// Records lost to damage — torn writes and failed appends — counted,
    /// never silently skipped.
    pub log_quarantined: u64,
    /// Records still queued: `enqueued − written − dropped − quarantined`.
    pub log_backlog: u64,
    /// Rewards joined within the TTL.
    pub join_hits: u64,
    /// Rewards for already-joined decisions.
    pub join_duplicates: u64,
    /// Rewards that arrived after the TTL.
    pub join_late: u64,
    /// Rewards whose decision was never tracked.
    pub join_unknown: u64,
    /// `hits / (hits + duplicates + late + unknown)`.
    pub join_hit_rate: f64,
    /// Tracked decisions whose TTL lapsed with no reward.
    pub timed_out_decisions: u64,
    /// Policy hot-swaps performed.
    pub swaps: u64,
    /// Shard-level chaos faults recovered instead of propagating: wedged
    /// shards (and, historically, poisoned locks). Every
    /// `shard_wedges` recovery is mirrored here, so this legacy counter
    /// keeps its meaning for dashboards and the breaker's fault signal.
    pub lock_recoveries: u64,
    /// Wedged shards recovered at acquisition — the successor of the
    /// poisoned-lock fault.
    pub shard_wedges: u64,
    /// Writer-thread restarts performed by the supervisor.
    pub writer_restarts: u64,
    /// Trainer crashes caught mid-fit.
    pub trainer_crashes: u64,
    /// Circuit-breaker trips (fall back to the safe policy).
    pub breaker_trips: u64,
    /// Circuit-breaker re-arms after sustained health.
    pub breaker_rearms: u64,
    /// Decisions served by the safe fallback policy while the breaker was
    /// open.
    pub degraded_decisions: u64,
    /// Reward deliveries lost before reaching the joiner.
    pub rewards_lost: u64,
    /// Requests refused by a front-door admission layer (wire rate limits,
    /// queue budgets, deadline sheds) before reaching a shard.
    pub admission_shed: u64,
    /// Watchdog alert firings wired into the breaker's fault signal
    /// (scope watchdogs configured with `feed_breaker`).
    pub watchdog_faults: u64,
    /// Control-plane checkpoints published.
    pub checkpoints_written: u64,
    /// Checkpoints rejected at recovery (torn, corrupt, or unparsable)
    /// before a valid one was found — counted, never silent.
    pub checkpoints_discarded: u64,
    /// Logical nanoseconds from the newest checkpoint to the newest
    /// decision — the replay exposure a crash right now would incur. Zero
    /// until the first checkpoint is published.
    pub checkpoint_age_ns: u64,
    /// Log records recovered from durable segments at startup.
    pub recovered_records: u64,
    /// Outcomes replayed into the joiner during warm restart.
    pub replayed_joins: u64,
    /// Cold segments folded into training shards by the lifecycle
    /// compactor.
    pub segments_compacted: u64,
    /// Warm restarts performed (resume from checkpoint or full-log replay).
    pub restart_count: u64,
}

/// The durable counter set carried inside a control-plane checkpoint: every
/// monotone counter (and the logical time stamps), excluding the derived
/// rates a snapshot computes on the fly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field-for-field mirror of the counters above
pub struct MetricsState {
    pub decisions: u64,
    pub explorations: u64,
    pub log_enqueued: u64,
    pub log_written: u64,
    pub log_dropped: u64,
    pub log_quarantined: u64,
    pub join_hits: u64,
    pub join_duplicates: u64,
    pub join_late: u64,
    pub join_unknown: u64,
    pub timed_out_decisions: u64,
    pub swaps: u64,
    pub first_decision_ns: u64,
    pub last_decision_ns: u64,
    pub lock_recoveries: u64,
    /// Missing from pre-wedge checkpoints; defaults to 0 on restore.
    #[serde(default)]
    pub shard_wedges: u64,
    pub writer_restarts: u64,
    pub trainer_crashes: u64,
    pub breaker_trips: u64,
    pub breaker_rearms: u64,
    pub degraded_decisions: u64,
    pub rewards_lost: u64,
    pub admission_shed: u64,
    /// Missing from pre-scope checkpoints; defaults to 0 on restore.
    #[serde(default)]
    pub watchdog_faults: u64,
    pub checkpoints_written: u64,
    pub checkpoints_discarded: u64,
    pub last_checkpoint_ns: u64,
    pub recovered_records: u64,
    pub replayed_joins: u64,
    pub segments_compacted: u64,
    pub restart_count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_rates() {
        let m = ServeMetrics::new();
        for i in 0..10 {
            m.record_decision(i * 1_000_000_000, i % 2 == 0);
        }
        m.record_enqueued();
        m.record_enqueued();
        m.record_written();
        m.record_join_hit();
        m.record_join_late();
        m.record_swap();
        let s = m.snapshot();
        assert_eq!(s.decisions, 10);
        assert_eq!(s.explorations, 5);
        assert!((s.exploration_rate - 0.5).abs() < 1e-12);
        // 10 decisions over 9 logical seconds.
        assert!((s.decisions_per_sec - 10.0 / 9.0).abs() < 1e-9);
        assert_eq!(s.log_backlog, 1);
        assert!((s.join_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.swaps, 1);
    }

    #[test]
    fn robustness_counters_flow_into_snapshot_and_fault_signal() {
        let m = ServeMetrics::new();
        m.record_enqueued();
        m.record_enqueued();
        m.record_enqueued();
        m.record_written();
        m.record_dropped();
        m.record_quarantined(1);
        m.record_lock_recovery();
        m.record_writer_restart();
        m.record_trainer_crash();
        m.record_breaker_trip();
        m.record_breaker_rearm();
        m.record_degraded();
        m.record_reward_lost();
        let s = m.snapshot();
        assert_eq!(s.log_quarantined, 1);
        assert_eq!(s.log_backlog, 0); // 3 enqueued = 1 written + 1 dropped + 1 quarantined
        assert_eq!(s.lock_recoveries, 1);
        assert_eq!(s.writer_restarts, 1);
        assert_eq!(s.trainer_crashes, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_rearms, 1);
        assert_eq!(s.degraded_decisions, 1);
        assert_eq!(s.rewards_lost, 1);
        // dropped + quarantined + lock recovery + restart + trainer crash.
        assert_eq!(m.fault_signal(), 5);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = ServeMetrics::new().snapshot();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.exploration_rate, 0.0);
        assert_eq!(s.decisions_per_sec, 0.0);
        assert_eq!(s.join_hit_rate, 0.0);
    }

    #[test]
    fn empty_snapshot_serializes_finite_numbers() {
        // Zero denominators everywhere: every derived rate must still be a
        // finite number, and the JSON must carry no NaN/inf tokens.
        let s = ServeMetrics::new().snapshot();
        for (name, v) in [
            ("exploration_rate", s.exploration_rate),
            ("decisions_per_sec", s.decisions_per_sec),
            ("join_hit_rate", s.join_hit_rate),
        ] {
            assert!(v.is_finite(), "{name} must be finite on empty metrics");
        }
        let json = serde_json::to_string(&s).expect("snapshot serializes");
        for token in ["NaN", "nan", "inf", "Infinity"] {
            assert!(
                !json.contains(token),
                "empty snapshot leaked `{token}`: {json}"
            );
        }
    }

    #[test]
    fn counters_round_trip_through_checkpoint_state() {
        let m = ServeMetrics::new();
        for i in 0..7 {
            m.record_decision(i * 1000, i % 3 == 0);
        }
        m.record_enqueued_n(7);
        m.record_written_n(6);
        m.record_dropped();
        m.record_join_hit();
        m.record_checkpoint(5000);
        m.record_recovered_records(6);
        m.record_replayed_join();
        m.record_segments_compacted(2);
        m.record_restart();
        m.record_checkpoints_discarded(1);
        let state = m.checkpoint_counters();
        let restored = ServeMetrics::new();
        restored.restore_counters(&state);
        assert_eq!(restored.checkpoint_counters(), state);
        assert_eq!(restored.snapshot(), m.snapshot());
        let s = restored.snapshot();
        assert_eq!(s.checkpoints_written, 1);
        assert_eq!(s.checkpoints_discarded, 1);
        assert_eq!(s.checkpoint_age_ns, 1000); // last decision 6000, ckpt 5000
        assert_eq!(s.recovered_records, 6);
        assert_eq!(s.replayed_joins, 1);
        assert_eq!(s.segments_compacted, 2);
        assert_eq!(s.restart_count, 1);
    }

    #[test]
    fn checkpoint_age_is_zero_before_the_first_checkpoint() {
        let m = ServeMetrics::new();
        m.record_decision(9999, false);
        assert_eq!(m.snapshot().checkpoint_age_ns, 0);
    }

    #[test]
    fn with_obs_carries_the_bundle() {
        use crate::obs::{ObsConfig, ServeObs};
        let m = ServeMetrics::with_obs(Arc::new(ServeObs::new(&ObsConfig::default())));
        assert!(m.obs().is_some());
        assert!(ServeMetrics::new().obs().is_none());
    }
}
