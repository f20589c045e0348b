//! Seeded concurrency stress over the decision hot path.
//!
//! The hot path shares state across threads through per-shard mutexes, a
//! `RwLock`-guarded policy registry read through per-shard generation
//! caches, one FIFO log queue, and an atomic queue budget. This test
//! hammers all of them at once and then audits the books:
//!
//! * four workers serve singles and batches on their own shards while a
//!   **rogue** thread serves on shard 0 too, so one shard lock is
//!   contended the whole time;
//! * a promoter storms the registry with hot-swaps the whole time, so
//!   cached readers refresh across concurrent promotions;
//! * a chaos thread arms shard wedges mid-traffic, and a checkpointer
//!   concurrently snapshots shard states through the same locks;
//! * the writer thread drains the log queue underneath it all.
//!
//! When the dust settles, conservation must hold exactly: every decision
//! was offered to the log once (`log_enqueued == decisions`), nothing
//! vanished (`enqueued == written + dropped + quarantined`), the recovered
//! segment stream matches the written count, wedge recoveries reconcile
//! with the faults armed, and the registry generation equals the number of
//! promotions. CI runs this under `-C debug-assertions` in release mode so
//! the crates' `debug_assert!`s stay armed under optimized codegen.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use harvest::core::SimpleContext;
use harvest::logs::segment::MemorySegments;
use harvest::serve::{
    spawn_supervised_writer, Backpressure, DecisionBatch, DecisionEngine, EngineConfig,
    LoggerConfig, PolicyRegistry, ServeMetrics, ServePolicy, SupervisorConfig,
};

const SHARDS: usize = 4;
const AFFINE_DECISIONS: usize = 2_000; // per worker, singles + batches mixed
const ROGUE_DECISIONS: usize = 1_000;
const BATCH: usize = 8;
const PROMOTIONS: u64 = 200;
const WEDGES: usize = 64;
const ACTIONS: usize = 4;

struct Harness {
    engine: Arc<DecisionEngine>,
    registry: Arc<PolicyRegistry>,
    metrics: Arc<ServeMetrics>,
}

fn harness(backpressure: Backpressure, capacity: usize) -> (Harness, impl FnOnce() -> (u64, u64)) {
    let metrics = Arc::new(ServeMetrics::new());
    let registry = Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0"));
    let logger_cfg = LoggerConfig::builder()
        .capacity(capacity)
        .backpressure(backpressure)
        .build();
    let (logger, writer) = spawn_supervised_writer(
        logger_cfg,
        SupervisorConfig::default(),
        Arc::clone(&metrics),
        None,
        MemorySegments::new(),
    );
    let engine_cfg = EngineConfig::builder()
        .shards(SHARDS)
        .epsilon(0.2)
        .master_seed(42)
        .component("stress")
        .build()
        .unwrap();
    let engine = Arc::new(DecisionEngine::new(
        &engine_cfg,
        Arc::clone(&registry),
        Arc::clone(&metrics),
        logger,
    ));
    let finish = {
        let engine = Arc::clone(&engine);
        move || {
            drop(engine);
            let store = writer.finish().unwrap();
            let (records, stats) = store.recover();
            (records.len() as u64, stats.quarantined_records as u64)
        }
    };
    (
        Harness {
            engine,
            registry,
            metrics,
        },
        finish,
    )
}

/// Every thread class at once; exact conservation afterward.
fn run_storm(backpressure: Backpressure, capacity: usize) {
    let (h, finish) = harness(backpressure, capacity);
    let ctx = SimpleContext::new(vec![0.5, -0.25], ACTIONS);
    let contexts: Vec<SimpleContext> = (0..BATCH).map(|_| ctx.clone()).collect();
    let served = AtomicU64::new(0);
    let wedges_armed = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Shard-affine workers: the intended deployment, singles + batches.
        for t in 0..SHARDS {
            let engine = &h.engine;
            let ctx = &ctx;
            let contexts = &contexts;
            let served = &served;
            s.spawn(move || {
                let mut out = DecisionBatch::with_capacity(BATCH);
                let mut i = 0usize;
                let mut now = 0u64;
                while i < AFFINE_DECISIONS {
                    if i.is_multiple_of(7) && i + BATCH <= AFFINE_DECISIONS {
                        engine.decide_batch(t, now, contexts, &mut out).unwrap();
                        served.fetch_add(out.len() as u64, Ordering::Relaxed);
                        i += BATCH;
                    } else {
                        engine.decide(t, now, ctx).unwrap();
                        served.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                    now += 10;
                }
            });
        }
        // Rogue: serves on shard 0 the whole time — decide() must stay
        // correct under a contended shard lock.
        {
            let engine = &h.engine;
            let ctx = &ctx;
            let served = &served;
            s.spawn(move || {
                for i in 0..ROGUE_DECISIONS {
                    engine.decide(0, i as u64 * 3, ctx).unwrap();
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Promoter: hot-swap storm against the cached readers.
        {
            let registry = &h.registry;
            s.spawn(move || {
                for g in 1..=PROMOTIONS {
                    let got = registry.promote(ServePolicy::Uniform, format!("v{g}"));
                    assert_eq!(got, g, "promotions are strictly serialized");
                    std::thread::yield_now();
                }
            });
        }
        // Chaos: arm shard wedges mid-traffic.
        {
            let engine = &h.engine;
            let wedges_armed = &wedges_armed;
            let done = &done;
            s.spawn(move || {
                for i in 0..WEDGES {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    assert!(engine.poison_shard(i % SHARDS));
                    wedges_armed.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        // Checkpointer: concurrent shard-state snapshots through the cells.
        {
            let engine = &h.engine;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let states = engine.shard_states();
                    assert_eq!(states.len(), SHARDS);
                    std::thread::yield_now();
                }
            });
        }
        // Watcher: flips `done` once the fixed serving workloads finish, so
        // the open-ended chaos/checkpoint loopers stop and the scope joins.
        {
            let served = &served;
            let done = &done;
            let total = (SHARDS * AFFINE_DECISIONS + ROGUE_DECISIONS) as u64;
            s.spawn(move || {
                while served.load(Ordering::Relaxed) < total {
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Relaxed);
            });
        }
    });

    let total = (SHARDS * AFFINE_DECISIONS + ROGUE_DECISIONS) as u64;
    assert_eq!(served.load(Ordering::Relaxed), total);

    // Arm one final wedge and recover it through a normal decide, so the
    // wedge path is provably exercised regardless of scheduling.
    assert!(h.engine.poison_shard(1));
    let armed = wedges_armed.load(Ordering::Relaxed) + 1;
    h.engine.decide(1, u64::MAX / 2, &ctx).unwrap();
    let served_total = total + 1;

    // The writer drains until every producer hangs up, so *both* engine
    // handles must go: ours here, the closure's inside `finish`.
    drop(h.engine);
    let (recovered, quarantined_at_recovery) = finish();
    let s = h.metrics.snapshot();

    // Conservation, exactly: every decision offered once, nothing vanished.
    assert_eq!(s.decisions, served_total);
    assert_eq!(s.log_enqueued, s.decisions);
    assert_eq!(
        s.log_enqueued,
        s.log_written + s.log_dropped + s.log_quarantined,
        "ledger must balance once drained: {s:?}"
    );
    assert_eq!(s.log_backlog, 0);
    assert_eq!(
        recovered, s.log_written,
        "recovered stream == written count"
    );
    assert_eq!(quarantined_at_recovery, 0, "no torn frames were injected");

    // Wedge recoveries reconcile with the faults armed: every recovery is a
    // real wedge (multiple arms can collapse into one recovery, never the
    // reverse), the alias holds, and at least the hand-recovered one landed.
    assert!(
        s.shard_wedges >= 1,
        "the final armed wedge must be recovered"
    );
    assert!(
        s.shard_wedges <= armed,
        "recoveries ({}) exceed wedges armed ({armed})",
        s.shard_wedges
    );
    assert_eq!(
        s.lock_recoveries, s.shard_wedges,
        "legacy alias must track wedge recoveries one-for-one"
    );

    // The promotion storm is fully serialized through the registry lock.
    assert_eq!(h.registry.generation(), PROMOTIONS);
    assert_eq!(h.registry.swap_count(), PROMOTIONS);
}

#[test]
fn storm_with_blocking_backpressure_loses_nothing() {
    run_storm(Backpressure::Block, 128);
    // Block mode refuses nothing at the door; with a healthy writer the
    // whole stream persists. (Asserted inside run_storm via the ledger:
    // dropped can only be nonzero in DropNewest mode.)
}

#[test]
fn storm_with_drop_newest_sheds_measurably_not_silently() {
    run_storm(Backpressure::DropNewest, 32);
}
