//! The decision-log producer: one FIFO queue into the supervised writer.
//!
//! The decision path must never do file I/O, so producers push records
//! into a `LogQueue` and the supervised writer thread (see
//! [`supervisor`](crate::supervisor)) drains it into crash-safe log
//! segments ([`harvest_log::segment`]). The queue is a `VecDeque` behind
//! one mutex: the order in which pushes take that mutex is the order the
//! writer persists them, so for any deterministic call sequence the log is
//! byte-identical across runs. The record-weighted [`QueueBudget`] bound
//! forces an explicit [`Backpressure`] choice: block the decision path
//! until the writer catches up (lossless, adds latency) or drop the newest
//! record and count it (lossy, never stalls serving).
//!
//! Accounting invariant, checked by property and chaos tests: **every**
//! record offered to [`DecisionLogger::log`] is counted `enqueued`, and
//! once the pipeline drains, `enqueued == written + dropped + quarantined`.
//! No fault class — backpressure, writer crash, torn write, permanent
//! writer death — can make a record vanish from that ledger.
//!
//! [`QueueBudget`]: crate::admission::QueueBudget

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use harvest_log::record::LogRecord;
use harvest_log::segment::SegmentConfig;

// The queue bound lives in [`crate::admission`] (promoted to a shared
// admission primitive; the wire front-end bounds its in-flight work with
// the same type). The writer releases a frame's weight when it pops the
// frame — *before* persisting it, so an injected mid-write panic can never
// leak capacity and wedge Block-mode producers.
use crate::admission::QueueBudget;
use crate::metrics::ServeMetrics;

/// What to do when the log queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the caller until the writer frees a slot. No record is ever
    /// refused at the door, at the cost of decision latency under sustained
    /// overload. (A permanently-failed writer still discards — and counts —
    /// what it cannot persist, so blocking callers are never wedged.)
    Block,
    /// Drop the record being offered and bump the drop counter. Serving
    /// never stalls; the harvested dataset thins out instead.
    DropNewest,
}

/// Log queue and segment configuration.
///
/// Construct via [`LoggerConfig::builder`] or from
/// [`LoggerConfig::default`]; `#[non_exhaustive]`, so out-of-crate literal
/// construction no longer compiles.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct LoggerConfig {
    /// Queue capacity in **logical records**: a batch frame counts every
    /// decision it carries ([`LogRecord::record_count`]), so the bound —
    /// and the memory it implies — is the same whether producers log
    /// singles or batches.
    pub capacity: usize,
    /// Full-queue behavior.
    pub backpressure: Backpressure,
    /// Rotation thresholds for the crash-safe segments the writer emits.
    pub segment: SegmentConfig,
    /// Index of the first segment the writer creates. Zero for a fresh
    /// service; a warm restart sets it past the segments already on disk so
    /// the new incarnation appends instead of overwriting history.
    pub first_segment: u64,
}

impl Default for LoggerConfig {
    fn default() -> Self {
        LoggerConfig {
            capacity: 4096,
            backpressure: Backpressure::Block,
            segment: SegmentConfig::default(),
            first_segment: 0,
        }
    }
}

impl LoggerConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> LoggerConfigBuilder {
        LoggerConfigBuilder(LoggerConfig::default())
    }
}

/// Builder for [`LoggerConfig`].
#[derive(Debug, Clone)]
pub struct LoggerConfigBuilder(LoggerConfig);

impl LoggerConfigBuilder {
    /// Queue capacity in records.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.0.capacity = capacity;
        self
    }

    /// Full-queue behavior.
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.0.backpressure = backpressure;
        self
    }

    /// Segment rotation thresholds.
    pub fn segment(mut self, segment: SegmentConfig) -> Self {
        self.0.segment = segment;
        self
    }

    /// First segment index the writer creates (warm restarts resume past
    /// the segments already persisted).
    pub fn first_segment(mut self, first_segment: u64) -> Self {
        self.0.first_segment = first_segment;
        self
    }

    /// Returns the config.
    pub fn build(self) -> LoggerConfig {
        self.0
    }
}

/// The frames waiting for the writer, and whether anyone can still add
/// more.
#[derive(Debug)]
struct QueueState<T> {
    frames: VecDeque<T>,
    /// Live producer handles (all [`DecisionLogger`] clones share one).
    /// Zero means the writer can exit once `frames` is drained.
    producers: usize,
    /// The writer (the queue's only consumer) is parked on `ready`; the
    /// first push to see this set clears it and notifies.
    writer_parked: bool,
}

/// The FIFO log queue shared by every [`DecisionLogger`] clone and the
/// supervised writer. Unbounded by itself: producers hold a
/// [`QueueBudget`] reservation for every frame they push, and that budget
/// is the bound. Generic only so tests can queue probe values.
#[derive(Debug)]
pub(crate) struct LogQueue<T = LogRecord> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> LogQueue<T> {
    /// An empty queue with one logical producer.
    pub(crate) fn new() -> Self {
        LogQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                producers: 1,
                writer_parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // Nothing panics while the lock is held, and the state is valid
        // between any two statements, so a poisoned lock is taken back.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one admitted frame. The order in which pushes take the
    /// mutex is the order the writer pops them.
    pub(crate) fn push(&self, record: T) {
        let mut state = self.lock();
        state.frames.push_back(record);
        // Clearing the flag makes this the only push that wakes the writer
        // for this park; the pushes behind it skip the futex call.
        let wake = std::mem::take(&mut state.writer_parked);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Marks one logical producer gone; the last one wakes the writer so it
    /// can drain and exit.
    pub(crate) fn producer_gone(&self) {
        let mut state = self.lock();
        state.producers -= 1;
        if state.producers == 0 {
            self.ready.notify_all();
        }
    }

    /// Pops the oldest frame.
    ///
    /// With `block`, parks until a frame arrives and returns `None` only
    /// when every producer is gone and the queue is empty — the writer's
    /// clean-exit condition. Without `block`, returns `None` as soon as the
    /// queue is empty (the writer's batch-drain probe). The writer parks
    /// while holding the mutex producers push under, so no wakeup is lost.
    pub(crate) fn pop(&self, block: bool) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(record) = state.frames.pop_front() {
                return Some(record);
            }
            if !block || state.producers == 0 {
                return None;
            }
            state.writer_parked = true;
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            state.writer_parked = false;
        }
    }
}

/// Hang-up token: every [`DecisionLogger`] clone shares one; when the last
/// clone drops, the writer learns the producers are gone.
#[derive(Debug)]
struct ProducerToken {
    queue: Arc<LogQueue>,
}

impl Drop for ProducerToken {
    fn drop(&mut self) {
        self.queue.producer_gone();
    }
}

/// The producer half: cheap to clone, one per shard or caller thread.
#[derive(Debug, Clone)]
pub struct DecisionLogger {
    queue: Arc<LogQueue>,
    budget: Arc<QueueBudget>,
    backpressure: Backpressure,
    metrics: Arc<ServeMetrics>,
    _token: Arc<ProducerToken>,
}

impl DecisionLogger {
    /// Builds the producer half over an existing queue. Crate-internal:
    /// producers come from
    /// [`spawn_supervised_writer`](crate::supervisor::spawn_supervised_writer).
    pub(crate) fn new(
        queue: Arc<LogQueue>,
        budget: Arc<QueueBudget>,
        backpressure: Backpressure,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let token = Arc::new(ProducerToken {
            queue: Arc::clone(&queue),
        });
        DecisionLogger {
            queue,
            budget,
            backpressure,
            metrics,
            _token: token,
        }
    }

    /// Offers one record to the queue. Every offer counts as `enqueued` —
    /// scaled by [`LogRecord::record_count`], so a batch frame counts every
    /// decision it carries; offers refused by a full queue (under
    /// [`Backpressure::DropNewest`]) additionally count as `dropped` (again
    /// in logical records).
    ///
    /// Returns `true` when the record entered the queue, `false` when it
    /// was refused at the door — the caller-side signal the tracer needs
    /// to mark a shed decision terminal without waiting on the writer.
    pub fn log(&self, record: LogRecord) -> bool {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        match self.backpressure {
            Backpressure::Block => {
                self.budget.acquire_blocking(n);
                self.queue.push(record);
                true
            }
            Backpressure::DropNewest => {
                if !self.budget.try_acquire(n) {
                    self.metrics.record_dropped_n(n);
                    return false;
                }
                self.queue.push(record);
                true
            }
        }
    }

    /// Reserves capacity for an `n`-record frame *before* the frame is
    /// built. `true` means the frame is admitted and must be delivered via
    /// [`send_reserved`](DecisionLogger::send_reserved); `false` (only
    /// under [`Backpressure::DropNewest`]) means the frame is refused and
    /// the caller should account for it via
    /// [`refuse`](DecisionLogger::refuse) instead of building it at all.
    ///
    /// This is the batch path's admission control: a refused 256-decision
    /// frame costs one failed reservation, not 256 feature clones plus a
    /// record allocation that would be dropped at the door anyway.
    pub(crate) fn reserve(&self, n: u64) -> bool {
        match self.backpressure {
            Backpressure::Block => {
                self.budget.acquire_blocking(n);
                true
            }
            Backpressure::DropNewest => self.budget.try_acquire(n),
        }
    }

    /// Offers a frame whose capacity was reserved by
    /// [`reserve`](DecisionLogger::reserve). Counts `enqueued` exactly like
    /// [`log`](DecisionLogger::log); the reservation already holds the
    /// frame's place in the bound, so the push cannot be refused.
    pub(crate) fn send_reserved(&self, record: LogRecord) -> bool {
        let n = record.record_count() as u64;
        self.metrics.record_enqueued_n(n);
        self.queue.push(record);
        true
    }

    /// Accounts for an `n`-record frame refused by a failed
    /// [`reserve`](DecisionLogger::reserve): the conservation ledger counts
    /// it offered (`enqueued`) and shed (`dropped`), exactly as if the
    /// built frame had been offered to [`log`](DecisionLogger::log) and
    /// turned away at the door.
    pub(crate) fn refuse(&self, n: u64) {
        self.metrics.record_enqueued_n(n);
        self.metrics.record_dropped_n(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SEQ_BITS;
    use harvest_log::record::OutcomeRecord;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn outcome(shard: u64, seq: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: (shard << SEQ_BITS) | seq,
            timestamp_ns: seq,
            reward: 0.0,
        })
    }

    #[test]
    fn pops_are_fifo_across_shards() {
        let queue = LogQueue::new();
        // Interleave pushes across shards; the pop order must match the
        // push order exactly.
        let sequence: Vec<(u64, u64)> = (0..32).map(|i| (i % 4, i / 4)).collect();
        for &(shard, seq) in &sequence {
            queue.push(outcome(shard, seq));
        }
        queue.producer_gone();
        for &(shard, seq) in &sequence {
            assert_eq!(queue.pop(true), Some(outcome(shard, seq)));
        }
        assert_eq!(queue.pop(true), None);
    }

    #[test]
    fn blocking_pop_waits_for_a_late_producer() {
        let queue = Arc::new(LogQueue::new());
        let q2 = Arc::clone(&queue);
        let t = std::thread::spawn(move || {
            // Push only once the consumer is parked, so the wakeup is what
            // delivers the frame.
            while !q2.lock().writer_parked {
                std::thread::yield_now();
            }
            q2.push(outcome(1, 7));
            q2.producer_gone();
        });
        assert_eq!(queue.pop(true), Some(outcome(1, 7)));
        assert_eq!(queue.pop(true), None);
        t.join().unwrap();
    }

    #[test]
    fn nonblocking_pop_returns_none_when_idle() {
        let queue = LogQueue::new();
        assert_eq!(queue.pop(false), None);
        queue.push(outcome(0, 0));
        assert_eq!(queue.pop(false), Some(outcome(0, 0)));
        assert_eq!(queue.pop(false), None);
    }

    #[test]
    fn unpopped_records_are_dropped_with_the_queue() {
        let dropped = Arc::new(AtomicUsize::new(0));
        struct Bump(Arc<AtomicUsize>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let queue = LogQueue::new();
        for _ in 0..3 {
            queue.push(Bump(Arc::clone(&dropped)));
        }
        drop(queue.pop(false));
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
        drop(queue);
        assert_eq!(dropped.load(Ordering::SeqCst), 3);
    }
}
