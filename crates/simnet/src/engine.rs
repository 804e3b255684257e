//! The discrete-event scheduler.
//!
//! A single-threaded, deterministic event loop: events are (time, sequence)
//! ordered; ties break by insertion order so identical seeds replay
//! identically. The engine is generic over the event payload — the IPFS
//! layer defines its own event enum (message deliveries, timer fires, churn
//! transitions) and a handler callback.
//!
//! [`EventQueue`] runs on a hierarchical timing wheel
//! (hashed-and-hierarchical, calendar-queue style): [`LEVELS`] levels of
//! [`SLOTS`] slots each, ~1.05 ms granularity at level 0, each level 256×
//! coarser (level 0 spans ~0.27 s, level 1 ~69 s, level 2 ~4.9 h, level 3
//! ~52 days … level 5 the whole `u64` nanosecond range). `schedule` is
//! O(1); `pop` amortizes slot drains and cascades over the events they
//! move. Dispatch order is **exactly** the reference `(time, seq)` order:
//! a drained level-0 slot is sorted before it reaches the ready buffer,
//! and coarser slots cascade down before anything inside them can fire.
//!
//! The original binary-heap scheduler survives only in test builds, as the
//! oracle the wheel is property-tested against: the tests below run every
//! queue program on both and require identical pop sequences.
//!
//! [`EventQueue::schedule_cancellable`] returns a [`TimerId`] that can be
//! O(1)-cancelled later: the entry is tombstoned and physically removed
//! whenever the scheduler would next surface it. Sequence numbers are never
//! reused, so a `TimerId` is immune to ABA confusion — cancelling an
//! already-fired timer is a no-op that returns `false`.

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashSet, VecDeque};

/// An event queued for a future instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub at: SimTime,
    /// Insertion sequence number (tie-breaker, FIFO within an instant).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Handle to a pending cancellable timer (see
/// [`EventQueue::schedule_cancellable`]). Wraps the event's unique sequence
/// number, which doubles as a generation stamp: seqs are never reused, so a
/// stale handle can never cancel a different timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Which scheduler backs an [`EventQueue`]. Only the timing wheel ships;
/// test builds add the heap oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Reference `BinaryHeap` scheduler (O(log n) schedule/pop), the test
    /// oracle.
    #[cfg(test)]
    Heap,
    /// Hierarchical timing wheel (O(1) schedule, amortized pop).
    Wheel,
}

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// log2 of the level-0 slot width in nanoseconds (2^20 ns ≈ 1.05 ms).
const GRANULARITY_BITS: u32 = 20;
/// Wheel levels. Level 5 shifts by 60 bits, so its 16 in-range slots cover
/// every representable `u64` instant — insertion can never fall off the end.
const LEVELS: usize = 6;

/// Bit shift turning an instant into an absolute slot number at `level`.
const fn level_shift(level: usize) -> u32 {
    GRANULARITY_BITS + SLOT_BITS * level as u32
}

/// One wheel level: 256 slots plus an occupancy bitmap for O(words) scans.
#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<ScheduledEvent<E>>>,
    occupied: [u64; SLOTS / 64],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level { slots: (0..SLOTS).map(|_| Vec::new()).collect(), occupied: [0; SLOTS / 64] }
    }

    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    fn is_empty(&self) -> bool {
        self.occupied.iter().all(|w| *w == 0)
    }

    /// First occupied slot index scanning circularly from `from`.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let word0 = from / 64;
        let bit0 = from % 64;
        for i in 0..=words {
            let w = (word0 + i) % words;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0u64 << bit0; // only slots >= from
            } else if i == words {
                bits &= !(!0u64 << bit0); // wrapped: only slots < from
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Hierarchical timing wheel preserving exact `(at, seq)` dispatch order.
///
/// Invariants:
/// * every event stored in `levels` has `at >= drained_until`;
/// * `ready` holds events with `at < drained_until`, sorted by `(at, seq)`;
/// * `drained_until` is always a multiple of the level-0 slot width, and
///   only ever grows.
///
/// An event's level is the smallest `k` with
/// `(at >> shift_k) - (drained_until >> shift_k) < SLOTS`; that window makes
/// the masked slot index ↔ absolute slot mapping bijective at read time
/// (absolute slots at level `k` always lie in `[pos_k, pos_k + SLOTS - 1]`
/// where `pos_k = drained_until >> shift_k`), so no epoch tags are needed.
#[derive(Debug)]
struct TimerWheel<E> {
    levels: Vec<Level<E>>,
    /// Events already pulled below `drained_until`, in dispatch order.
    ready: VecDeque<ScheduledEvent<E>>,
    /// Nanosecond boundary: see type-level invariants.
    drained_until: u64,
    /// Events currently stored in `levels` (excludes `ready`).
    in_levels: usize,
}

impl<E> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            ready: VecDeque::new(),
            drained_until: 0,
            in_levels: 0,
        }
    }

    fn push(&mut self, ev: ScheduledEvent<E>) {
        if ev.at.as_nanos() < self.drained_until {
            // Clamped-past or scheduled-during-dispatch inside an already
            // drained slot: merge into the sorted ready buffer. `seq` is
            // unique, so the search always yields an insertion point.
            let key = (ev.at, ev.seq);
            let idx = self
                .ready
                .binary_search_by(|e| (e.at, e.seq).cmp(&key))
                .unwrap_or_else(|insert_at| insert_at);
            self.ready.insert(idx, ev);
            return;
        }
        self.insert_into_levels(ev);
    }

    fn insert_into_levels(&mut self, ev: ScheduledEvent<E>) {
        let at = ev.at.as_nanos();
        debug_assert!(at >= self.drained_until);
        for (level, lv) in self.levels.iter_mut().enumerate() {
            let shift = level_shift(level);
            if (at >> shift) - (self.drained_until >> shift) < SLOTS as u64 {
                let slot = ((at >> shift) & SLOT_MASK) as usize;
                lv.slots[slot].push(ev);
                lv.set_bit(slot);
                self.in_levels += 1;
                return;
            }
        }
        unreachable!("the top wheel level covers the full u64 range");
    }

    /// Ensures `ready` is non-empty whenever any event is pending: drains
    /// the earliest level-0 slot (sorted) or cascades the earliest coarser
    /// slot one level down. Each cascaded event drops at least one level,
    /// so the loop terminates.
    fn advance_ready(&mut self) {
        while self.ready.is_empty() && self.in_levels > 0 {
            // Earliest upcoming slot across levels; ties go to the coarser
            // level so its events cascade before the finer slot drains
            // (they may be earlier than anything in the finer slot).
            let mut best: Option<(u64, usize, usize, u64)> = None; // (candidate, level, slot, abs)
            for (level, lv) in self.levels.iter().enumerate() {
                if lv.is_empty() {
                    continue;
                }
                let shift = level_shift(level);
                let pos = self.drained_until >> shift;
                let masked_pos = (pos & SLOT_MASK) as usize;
                let m = lv.first_occupied_from(masked_pos).expect("level has occupied bits");
                let wrap = if m < masked_pos { SLOTS as u64 } else { 0 };
                let abs = pos - masked_pos as u64 + m as u64 + wrap;
                // The slot holding `drained_until` itself starts before it;
                // clamp so candidates compare on first possible fire time.
                let candidate = (abs << shift).max(self.drained_until);
                if best.is_none_or(|(b, ..)| candidate <= b) {
                    best = Some((candidate, level, m, abs));
                }
            }
            let (candidate, level, slot, abs) = best.expect("in_levels > 0");
            let shift = level_shift(level);
            let events = std::mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].clear_bit(slot);
            self.in_levels -= events.len();
            if level == 0 {
                // These are the earliest pending events; sort the slot and
                // expose it. Saturating: the final slot ends at u64::MAX.
                self.drained_until = (abs << shift).saturating_add(1 << shift);
                let mut events = events;
                events.sort_unstable_by_key(|a| (a.at, a.seq));
                self.ready.extend(events);
            } else {
                // Cascade one level down. `candidate` is level-0 aligned
                // (every level's slot width is a multiple of level 0's).
                self.drained_until = candidate;
                for ev in events {
                    self.insert_into_levels(ev);
                }
            }
        }
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.advance_ready();
        self.ready.front().map(|e| (e.at, e.seq))
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.advance_ready();
        self.ready.pop_front()
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Wheel
    }
}

/// The scheduler behind an [`EventQueue`]: the timing wheel itself. Test
/// builds substitute an enum that can also run the heap oracle.
#[cfg(not(test))]
type Scheduler<E> = TimerWheel<E>;
#[cfg(test)]
use tests::Scheduler;

/// The pending-event queue. Split from [`Engine`] so event handlers can
/// schedule follow-up events while the engine is mid-dispatch.
#[derive(Debug)]
pub struct EventQueue<E> {
    sched: Scheduler<E>,
    next_seq: u64,
    now: SimTime,
    /// Logical pending count (excludes cancelled-but-not-yet-removed).
    pending: usize,
    /// Seqs of cancellable timers still armed.
    live: HashSet<u64>,
    /// Seqs cancelled but still physically queued (lazy tombstones).
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero on the timing wheel.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::Wheel)
    }

    /// Creates an empty queue at time zero on an explicit scheduler.
    /// Outside test builds the only kind is the wheel, so this is
    /// [`EventQueue::new`].
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let sched = match kind {
            SchedulerKind::Wheel => Scheduler::new(),
            #[cfg(test)]
            SchedulerKind::Heap => Scheduler::heap(),
        };
        EventQueue {
            sched,
            next_seq: 0,
            now: SimTime::ZERO,
            pending: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Which scheduler implementation backs this queue.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.sched.kind()
    }

    /// Current virtual time (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant. Instants in the past are
    /// clamped to "now" (they dispatch next, preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.push_event(at, event);
    }

    /// Like [`EventQueue::schedule`], but returns a handle that can
    /// O(1)-cancel the event before it fires.
    pub fn schedule_cancellable(&mut self, delay: SimDuration, event: E) -> TimerId {
        self.schedule_at_cancellable(self.now + delay, event)
    }

    /// Like [`EventQueue::schedule_at`], but cancellable.
    pub fn schedule_at_cancellable(&mut self, at: SimTime, event: E) -> TimerId {
        let seq = self.push_event(at, event);
        self.live.insert(seq);
        TimerId(seq)
    }

    /// Cancels a pending timer. Returns `true` if it was still armed; a
    /// timer that already fired (or was already cancelled) returns `false`.
    /// The entry is tombstoned and reclaimed lazily — cancellation never
    /// perturbs the dispatch order of the surviving events.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            self.pending -= 1;
            true
        } else {
            false
        }
    }

    /// Schedules `event` at an absolute instant under a *caller-supplied*
    /// tie-break key that takes the place of the internal insertion
    /// sequence. Dispatch order is (time, key), so two queues that receive
    /// the same keyed events in any insertion order dispatch identically —
    /// the property the region-sharded PDES driver ([`crate::shard`])
    /// relies on when cross-shard mailboxes are drained in nondeterministic
    /// order. Keys must be unique per (instant, queue) and keyed scheduling
    /// must not be mixed with the auto-sequenced `schedule*` methods on the
    /// same queue (the internal counter could collide with a caller key).
    /// Keyed events are not cancellable. Panics if `at` is in the past.
    pub fn schedule_at_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(at >= self.now, "keyed event scheduled in the past");
        self.pending += 1;
        self.sched.push(ScheduledEvent { at, seq: key, event });
    }

    fn push_event(&mut self, at: SimTime, event: E) -> u64 {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.sched.push(ScheduledEvent { at, seq, event });
        seq
    }

    /// Pops the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            let ev = self.sched.pop()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.seq) {
                continue; // tombstone of a cancelled timer
            }
            if !self.live.is_empty() {
                self.live.remove(&ev.seq);
            }
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.pending -= 1;
            return Some(ev);
        }
    }

    /// Number of pending events (cancelled timers excluded).
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Instant of the next pending event, if any. Takes `&mut self`: the
    /// wheel may lazily cascade coarse slots downward, and cancelled
    /// tombstones surfacing at the front are reclaimed here — neither
    /// changes anything observable.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (at, seq) = self.sched.peek()?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&seq) {
                let ev = self.sched.pop().expect("peeked event must pop");
                self.cancelled.remove(&ev.seq);
                continue;
            }
            return Some(at);
        }
    }

    /// Advances the clock to `at` without dispatching anything — the hook
    /// external controllers (fault plans, scripted scenarios) use to act at
    /// exact virtual instants between events. Clamped so time never runs
    /// backwards and never jumps past a pending event (which would trip the
    /// causality check in [`EventQueue::pop`]). Returns the new "now".
    pub fn advance_to(&mut self, at: SimTime) -> SimTime {
        let mut target = at.max(self.now);
        if let Some(next) = self.peek_time() {
            target = target.min(next);
        }
        self.now = target;
        self.now
    }
}

/// The simulation engine: an [`EventQueue`] plus the root RNG.
///
/// All randomness in a simulation must flow from [`Engine::rng`] (or RNGs
/// seeded from it) — this is what makes runs reproducible byte-for-byte.
pub struct Engine<E> {
    /// The pending-event queue.
    pub queue: EventQueue<E>,
    /// The root deterministic RNG.
    pub rng: StdRng,
    events_dispatched: u64,
}

impl<E> Engine<E> {
    /// Creates an engine seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Engine { queue: EventQueue::new(), rng: StdRng::seed_from_u64(seed), events_dispatched: 0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Runs until the queue drains or `deadline` passes, dispatching each
    /// event to `handler`. The handler receives the queue/RNG (via `self`)
    /// so it can schedule more events. Returns the number of events
    /// dispatched by this call.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut EventQueue<E>, &mut StdRng, SimTime, E),
    {
        let mut n = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            handler(&mut self.queue, &mut self.rng, ev.at, ev.event);
            n += 1;
            self.events_dispatched += 1;
        }
        n
    }

    /// Runs until the queue is fully drained.
    pub fn run<F>(&mut self, handler: F) -> u64
    where
        F: FnMut(&mut EventQueue<E>, &mut StdRng, SimTime, E),
    {
        self.run_until(SimTime::MAX, handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Test builds' scheduler: the shipped wheel, or the original
    /// `BinaryHeap` scheduler as the reference it must match pop for pop.
    #[derive(Debug)]
    pub(super) enum Scheduler<E> {
        Heap(BinaryHeap<Reverse<ScheduledEvent<E>>>),
        Wheel(TimerWheel<E>),
    }

    impl<E> Scheduler<E> {
        pub(super) fn new() -> Self {
            Scheduler::Wheel(TimerWheel::new())
        }

        pub(super) fn heap() -> Self {
            Scheduler::Heap(BinaryHeap::new())
        }

        pub(super) fn kind(&self) -> SchedulerKind {
            match self {
                Scheduler::Heap(_) => SchedulerKind::Heap,
                Scheduler::Wheel(wheel) => wheel.kind(),
            }
        }

        pub(super) fn push(&mut self, ev: ScheduledEvent<E>) {
            match self {
                Scheduler::Heap(heap) => heap.push(Reverse(ev)),
                Scheduler::Wheel(wheel) => wheel.push(ev),
            }
        }

        pub(super) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            match self {
                Scheduler::Heap(heap) => heap.pop().map(|Reverse(ev)| ev),
                Scheduler::Wheel(wheel) => wheel.pop(),
            }
        }

        pub(super) fn peek(&mut self) -> Option<(SimTime, u64)> {
            match self {
                Scheduler::Heap(heap) => heap.peek().map(|Reverse(e)| (e.at, e.seq)),
                Scheduler::Wheel(wheel) => wheel.peek(),
            }
        }
    }

    /// Runs `f` once per scheduler implementation.
    fn for_each_kind(f: impl Fn(SchedulerKind)) {
        f(SchedulerKind::Heap);
        f(SchedulerKind::Wheel);
    }

    fn engine_with(kind: SchedulerKind, seed: u64) -> Engine<u32> {
        let mut engine: Engine<u32> = Engine::new(seed);
        engine.queue = EventQueue::with_scheduler(kind);
        engine
    }

    #[test]
    fn default_queue_is_the_wheel() {
        assert_eq!(EventQueue::<u8>::new().scheduler_kind(), SchedulerKind::Wheel);
    }

    #[test]
    fn events_dispatch_in_time_order() {
        for_each_kind(|kind| {
            let mut engine = engine_with(kind, 1);
            engine.queue.schedule(SimDuration::from_millis(30), 3);
            engine.queue.schedule(SimDuration::from_millis(10), 1);
            engine.queue.schedule(SimDuration::from_millis(20), 2);
            let mut order = Vec::new();
            engine.run(|_, _, t, e| order.push((t.as_millis(), e)));
            assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
        });
    }

    #[test]
    fn ties_break_fifo() {
        for_each_kind(|kind| {
            let mut engine = engine_with(kind, 1);
            for i in 0..10 {
                engine.queue.schedule(SimDuration::from_millis(5), i);
            }
            let mut order = Vec::new();
            engine.run(|_, _, _, e| order.push(e));
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn handler_can_schedule_followups() {
        for_each_kind(|kind| {
            let mut engine = engine_with(kind, 1);
            engine.queue.schedule(SimDuration::from_secs(1), 0);
            let mut count = 0u32;
            engine.run(|q, _, _, e| {
                count += 1;
                if e < 5 {
                    q.schedule(SimDuration::from_secs(1), e + 1);
                }
            });
            assert_eq!(count, 6);
            assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_secs(6));
        });
    }

    #[test]
    fn run_until_respects_deadline() {
        for_each_kind(|kind| {
            let mut engine = engine_with(kind, 1);
            for i in 1..=10 {
                engine.queue.schedule(SimDuration::from_secs(i), i as u32);
            }
            let n = engine.run_until(SimTime::ZERO + SimDuration::from_secs(5), |_, _, _, _| {});
            assert_eq!(n, 5);
            assert_eq!(engine.queue.len(), 5);
            // Clock sits at the last dispatched event, not the deadline.
            assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_secs(5));
        });
    }

    #[test]
    fn past_events_clamp_to_now() {
        for_each_kind(|kind| {
            let mut engine = engine_with(kind, 1);
            engine.queue.schedule(SimDuration::from_secs(10), 1);
            let mut seen = Vec::new();
            engine.run(|q, _, t, e| {
                seen.push((t.as_millis(), e));
                if e == 1 {
                    // "Past" absolute time: must clamp to now (10s), not 1s.
                    q.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), 2);
                }
            });
            assert_eq!(seen, vec![(10_000, 1), (10_000, 2)]);
        });
    }

    #[test]
    fn advance_to_clamps_to_pending_events_and_now() {
        for_each_kind(|kind| {
            let mut q: EventQueue<u32> = EventQueue::with_scheduler(kind);
            q.schedule(SimDuration::from_secs(10), 1);
            // Free advance below the next event.
            assert_eq!(
                q.advance_to(SimTime::ZERO + SimDuration::from_secs(4)),
                SimTime::ZERO + SimDuration::from_secs(4)
            );
            // Cannot move backwards.
            assert_eq!(
                q.advance_to(SimTime::ZERO + SimDuration::from_secs(1)),
                SimTime::ZERO + SimDuration::from_secs(4)
            );
            // Cannot jump past the pending event.
            assert_eq!(
                q.advance_to(SimTime::ZERO + SimDuration::from_secs(60)),
                SimTime::ZERO + SimDuration::from_secs(10)
            );
            let ev = q.pop().expect("event still pending");
            assert_eq!(ev.at, SimTime::ZERO + SimDuration::from_secs(10));
            // With an empty queue the clock advances freely.
            assert_eq!(
                q.advance_to(SimTime::ZERO + SimDuration::from_secs(60)),
                SimTime::ZERO + SimDuration::from_secs(60)
            );
            assert_eq!(q.now(), SimTime::ZERO + SimDuration::from_secs(60));
        });
    }

    #[test]
    fn far_future_timers_cascade_in_order() {
        for_each_kind(|kind| {
            let mut q: EventQueue<u32> = EventQueue::with_scheduler(kind);
            // Paper-realistic standing timers: 12 h republish, 10 min
            // refresh, sub-second RPCs — all interleaved.
            q.schedule(SimDuration::from_hours(12), 4);
            q.schedule(SimDuration::from_mins(10), 3);
            q.schedule(SimDuration::from_millis(250), 1);
            q.schedule(SimDuration::from_secs(30), 2);
            let mut order = Vec::new();
            while let Some(ev) = q.pop() {
                order.push(ev.event);
            }
            assert_eq!(order, vec![1, 2, 3, 4]);
            assert_eq!(q.now(), SimTime::ZERO + SimDuration::from_hours(12));
        });
    }

    #[test]
    fn cancel_prevents_dispatch_exactly_once() {
        for_each_kind(|kind| {
            let mut q: EventQueue<u32> = EventQueue::with_scheduler(kind);
            let keep = q.schedule_cancellable(SimDuration::from_secs(1), 1);
            let drop_ = q.schedule_cancellable(SimDuration::from_secs(2), 2);
            q.schedule(SimDuration::from_secs(3), 3);
            assert_eq!(q.len(), 3);
            assert!(q.cancel(drop_));
            assert_eq!(q.len(), 2);
            assert!(!q.cancel(drop_), "double cancel is a no-op");
            let mut order = Vec::new();
            while let Some(ev) = q.pop() {
                order.push(ev.event);
            }
            assert_eq!(order, vec![1, 3]);
            assert!(!q.cancel(keep), "cancelling a fired timer is a no-op");
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancelled_timer_never_blocks_peek_or_advance() {
        for_each_kind(|kind| {
            let mut q: EventQueue<u32> = EventQueue::with_scheduler(kind);
            let t = q.schedule_cancellable(SimDuration::from_secs(5), 1);
            q.schedule(SimDuration::from_secs(10), 2);
            assert!(q.cancel(t));
            // peek skips the tombstone; advance_to is not clamped by it.
            assert_eq!(q.peek_time(), Some(SimTime::ZERO + SimDuration::from_secs(10)));
            assert_eq!(
                q.advance_to(SimTime::ZERO + SimDuration::from_secs(8)),
                SimTime::ZERO + SimDuration::from_secs(8)
            );
            let ev = q.pop().expect("real event");
            assert_eq!(ev.event, 2);
            assert!(q.pop().is_none());
        });
    }

    /// Reference model for the equivalence test: every observable of the
    /// queue API, recorded step by step.
    fn run_program(kind: SchedulerKind, ops: &[(u8, u64, u64)]) -> Vec<String> {
        let mut q: EventQueue<u64> = EventQueue::with_scheduler(kind);
        let mut handles: Vec<TimerId> = Vec::new();
        let mut trace = Vec::new();
        let mut payload = 0u64;
        for &(op, a, b) in ops {
            match op % 6 {
                0 | 1 => {
                    // Schedule at a delay spanning sub-slot ns up to years:
                    // exercise every wheel level. Bias toward small delays
                    // so same-instant ties actually occur.
                    let magnitude = b % 46;
                    let delay = a % (1u64 << magnitude).max(1);
                    payload += 1;
                    q.schedule(SimDuration::from_nanos(delay), payload);
                    trace.push(format!("sched {delay} len={}", q.len()));
                }
                2 => {
                    // Absolute instant, possibly in the (clamped) past.
                    let at = SimTime::from_nanos(a % 2_000_000_000);
                    payload += 1;
                    q.schedule_at(at, payload);
                    trace.push(format!("sched_at {} len={}", at.as_nanos(), q.len()));
                }
                3 => {
                    let popped = q.pop().map(|ev| (ev.at.as_nanos(), ev.seq, ev.event));
                    trace.push(format!("pop {popped:?} now={}", q.now().as_nanos()));
                }
                4 => {
                    let delay = a % (1u64 << (b % 46)).max(1);
                    payload += 1;
                    let id = q.schedule_cancellable(SimDuration::from_nanos(delay), payload);
                    handles.push(id);
                    trace.push(format!("sched_c {delay} id={id:?} len={}", q.len()));
                }
                5 => {
                    if b % 3 == 0 && !handles.is_empty() {
                        let id = handles[(a as usize) % handles.len()];
                        let hit = q.cancel(id);
                        trace.push(format!("cancel {id:?} hit={hit} len={}", q.len()));
                    } else {
                        let target = q.now().saturating_add(SimDuration::from_nanos(a % (1 << 30)));
                        let now = q.advance_to(target);
                        trace.push(format!(
                            "advance now={} peek={:?}",
                            now.as_nanos(),
                            q.peek_time()
                        ));
                    }
                }
                _ => unreachable!(),
            }
        }
        // Drain what's left so far-future cascades are exercised too.
        while let Some(ev) = q.pop() {
            trace.push(format!("drain {} {} {}", ev.at.as_nanos(), ev.seq, ev.event));
        }
        trace
    }

    #[test]
    fn proptest_wheel_heap_trace_equivalence() {
        use proptest::prelude::*;
        proptest!(
            ProptestConfig::with_cases(128),
            |(ops in proptest::collection::vec(
                (0u8..6, any::<u64>(), any::<u64>()),
                1..120
            ))| {
                let heap_trace = run_program(SchedulerKind::Heap, &ops);
                let wheel_trace = run_program(SchedulerKind::Wheel, &ops);
                prop_assert_eq!(heap_trace, wheel_trace);
            }
        );
    }

    #[test]
    fn proptest_dispatch_order_total() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(64), |(delays in proptest::collection::vec(0u64..1_000_000, 1..200))| {
            for_each_kind(|kind| {
                let mut engine: Engine<usize> = Engine::new(1);
                engine.queue = EventQueue::with_scheduler(kind);
                for (i, d) in delays.iter().enumerate() {
                    engine.queue.schedule(SimDuration::from_nanos(*d), i);
                }
                let mut dispatched: Vec<(u64, usize)> = Vec::new();
                engine.run(|_, _, t, e| dispatched.push((t.as_nanos(), e)));
                assert_eq!(dispatched.len(), delays.len());
                // Times non-decreasing; equal times dispatch in insertion order.
                for w in dispatched.windows(2) {
                    assert!(w[0].0 <= w[1].0);
                    if w[0].0 == w[1].0 {
                        assert!(w[0].1 < w[1].1, "FIFO within an instant");
                    }
                }
                // Each event fires at exactly its scheduled instant.
                for (t, e) in &dispatched {
                    assert_eq!(*t, delays[*e]);
                }
            });
        });
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let trace = |seed: u64| {
            let mut engine: Engine<u64> = Engine::new(seed);
            engine.queue.schedule(SimDuration::ZERO, 0);
            let mut out = Vec::new();
            engine.run(|q, rng, t, e| {
                out.push((t.as_nanos(), e));
                if out.len() < 100 {
                    let jitter: u64 = rng.random_range(1..1_000_000);
                    q.schedule(SimDuration::from_nanos(jitter), e + 1);
                }
            });
            out
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}
