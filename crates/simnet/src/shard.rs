//! Region-sharded deterministic parallel discrete-event simulation (PDES).
//!
//! The serial [`crate::engine`] dispatches one global (time, seq) order.
//! This module partitions a simulation into *region shards* — one logical
//! process per group of geographic zones — and runs them concurrently under
//! a classic conservative (lookahead-based) synchronization protocol:
//!
//! * Every event belongs to a region ([`RegionEvent::region`]); region `r`
//!   is owned by shard `r % shards`, and the handler for an event runs in
//!   the shard that owns its region, touching only that shard's state.
//! * Cross-region messages can never arrive sooner than the **lookahead**
//!   after "now" — in this repo the latency floor
//!   [`crate::latency::LatencyModel::cross_region_lookahead`] (a quarter of
//!   the minimum cross-zone RTT, 6.25 ms with the current matrix). That
//!   bound is what makes conservative windows safe.
//! * Execution proceeds in windows: all shards agree on the global minimum
//!   pending timestamp `t_min`, then each shard independently dispatches
//!   its events with `t < t_min + lookahead`. Cross-shard sends produced
//!   inside a window are exchanged at the window boundary (they are only
//!   ever due in a *later* window, by the lookahead contract, which
//!   [`ShardCtx::schedule_at`] enforces).
//!
//! **Determinism, at any shard count.** The serial reference order is the
//! total order on `(time, key)` where `key = origin_region << 48 | counter`
//! and `counter` is a per-origin-region sequence assigned when an event is
//! created. Region `r`'s events are dispatched by exactly one shard in
//! `(time, key)` order whatever `shards` is, and `counter` only advances
//! while region-`r` events execute, so the keys themselves are
//! shard-count-invariant. Merging all shards' dispatch logs by `(time,
//! key)` therefore reproduces the exact serial sequence: `shards = 1` *is*
//! the serial path, and `shards = 6` must be byte-identical to it (gated in
//! `scripts/check.sh`). Worker threads (`min(shards, cores)`, overridable
//! with [`ShardedEngine::set_workers`]) multiplex shards without affecting
//! results — on a single-core host six shards run round-robin inline.
//!
//! Per-event randomness comes from an [`StdRng`] reseeded from
//! `(base_seed, key, time)` for every handler invocation, so random draws
//! never depend on how shards interleave.

use crate::engine::EventQueue;
use crate::mix::splitmix64;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// An event that belongs to a geographic region. The region decides which
/// shard owns (and therefore which thread handles) the event.
pub trait RegionEvent {
    /// Index of the region this event is delivered in (`0..regions`).
    fn region(&self) -> usize;
}

/// Bits of the event key reserved for the per-origin-region counter.
const COUNTER_BITS: u32 = 48;
const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;

/// Packs an origin region and its creation counter into a dispatch key.
/// Keys order events at equal instants: origin-major, then creation order.
fn pack_key(origin: usize, counter: u64) -> u64 {
    debug_assert!(counter <= COUNTER_MASK, "per-region event counter overflow");
    ((origin as u64) << COUNTER_BITS) | counter
}

/// Per-event RNG seed: a function of the base seed and the event's
/// identity only — independent of shard interleaving.
fn event_seed(base: u64, key: u64, at_nanos: u64) -> u64 {
    splitmix64(splitmix64(base ^ key) ^ at_nanos)
}

/// A cross-shard message parked in a mailbox until the window boundary.
struct Mail<E> {
    at: SimTime,
    key: u64,
    event: E,
}

/// One logical process: the queue and creation counters for its regions.
struct ShardPart<E> {
    queue: EventQueue<E>,
    /// Creation counter per region (indexed globally; a shard only ever
    /// touches the counters of the regions it owns).
    counters: Vec<u64>,
}

/// Static run parameters shared by every worker.
struct Info {
    regions: usize,
    shards: usize,
    lookahead: SimDuration,
    base_seed: u64,
}

/// Handler-side view of one shard during a window: schedule follow-up
/// events, draw deterministic randomness, and inspect the window bounds.
pub struct ShardCtx<'a, E> {
    queue: &'a mut EventQueue<E>,
    counters: &'a mut [u64],
    /// Outgoing cross-shard messages, indexed by destination shard.
    out: &'a mut [Vec<Mail<E>>],
    info: &'a Info,
    my_shard: usize,
    rng: StdRng,
    now: SimTime,
    key: u64,
    region: usize,
    window_end: SimTime,
}

impl<E: RegionEvent> ShardCtx<'_, E> {
    /// Instant of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The event's globally unique dispatch key (`origin << 48 | counter`).
    /// Stable across shard counts — usable as a deterministic request id.
    pub fn event_key(&self) -> u64 {
        self.key
    }

    /// A nonzero, well-mixed trace id for the event being handled: the
    /// dispatch key through a splitmix64 finalizer. Stable across shard
    /// counts like [`ShardCtx::event_key`], but usable directly as a
    /// trace/span identifier (high bits populated, never zero).
    pub fn trace_key(&self) -> u64 {
        splitmix64(self.key) | 1
    }

    /// Region of the event being handled.
    pub fn region(&self) -> usize {
        self.region
    }

    /// The conservative lookahead this engine was built with.
    pub fn lookahead(&self) -> SimDuration {
        self.info.lookahead
    }

    /// Exclusive end of the current window. Cross-region events must be
    /// scheduled at or after this instant (any delay ≥ the lookahead
    /// satisfies that automatically).
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Deterministic per-event RNG, reseeded from `(base_seed, key, time)`
    /// for every handler invocation.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Schedules a follow-up event `delay` after the current instant.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules a follow-up event at an absolute instant. The event is
    /// keyed with the *current* event's region as origin. Panics if a
    /// cross-region event lands before the window boundary (a lookahead
    /// violation: the latency model must floor cross-region delays at
    /// [`ShardCtx::lookahead`]) — the check is against the window end, so
    /// it trips identically at every shard count.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let dst = event.region();
        assert!(dst < self.info.regions, "event region {dst} out of range");
        if dst != self.region {
            assert!(
                at >= self.window_end,
                "cross-region event undercuts the lookahead window \
                 (at {at}, window ends {})",
                self.window_end
            );
        }
        let counter = &mut self.counters[self.region];
        let key = pack_key(self.region, *counter);
        *counter += 1;
        let dst_shard = dst % self.info.shards;
        if dst_shard == self.my_shard {
            self.queue.schedule_at_keyed(at, key, event);
        } else {
            self.out[dst_shard].push(Mail { at, key, event });
        }
    }
}

/// A sharded event engine: `shards` logical processes over `regions`
/// regions, synchronized by conservative lookahead windows. See the module
/// docs for the protocol and the determinism argument.
pub struct ShardedEngine<E> {
    info: Info,
    parts: Vec<ShardPart<E>>,
    workers: usize,
    events_dispatched: u64,
}

impl<E: RegionEvent + Send> ShardedEngine<E> {
    /// Creates an engine with `shards` logical processes over `regions`
    /// regions. `lookahead` must be positive — it is the minimum
    /// cross-region delivery delay the workload guarantees. Region `r` is
    /// owned by shard `r % shards`.
    pub fn new(regions: usize, shards: usize, lookahead: SimDuration, base_seed: u64) -> Self {
        assert!((1..(1 << 16)).contains(&regions), "regions must fit the key prefix");
        assert!((1..=regions).contains(&shards), "shards must be in 1..=regions");
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        let workers =
            shards.min(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        ShardedEngine {
            info: Info { regions, shards, lookahead, base_seed },
            parts: (0..shards)
                .map(|_| ShardPart { queue: EventQueue::new(), counters: vec![0; regions] })
                .collect(),
            workers,
            events_dispatched: 0,
        }
    }

    /// Number of shards (logical processes).
    pub fn shards(&self) -> usize {
        self.info.shards
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.info.regions
    }

    /// The conservative lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.info.lookahead
    }

    /// Overrides the worker-thread count (clamped to `1..=shards`). Worker
    /// count never affects results — only wall-clock time. Defaults to
    /// `min(shards, available_parallelism)`.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.clamp(1, self.info.shards);
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(|p| p.queue.len()).sum()
    }

    /// Seeds an initial event before (or between) runs. The event is keyed
    /// against its own region's counter; seeding happens serially, so seed
    /// order is part of the deterministic input.
    pub fn seed_event(&mut self, at: SimTime, event: E) {
        let region = event.region();
        assert!(region < self.info.regions, "event region {region} out of range");
        let shard = region % self.info.shards;
        let part = &mut self.parts[shard];
        let key = pack_key(region, part.counters[region]);
        part.counters[region] += 1;
        part.queue.schedule_at_keyed(at, key, event);
    }

    /// Runs until no event at or before `deadline` remains. `states` holds
    /// one mutable per-shard state (`states.len() == shards`); the handler
    /// receives the owning shard's state, a [`ShardCtx`], and the event.
    /// Returns the number of events dispatched by this call.
    pub fn run_until<S, F>(&mut self, deadline: SimTime, states: &mut [S], handler: &F) -> u64
    where
        S: Send,
        F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E) + Sync,
    {
        assert_eq!(states.len(), self.info.shards, "one state per shard");
        let shards = self.info.shards;
        let workers = self.workers.min(shards).max(1);

        // Round-robin shard → worker assignment. Disjoint &mut borrows of
        // the parts and states move into each worker's closure.
        let mut per_worker: Vec<Vec<(usize, &mut ShardPart<E>, &mut S)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, (part, state)) in self.parts.iter_mut().zip(states.iter_mut()).enumerate() {
            per_worker[i % workers].push((i, part, state));
        }

        let next_times: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mailboxes: Vec<Mutex<Vec<Mail<E>>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(workers);
        let info = &self.info;

        let dispatched: u64 = if workers == 1 {
            let my = per_worker.pop().expect("one worker");
            worker_loop(my, deadline, info, &next_times, &mailboxes, &barrier, handler)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_worker
                    .into_iter()
                    .map(|my| {
                        let (next_times, mailboxes, barrier) = (&next_times, &mailboxes, &barrier);
                        scope.spawn(move || {
                            worker_loop(my, deadline, info, next_times, mailboxes, barrier, handler)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard worker panicked")).sum()
            })
        };
        self.events_dispatched += dispatched;
        dispatched
    }
}

/// One worker's synchronization loop: drain mailboxes, agree on the global
/// window, process owned shards, exchange boundary messages, repeat. Every
/// worker computes the same `t_min` from the same published data, so all
/// workers always take the same branch and the barriers stay aligned.
#[allow(clippy::too_many_arguments)]
fn worker_loop<E, S, F>(
    mut my: Vec<(usize, &mut ShardPart<E>, &mut S)>,
    deadline: SimTime,
    info: &Info,
    next_times: &[AtomicU64],
    mailboxes: &[Mutex<Vec<Mail<E>>>],
    barrier: &Barrier,
    handler: &F,
) -> u64
where
    E: RegionEvent,
    F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E),
{
    let mut out: Vec<Vec<Mail<E>>> = (0..info.shards).map(|_| Vec::new()).collect();
    let mut dispatched = 0u64;
    loop {
        // Phase A: deliver boundary messages, publish each owned shard's
        // next pending instant.
        for (i, part, _) in my.iter_mut() {
            let batch = std::mem::take(&mut *mailboxes[*i].lock().expect("mailbox lock"));
            for m in batch {
                part.queue.schedule_at_keyed(m.at, m.key, m.event);
            }
            let t = part.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos());
            next_times[*i].store(t, Ordering::SeqCst);
        }
        barrier.wait();

        // Phase B: every worker derives the identical window bounds.
        let t_min =
            next_times.iter().map(|t| t.load(Ordering::SeqCst)).min().expect("at least one shard");
        if t_min == u64::MAX || t_min > deadline.as_nanos() {
            return dispatched;
        }
        let window_end = SimTime::from_nanos(t_min.saturating_add(info.lookahead.as_nanos()));

        // Phase C: process owned shards up to the window bound, then park
        // cross-shard sends in the destination mailboxes.
        for (i, part, state) in my.iter_mut() {
            dispatched += process_window(
                *i,
                part,
                &mut **state,
                &mut out,
                info,
                window_end,
                deadline,
                handler,
            );
        }
        for (dst, batch) in out.iter_mut().enumerate() {
            if !batch.is_empty() {
                mailboxes[dst].lock().expect("mailbox lock").append(batch);
            }
        }
        barrier.wait();
    }
}

/// Dispatches one shard's events inside `[t_min, window_end)` (clamped to
/// the deadline), in exact (time, key) order.
#[allow(clippy::too_many_arguments)]
fn process_window<E, S, F>(
    my_shard: usize,
    part: &mut ShardPart<E>,
    state: &mut S,
    out: &mut [Vec<Mail<E>>],
    info: &Info,
    window_end: SimTime,
    deadline: SimTime,
    handler: &F,
) -> u64
where
    E: RegionEvent,
    F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E),
{
    let mut n = 0u64;
    let mut ctx = ShardCtx {
        queue: &mut part.queue,
        counters: &mut part.counters,
        out,
        info,
        my_shard,
        rng: StdRng::seed_from_u64(0),
        now: SimTime::ZERO,
        key: 0,
        region: 0,
        window_end,
    };
    while let Some(at) = ctx.queue.peek_time() {
        if at >= window_end || at > deadline {
            break;
        }
        let ev = ctx.queue.pop().expect("peeked event pops");
        let region = ev.event.region();
        debug_assert_eq!(region % info.shards, my_shard, "event delivered to wrong shard");
        ctx.now = ev.at;
        ctx.key = ev.seq;
        ctx.region = region;
        ctx.rng = StdRng::seed_from_u64(event_seed(info.base_seed, ev.seq, ev.at.as_nanos()));
        handler(state, &mut ctx, ev.at, ev.event);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[derive(Clone, Debug)]
    struct TestEv {
        region: u8,
        hops: u8,
    }

    impl RegionEvent for TestEv {
        fn region(&self) -> usize {
            self.region as usize
        }
    }

    const REGIONS: usize = 6;
    const LOOKAHEAD: SimDuration = SimDuration::from_millis(5);

    /// Runs a branching relay workload and returns the merged dispatch
    /// trace as (time, key, region), sorted by (time, key).
    fn run_trace(
        shards: usize,
        workers: usize,
        base_seed: u64,
        seeds: &[(u8, u16, u8)],
    ) -> Vec<(u64, u64, u8)> {
        let mut eng = ShardedEngine::new(REGIONS, shards, LOOKAHEAD, base_seed);
        eng.set_workers(workers);
        for &(region, at_ms, hops) in seeds {
            let region = region % REGIONS as u8;
            eng.seed_event(
                SimTime::from_nanos(SimDuration::from_millis(at_ms as u64).as_nanos()),
                TestEv { region, hops },
            );
        }
        let mut states: Vec<Vec<(u64, u64, u8)>> = vec![Vec::new(); shards];
        eng.run_until(SimTime::from_nanos(u64::MAX / 2), &mut states, &|st, ctx, at, ev| {
            st.push((at.as_nanos(), ctx.event_key(), ev.region));
            if ev.hops > 0 {
                let fanout = ctx.rng().random_range(1..=2u32);
                for _ in 0..fanout {
                    let dst = ctx.rng().random_range(0..REGIONS) as u8;
                    let la = ctx.lookahead().as_nanos();
                    let delay = if dst as usize == ctx.region() {
                        SimDuration::from_nanos(ctx.rng().random_range(1..3 * la))
                    } else {
                        ctx.lookahead() + SimDuration::from_nanos(ctx.rng().random_range(0..2 * la))
                    };
                    ctx.schedule(delay, TestEv { region: dst, hops: ev.hops - 1 });
                }
            }
        });
        // Each shard's own log must already be in (time, key) order.
        for log in &states {
            assert!(log.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        }
        let mut merged: Vec<_> = states.into_iter().flatten().collect();
        merged.sort_unstable();
        merged
    }

    #[test]
    fn sharded_trace_matches_serial() {
        let seeds = [(0u8, 0u16, 3u8), (1, 2, 3), (4, 7, 2), (5, 1, 3), (2, 0, 2)];
        let serial = run_trace(1, 1, 42, &seeds);
        assert!(!serial.is_empty());
        assert_eq!(run_trace(2, 2, 42, &seeds), serial);
        assert_eq!(run_trace(3, 1, 42, &seeds), serial);
        assert_eq!(run_trace(6, 3, 42, &seeds), serial);
    }

    #[test]
    fn rerun_is_deterministic() {
        let seeds = [(0u8, 0u16, 3u8), (3, 5, 3)];
        assert_eq!(run_trace(6, 2, 7, &seeds), run_trace(6, 2, 7, &seeds));
    }

    #[test]
    fn empty_engine_dispatches_nothing() {
        let mut eng: ShardedEngine<TestEv> = ShardedEngine::new(REGIONS, 3, LOOKAHEAD, 1);
        let mut states = vec![(), (), ()];
        let n = eng.run_until(
            SimTime::ZERO + SimDuration::from_secs(10),
            &mut states,
            &|_, _, _, _| {},
        );
        assert_eq!(n, 0);
        assert_eq!(eng.events_dispatched(), 0);
    }

    #[test]
    fn deadline_is_inclusive_and_pending_survive() {
        let mut eng = ShardedEngine::new(REGIONS, 2, LOOKAHEAD, 1);
        eng.seed_event(SimTime::ZERO + SimDuration::from_secs(1), TestEv { region: 0, hops: 0 });
        eng.seed_event(SimTime::ZERO + SimDuration::from_secs(2), TestEv { region: 1, hops: 0 });
        let mut states = vec![0usize, 0];
        let n = eng.run_until(
            SimTime::ZERO + SimDuration::from_secs(1),
            &mut states,
            &|st, _, _, _| *st += 1,
        );
        assert_eq!(n, 1);
        assert_eq!(eng.pending(), 1);
        let n = eng.run_until(
            SimTime::ZERO + SimDuration::from_secs(5),
            &mut states,
            &|st, _, _, _| *st += 1,
        );
        assert_eq!(n, 1);
        assert_eq!(states, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "undercuts the lookahead")]
    fn cross_region_undercut_panics() {
        let mut eng = ShardedEngine::new(REGIONS, 2, LOOKAHEAD, 1);
        eng.set_workers(1);
        eng.seed_event(SimTime::ZERO, TestEv { region: 0, hops: 1 });
        let mut states = vec![(), ()];
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(10), &mut states, &|_, ctx, _, _| {
            // One nanosecond to another region: violates the lookahead.
            ctx.schedule(SimDuration::from_nanos(1), TestEv { region: 1, hops: 0 });
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Core PDES guarantee: the merged (time, key) dispatch sequence is
        /// identical at shards ∈ {2, 3, 6} (threaded or multiplexed) and at
        /// the exact serial path shards = 1.
        #[test]
        fn shard_count_never_changes_the_trace(
            base_seed in any::<u64>(),
            seeds in prop::collection::vec((0u8..6, 0u16..50, 0u8..4), 1..8),
        ) {
            let serial = run_trace(1, 1, base_seed, &seeds);
            prop_assert_eq!(&run_trace(2, 2, base_seed, &seeds), &serial);
            prop_assert_eq!(&run_trace(3, 1, base_seed, &seeds), &serial);
            prop_assert_eq!(&run_trace(6, 3, base_seed, &seeds), &serial);
        }
    }
}
