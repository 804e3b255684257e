//! The fault oracle: active topology state derived from a [`FaultPlan`].

use crate::plan::{FaultEvent, FaultId, FaultPlan, LinkScope};
use simnet::latency::Region;
use simnet::SimTime;

/// Runtime fault state the simulation driver consults on every dial, RPC
/// delivery and Bitswap transfer.
///
/// The driver advances the oracle at virtual-time boundaries
/// ([`FaultOracle::take_due`]), feeds topology events back through
/// [`FaultOracle::apply`], and asks the path questions below. All answers
/// are symmetric in their endpoints, so a severed or degraded path
/// misbehaves identically in both directions — there is no way for one
/// side of a partition to sneak traffic across.
#[derive(Debug, Clone, Default)]
pub struct FaultOracle {
    /// Remaining scripted events, time-sorted; `cursor` indexes the next.
    timeline: Vec<(SimTime, FaultEvent)>,
    cursor: usize,
    /// Active partitions: each separates its region group from the rest.
    partitions: Vec<(FaultId, Vec<Region>)>,
    /// Active link degradations: `(id, scope, latency_factor, loss_prob)`.
    degradations: Vec<(FaultId, LinkScope, f64, f64)>,
    /// Active dial-failure spikes: `(id, extra_fail_prob)`.
    dial_spikes: Vec<(FaultId, f64)>,
}

impl FaultOracle {
    /// An oracle with no plan: permanently quiescent, every query returns
    /// the no-fault answer.
    pub fn idle() -> FaultOracle {
        FaultOracle::default()
    }

    /// Installs a plan, replacing any previous timeline and active state.
    pub fn new(plan: FaultPlan) -> FaultOracle {
        FaultOracle { timeline: plan.into_timeline(), ..FaultOracle::default() }
    }

    /// Whether nothing is active *and* nothing is pending — the driver can
    /// skip every oracle check on the hot path.
    pub fn is_idle(&self) -> bool {
        self.cursor >= self.timeline.len() && !self.has_active_faults()
    }

    /// Whether any fault is currently in effect.
    pub fn has_active_faults(&self) -> bool {
        !self.partitions.is_empty() || !self.degradations.is_empty() || !self.dial_spikes.is_empty()
    }

    /// Instant of the next scripted event, if any remain.
    pub fn next_at(&self) -> Option<SimTime> {
        self.timeline.get(self.cursor).map(|(at, _)| *at)
    }

    /// Removes and returns every scripted event due at or before `now`,
    /// in timeline order. The driver applies each: topology events go back
    /// into [`FaultOracle::apply`]; node-scoped events (crash waves) are
    /// executed by the driver itself.
    pub fn take_due(&mut self, now: SimTime) -> Vec<FaultEvent> {
        let mut due = Vec::new();
        while let Some((at, _)) = self.timeline.get(self.cursor) {
            if *at > now {
                break;
            }
            due.push(self.timeline[self.cursor].1.clone());
            self.cursor += 1;
        }
        due
    }

    /// Folds a topology event into the active state. Returns `true` when
    /// the event was consumed here; `false` for node-scoped events the
    /// driver must execute ([`FaultEvent::CrashWave`],
    /// [`FaultEvent::CrashNodes`]).
    pub fn apply(&mut self, event: &FaultEvent) -> bool {
        match event {
            FaultEvent::PartitionStart { id, regions } => {
                self.partitions.push((*id, regions.clone()));
                true
            }
            FaultEvent::PartitionEnd { id } => {
                self.partitions.retain(|(pid, _)| pid != id);
                true
            }
            FaultEvent::DegradeStart { id, scope, latency_factor, loss_prob } => {
                self.degradations.push((*id, *scope, *latency_factor, *loss_prob));
                true
            }
            FaultEvent::DegradeEnd { id } => {
                self.degradations.retain(|(did, ..)| did != id);
                true
            }
            FaultEvent::DialFailSpikeStart { id, extra_fail_prob } => {
                self.dial_spikes.push((*id, *extra_fail_prob));
                true
            }
            FaultEvent::DialFailSpikeEnd { id } => {
                self.dial_spikes.retain(|(sid, _)| sid != id);
                true
            }
            FaultEvent::CrashWave { .. } | FaultEvent::CrashNodes { .. } => false,
        }
    }

    /// Whether the path between zones `a` and `b` is cut by an active
    /// partition: some partition contains exactly one of the endpoints.
    /// Intra-group traffic (both endpoints inside, or both outside) flows.
    pub fn blocked(&self, a: Region, b: Region) -> bool {
        self.partitions.iter().any(|(_, group)| group.contains(&a) != group.contains(&b))
    }

    /// Combined latency multiplier for the path (product of every active
    /// degradation covering it; `1.0` when none do).
    pub fn latency_factor(&self, a: Region, b: Region) -> f64 {
        self.degradations
            .iter()
            .filter(|(_, scope, ..)| scope.covers(a, b))
            .map(|(_, _, f, _)| *f)
            .product()
    }

    /// Combined per-message loss probability for the path: independent
    /// losses compose as `1 - prod(1 - p)`.
    pub fn loss_prob(&self, a: Region, b: Region) -> f64 {
        1.0 - self
            .degradations
            .iter()
            .filter(|(_, scope, ..)| scope.covers(a, b))
            .map(|(_, _, _, p)| 1.0 - *p)
            .product::<f64>()
    }

    /// Extra network-wide dial-failure probability (independent spikes
    /// compose like losses).
    pub fn extra_dial_fail_prob(&self) -> f64 {
        1.0 - self.dial_spikes.iter().map(|(_, p)| 1.0 - *p).product::<f64>()
    }

    /// Number of currently active partitions.
    pub fn partitions_active(&self) -> usize {
        self.partitions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn drive(oracle: &mut FaultOracle, now: SimTime) -> Vec<FaultEvent> {
        let due = oracle.take_due(now);
        let mut node_scoped = Vec::new();
        for ev in &due {
            if !oracle.apply(ev) {
                node_scoped.push(ev.clone());
            }
        }
        node_scoped
    }

    #[test]
    fn idle_oracle_answers_no_fault() {
        let oracle = FaultOracle::idle();
        assert!(oracle.is_idle());
        assert!(!oracle.blocked(Region::Africa, Region::EuropeCentral));
        assert_eq!(oracle.latency_factor(Region::Africa, Region::EuropeCentral), 1.0);
        assert_eq!(oracle.loss_prob(Region::Africa, Region::EuropeCentral), 0.0);
        assert_eq!(oracle.extra_dial_fail_prob(), 0.0);
        assert_eq!(oracle.next_at(), None);
    }

    #[test]
    fn partition_window_blocks_then_heals_symmetrically() {
        let mut plan = FaultPlan::new();
        plan.partition(t(10), SimDuration::from_secs(20), vec![Region::EuropeCentral]);
        let mut oracle = FaultOracle::new(plan);
        assert_eq!(oracle.next_at(), Some(t(10)));
        assert!(!oracle.blocked(Region::EuropeCentral, Region::Africa));

        drive(&mut oracle, t(10));
        assert!(oracle.has_active_faults());
        assert_eq!(oracle.partitions_active(), 1);
        assert!(oracle.blocked(Region::EuropeCentral, Region::Africa));
        assert!(oracle.blocked(Region::Africa, Region::EuropeCentral), "both directions cut");
        // Both endpoints inside (trivially, the same zone) or both outside:
        // traffic flows.
        assert!(!oracle.blocked(Region::EuropeCentral, Region::EuropeCentral));
        assert!(!oracle.blocked(Region::Africa, Region::EastAsia));

        drive(&mut oracle, t(30));
        assert!(!oracle.blocked(Region::EuropeCentral, Region::Africa));
        assert!(oracle.is_idle());
    }

    #[test]
    fn multi_region_group_stays_internally_connected() {
        let mut plan = FaultPlan::new();
        plan.partition(
            t(0),
            SimDuration::from_secs(60),
            vec![Region::EuropeCentral, Region::EuropeWest],
        );
        let mut oracle = FaultOracle::new(plan);
        drive(&mut oracle, t(0));
        assert!(!oracle.blocked(Region::EuropeCentral, Region::EuropeWest), "intra-group flows");
        assert!(oracle.blocked(Region::EuropeWest, Region::NorthAmericaEast));
    }

    #[test]
    fn degradations_compose_and_expire() {
        let mut plan = FaultPlan::new();
        plan.degrade(t(0), SimDuration::from_secs(100), LinkScope::All, 2.0, 0.5);
        plan.degrade(t(0), SimDuration::from_secs(50), LinkScope::Region(Region::Africa), 3.0, 0.5);
        let mut oracle = FaultOracle::new(plan);
        drive(&mut oracle, t(0));
        assert_eq!(oracle.latency_factor(Region::Africa, Region::EastAsia), 6.0);
        assert_eq!(oracle.latency_factor(Region::EastAsia, Region::Oceania), 2.0);
        assert!((oracle.loss_prob(Region::Africa, Region::EastAsia) - 0.75).abs() < 1e-12);
        drive(&mut oracle, t(50));
        assert_eq!(oracle.latency_factor(Region::Africa, Region::EastAsia), 2.0);
        drive(&mut oracle, t(100));
        assert!(oracle.is_idle());
    }

    #[test]
    fn crash_waves_are_returned_to_the_driver() {
        let mut plan = FaultPlan::new();
        plan.crash_wave(t(5), 0.25, SimDuration::from_secs(30));
        let mut oracle = FaultOracle::new(plan);
        let node_scoped = drive(&mut oracle, t(5));
        assert_eq!(node_scoped.len(), 1);
        assert!(
            matches!(node_scoped[0], FaultEvent::CrashWave { fraction, .. } if fraction == 0.25)
        );
        // A crash wave alone leaves no standing topology fault.
        assert!(!oracle.has_active_faults());
        assert!(oracle.is_idle());
    }

    #[test]
    fn take_due_is_incremental_and_ordered() {
        let mut plan = FaultPlan::new();
        plan.dial_fail_spike(t(10), SimDuration::from_secs(10), 0.5);
        plan.crash_wave(t(15), 0.1, SimDuration::from_secs(5));
        let mut oracle = FaultOracle::new(plan);
        assert!(oracle.take_due(t(9)).is_empty());
        let first = oracle.take_due(t(12));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].label(), "dial_fail_spike_start");
        let rest = oracle.take_due(t(60));
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].label(), "crash_wave");
        assert_eq!(rest[1].label(), "dial_fail_spike_end");
        assert!(oracle.take_due(t(999)).is_empty());
    }

    #[test]
    fn proptest_windows_always_clear_and_block_symmetrically() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(64), |(
            windows in proptest::collection::vec((0u64..500, 1u64..200, 0usize..10), 1..12),
        )| {
            let mut plan = FaultPlan::new();
            let mut horizon = 0u64;
            for (start, dur, region_idx) in &windows {
                let region = Region::ALL[region_idx % Region::ALL.len()];
                match region_idx % 3 {
                    0 => { plan.partition(t(*start), SimDuration::from_secs(*dur), vec![region]); }
                    1 => { plan.degrade(t(*start), SimDuration::from_secs(*dur), LinkScope::Region(region), 2.0, 0.25); }
                    _ => { plan.dial_fail_spike(t(*start), SimDuration::from_secs(*dur), 0.4); }
                }
                horizon = horizon.max(start + dur);
            }
            let mut oracle = FaultOracle::new(plan);
            // Walk the timeline second by second: blocked() must stay
            // symmetric throughout, and everything clears by the horizon.
            for s in 0..=horizon {
                for ev in oracle.take_due(t(s)) {
                    oracle.apply(&ev);
                }
                for a in Region::ALL {
                    for b in Region::ALL {
                        prop_assert_eq!(oracle.blocked(a, b), oracle.blocked(b, a));
                        prop_assert!(oracle.latency_factor(a, b) >= 1.0);
                        let p = oracle.loss_prob(a, b);
                        prop_assert!((0.0..=1.0).contains(&p));
                    }
                }
            }
            prop_assert!(oracle.is_idle(), "all windows must close by the horizon");
        });
    }
}
