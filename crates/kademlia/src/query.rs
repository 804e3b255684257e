//! The iterative lookup state machine ("DHT walk", paper §3.2).
//!
//! "The DHT implements multi-round iterative lookups ... the request is
//! forwarded to α=3 nodes whose PeerIDs are closest to x in peer A's
//! routing table. ... The process continues until the node is returned with
//! the PeerID that has previously declared to hold a copy of the requested
//! CID."
//!
//! Three walk flavours exist, differing only in their termination rule:
//!
//! - [`QueryTarget::Closest`] — find the `k` closest peers to a key (the
//!   *publication* walk, §3.1: locate the 20 peers that will store the
//!   provider record). Terminates when the best `k` known candidates have
//!   all responded.
//! - [`QueryTarget::Providers`] — find a provider record (the first
//!   *retrieval* walk). Terminates as soon as any provider record is
//!   returned ("a retrieval DHT walk terminates after the discovery of a
//!   single record-hosting node", §6.2).
//! - [`QueryTarget::Peer`] — resolve a PeerID to its addresses (the second
//!   retrieval walk). Terminates when the target peer appears (with
//!   addresses) in a reply.
//!
//! The machine is sans-io: `IterativeQuery::next_step` says whom to
//! query, the driver performs the RPCs and feeds back
//! [`IterativeQuery::on_response`] / [`IterativeQuery::on_failure`].

use crate::key::{Distance, Key};
use crate::records::ProviderRecord;
use crate::routing::{PeerInfo, K};
use crate::ALPHA;
use multiformats::PeerId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the walk is looking for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// The `k` closest peers to the key (publication walk).
    Closest,
    /// Provider records for the key (first retrieval walk).
    Providers,
    /// The address record of this specific peer (second retrieval walk).
    Peer(PeerId),
    /// An opaque stored value (IPNS resolution, §3.3). Terminates on the
    /// first value found; the caller's validator arbitrates conflicts.
    Value,
}

/// Final outcome of a completed walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The `k` closest responsive peers, nearest first.
    Closest(Vec<Arc<PeerInfo>>),
    /// Provider records found (non-empty), plus the peer that served them.
    Providers {
        /// The discovered records.
        records: Vec<ProviderRecord>,
        /// The server that returned them.
        served_by: PeerId,
    },
    /// The target peer's info, if found.
    Peer(Option<Arc<PeerInfo>>),
    /// A stored value, plus the peer that served it.
    Value {
        /// The opaque payload.
        value: Vec<u8>,
        /// The serving peer.
        served_by: PeerId,
    },
    /// The walk exhausted all candidates without satisfying the target.
    Exhausted,
}

/// One candidate's lifecycle within the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandidateState {
    /// Known but not yet contacted.
    New,
    /// RPC in flight.
    InFlight,
    /// Responded successfully.
    Responded,
    /// Failed (timeout, refused dial, ...).
    Failed,
}

/// A known peer together with its walk state, stored inline in the
/// distance-ordered candidate map so the walk never hashes a `PeerId`.
#[derive(Debug, Clone)]
struct Candidate {
    /// Shared with the routing tables / responses that produced it.
    info: Arc<PeerInfo>,
    state: CandidateState,
    /// Discovery depth: seeds are hop 0, a responder's closer set is its
    /// hop + 1.
    hop: u32,
}

/// Instruction from the query to its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStep {
    /// Send the walk's RPC to this peer.
    Query(Arc<PeerInfo>),
    /// Nothing to do until an in-flight RPC resolves.
    Wait,
    /// The walk is finished; collect [`IterativeQuery::outcome`].
    Done,
}

/// The iterative walk state machine.
#[derive(Debug, Clone)]
pub struct IterativeQuery {
    target_key: Key,
    target: QueryTarget,
    alpha: usize,
    k: usize,
    /// All known candidates ordered by distance to the target. Keys are
    /// SHA-256 of the PeerID, so a distance names exactly one peer.
    candidates: BTreeMap<Distance, Candidate>,
    /// Candidates still in state `New`: the walk is exhausted once this
    /// and `in_flight` are both zero.
    unqueried: usize,
    in_flight: usize,
    /// Providers accumulated (Providers target).
    found_providers: Vec<ProviderRecord>,
    provider_server: Option<PeerId>,
    /// Peer info found (Peer target).
    found_peer: Option<Arc<PeerInfo>>,
    /// Value found (Value target).
    found_value: Option<(Vec<u8>, PeerId)>,
    /// Statistics: RPCs issued and responses processed.
    pub rpcs_sent: u64,
    /// Statistics: responses (successes) received.
    pub responses: u64,
    /// Statistics: failures (timeouts / refused dials).
    pub failures: u64,
    /// Maximum hop depth reached (seed peers = hop 0).
    pub max_hops: u32,
}

impl IterativeQuery {
    /// Starts a walk toward `target_key` seeded with the local routing
    /// table's closest peers.
    pub fn new(target_key: Key, target: QueryTarget, seeds: Vec<Arc<PeerInfo>>) -> IterativeQuery {
        let mut q = IterativeQuery {
            target_key,
            target,
            alpha: ALPHA,
            k: K,
            candidates: BTreeMap::new(),
            unqueried: 0,
            in_flight: 0,
            found_providers: Vec::new(),
            provider_server: None,
            found_peer: None,
            found_value: None,
            rpcs_sent: 0,
            responses: 0,
            failures: 0,
            max_hops: 0,
        };
        for seed in &seeds {
            q.add_candidate(seed, 0);
        }
        q
    }

    /// Overrides α (for the ablation benchmarks).
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        assert!(alpha >= 1);
        self.alpha = alpha;
        self
    }

    /// Overrides k.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.k = k;
        self
    }

    /// The key being walked toward.
    pub fn target_key(&self) -> &Key {
        &self.target_key
    }

    /// The walk flavour.
    pub fn target(&self) -> &QueryTarget {
        &self.target
    }

    fn add_candidate(&mut self, info: &Arc<PeerInfo>, hop: u32) {
        match self.candidates.entry(info.key().distance(&self.target_key)) {
            Entry::Occupied(mut known) => {
                // Keep the better (larger address set) info; never regress hop.
                let known = known.get_mut();
                if known.info.addrs.len() < info.addrs.len() {
                    known.info = Arc::clone(info);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Candidate { info: Arc::clone(info), state: CandidateState::New, hop });
                self.unqueried += 1;
                self.max_hops = self.max_hops.max(hop);
            }
        }
    }

    /// The in-flight candidate whose DHT key is `key`, if the walk is
    /// waiting on it. Stale, duplicate and unknown peers resolve to `None`.
    fn in_flight_candidate(&mut self, key: &Key) -> Option<&mut Candidate> {
        let dist = key.distance(&self.target_key);
        self.candidates.get_mut(&dist).filter(|c| c.state == CandidateState::InFlight)
    }

    /// Whether the termination condition holds.
    fn satisfied(&self) -> bool {
        match &self.target {
            QueryTarget::Providers => !self.found_providers.is_empty(),
            QueryTarget::Peer(_) => self.found_peer.is_some(),
            QueryTarget::Value => self.found_value.is_some(),
            QueryTarget::Closest => {
                // The k nearest known candidates have all responded (failed
                // peers are skipped — they don't count toward the k set).
                let mut responded = 0;
                for c in self.candidates.values() {
                    match c.state {
                        CandidateState::Responded => {
                            responded += 1;
                            if responded >= self.k {
                                return true;
                            }
                        }
                        CandidateState::Failed => continue,
                        // An unqueried or in-flight peer among the best k
                        // means we are not done.
                        _ => return false,
                    }
                }
                // Fewer than k candidates total: done once none are pending.
                self.exhausted()
            }
        }
    }

    /// Whether every candidate has been tried and the walk cannot progress.
    fn exhausted(&self) -> bool {
        self.in_flight == 0 && self.unqueried == 0
    }

    /// Asks the machine what to do next. Returns at most one step; call
    /// repeatedly until it returns [`QueryStep::Wait`] or [`QueryStep::Done`]
    /// (the α window is enforced across calls).
    pub fn next_step(&mut self) -> QueryStep {
        if self.satisfied() || self.exhausted() {
            return QueryStep::Done;
        }
        if self.in_flight >= self.alpha || self.unqueried == 0 {
            return QueryStep::Wait;
        }
        // Pick the nearest unqueried candidate.
        let next = self
            .candidates
            .values_mut()
            .find(|c| c.state == CandidateState::New)
            .expect("an unqueried candidate is counted");
        next.state = CandidateState::InFlight;
        self.unqueried -= 1;
        self.in_flight += 1;
        self.rpcs_sent += 1;
        QueryStep::Query(Arc::clone(&next.info))
    }

    /// Feeds back a successful response: closer peers and (for provider
    /// walks) any provider records.
    pub fn on_response(
        &mut self,
        from: &PeerId,
        closer: &[Arc<PeerInfo>],
        providers: &[ProviderRecord],
    ) {
        self.respond(&Key::from_peer(from), from, closer, providers, None)
    }

    /// Like [`IterativeQuery::on_response`] but also carrying a stored
    /// value (GET_VALUE responses). The responder is found by its cached
    /// key ([`PeerInfo::key`]), so a response hashes nothing.
    pub fn on_response_with_value(
        &mut self,
        from: &PeerInfo,
        closer: &[Arc<PeerInfo>],
        providers: &[ProviderRecord],
        value: Option<&[u8]>,
    ) {
        self.respond(&from.key(), &from.peer, closer, providers, value)
    }

    /// Feeds back the response of the in-flight peer `from`, whose DHT key
    /// is `key`.
    fn respond(
        &mut self,
        key: &Key,
        from: &PeerId,
        closer: &[Arc<PeerInfo>],
        providers: &[ProviderRecord],
        value: Option<&[u8]>,
    ) {
        let Some(responder) = self.in_flight_candidate(key) else {
            return; // stale, duplicate or late response
        };
        responder.state = CandidateState::Responded;
        let hop = responder.hop + 1;
        self.in_flight -= 1;
        self.responses += 1;
        for info in closer {
            // The responder may include the target peer itself.
            if let QueryTarget::Peer(wanted) = &self.target {
                if &info.peer == wanted && !info.addrs.is_empty() {
                    self.found_peer = Some(info.clone());
                }
            }
            self.add_candidate(info, hop);
        }
        if !providers.is_empty() && matches!(self.target, QueryTarget::Providers) {
            self.found_providers.extend(providers.iter().cloned());
            self.provider_server = Some(from.clone());
        }
        if let Some(v) = value {
            if matches!(self.target, QueryTarget::Value) && self.found_value.is_none() {
                self.found_value = Some((v.to_vec(), from.clone()));
            }
        }
    }

    /// Feeds back a failure (dial timeout, unreachable peer, ...) of the
    /// peer whose DHT key ([`PeerInfo::key`]) is `from`.
    pub fn on_failure(&mut self, from: &Key) {
        let Some(failed) = self.in_flight_candidate(from) else {
            return;
        };
        failed.state = CandidateState::Failed;
        self.in_flight -= 1;
        self.failures += 1;
    }

    /// The final outcome. Meaningful once [`QueryStep::Done`] is returned.
    pub fn outcome(&self) -> QueryOutcome {
        match &self.target {
            QueryTarget::Providers => {
                if self.found_providers.is_empty() {
                    QueryOutcome::Exhausted
                } else {
                    QueryOutcome::Providers {
                        records: self.found_providers.clone(),
                        served_by: self.provider_server.clone().expect("set with records"),
                    }
                }
            }
            QueryTarget::Peer(_) => {
                if self.found_peer.is_some() {
                    QueryOutcome::Peer(self.found_peer.clone())
                } else {
                    QueryOutcome::Exhausted
                }
            }
            QueryTarget::Value => match &self.found_value {
                Some((value, served_by)) => {
                    QueryOutcome::Value { value: value.clone(), served_by: served_by.clone() }
                }
                None => QueryOutcome::Exhausted,
            },
            QueryTarget::Closest => {
                let mut out = Vec::with_capacity(self.k);
                for c in self.candidates.values() {
                    if c.state == CandidateState::Responded {
                        out.push(Arc::clone(&c.info));
                        if out.len() == self.k {
                            break;
                        }
                    }
                }
                if out.is_empty() {
                    QueryOutcome::Exhausted
                } else {
                    QueryOutcome::Closest(out)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::{Cid, Keypair};
    use simnet::SimTime;

    fn peer(seed: u64) -> Arc<PeerInfo> {
        Arc::new(PeerInfo::new(Keypair::from_seed(seed).peer_id(), vec![]))
    }

    fn target() -> Key {
        Key::from_cid(&Cid::from_raw_data(b"the content"))
    }

    /// A tiny in-test "network": peers 1..n, each knowing the true closest
    /// peers to any target (ideal routing tables).
    struct MiniNet {
        peers: Vec<Arc<PeerInfo>>,
    }

    impl MiniNet {
        fn new(n: u64) -> MiniNet {
            MiniNet { peers: (1..=n).map(peer).collect() }
        }

        fn closest(&self, t: &Key, count: usize, exclude: &PeerId) -> Vec<Arc<PeerInfo>> {
            let mut v: Vec<(Distance, Arc<PeerInfo>)> = self
                .peers
                .iter()
                .filter(|p| &p.peer != exclude)
                .map(|p| (Key::from_peer(&p.peer).distance(t), p.clone()))
                .collect();
            v.sort_by_key(|a| a.0);
            v.into_iter().take(count).map(|(_, p)| p).collect()
        }

        fn true_k_closest(&self, t: &Key, k: usize) -> Vec<PeerId> {
            let mut v: Vec<(Distance, PeerId)> = self
                .peers
                .iter()
                .map(|p| (Key::from_peer(&p.peer).distance(t), p.peer.clone()))
                .collect();
            v.sort_by_key(|a| a.0);
            v.into_iter().take(k).map(|(_, p)| p).collect()
        }
    }

    /// Drives a query to completion against the mininet, with an optional
    /// failure predicate.
    fn drive(
        net: &MiniNet,
        mut q: IterativeQuery,
        fails: impl Fn(&PeerId) -> bool,
    ) -> IterativeQuery {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100_000, "query did not terminate");
            match q.next_step() {
                QueryStep::Done => return q,
                QueryStep::Wait => unreachable!("synchronous driver never waits"),
                QueryStep::Query(info) => {
                    if fails(&info.peer) {
                        q.on_failure(&info.key());
                    } else {
                        let closer = net.closest(q.target_key(), K, &info.peer);
                        q.on_response(&info.peer, &closer, &[]);
                    }
                }
            }
        }
    }

    #[test]
    fn closest_walk_converges_to_true_k_closest() {
        let net = MiniNet::new(300);
        let t = target();
        let seeds = vec![peer(1), peer(2), peer(3)];
        let q = drive(&net, IterativeQuery::new(t, QueryTarget::Closest, seeds), |_| false);
        match q.outcome() {
            QueryOutcome::Closest(found) => {
                let found_ids: Vec<PeerId> = found.iter().map(|p| p.peer.clone()).collect();
                assert_eq!(found_ids, net.true_k_closest(&t, K));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn closest_walk_skips_failed_peers() {
        let net = MiniNet::new(300);
        let t = target();
        // The single truly-closest peer always times out.
        let dead = net.true_k_closest(&t, 1)[0].clone();
        let seeds = vec![peer(1), peer(2), peer(3)];
        let q = drive(&net, IterativeQuery::new(t, QueryTarget::Closest, seeds), |p| *p == dead);
        match q.outcome() {
            QueryOutcome::Closest(found) => {
                assert_eq!(found.len(), K);
                assert!(!found.iter().any(|p| p.peer == dead));
                assert!(q.failures >= 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn provider_walk_terminates_on_first_record() {
        let net = MiniNet::new(300);
        let t = target();
        // Give the 5th-closest peer a provider record; the walk should stop
        // as soon as it reaches it (before exhaustively querying the net).
        let holder = net.true_k_closest(&t, 5)[4].clone();
        let record = ProviderRecord {
            key: t,
            provider: Keypair::from_seed(999).peer_id(),
            addrs: vec![],
            received_at: SimTime::ZERO,
        };
        let seeds = vec![peer(1), peer(2), peer(3)];
        let mut q = IterativeQuery::new(t, QueryTarget::Providers, seeds);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            match q.next_step() {
                QueryStep::Done => break,
                QueryStep::Wait => unreachable!(),
                QueryStep::Query(info) => {
                    let closer = net.closest(q.target_key(), K, &info.peer);
                    let provs = if info.peer == holder { vec![record.clone()] } else { vec![] };
                    q.on_response(&info.peer, &closer, &provs);
                }
            }
        }
        match q.outcome() {
            QueryOutcome::Providers { records, served_by } => {
                assert_eq!(records, vec![record]);
                assert_eq!(served_by, holder);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(q.rpcs_sent < 50, "provider walk should terminate early, sent {}", q.rpcs_sent);
    }

    #[test]
    fn peer_walk_finds_target_addresses() {
        let net = MiniNet::new(200);
        let wanted = Keypair::from_seed(42).peer_id();
        let addr: multiformats::Multiaddr = "/ip4/4.4.4.4/tcp/4001".parse().unwrap();
        let t = Key::from_peer(&wanted);
        let seeds = vec![peer(1), peer(2), peer(3)];
        let mut q = IterativeQuery::new(t, QueryTarget::Peer(wanted.clone()), seeds);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            match q.next_step() {
                QueryStep::Done => break,
                QueryStep::Wait => unreachable!(),
                QueryStep::Query(info) => {
                    let mut closer = net.closest(q.target_key(), K, &info.peer);
                    // Peers close to the target know its addresses.
                    if Key::from_peer(&info.peer).distance(&t).leading_zeros() >= 2 {
                        closer.push(Arc::new(PeerInfo::new(wanted.clone(), vec![addr.clone()])));
                    }
                    q.on_response(&info.peer, &closer, &[]);
                }
            }
        }
        match q.outcome() {
            QueryOutcome::Peer(Some(info)) => {
                assert_eq!(info.peer, wanted);
                assert_eq!(info.addrs, vec![addr]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn walk_exhausts_when_nothing_found() {
        let net = MiniNet::new(50);
        let t = target();
        let seeds = vec![peer(1)];
        let mut q = IterativeQuery::new(t, QueryTarget::Providers, seeds);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            match q.next_step() {
                QueryStep::Done => break,
                QueryStep::Wait => unreachable!(),
                QueryStep::Query(info) => {
                    let closer = net.closest(q.target_key(), K, &info.peer);
                    q.on_response(&info.peer, &closer, &[]);
                }
            }
        }
        assert_eq!(q.outcome(), QueryOutcome::Exhausted);
        // It must query every peer it learned about before giving up: the
        // seed plus the K closest peers replies ever reveal (replies only
        // mention each responder's top-K, so distant peers stay unknown).
        assert!(q.rpcs_sent >= (K + 1) as u64, "sent {}", q.rpcs_sent);
        assert_eq!(q.failures, 0);
    }

    #[test]
    fn all_failures_exhausts() {
        let net = MiniNet::new(100);
        let t = target();
        let q = drive(
            &net,
            IterativeQuery::new(t, QueryTarget::Closest, vec![peer(1), peer(2)]),
            |_| true,
        );
        assert_eq!(q.outcome(), QueryOutcome::Exhausted);
        assert_eq!(q.failures, 2, "only the seeds were known");
    }

    #[test]
    fn alpha_limits_inflight() {
        let t = target();
        let seeds: Vec<Arc<PeerInfo>> = (1..=10).map(peer).collect();
        let mut q = IterativeQuery::new(t, QueryTarget::Closest, seeds);
        let mut issued = 0;
        loop {
            match q.next_step() {
                QueryStep::Query(_) => issued += 1,
                QueryStep::Wait => break,
                QueryStep::Done => break,
            }
        }
        assert_eq!(issued, ALPHA, "must stop at α in-flight requests");
    }

    #[test]
    fn duplicate_and_stale_responses_ignored() {
        let net = MiniNet::new(30);
        let t = target();
        let mut q = IterativeQuery::new(t, QueryTarget::Closest, vec![peer(1)]);
        let QueryStep::Query(info) = q.next_step() else { panic!() };
        let closer = net.closest(&t, K, &info.peer);
        q.on_response(&info.peer, &closer, &[]);
        let responses_before = q.responses;
        // Duplicate response: ignored.
        q.on_response(&info.peer, &closer, &[]);
        assert_eq!(q.responses, responses_before);
        // Response from a peer never queried: ignored.
        let stranger = Keypair::from_seed(777).peer_id();
        q.on_response(&stranger, &closer, &[]);
        assert_eq!(q.responses, responses_before);
    }

    #[test]
    fn hop_count_tracks_discovery_depth() {
        let net = MiniNet::new(300);
        let t = target();
        let q = drive(&net, IterativeQuery::new(t, QueryTarget::Closest, vec![peer(1)]), |_| false);
        assert!(q.max_hops >= 1, "walk must traverse at least one hop");
    }

    /// The walk as it was before candidate state moved inline: states and
    /// hop depths in `PeerId`-keyed hash maps, every scan a hash lookup per
    /// candidate. Kept as the differential oracle for [`IterativeQuery`].
    mod oracle {
        use super::super::*;
        use std::collections::HashMap;

        pub struct HashMapQuery {
            target_key: Key,
            target: QueryTarget,
            alpha: usize,
            k: usize,
            candidates: BTreeMap<Distance, Arc<PeerInfo>>,
            state: HashMap<PeerId, CandidateState>,
            in_flight: usize,
            found_providers: Vec<ProviderRecord>,
            provider_server: Option<PeerId>,
            found_peer: Option<Arc<PeerInfo>>,
            found_value: Option<(Vec<u8>, PeerId)>,
            pub rpcs_sent: u64,
            pub responses: u64,
            pub failures: u64,
            hop_of: HashMap<PeerId, u32>,
            pub max_hops: u32,
        }

        impl HashMapQuery {
            pub fn new(
                target_key: Key,
                target: QueryTarget,
                seeds: Vec<Arc<PeerInfo>>,
                alpha: usize,
                k: usize,
            ) -> HashMapQuery {
                let mut q = HashMapQuery {
                    target_key,
                    target,
                    alpha,
                    k,
                    candidates: BTreeMap::new(),
                    state: HashMap::new(),
                    in_flight: 0,
                    found_providers: Vec::new(),
                    provider_server: None,
                    found_peer: None,
                    found_value: None,
                    rpcs_sent: 0,
                    responses: 0,
                    failures: 0,
                    hop_of: HashMap::new(),
                    max_hops: 0,
                };
                for seed in seeds {
                    q.add_candidate(seed, 0);
                }
                q
            }

            fn add_candidate(&mut self, info: Arc<PeerInfo>, hop: u32) {
                let dist = info.key().distance(&self.target_key);
                if self.state.contains_key(&info.peer) {
                    if let Some(existing) = self.candidates.get_mut(&dist) {
                        if existing.addrs.len() < info.addrs.len() {
                            *existing = info;
                        }
                    }
                    return;
                }
                self.state.insert(info.peer.clone(), CandidateState::New);
                self.hop_of.insert(info.peer.clone(), hop);
                self.max_hops = self.max_hops.max(hop);
                self.candidates.insert(dist, info);
            }

            fn satisfied(&self) -> bool {
                match &self.target {
                    QueryTarget::Providers => !self.found_providers.is_empty(),
                    QueryTarget::Peer(_) => self.found_peer.is_some(),
                    QueryTarget::Value => self.found_value.is_some(),
                    QueryTarget::Closest => {
                        let mut responded = 0;
                        for info in self.candidates.values() {
                            match self.state[&info.peer] {
                                CandidateState::Responded => {
                                    responded += 1;
                                    if responded >= self.k {
                                        return true;
                                    }
                                }
                                CandidateState::Failed => continue,
                                _ => return false,
                            }
                        }
                        self.exhausted()
                    }
                }
            }

            fn exhausted(&self) -> bool {
                self.in_flight == 0
                    && !self
                        .candidates
                        .values()
                        .any(|i| matches!(self.state[&i.peer], CandidateState::New))
            }

            pub fn next_step(&mut self) -> QueryStep {
                if self.satisfied() || self.exhausted() {
                    return QueryStep::Done;
                }
                if self.in_flight >= self.alpha {
                    return QueryStep::Wait;
                }
                let next = self
                    .candidates
                    .values()
                    .find(|i| matches!(self.state[&i.peer], CandidateState::New))
                    .cloned();
                match next {
                    Some(info) => {
                        self.state.insert(info.peer.clone(), CandidateState::InFlight);
                        self.in_flight += 1;
                        self.rpcs_sent += 1;
                        QueryStep::Query(info)
                    }
                    None if self.in_flight > 0 => QueryStep::Wait,
                    None => QueryStep::Done,
                }
            }

            pub fn on_response(
                &mut self,
                from: &PeerId,
                closer: &[Arc<PeerInfo>],
                providers: &[ProviderRecord],
                value: Option<&[u8]>,
            ) {
                let Some(state) = self.state.get_mut(from) else {
                    return;
                };
                if *state != CandidateState::InFlight {
                    return;
                }
                *state = CandidateState::Responded;
                self.in_flight -= 1;
                self.responses += 1;
                let hop = self.hop_of.get(from).copied().unwrap_or(0) + 1;
                for info in closer {
                    if let QueryTarget::Peer(wanted) = &self.target {
                        if &info.peer == wanted && !info.addrs.is_empty() {
                            self.found_peer = Some(info.clone());
                        }
                    }
                    self.add_candidate(info.clone(), hop);
                }
                if !providers.is_empty() && matches!(self.target, QueryTarget::Providers) {
                    self.found_providers.extend(providers.iter().cloned());
                    self.provider_server = Some(from.clone());
                }
                if let Some(v) = value {
                    if matches!(self.target, QueryTarget::Value) && self.found_value.is_none() {
                        self.found_value = Some((v.to_vec(), from.clone()));
                    }
                }
            }

            pub fn on_failure(&mut self, from: &PeerId) {
                let Some(state) = self.state.get_mut(from) else {
                    return;
                };
                if *state != CandidateState::InFlight {
                    return;
                }
                *state = CandidateState::Failed;
                self.in_flight -= 1;
                self.failures += 1;
            }

            pub fn outcome(&self) -> QueryOutcome {
                match &self.target {
                    QueryTarget::Providers if self.found_providers.is_empty() => {
                        QueryOutcome::Exhausted
                    }
                    QueryTarget::Providers => QueryOutcome::Providers {
                        records: self.found_providers.clone(),
                        served_by: self.provider_server.clone().expect("set with records"),
                    },
                    QueryTarget::Peer(_) if self.found_peer.is_some() => {
                        QueryOutcome::Peer(self.found_peer.clone())
                    }
                    QueryTarget::Peer(_) => QueryOutcome::Exhausted,
                    QueryTarget::Value => match &self.found_value {
                        Some((value, served_by)) => QueryOutcome::Value {
                            value: value.clone(),
                            served_by: served_by.clone(),
                        },
                        None => QueryOutcome::Exhausted,
                    },
                    QueryTarget::Closest => {
                        let out: Vec<Arc<PeerInfo>> = self
                            .candidates
                            .values()
                            .filter(|i| self.state[&i.peer] == CandidateState::Responded)
                            .take(self.k)
                            .cloned()
                            .collect();
                        if out.is_empty() {
                            QueryOutcome::Exhausted
                        } else {
                            QueryOutcome::Closest(out)
                        }
                    }
                }
            }
        }
    }

    /// Random interleavings of steps, responses and failures drive the
    /// inline-state walk and the hash-map oracle side by side; after every
    /// input both must agree on the step taken, the statistics and the
    /// outcome. Responders include in-flight peers (the common case),
    /// known peers that already answered or failed (duplicates, stale
    /// replies), peers never mentioned and a stranger outside the universe;
    /// closer sets re-mention known peers with more or fewer addresses.
    #[test]
    fn proptest_walk_matches_hashmap_oracle() {
        use proptest::prelude::*;
        const UNIVERSE: usize = 48;
        // Each peer in four address variants: none, two different single
        // addresses, two addresses.
        let variants: Vec<[Arc<PeerInfo>; 4]> = (1..=UNIVERSE as u64)
            .map(|seed| {
                let id = Keypair::from_seed(seed).peer_id();
                let addr = |port: u64| -> multiformats::Multiaddr {
                    format!("/ip4/10.0.0.{}/tcp/{port}", seed % 250).parse().unwrap()
                };
                [
                    Arc::new(PeerInfo::new(id.clone(), vec![])),
                    Arc::new(PeerInfo::new(id.clone(), vec![addr(1)])),
                    Arc::new(PeerInfo::new(id.clone(), vec![addr(3)])),
                    Arc::new(PeerInfo::new(id, vec![addr(1), addr(2)])),
                ]
            })
            .collect();
        let stranger = Keypair::from_seed(10_000).peer_id();
        let wanted = variants[7][0].peer.clone();
        proptest!(ProptestConfig::with_cases(200), |(
            setup in (0u8..4, 1usize..5, 1usize..9, 0u64..1_000),
            seeds in proptest::collection::vec((0usize..UNIVERSE, 0usize..4), 0..6),
            ops in proptest::collection::vec(
                (0u8..10, any::<u16>(), proptest::collection::vec((0usize..UNIVERSE, 0usize..4), 0..7), 0u8..6),
                1..120,
            ),
        )| {
            let (flavour, alpha, k, key_seed) = setup;
            let (target, target_key) = match flavour {
                0 => (QueryTarget::Closest, Key::from_cid(&Cid::from_raw_data(&key_seed.to_be_bytes()))),
                1 => (QueryTarget::Providers, Key::from_cid(&Cid::from_raw_data(&key_seed.to_be_bytes()))),
                2 => (QueryTarget::Value, Key::from_cid(&Cid::from_raw_data(&key_seed.to_be_bytes()))),
                _ => (QueryTarget::Peer(wanted.clone()), Key::from_peer(&wanted)),
            };
            let seed_infos: Vec<Arc<PeerInfo>> =
                seeds.iter().map(|&(p, v)| Arc::clone(&variants[p][v])).collect();
            let mut walk = IterativeQuery::new(target_key, target.clone(), seed_infos.clone())
                .with_alpha(alpha)
                .with_k(k);
            let mut oracle = oracle::HashMapQuery::new(target_key, target, seed_infos, alpha, k);
            let mut asked: Vec<PeerId> = Vec::new();
            for (kind, pick, closer, extra) in ops {
                let pick = pick as usize;
                match kind {
                    // Ask for the next step (most common input).
                    0..=3 => {
                        let step = walk.next_step();
                        prop_assert_eq!(&step, &oracle.next_step());
                        if let QueryStep::Query(info) = step {
                            asked.push(info.peer.clone());
                        }
                    }
                    // Respond or fail: an in-flight peer, an earlier
                    // responder (duplicate / stale), any universe peer or
                    // the stranger.
                    _ => {
                        let from = match extra {
                            0..=2 if !asked.is_empty() => asked.remove(pick % asked.len()),
                            3 if !asked.is_empty() => asked[pick % asked.len()].clone(),
                            4 => variants[pick % UNIVERSE][0].peer.clone(),
                            _ => stranger.clone(),
                        };
                        if kind == 9 {
                            walk.on_failure(&Key::from_peer(&from));
                            oracle.on_failure(&from);
                        } else {
                            let closer: Vec<Arc<PeerInfo>> =
                                closer.iter().map(|&(p, v)| Arc::clone(&variants[p][v])).collect();
                            let providers = if kind == 8 {
                                vec![ProviderRecord {
                                    key: target_key,
                                    provider: variants[pick % UNIVERSE][0].peer.clone(),
                                    addrs: vec![],
                                    received_at: SimTime::ZERO,
                                }]
                            } else {
                                vec![]
                            };
                            let value = (kind == 7).then_some(&b"record"[..]);
                            let info = PeerInfo::new(from.clone(), vec![]);
                            walk.on_response_with_value(&info, &closer, &providers, value);
                            oracle.on_response(&from, &closer, &providers, value);
                        }
                    }
                }
                prop_assert_eq!(
                    (walk.rpcs_sent, walk.responses, walk.failures, walk.max_hops),
                    (oracle.rpcs_sent, oracle.responses, oracle.failures, oracle.max_hops)
                );
                prop_assert_eq!(walk.outcome(), oracle.outcome());
            }
        });
    }
}
