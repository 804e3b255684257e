//! The per-transfer session layer: multi-peer swarm download of one DAG.
//!
//! A [`Session`] owns the client half of §3.2's exchange for a single
//! fetch: it broadcasts WANT-HAVE to its candidate peers, tracks each
//! peer's response latency with an exponentially-decayed score, splits
//! live wants across the best peers as WANT-BLOCK (with a configurable
//! duplicate factor, à la go-bitswap / iroh's session splitter), handles
//! HAVE / DONT_HAVE bookkeeping, re-queues wants when a peer reneges or
//! crashes, and accounts duplicate blocks received.
//!
//! The session is pure bookkeeping: every method returns `(PeerId,
//! Message)` pairs for [`crate::BitswapEngine`] to stamp into ledgers and
//! hand to the driver. All internal collections iterate in insertion
//! order (`Vec`, never a hashed set), so the message sequence — and
//! therefore the simulator's RNG stream — is a pure function of the
//! call sequence.
//!
//! **Degradation guarantee:** with one candidate peer and
//! `duplicate_factor == 1` (the defaults), the session emits exactly the
//! message sequence of the pre-session single-provider engine: a direct
//! WANT-BLOCK per missing block to that peer, children requested in link
//! order as branch nodes decode. The fig10 small-object retrieval path is
//! byte-identical.

use crate::message::Message;
use multiformats::{Cid, PeerId};

/// Maximum number of candidate peers a WANT-HAVE is broadcast to
/// (go-bitswap's `BROADCAST_LIVE_WANTS_LIMIT`).
const BROADCAST_LIMIT: usize = 64;
const _: () = assert!(BROADCAST_LIMIT >= 1);

/// Weight of the newest latency sample in the exponentially-decayed
/// per-peer response score (`score = alpha*sample + (1-alpha)*score`).
const EWMA_ALPHA: f64 = 0.5;

/// Tuning knobs for a session (the paper's §3.2 exchange plus the
/// go-bitswap session extensions).
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// How many peers each live want is sent to as WANT-BLOCK. `1` fetches
    /// every block exactly once; higher values trade duplicate traffic for
    /// tail-latency robustness (go-bitswap's "duplicate factor").
    pub duplicate_factor: usize,
    /// Cap on WANT-BLOCKs outstanding at any one peer when the swarm has
    /// several candidates (go-bitswap's live-want trickle). Wants beyond
    /// the aggregate budget wait in a backlog and are dispatched as blocks
    /// arrive, so load keeps rebalancing toward the peers that actually
    /// deliver. Single-candidate sessions ignore the budget (the legacy
    /// direct path).
    pub max_inflight_per_peer: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig { duplicate_factor: 1, max_inflight_per_peer: 4 }
    }
}

/// Per-peer bookkeeping inside one session.
#[derive(Debug, Clone)]
struct PeerState {
    id: PeerId,
    /// Exponentially-decayed response latency in nanoseconds (0 until the
    /// first sample: optimistic, so untried peers get work).
    score_nanos: f64,
    /// Latency samples folded into the score.
    samples: u64,
    /// Blocks this peer delivered.
    blocks: u64,
    /// WANT-BLOCKs currently outstanding at this peer.
    inflight: usize,
    /// Peer answered HAVE at least once.
    saw_have: bool,
    /// Peer crashed / disconnected: never picked again.
    removed: bool,
}

impl PeerState {
    fn new(id: PeerId) -> PeerState {
        PeerState {
            id,
            score_nanos: 0.0,
            samples: 0,
            blocks: 0,
            inflight: 0,
            saw_have: false,
            removed: false,
        }
    }

    /// Ready to receive direct WANT-BLOCKs: proved responsive and alive.
    fn ready(&self) -> bool {
        !self.removed && (self.saw_have || self.blocks > 0)
    }
}

/// Progress of one wanted block.
#[derive(Debug, Clone)]
enum WantPhase {
    /// WANT-HAVE broadcast; waiting on answers from these peers.
    Probing { pending: Vec<PeerId>, havers: Vec<PeerId> },
    /// WANT-BLOCK sent to each `(peer, sent_at_nanos)` target.
    Fetching { targets: Vec<(PeerId, u64)>, fallback: Vec<PeerId> },
    /// Ready peers exist but are all at their in-flight budget; the want
    /// waits in the backlog until capacity frees up.
    Pending,
    /// Every reachable peer denied having the block.
    Stalled,
}

/// Counters a driver exports when the session ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Blocks received and verified.
    pub blocks_received: u64,
    /// Duplicate / unsolicited blocks discarded.
    pub duplicate_blocks: u64,
    /// WANT-BLOCK requests sent.
    pub wants_sent: u64,
    /// Wants re-queued to another peer after a renege or crash.
    pub reroutes: u64,
}

/// One client fetch session (see the module docs).
#[derive(Debug, Clone)]
pub struct Session {
    cfg: SessionConfig,
    peers: Vec<PeerState>,
    /// Outstanding wants in insertion order (deterministic iteration; the
    /// set stays small — one entry per in-flight block of the DAG).
    wants: Vec<(Cid, WantPhase)>,
    /// Blocks already delivered to this session, for duplicate
    /// attribution after the want is gone.
    done: std::collections::HashSet<Cid>,
    stats: SessionStats,
    complete: bool,
    /// `(peer, latency_nanos)` response samples not yet drained.
    latency_samples: Vec<(PeerId, u64)>,
}

impl Session {
    /// A session over `peers` (insertion order is the deterministic
    /// tiebreak everywhere).
    pub fn new(peers: Vec<PeerId>, cfg: SessionConfig) -> Session {
        Session {
            cfg,
            peers: peers.into_iter().map(PeerState::new).collect(),
            wants: Vec::new(),
            done: std::collections::HashSet::new(),
            stats: SessionStats::default(),
            complete: false,
            latency_samples: Vec::new(),
        }
    }

    // ---- accessors ----------------------------------------------------

    /// Outstanding want count.
    pub fn outstanding(&self) -> usize {
        self.wants.len()
    }

    /// Whether every want has been satisfied.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Marks the session complete (driver calls once wants run dry).
    pub fn set_complete(&mut self) {
        self.complete = true;
    }

    /// Exportable counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Whether `cid` is an outstanding want.
    pub fn has_want(&self, cid: &Cid) -> bool {
        self.wants.iter().any(|(c, _)| c == cid)
    }

    /// Whether `cid` was already delivered to this session.
    pub fn was_delivered(&self, cid: &Cid) -> bool {
        self.done.contains(cid)
    }

    /// Counts a duplicate block against this session.
    pub fn count_duplicate(&mut self) {
        self.stats.duplicate_blocks += 1;
    }

    /// Peers that answered HAVE or delivered blocks — the candidates worth
    /// carrying into a follow-up session when a probe times out (§3.2's
    /// opportunistic phase feeding the DHT phase instead of being thrown
    /// away).
    pub fn responsive_peers(&self) -> Vec<PeerId> {
        self.peers.iter().filter(|p| p.ready()).map(|p| p.id.clone()).collect()
    }

    /// Number of candidate peers (including removed ones).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Every candidate peer in insertion order, removed ones included (the
    /// engine's peer index mirrors this list).
    pub(crate) fn peer_ids(&self) -> impl Iterator<Item = &PeerId> {
        self.peers.iter().map(|p| &p.id)
    }

    /// Drains the accumulated `(peer, latency_nanos)` response samples.
    pub fn take_latency_samples(&mut self) -> Vec<(PeerId, u64)> {
        std::mem::take(&mut self.latency_samples)
    }

    /// The exponentially-decayed latency score for `peer`, if known.
    pub fn peer_score_nanos(&self, peer: &PeerId) -> Option<f64> {
        self.peers.iter().find(|p| p.id == *peer).map(|p| p.score_nanos)
    }

    fn peer_mut(&mut self, id: &PeerId) -> Option<&mut PeerState> {
        self.peers.iter_mut().find(|p| p.id == *id)
    }

    fn active_peers(&self) -> usize {
        self.peers.iter().filter(|p| !p.removed).count()
    }

    fn want_mut(&mut self, cid: &Cid) -> Option<&mut WantPhase> {
        self.wants.iter_mut().find(|(c, _)| c == cid).map(|(_, s)| s)
    }

    fn remove_want(&mut self, cid: &Cid) -> Option<WantPhase> {
        let i = self.wants.iter().position(|(c, _)| c == cid)?;
        Some(self.wants.remove(i).1)
    }

    // ---- the splitter -------------------------------------------------

    /// Picks up to `duplicate_factor` peers for a fresh want: ready peers
    /// ordered by (fewest in-flight wants, best decayed latency, insertion
    /// order). Join-shortest-queue keeps every provider's uplink busy
    /// while the score steers ties toward the fastest responders. With
    /// `respect_budget`, peers at their in-flight cap are skipped (fresh
    /// wants queue instead); re-routes pass `false` — a displaced want
    /// must land somewhere.
    fn pick_targets(&mut self, exclude: &[PeerId], respect_budget: bool) -> Vec<PeerId> {
        let budget = self.cfg.max_inflight_per_peer.max(1);
        let mut ready: Vec<usize> = (0..self.peers.len())
            .filter(|&i| self.peers[i].ready() && !exclude.contains(&self.peers[i].id))
            .filter(|&i| !respect_budget || self.peers[i].inflight < budget)
            .collect();
        ready.sort_by(|&a, &b| {
            let pa = &self.peers[a];
            let pb = &self.peers[b];
            pa.inflight
                .cmp(&pb.inflight)
                .then(pa.score_nanos.total_cmp(&pb.score_nanos))
                .then(a.cmp(&b))
        });
        ready.truncate(self.cfg.duplicate_factor.max(1));
        ready.iter().map(|&i| self.peers[i].id.clone()).collect()
    }

    fn target(&mut self, cid: &Cid, to: PeerId, now: u64, out: &mut Vec<(PeerId, Message)>) {
        if let Some(p) = self.peer_mut(&to) {
            p.inflight += 1;
        }
        self.stats.wants_sent += 1;
        out.push((to.clone(), Message::WantBlock(cid.clone())));
        match self.want_mut(cid) {
            Some(WantPhase::Fetching { targets, .. }) => targets.push((to, now)),
            Some(state) => {
                *state = WantPhase::Fetching { targets: vec![(to, now)], fallback: Vec::new() }
            }
            None => {}
        }
    }

    /// Dispatches backlogged wants (in insertion order) to whatever ready
    /// capacity exists right now. Called whenever capacity frees (a block
    /// or DONT_HAVE arrives) or the ready set grows (a HAVE arrives).
    fn drain_pending(&mut self, now: u64, out: &mut Vec<(PeerId, Message)>) {
        loop {
            let next = self
                .wants
                .iter()
                .find(|(_, ph)| matches!(ph, WantPhase::Pending))
                .map(|(c, _)| c.clone());
            let Some(cid) = next else { return };
            let picks = self.pick_targets(&[], true);
            if picks.is_empty() {
                return;
            }
            if let Some(state) = self.want_mut(&cid) {
                *state = WantPhase::Fetching { targets: Vec::new(), fallback: Vec::new() };
            }
            for to in picks {
                self.target(&cid, to, now, out);
            }
        }
    }

    // ---- driver entry points ------------------------------------------

    /// Registers a want for one *missing* block and routes it: direct
    /// WANT-BLOCK when a single candidate or ready peers exist, WANT-HAVE
    /// broadcast otherwise. Returns the messages to send; `stalled` is set
    /// when no peer can be asked at all.
    pub fn want_block(&mut self, cid: Cid, now: u64, stalled: &mut bool) -> Vec<(PeerId, Message)> {
        let mut out = Vec::new();
        if self.has_want(&cid) {
            return out;
        }
        if self.active_peers() == 0 {
            self.wants.push((cid, WantPhase::Stalled));
            *stalled = true;
            return out;
        }
        let direct = if self.active_peers() == 1 {
            // A single known provider: skip the WANT-HAVE round trip and
            // request directly (the old single-provider path, preserved
            // byte-for-byte — no budget applies).
            self.peers.iter().find(|p| !p.removed).map(|p| vec![p.id.clone()])
        } else {
            let picks = self.pick_targets(&[], true);
            if picks.is_empty() {
                if self.peers.iter().any(|p| p.ready()) {
                    // Every ready peer is at its in-flight budget: backlog
                    // the want; it is dispatched as capacity frees.
                    self.wants.push((cid, WantPhase::Pending));
                    return out;
                }
                None
            } else {
                Some(picks)
            }
        };
        match direct {
            Some(targets) => {
                self.wants.push((
                    cid.clone(),
                    WantPhase::Fetching { targets: Vec::new(), fallback: Vec::new() },
                ));
                for t in targets {
                    self.target(&cid, t, now, &mut out);
                }
            }
            None => {
                // No peer has proved itself yet: probe everyone (§3.2's
                // WANT-HAVE round), bounded by the broadcast limit.
                let pending: Vec<PeerId> = self
                    .peers
                    .iter()
                    .filter(|p| !p.removed)
                    .take(BROADCAST_LIMIT)
                    .map(|p| p.id.clone())
                    .collect();
                for p in &pending {
                    out.push((p.clone(), Message::WantHave(cid.clone())));
                }
                self.wants.push((cid, WantPhase::Probing { pending, havers: Vec::new() }));
            }
        }
        out
    }

    /// Adds a candidate peer mid-transfer: re-probes stalled wants through
    /// it and announces every other live want as WANT-HAVE, so a
    /// late-joining swarm member can advertise what it holds and start
    /// absorbing load (go-bitswap sends discovered peers its live
    /// wantlist the same way).
    pub fn add_peer(&mut self, peer: PeerId) -> Vec<(PeerId, Message)> {
        let mut out = Vec::new();
        match self.peer_mut(&peer) {
            Some(p) if p.removed => {
                // A crashed peer dialing back in starts from scratch.
                p.removed = false;
            }
            // Already a live candidate (e.g. seeded at session start,
            // dial completed later): nothing to announce.
            Some(_) => return out,
            None => self.peers.push(PeerState::new(peer.clone())),
        }
        for (cid, state) in self.wants.iter_mut() {
            match state {
                WantPhase::Stalled => {
                    *state = WantPhase::Probing { pending: vec![peer.clone()], havers: Vec::new() };
                    out.push((peer.clone(), Message::WantHave(cid.clone())));
                }
                WantPhase::Probing { pending, .. } => {
                    if !pending.contains(&peer) {
                        pending.push(peer.clone());
                        out.push((peer.clone(), Message::WantHave(cid.clone())));
                    }
                }
                WantPhase::Fetching { .. } | WantPhase::Pending => {
                    out.push((peer.clone(), Message::WantHave(cid.clone())));
                }
            }
        }
        out
    }

    /// HAVE from `from`: first answer wins the WANT-BLOCK (§3.2); up to
    /// `duplicate_factor` havers are engaged, later ones become fail-over
    /// candidates.
    pub fn on_have(&mut self, from: &PeerId, cid: &Cid, now: u64) -> Vec<(PeerId, Message)> {
        let mut out = Vec::new();
        // A HAVE from outside the live candidate set — a peer that crashed
        // or reneged while its answer was in flight — must not re-engage
        // it: the link is gone, and a WANT-BLOCK sent there would hang
        // until the fetch guard fires. If the peer genuinely comes back,
        // `add_peer` resurrects it first.
        match self.peer_mut(from) {
            Some(p) if !p.removed => p.saw_have = true,
            _ => return out,
        }
        let dup = self.cfg.duplicate_factor.max(1);
        let engage = match self.want_mut(cid) {
            None => false,
            Some(state) => match state {
                WantPhase::Probing { havers, .. } => {
                    if !havers.contains(from) {
                        havers.push(from.clone());
                    }
                    true
                }
                WantPhase::Fetching { targets, fallback } => {
                    if targets.iter().any(|(p, _)| p == from) {
                        false
                    } else if targets.len() < dup {
                        true
                    } else {
                        if !fallback.contains(from) {
                            fallback.push(from.clone());
                        }
                        false
                    }
                }
                WantPhase::Pending | WantPhase::Stalled => {
                    // The announcer definitely holds the block: engage it
                    // directly, backlog or not.
                    *state = WantPhase::Fetching { targets: Vec::new(), fallback: Vec::new() };
                    true
                }
            },
        };
        if engage {
            self.target(cid, from.clone(), now, &mut out);
        }
        // A new HAVE may have grown the ready set: give the backlog a shot.
        self.drain_pending(now, &mut out);
        out
    }

    /// DONT_HAVE from `from`. Probing wants shrink their pending set;
    /// fetching wants fail over to the next haver or ready peer. Returns
    /// the re-requests plus whether the want is now stalled (every
    /// reachable peer denied — the caller surfaces `WantFailed`).
    pub fn on_dont_have(
        &mut self,
        from: &PeerId,
        cid: &Cid,
        now: u64,
    ) -> (Vec<(PeerId, Message)>, bool) {
        let mut out = Vec::new();
        let mut stalled = false;
        let mut dropped_target = false;
        match self.want_mut(cid) {
            None => {}
            Some(state) => match state {
                WantPhase::Probing { pending, havers } => {
                    pending.retain(|p| p != from);
                    if pending.is_empty() && havers.is_empty() {
                        *state = WantPhase::Stalled;
                        stalled = true;
                    }
                }
                WantPhase::Fetching { targets, fallback } => {
                    let before = targets.len();
                    targets.retain(|(p, _)| p != from);
                    if targets.len() != before {
                        fallback.retain(|p| p != from);
                        dropped_target = true;
                    }
                }
                WantPhase::Pending | WantPhase::Stalled => {}
            },
        }
        if dropped_target {
            if let Some(p) = self.peer_mut(from) {
                p.inflight = p.inflight.saturating_sub(1);
            }
            stalled = self.refetch(cid, from, now, &mut out);
            // The denier's capacity freed up: dispatch backlogged wants.
            self.drain_pending(now, &mut out);
        }
        (out, stalled)
    }

    /// Re-routes a fetching want away from `failed`: fallback havers
    /// first (the old fail-over order), then the splitter over the
    /// remaining ready peers. Returns `true` when nobody is left.
    fn refetch(
        &mut self,
        cid: &Cid,
        failed: &PeerId,
        now: u64,
        out: &mut Vec<(PeerId, Message)>,
    ) -> bool {
        let (already, mut exclude) = match self.want_mut(cid) {
            Some(WantPhase::Fetching { targets, fallback }) => {
                let next = fallback.first().cloned();
                if let Some(n) = &next {
                    fallback.retain(|p| p != n);
                }
                (next, targets.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>())
            }
            _ => return false,
        };
        exclude.push(failed.clone());
        let next = already.or_else(|| self.pick_targets(&exclude, false).into_iter().next());
        match next {
            Some(to) => {
                self.stats.reroutes += 1;
                self.target(cid, to, now, out);
                false
            }
            None => {
                let still_fetching = match self.want_mut(cid) {
                    Some(WantPhase::Fetching { targets, .. }) => !targets.is_empty(),
                    _ => true,
                };
                if still_fetching {
                    return false;
                }
                if let Some(state) = self.want_mut(cid) {
                    *state = WantPhase::Stalled;
                }
                true
            }
        }
    }

    /// A verified block for an outstanding want arrived from `from`.
    /// Updates the peer's decayed latency score, cancels the want at any
    /// other engaged target, and returns the CANCELs to send.
    pub fn on_block(&mut self, from: &PeerId, cid: &Cid, now: u64) -> Vec<(PeerId, Message)> {
        let mut out = Vec::new();
        let Some(state) = self.remove_want(cid) else {
            return out;
        };
        self.stats.blocks_received += 1;
        self.done.insert(cid.clone());
        let mut sample: Option<u64> = None;
        if let WantPhase::Fetching { targets, .. } = &state {
            for (p, sent_at) in targets {
                if p == from {
                    sample = Some(now.saturating_sub(*sent_at));
                } else {
                    // Duplicate-factor bookkeeping: withdraw the want from
                    // the slower targets.
                    out.push((p.clone(), Message::Cancel(cid.clone())));
                }
                if let Some(peer) = self.peer_mut(p) {
                    peer.inflight = peer.inflight.saturating_sub(1);
                }
            }
        }
        if let Some(p) = self.peer_mut(from) {
            p.blocks += 1;
            if let Some(s) = sample {
                p.score_nanos = if p.samples == 0 {
                    s as f64
                } else {
                    EWMA_ALPHA * s as f64 + (1.0 - EWMA_ALPHA) * p.score_nanos
                };
                p.samples += 1;
            }
        }
        if let Some(s) = sample {
            self.latency_samples.push((from.clone(), s));
        }
        // Capacity freed at every peer the want was in flight to: pull the
        // next backlogged wants forward (this is where the splitter keeps
        // rebalancing toward the peers that actually deliver).
        self.drain_pending(now, &mut out);
        out
    }

    /// A peer crashed or disconnected: drop it from every want and
    /// re-queue its in-flight wants on the survivors. Returns the
    /// re-requests plus the wants that now cannot proceed at all.
    pub fn remove_peer(&mut self, peer: &PeerId, now: u64) -> (Vec<(PeerId, Message)>, Vec<Cid>) {
        let mut out = Vec::new();
        let mut failed = Vec::new();
        match self.peer_mut(peer) {
            Some(p) => {
                p.removed = true;
                p.inflight = 0;
            }
            None => return (out, failed),
        }
        let active: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|p| !p.removed)
            .take(BROADCAST_LIMIT)
            .map(|p| p.id.clone())
            .collect();
        let any_ready = self.peers.iter().any(|p| p.ready());
        let cids: Vec<Cid> = self.wants.iter().map(|(c, _)| c.clone()).collect();
        for cid in cids {
            let mut dropped_target = false;
            match self.want_mut(&cid) {
                None => {}
                Some(state) => match state {
                    WantPhase::Probing { pending, havers } => {
                        pending.retain(|p| p != peer);
                        havers.retain(|p| p != peer);
                        if pending.is_empty() && havers.is_empty() {
                            *state = WantPhase::Stalled;
                            failed.push(cid.clone());
                        }
                    }
                    WantPhase::Fetching { targets, fallback } => {
                        let before = targets.len();
                        targets.retain(|(p, _)| p != peer);
                        fallback.retain(|p| p != peer);
                        dropped_target = targets.len() != before;
                    }
                    WantPhase::Pending => {
                        if active.is_empty() {
                            *state = WantPhase::Stalled;
                            failed.push(cid.clone());
                        } else if !any_ready {
                            // The backlog's capacity source died with the
                            // last ready peer: fall back to probing the
                            // survivors so the want can make progress.
                            for p in &active {
                                out.push((p.clone(), Message::WantHave(cid.clone())));
                            }
                            *state =
                                WantPhase::Probing { pending: active.clone(), havers: Vec::new() };
                        }
                    }
                    WantPhase::Stalled => {}
                },
            }
            if dropped_target && self.refetch(&cid, peer, now, &mut out) {
                failed.push(cid.clone());
            }
        }
        (out, failed)
    }

    /// Tears the session down, returning CANCELs for everything in flight.
    pub fn cancel(self) -> Vec<(PeerId, Message)> {
        let mut out = Vec::new();
        for (cid, state) in self.wants {
            match state {
                WantPhase::Probing { pending, .. } => {
                    for p in pending {
                        out.push((p, Message::Cancel(cid.clone())));
                    }
                }
                WantPhase::Fetching { targets, .. } => {
                    for (p, _) in targets {
                        out.push((p, Message::Cancel(cid.clone())));
                    }
                }
                WantPhase::Pending | WantPhase::Stalled => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(seed: u64) -> PeerId {
        multiformats::Keypair::from_seed(seed).peer_id()
    }

    fn cid(tag: &str) -> Cid {
        Cid::from_raw_data(tag.as_bytes())
    }

    fn want_blocks(msgs: &[(PeerId, Message)]) -> Vec<PeerId> {
        msgs.iter()
            .filter(|(_, m)| matches!(m, Message::WantBlock(_)))
            .map(|(p, _)| p.clone())
            .collect()
    }

    #[test]
    fn single_peer_goes_straight_to_want_block() {
        let mut s = Session::new(vec![peer(1)], SessionConfig::default());
        let mut stalled = false;
        let out = s.want_block(cid("a"), 0, &mut stalled);
        assert!(!stalled);
        assert_eq!(out, vec![(peer(1), Message::WantBlock(cid("a")))]);
    }

    #[test]
    fn multi_peer_broadcasts_want_have_in_insertion_order() {
        let mut s = Session::new(vec![peer(1), peer(2), peer(3)], SessionConfig::default());
        let mut stalled = false;
        let out = s.want_block(cid("a"), 0, &mut stalled);
        assert_eq!(
            out.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
            vec![peer(1), peer(2), peer(3)]
        );
        assert!(out.iter().all(|(_, m)| matches!(m, Message::WantHave(_))));
    }

    #[test]
    fn splitter_spreads_wants_over_ready_peers() {
        let mut s = Session::new(vec![peer(1), peer(2)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("root"), 0, &mut stalled);
        // Both answer HAVE: first wins the root WANT-BLOCK.
        s.on_have(&peer(1), &cid("root"), 10);
        s.on_have(&peer(2), &cid("root"), 11);
        // Root arrives; four children discovered. Join-shortest-queue must
        // alternate across the two ready peers.
        s.on_block(&peer(1), &cid("root"), 20);
        let mut assigned = Vec::new();
        for name in ["c1", "c2", "c3", "c4"] {
            let out = s.want_block(cid(name), 30, &mut stalled);
            assigned.extend(want_blocks(&out));
        }
        let to1 = assigned.iter().filter(|p| **p == peer(1)).count();
        let to2 = assigned.iter().filter(|p| **p == peer(2)).count();
        assert_eq!((to1, to2), (2, 2), "JSQ must balance: {assigned:?}");
    }

    #[test]
    fn duplicate_factor_engages_multiple_peers_and_cancels_losers() {
        let cfg = SessionConfig { duplicate_factor: 2, ..SessionConfig::default() };
        let mut s = Session::new(vec![peer(1), peer(2), peer(3)], cfg);
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        // Two HAVEs: both get the WANT-BLOCK (duplicate factor 2).
        let o1 = s.on_have(&peer(1), &cid("a"), 5);
        let o2 = s.on_have(&peer(2), &cid("a"), 6);
        assert_eq!(want_blocks(&o1), vec![peer(1)]);
        assert_eq!(want_blocks(&o2), vec![peer(2)]);
        // Third HAVE is a fallback only.
        let o3 = s.on_have(&peer(3), &cid("a"), 7);
        assert!(o3.is_empty());
        // Peer 2 wins the race: the want at peer 1 is cancelled.
        let cancels = s.on_block(&peer(2), &cid("a"), 30);
        assert_eq!(cancels, vec![(peer(1), Message::Cancel(cid("a")))]);
        assert_eq!(s.stats().wants_sent, 2);
    }

    #[test]
    fn ewma_score_prefers_faster_peer() {
        let mut s = Session::new(vec![peer(1), peer(2)], SessionConfig::default());
        let mut stalled = false;
        for (name, from, rtt) in [("a", 1u64, 800u64), ("b", 2, 100)] {
            s.want_block(cid(name), 0, &mut stalled);
            s.on_have(&peer(from), &cid(name), 0);
            s.on_block(&peer(from), &cid(name), rtt);
        }
        assert!(s.peer_score_nanos(&peer(2)).unwrap() < s.peer_score_nanos(&peer(1)).unwrap());
        // Equal in-flight: the splitter must prefer the faster peer 2.
        let out = s.want_block(cid("c"), 1000, &mut stalled);
        assert_eq!(want_blocks(&out), vec![peer(2)]);
    }

    #[test]
    fn remove_peer_reroutes_inflight_wants() {
        let mut s = Session::new(vec![peer(1), peer(2)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        s.on_have(&peer(1), &cid("a"), 1);
        s.on_have(&peer(2), &cid("a"), 2);
        // Peer 1 holds the WANT-BLOCK and crashes: the want must re-queue
        // to peer 2 (the recorded haver).
        let (out, failed) = s.remove_peer(&peer(1), 50);
        assert!(failed.is_empty());
        assert_eq!(want_blocks(&out), vec![peer(2)]);
        assert_eq!(s.stats().reroutes, 1);
    }

    #[test]
    fn remove_last_peer_fails_the_want() {
        let mut s = Session::new(vec![peer(1)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        let (out, failed) = s.remove_peer(&peer(1), 5);
        assert!(out.is_empty());
        assert_eq!(failed, vec![cid("a")]);
    }

    #[test]
    fn responsive_peers_survive_for_the_next_phase() {
        let mut s = Session::new(vec![peer(1), peer(2), peer(3)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        s.on_have(&peer(2), &cid("a"), 1);
        let (_, _) = s.on_dont_have(&peer(1), &cid("a"), 2);
        assert_eq!(s.responsive_peers(), vec![peer(2)]);
    }

    #[test]
    fn duplicate_attribution_after_delivery() {
        let mut s = Session::new(vec![peer(1), peer(2)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        s.on_have(&peer(1), &cid("a"), 1);
        s.on_block(&peer(1), &cid("a"), 9);
        assert!(s.was_delivered(&cid("a")));
        s.count_duplicate();
        assert_eq!(s.stats().duplicate_blocks, 1);
        assert_eq!(s.stats().blocks_received, 1);
    }

    #[test]
    fn inflight_budget_backlogs_and_drains() {
        let cfg = SessionConfig { max_inflight_per_peer: 2, ..SessionConfig::default() };
        let mut s = Session::new(vec![peer(1), peer(2)], cfg);
        let mut stalled = false;
        s.want_block(cid("root"), 0, &mut stalled);
        s.on_have(&peer(1), &cid("root"), 1);
        s.on_have(&peer(2), &cid("root"), 2);
        s.on_block(&peer(1), &cid("root"), 10);
        // Five children against an aggregate budget of 4: exactly four
        // WANT-BLOCKs go out, the fifth waits in the backlog.
        let mut sent = Vec::new();
        for name in ["c1", "c2", "c3", "c4", "c5"] {
            sent.extend(want_blocks(&s.want_block(cid(name), 20, &mut stalled)));
        }
        assert_eq!(sent.len(), 4, "budget must cap in-flight wants: {sent:?}");
        assert_eq!(s.outstanding(), 5);
        // A delivery frees capacity: the backlogged want dispatches.
        let follow = s.on_block(&peer(1), &cid("c1"), 30);
        assert_eq!(want_blocks(&follow).len(), 1);
        assert!(!s.has_want(&cid("c1")));
    }

    #[test]
    fn late_joiner_is_probed_for_live_wants() {
        let mut s = Session::new(vec![peer(1)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 0, &mut stalled);
        // Joiner is told about the in-flight want...
        let probe = s.add_peer(peer(2));
        assert_eq!(probe, vec![(peer(2), Message::WantHave(cid("a")))]);
        // ...answers HAVE (fallback; the want is already targeted), and
        // absorbs the want when the original target crashes.
        s.on_have(&peer(2), &cid("a"), 5);
        let (out, failed) = s.remove_peer(&peer(1), 10);
        assert!(failed.is_empty());
        assert_eq!(want_blocks(&out), vec![peer(2)]);
    }

    #[test]
    fn latency_samples_drain_once() {
        let mut s = Session::new(vec![peer(1)], SessionConfig::default());
        let mut stalled = false;
        s.want_block(cid("a"), 100, &mut stalled);
        s.on_block(&peer(1), &cid("a"), 350);
        let samples = s.take_latency_samples();
        assert_eq!(samples, vec![(peer(1), 250)]);
        assert!(s.take_latency_samples().is_empty());
    }
}
