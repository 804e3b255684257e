//! Verify-ahead for large in-flight Bitswap blocks.
//!
//! Every received block is hashed against its CID before it is stored
//! (§3.1), and for 256 KiB blocks that hashing is nearly all of the data
//! plane's cost. A block's verdict is a pure function of bytes the
//! simulation never mutates, so it can be computed on another core while
//! the block is still in flight in virtual time.
//!
//! When a large BLOCK is sent, [`Verifier::enqueue`] hands a [`Verdict`]
//! job (the CID and a view of the payload; no copy) to one helper thread,
//! which takes the newest job first. At arrival the engine asks for the
//! verdict only where it would hash the block anyway, after its "wanted?"
//! check; a job the worker has not started is hashed by the simulation
//! thread itself, so the two threads meet in the middle of the in-flight
//! window. Nothing else crosses threads: event handling stays
//! single-threaded, and whichever thread computes a verdict computes the
//! same bit, so every digest and report is unchanged.

use bytes::Bytes;
use multiformats::Cid;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Smallest BLOCK payload worth a job. Below it, the hash is cheaper than
/// the hand-off, so control-plane and small-object workloads never start
/// the worker.
const MIN_AHEAD_BYTES: usize = 64 * 1024;

/// The verdict on one in-flight block: does `data` hash to `cid`?
#[derive(Debug)]
pub(super) struct Verdict {
    cid: Cid,
    data: Bytes,
    ok: OnceLock<bool>,
}

impl Verdict {
    fn new(cid: Cid, data: Bytes) -> Verdict {
        Verdict { cid, data, ok: OnceLock::new() }
    }

    /// Computes the verdict once, on whichever thread asks first; a
    /// second asker waits for the first one's answer.
    fn resolve(&self) -> bool {
        *self.ok.get_or_init(|| self.cid.hash().verify(&self.data))
    }

    /// Whether `data` hashes to `cid`. The shared verdict answers only for
    /// the exact buffer it covers (same CID, same address, same length);
    /// any other pair is hashed here.
    pub(super) fn check(&self, cid: &Cid, data: &Bytes) -> bool {
        let same_buffer = self.data.as_ptr() == data.as_ptr() && self.data.len() == data.len();
        if same_buffer && self.cid == *cid {
            self.resolve()
        } else {
            cid.hash().verify(data)
        }
    }
}

/// The job stack the simulation thread pushes and the worker pops.
#[derive(Default)]
struct Jobs {
    pending: Vec<Arc<Verdict>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    jobs: Mutex<Jobs>,
    wake: Condvar,
}

impl Shared {
    /// The job stack. A panic elsewhere cannot leave it inconsistent (every
    /// critical section is a push, a pop or a flag store), so a poisoned
    /// lock is entered as is.
    fn jobs(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The worker: newest job first, until shut down.
    fn work(&self) {
        loop {
            let job = {
                let mut jobs = self.jobs();
                loop {
                    if jobs.shutdown {
                        return;
                    }
                    if let Some(job) = jobs.pending.pop() {
                        break job;
                    }
                    jobs = self.wake.wait(jobs).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            job.resolve();
        }
    }
}

enum State {
    /// No large block sent yet.
    Idle,
    /// One core only, or the worker could not be started: every block is
    /// hashed at arrival.
    Inline,
    Running {
        shared: Arc<Shared>,
        worker: JoinHandle<()>,
    },
}

/// One network's verify-ahead worker, started on the first large block and
/// joined when the network is dropped.
pub(super) struct Verifier {
    state: State,
}

impl Verifier {
    pub(super) fn new() -> Verifier {
        Verifier { state: State::Idle }
    }

    /// A verifier that never starts its worker: every block is hashed at
    /// arrival (the reference the verify-ahead path is tested against).
    #[cfg(test)]
    pub(super) fn inline_only() -> Verifier {
        Verifier { state: State::Inline }
    }

    /// Whether the worker thread has been started.
    #[cfg(test)]
    pub(super) fn started(&self) -> bool {
        matches!(self.state, State::Running { .. })
    }

    /// Queues the verdict on a BLOCK about to be sent, if the block is large
    /// enough and a second core exists. The returned handle travels with
    /// the message and is consulted at arrival.
    pub(super) fn enqueue(&mut self, cid: &Cid, data: &Bytes) -> Option<Arc<Verdict>> {
        if data.len() < MIN_AHEAD_BYTES {
            return None;
        }
        if let State::Idle = self.state {
            self.state = Self::start();
        }
        let State::Running { shared, .. } = &self.state else { return None };
        let verdict = Arc::new(Verdict::new(cid.clone(), data.clone()));
        shared.jobs().pending.push(Arc::clone(&verdict));
        shared.wake.notify_one();
        Some(verdict)
    }

    fn start() -> State {
        if !std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
            return State::Inline;
        }
        let shared = Arc::new(Shared::default());
        let for_worker = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("block-verify".into())
            .spawn(move || for_worker.work())
        {
            Ok(worker) => State::Running { shared, worker },
            Err(_) => State::Inline,
        }
    }
}

impl Drop for Verifier {
    fn drop(&mut self) {
        if let State::Running { shared, worker } = std::mem::replace(&mut self.state, State::Inline)
        {
            {
                let mut jobs = shared.jobs();
                jobs.shutdown = true;
                jobs.pending.clear();
            }
            shared.wake.notify_all();
            // The worker only hashes and pops; it cannot fail to return.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{IpfsNetwork, NetworkConfig};
    use super::*;
    use simnet::latency::VantagePoint;
    use simnet::{Population, PopulationConfig, SimDuration};

    fn block(len: usize, seed: u8) -> Bytes {
        Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect::<Vec<_>>())
    }

    /// Waits up to five seconds for the worker to resolve `verdict`
    /// (`OnceLock::wait` is newer than the workspace's minimum Rust).
    fn settle(verdict: &Verdict) {
        for _ in 0..5_000 {
            if verdict.ok.get().is_some() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn small_blocks_start_no_worker() {
        let mut v = Verifier::new();
        let data = block(MIN_AHEAD_BYTES - 1, 1);
        assert!(v.enqueue(&Cid::from_raw_data(&data), &data).is_none());
        assert!(matches!(v.state, State::Idle));
    }

    #[test]
    fn corrupted_block_is_rejected_ahead_of_delivery() {
        let mut v = Verifier::new();
        let good = block(MIN_AHEAD_BYTES, 2);
        let cid = Cid::from_raw_data(&good);
        let mut bad = good.to_vec();
        bad[17] ^= 1;
        let bad = Bytes::from(bad);
        let Some(verdict) = v.enqueue(&cid, &bad) else {
            return; // one core: nothing runs ahead
        };
        settle(&verdict);
        assert_eq!(verdict.ok.get(), Some(&false), "the worker judged the corrupted block");
        assert!(!verdict.check(&cid, &bad));
        // The good block is wanted too: its own job says yes.
        let verdict = v.enqueue(&cid, &good).unwrap();
        settle(&verdict);
        assert!(verdict.check(&cid, &good));
    }

    #[test]
    fn a_verdict_answers_only_for_its_own_buffer() {
        let good = block(MIN_AHEAD_BYTES, 3);
        let cid = Cid::from_raw_data(&good);
        let mut flipped = good.to_vec();
        flipped[0] ^= 0x80;
        let bad = Bytes::from(flipped);
        // Verdicts resolved on this thread, so the test needs no second core.
        let on_good = Verdict::new(cid.clone(), good.clone());
        assert!(on_good.resolve());
        let on_bad = Verdict::new(cid.clone(), bad.clone());
        assert!(!on_bad.resolve());
        // Another buffer, same length and CID: hashed afresh either way.
        assert!(!on_good.check(&cid, &bad), "a good verdict must not vouch for a corrupted copy");
        assert!(on_bad.check(&cid, &good), "a bad verdict must not reject a good copy");
        // An equal copy at another address is hashed too, and passes.
        assert!(on_bad.check(&cid, &Bytes::copy_from_slice(&good)));
        // A prefix view of the same buffer is not the same buffer.
        let prefix = good.slice(..good.len() - 1);
        assert!(!on_good.check(&cid, &prefix));
        // The same buffer under another CID is hashed against that CID.
        let other = Cid::from_raw_data(b"other");
        assert!(!on_good.check(&other, &good));
    }

    /// Everything a run reports: its publish and retrieve reports, its
    /// metrics and its event count.
    type RunRecord = (String, String, String, u64);

    fn xorshift_payload(len: usize, seed: u64) -> Bytes {
        let mut x = seed | 1;
        Bytes::from(
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect::<Vec<u8>>(),
        )
    }

    /// A small swarm fetch: one vantage imports and publishes a 3 MiB DAG
    /// (twelve 256 KiB leaves), then four others fetch it one after another,
    /// each becoming a provider. `corrupt` overwrites one of the
    /// publisher's leaves before anyone fetches. `verifier` is installed
    /// before the first block is sent.
    fn swarm_fetch(verifier: Verifier, corrupt: bool) -> (RunRecord, bool) {
        let pop = Population::generate(
            PopulationConfig { size: 150, nat_fraction: 0.3, horizon: SimDuration::from_hours(6) },
            61,
        );
        let cfg = NetworkConfig {
            provider_records_carry_addrs: true,
            retriever_becomes_provider: true,
            ..NetworkConfig::default()
        };
        let mut net = IpfsNetwork::from_population(&pop, &VantagePoint::ALL[..5], cfg, 61);
        net.exchange.verifier = verifier;
        let nodes = net.vantage_ids(5);
        let data = xorshift_payload(3 * 1024 * 1024, 61);
        let cid = net.import_content(nodes[0], &data);
        if corrupt {
            use merkledag::BlockStore;
            let store = &mut net.node_mut(nodes[0]).store;
            let root = merkledag::DagNode::decode(&store.get(&cid).unwrap()).unwrap();
            let leaf = &root.links[5].cid;
            let mut bad = store.get(leaf).unwrap().to_vec();
            bad[1000] ^= 1;
            store.put(leaf.clone(), Bytes::from(bad));
        }
        net.publish(nodes[0], cid.clone());
        net.run_until_quiet();
        for &fetcher in &nodes[1..] {
            net.disconnect_all(fetcher);
            net.retrieve(fetcher, cid.clone());
            net.run_until_quiet();
        }
        let started = net.exchange.verifier.started();
        let record = (
            format!("{:?}", net.publish_reports),
            format!("{:?}", net.retrieve_reports),
            net.metrics().to_json(),
            net.events_processed,
        );
        (record, started)
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn verify_ahead_swarm_fetch_matches_inline_hashing() {
        let (ahead, started) = swarm_fetch(Verifier::new(), false);
        let (inline, _) = swarm_fetch(Verifier::inline_only(), false);
        assert_eq!(started, cores() > 1, "the worker starts exactly when a second core exists");
        assert!(ahead.1.contains("success: true") && !ahead.1.contains("success: false"));
        assert_eq!(ahead, inline);
    }

    #[test]
    fn corrupted_leaf_fails_the_fetch_with_or_without_verify_ahead() {
        let (ahead, _) = swarm_fetch(Verifier::new(), true);
        let (inline, _) = swarm_fetch(Verifier::inline_only(), true);
        assert!(ahead.1.contains("success: false"), "every fetch reports");
        assert!(!ahead.1.contains("success: true"), "no fetcher may accept the corrupted DAG");
        assert_eq!(ahead, inline);
    }
}
