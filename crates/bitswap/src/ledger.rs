//! Per-peer exchange ledgers.
//!
//! Bitswap tracks bytes sent to and received from each partner. IPFS does
//! not enforce tit-for-tat (the paper §7 notes IPFS "does not incentivize
//! data storage, sharing, or participation"), but the ledger is kept for
//! diagnostics and because the debt ratio feeds Bitswap's send-priority
//! heuristics in the reference implementation.

use multiformats::PeerId;
use std::collections::HashMap;

/// Byte accounting with one entry per exchange partner.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    entries: HashMap<PeerId, Entry>,
}

/// Counters for one partner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Entry {
    /// Bytes we sent to the partner.
    pub sent: u64,
    /// Bytes we received from the partner.
    pub received: u64,
    /// Block messages exchanged (both directions).
    pub blocks: u64,
}

impl Entry {
    /// Debt ratio as defined by Bitswap: sent / (received + 1).
    pub fn debt_ratio(&self) -> f64 {
        self.sent as f64 / (self.received as f64 + 1.0)
    }
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Records bytes sent to `peer`.
    pub fn record_sent(&mut self, peer: &PeerId, bytes: u64, is_block: bool) {
        let e = self.entries.entry(peer.clone()).or_default();
        e.sent += bytes;
        if is_block {
            e.blocks += 1;
        }
    }

    /// Records bytes received from `peer`.
    pub fn record_received(&mut self, peer: &PeerId, bytes: u64, is_block: bool) {
        let e = self.entries.entry(peer.clone()).or_default();
        e.received += bytes;
        if is_block {
            e.blocks += 1;
        }
    }

    /// The entry for `peer` (zeroes if never seen).
    pub fn entry(&self, peer: &PeerId) -> Entry {
        self.entries.get(peer).copied().unwrap_or_default()
    }

    /// Total bytes sent across all partners.
    pub fn total_sent(&self) -> u64 {
        self.entries.values().map(|e| e.sent).sum()
    }

    /// Number of partners with any traffic.
    pub fn partners(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::Keypair;

    #[test]
    fn accounting_accumulates() {
        let mut l = Ledger::new();
        let p = Keypair::from_seed(1).peer_id();
        l.record_sent(&p, 100, false);
        l.record_sent(&p, 900, true);
        l.record_received(&p, 500, true);
        let e = l.entry(&p);
        assert_eq!(e.sent, 1000);
        assert_eq!(e.received, 500);
        assert_eq!(e.blocks, 2);
        assert_eq!(l.total_sent(), 1000);
        assert_eq!(l.partners(), 1);
    }

    #[test]
    fn debt_ratio() {
        let e = Entry { sent: 999, received: 0, blocks: 0 };
        assert!((e.debt_ratio() - 999.0).abs() < 1e-9);
        let balanced = Entry { sent: 1000, received: 999, blocks: 0 };
        assert!(balanced.debt_ratio() < 1.01);
    }

    #[test]
    fn unknown_peer_is_zero() {
        let l = Ledger::new();
        assert_eq!(l.entry(&Keypair::from_seed(9).peer_id()), Entry::default());
    }
}
