//! End-to-end integration: the complete Figure 3 pipeline across all
//! crates (multiformats → merkledag → kademlia → bitswap → ipfs-core →
//! simnet), exercised through the public API only.

use bytes::Bytes;
use integration_tests::{payload, test_network, test_network_with};
use ipfs_core::NetworkConfig;
use merkledag::BlockStore;
use simnet::latency::VantagePoint;
use simnet::SimDuration;

#[test]
fn publish_and_retrieve_half_mb_object() {
    // The paper's benchmark operation (§4.3): publish a 0.5 MB object,
    // retrieve it from another region, verify byte-for-byte.
    let (mut net, ids) = test_network(500, &[VantagePoint::EuCentral1, VantagePoint::SaEast1], 101);
    let [eu, sa] = ids[..] else { unreachable!() };
    let data = payload(512 * 1024, 1);
    let cid = net.import_content(sa, &data);

    net.publish(sa, cid.clone());
    net.run_until_quiet();
    let pr = net.publish_reports.last().unwrap().clone();
    assert!(pr.success);
    assert!(pr.records_stored >= 15, "most of the 20 records stored: {pr:?}");
    assert!(pr.dht_walk > SimDuration::ZERO);
    assert!(pr.total >= pr.dht_walk);

    // The paper's experiment reset (§4.3): disconnect so the retrieval
    // cannot be satisfied over a warm Bitswap connection.
    net.disconnect_all(sa);
    net.retrieve(eu, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    assert_eq!(rr.bitswap_probe, SimDuration::from_secs(1), "1 s Bitswap floor");
    assert!(rr.provider_walk > SimDuration::ZERO, "first walk happened");
    assert!(rr.peer_walk > SimDuration::ZERO, "second walk happened (Fig 9e)");
    assert!(rr.fetch > SimDuration::ZERO);
    assert_eq!(net.node_mut(eu).read_content(&cid).unwrap(), data);
}

#[test]
fn every_retrieved_block_is_verified() {
    let (mut net, ids) = test_network(300, &[VantagePoint::UsWest1, VantagePoint::EuCentral1], 102);
    let [us, eu] = ids[..] else { unreachable!() };
    let data = payload(700_000, 2);
    let cid = net.import_content(us, &data);
    net.publish(us, cid.clone());
    net.run_until_quiet();
    net.retrieve(eu, cid.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);
    // Each block in the retriever's store hashes to its CID.
    let node = net.node_mut(eu);
    let cids: Vec<_> = node.store.cids().cloned().collect();
    assert!(!cids.is_empty());
    for c in cids {
        let block = node.store.get(&c).unwrap();
        assert!(c.hash().verify(&block), "stored block must self-certify");
    }
}

#[test]
fn retrieved_leaves_share_the_publishers_buffers() {
    // A retrieval hands the fetcher the publisher's block buffers, which are
    // themselves views of the imported payload: no payload byte is copied
    // between import and the fetcher's store.
    let (mut net, ids) = test_network(300, &[VantagePoint::UsWest1, VantagePoint::EuCentral1], 109);
    let [us, eu] = ids[..] else { unreachable!() };
    let data = payload(3 * 256 * 1024 + 4000, 11);
    let cid = net.import_content(us, &data);
    net.publish(us, cid.clone());
    net.run_until_quiet();
    net.retrieve(eu, cid.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);
    let leaves: Vec<_> = net
        .node(eu)
        .store
        .cids()
        .filter(|c| c.codec() == multiformats::Multicodec::Raw)
        .cloned()
        .collect();
    assert_eq!(leaves.len(), 4);
    let payload_at = data.as_ptr() as usize..data.as_ptr() as usize + data.len();
    for c in &leaves {
        let fetched = net.node_mut(eu).store.get(c).unwrap();
        let published = net.node_mut(us).store.get(c).unwrap();
        assert_eq!(fetched.as_ptr(), published.as_ptr(), "fetcher's leaf {c} is a copy");
        assert!(
            payload_at.contains(&(published.as_ptr() as usize)),
            "publisher's leaf {c} is a copy"
        );
    }
}

#[test]
fn multiple_providers_any_can_serve() {
    // Two providers publish the same CID; after the first goes offline the
    // content remains retrievable — "enabling objects to be served from
    // any peer" (§1).
    let (mut net, ids) = test_network(
        400,
        &[VantagePoint::UsWest1, VantagePoint::EuCentral1, VantagePoint::ApSoutheast2],
        103,
    );
    let [us, eu, ap] = ids[..] else { unreachable!() };
    let data = payload(100_000, 3);
    let cid_us = net.import_content(us, &data);
    let cid_eu = net.import_content(eu, &data);
    assert_eq!(cid_us, cid_eu, "content addressing: same bytes, same CID");
    net.publish(us, cid_us.clone());
    net.run_until_quiet();
    net.publish(eu, cid_eu.clone());
    net.run_until_quiet();

    net.retrieve(ap, cid_us.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);
    assert_eq!(net.node_mut(ap).read_content(&cid_us).unwrap(), data);
}

#[test]
fn retrieval_includes_lookup_unlike_https() {
    // §6.2: IPFS retrieval time includes the lookup; stretch > 1 always on
    // the DHT path.
    let (mut net, ids) =
        test_network(300, &[VantagePoint::EuCentral1, VantagePoint::MeSouth1], 104);
    let [eu, me] = ids[..] else { unreachable!() };
    let cid = net.import_content(me, &payload(512 * 1024, 4));
    net.publish(me, cid.clone());
    net.run_until_quiet();
    net.retrieve(eu, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    let stretch = rr.stretch();
    assert!(stretch > 1.0, "lookup cost makes stretch > 1, got {stretch}");
    assert!(
        rr.stretch_without_bitswap() < stretch,
        "removing the Bitswap floor lowers stretch (Fig 10b)"
    );
}

#[test]
fn provider_record_addresses_skip_second_walk() {
    // With provider records carrying fresh addresses, the second DHT walk
    // disappears — the counterfactual to Figure 9e.
    let cfg = NetworkConfig { provider_records_carry_addrs: true, ..Default::default() };
    let (mut net, ids) =
        test_network_with(300, &[VantagePoint::EuCentral1, VantagePoint::UsWest1], 105, cfg);
    let [eu, us] = ids[..] else { unreachable!() };
    let cid = net.import_content(us, &payload(64 * 1024, 5));
    net.publish(us, cid.clone());
    net.run_until_quiet();
    net.retrieve(eu, cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    assert_eq!(rr.peer_walk, SimDuration::ZERO, "no second walk: {rr:?}");
}

#[test]
fn address_book_skips_second_walk_on_repeat() {
    // §3.2: "Nodes check whether they already have an address for the
    // PeerID they have discovered before performing any further lookups."
    let (mut net, ids) = test_network(300, &[VantagePoint::EuCentral1, VantagePoint::UsWest1], 106);
    let [eu, us] = ids[..] else { unreachable!() };
    let first_cid = net.import_content(us, &payload(50_000, 6));
    net.publish(us, first_cid.clone());
    net.run_until_quiet();
    net.disconnect_all(us);
    net.retrieve(eu, first_cid);
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);

    // Second object from the same provider: the address book remembers
    // (the first retrieval may itself have hit, if the provider surfaced
    // in a closer-set — at full network scale that is rare, but the
    // *repeat* hit is the §3.2 guarantee we pin down).
    net.disconnect_all(eu);
    let second_cid = net.import_content(us, &payload(50_000, 7));
    net.publish(us, second_cid.clone());
    net.run_until_quiet();
    // The publish walk may have re-warmed connections; reset again so the
    // retrieval exercises the DHT path (and with it, the address book).
    net.disconnect_all(us);
    net.disconnect_all(eu);
    net.retrieve(eu, second_cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    assert!(rr.addrbook_hit, "provider address cached: {rr:?}");
    assert_eq!(rr.peer_walk, SimDuration::ZERO);
}

#[test]
fn same_seed_identical_runs_different_seed_differs() {
    let run = |seed: u64| {
        let (mut net, ids) =
            test_network(250, &[VantagePoint::EuCentral1, VantagePoint::UsWest1], seed);
        let cid = net.import_content(ids[1], &payload(256 * 1024, 9));
        net.publish(ids[1], cid.clone());
        net.run_until_quiet();
        net.retrieve(ids[0], cid);
        net.run_until_quiet();
        (
            net.publish_reports[0].total.as_nanos(),
            net.retrieve_reports[0].total.as_nanos(),
            net.events_processed,
        )
    };
    assert_eq!(run(7), run(7), "determinism");
    assert_ne!(run(7), run(8), "seed actually matters");
}

#[test]
fn large_file_multi_level_dag_roundtrip() {
    // 3 MB: 12 chunks — exercises branch nodes through the whole pipeline.
    let (mut net, ids) = test_network(300, &[VantagePoint::EuCentral1, VantagePoint::UsWest1], 107);
    let [eu, us] = ids[..] else { unreachable!() };
    let data = payload(3 * 1024 * 1024, 10);
    let report = net.node_mut(us).add_content(&data);
    assert_eq!(report.chunks, 12);
    assert!(report.branch_nodes >= 1);
    net.publish(us, report.root.clone());
    net.run_until_quiet();
    net.retrieve(eu, report.root.clone());
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);
    assert_eq!(net.node_mut(eu).read_content(&report.root).unwrap(), data);
}

#[test]
fn unpublished_content_fails_cleanly() {
    let (mut net, ids) = test_network(200, &[VantagePoint::EuCentral1], 108);
    let cid = multiformats::Cid::from_raw_data(b"ghost content");
    net.retrieve(ids[0], cid);
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(!rr.success);
    assert!(rr.total >= SimDuration::from_secs(1), "paid the Bitswap floor");
    let data = Bytes::from_static(b"ghost content");
    assert!(net.node_mut(ids[0]).read_content(&multiformats::Cid::from_raw_data(&data)).is_err());
}
