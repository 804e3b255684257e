//! The verify-ahead worker's lifetime. This binary holds one test, so no
//! other test's threads move the process's thread count while it runs.

use integration_tests::{payload, test_network};
use simnet::latency::VantagePoint;

/// The threads of this process, where the OS lists them.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|tasks| tasks.count())
}

/// Polls for up to a second: a joined thread can linger in the task list
/// for a moment after `join` returns.
fn settles_at(want: usize) -> bool {
    for _ in 0..100 {
        if threads() == Some(want) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    false
}

#[test]
fn dropping_a_network_joins_its_verify_worker() {
    let before = threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    {
        let (mut net, ids) =
            test_network(200, &[VantagePoint::UsWest1, VantagePoint::EuCentral1], 17);
        let [us, eu] = ids[..] else { unreachable!() };
        // Four 256 KiB leaves: large blocks, so the first one sent starts
        // the worker (when a second core exists).
        let data = payload(4 * 256 * 1024, 5);
        let cid = net.import_content(us, &data);
        net.publish(us, cid.clone());
        net.run_until_quiet();
        net.retrieve(eu, cid.clone());
        net.run_until_quiet();
        assert!(net.retrieve_reports.last().unwrap().success);
        assert_eq!(net.node_mut(eu).read_content(&cid).unwrap(), data);
        if let Some(before) = before {
            let worker = usize::from(cores > 1);
            assert!(settles_at(before + worker), "one worker thread while the network lives");
        }
    }
    if let Some(before) = before {
        assert!(settles_at(before), "dropping the network must join its worker");
    }
}
