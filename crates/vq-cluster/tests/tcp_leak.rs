//! A coordinated search over `TcpTransport` registers an ephemeral gather
//! endpoint and tears it down again; nothing it opened may outlive it.
//! Alone in its test binary: it counts the process's descriptors and
//! threads.
#![cfg(target_os = "linux")]

use std::time::Duration;
use vq_cluster::{Cluster, ClusterConfig};
use vq_collection::{CollectionConfig, SearchRequest};
use vq_core::{Distance, Point};
use vq_net::TcpTransport;

/// (open descriptors, threads) of this process, after giving readers and
/// writers of torn-down endpoints time to notice: they poll.
fn settled_counts() -> (usize, usize) {
    std::thread::sleep(Duration::from_secs(1));
    let entries = |dir: &str| std::fs::read_dir(dir).expect("procfs").count();
    (entries("/proc/self/fd"), entries("/proc/self/task"))
}

#[test]
fn coordinated_searches_do_not_leak_descriptors_or_threads() {
    let cluster = Cluster::start_on(
        TcpTransport::new(),
        ClusterConfig::new(2).shards(2),
        CollectionConfig::new(4, Distance::Euclid),
    )
    .unwrap();
    let mut client = cluster.client();
    let points: Vec<Point> = (0..64u64)
        .map(|i| Point::new(i, vec![i as f32, 0.0, 0.0, 0.0]))
        .collect();
    client.upsert_batch(points).unwrap();

    let mut search = |n: usize| {
        for i in 0..n {
            let probe = (i % 64) as f32 + 0.2;
            let hits = client
                .search(SearchRequest::new(vec![probe, 0.0, 0.0, 0.0], 3))
                .unwrap();
            assert_eq!(hits[0].id, (i % 64) as u64);
        }
    };
    search(50);
    let (fds_warm, threads_warm) = settled_counts();
    search(950);
    let (fds, threads) = settled_counts();
    cluster.shutdown();

    // Every search sets up and tears down the same few sockets and
    // threads; a leak of even one per search would add ~950.
    assert!(
        fds <= fds_warm + 16,
        "descriptors grew from {fds_warm} to {fds} over 950 searches"
    );
    assert!(
        threads <= threads_warm + 16,
        "threads grew from {threads_warm} to {threads} over 950 searches"
    );
}
