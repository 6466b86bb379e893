//! A peer-to-peer file-sharing index on top of Cycloid — the workload the
//! paper's introduction motivates ("peer-to-peer resource sharing
//! services").
//!
//! A catalogue of shared files is published into the DHT; every
//! participant can locate any file's index node in O(d) hops while
//! maintaining only seven links. The example also contrasts the per-node
//! key load with Viceroy's, reproducing §4.2's observation in miniature.
//!
//! ```text
//! cargo run --release --example file_sharing
//! ```

use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use rand::Rng;

/// A toy shared-file catalogue: (name, size in MiB).
fn catalogue() -> Vec<(String, u32)> {
    let genres = ["rust", "graphs", "p2p", "dht", "routing", "networks"];
    let kinds = ["intro", "advanced", "reference", "cookbook"];
    let mut files = Vec::new();
    for g in genres {
        for k in kinds {
            for part in 1..=4 {
                files.push((format!("{g}-{k}-part{part}.pdf"), 3 * part));
            }
        }
    }
    files
}

fn main() {
    let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 800, 2024);
    let files = catalogue();
    println!(
        "sharing {} files across a {}-node Cycloid network",
        files.len(),
        net.len()
    );

    // Publish: each file's index record lands on its key's owner.
    let raw_keys: Vec<u64> = files.iter().map(|(name, _)| hash_str(name)).collect();
    let counts = key_counts(&net, &raw_keys);
    let busiest = counts.iter().max().unwrap();
    let loaded_nodes = counts.iter().filter(|&&c| c > 0).count();
    println!("index records spread over {loaded_nodes} nodes (max {busiest} records on one node)");

    // Download session: peers look up random files.
    let ids: Vec<_> = net.ids().collect();
    let mut rng = stream(99, "downloads");
    let mut hops_total = 0usize;
    let mut worst = 0usize;
    let downloads = 2_000;
    for _ in 0..downloads {
        let peer = ids[rng.gen_range(0..ids.len())];
        let (name, _) = &files[rng.gen_range(0..files.len())];
        let trace = net.route(peer, hash_str(name));
        assert_eq!(trace.outcome, LookupOutcome::Found, "lost file {name}");
        hops_total += trace.path_len();
        worst = worst.max(trace.path_len());
    }
    println!(
        "{downloads} downloads: mean route {:.2} hops, worst {worst} hops (d = 8)",
        hops_total as f64 / downloads as f64
    );

    // Churn during the session: a tracker-free network keeps serving.
    let mut churn_rng = stream(7, "churn");
    for _ in 0..50 {
        let _ = net.join_random(&mut churn_rng);
        let victim = {
            let ids: Vec<_> = net.ids().collect();
            ids[churn_rng.gen_range(0..ids.len())]
        };
        net.leave(victim);
    }
    let peer = net.ids().next().unwrap();
    let trace = net.route(peer, hash_str(&files[0].0));
    println!(
        "after 50 joins + 50 leaves: lookup for {} still {:?} ({} hops, {} timeouts)",
        files[0].0,
        trace.outcome,
        trace.path_len(),
        trace.timeouts
    );

    // Compare key balance against Viceroy at the same scale (§4.2 in
    // miniature): Cycloid's two-level index keeps records more even.
    let viceroy = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 800, 2024);
    let vcounts = {
        let mut all: Vec<u64> = Vec::new();
        let keys: Vec<u64> = (0..50_000)
            .map(|i| hash_str(&format!("blob-{i}")))
            .collect();
        all.extend(key_counts(&viceroy, &keys));
        all
    };
    let ccounts = {
        let keys: Vec<u64> = (0..50_000)
            .map(|i| hash_str(&format!("blob-{i}")))
            .collect();
        key_counts(&net, &keys)
    };
    let c = Summary::of_counts(&ccounts);
    let v = Summary::of_counts(&vcounts);
    println!(
        "\nkey balance over 50k blobs — Cycloid p99 {} vs Viceroy p99 {} (means {:.1} / {:.1})",
        c.p99, v.p99, c.mean, v.mean
    );
}
