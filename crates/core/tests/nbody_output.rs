//! Pins the bytes N-body writes. The conform goldens see N-body's floats
//! only through the lengths of its stats lines and snapshots; these tests
//! hash the contents of `/out/nbody.dat` on every node (momentum lines and
//! particle snapshots), plus the cell-summary traffic and event count,
//! after driving an N-body fleet on the cluster directly.

use essio::cluster::Beowulf;
use essio::experiment::Experiment;
use essio::workloads;

/// Byte-wise FNV-1a 64.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Runs an N-body fleet and returns (hash of every node's
/// `/out/nbody.dat` in node order, net stats, events delivered).
fn nbody_output(e: Experiment) -> (String, (u64, u64), u64) {
    let mut bw = Beowulf::new(e.cluster.clone());
    workloads::install_assets(&mut bw, e.cluster.seed);
    workloads::spawn_nbody_fleet(&mut bw, &e.nbody, 0);
    bw.run_apps(e.settle_secs * 1_000_000);
    let mut h = 0xcbf29ce484222325;
    for n in 0..bw.nodes() {
        let fs = bw.kernel(n).fs();
        let ino = fs.lookup("/out/nbody.dat").expect("nbody.dat written");
        h = fnv1a(h, fs.inode(ino).expect("nbody.dat inode").content());
    }
    (format!("{h:016x}"), bw.net_stats(), bw.events_delivered())
}

#[test]
fn quick_nbody_output_is_pinned() {
    let (hash, net, events) = nbody_output(Experiment::nbody().quick().seed(3));
    assert_eq!(hash, "27dd1eae50afa924");
    assert_eq!(net, (20, 640));
    assert_eq!(events, 506);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper scale: run with cargo test --release"
)]
fn paper_scale_nbody_output_is_pinned() {
    let (hash, net, events) = nbody_output(Experiment::nbody().seed(3));
    assert_eq!(hash, "5dee13a80b480f9f");
    assert_eq!(net, (9600, 307200));
    assert_eq!(events, 40_500);
}
