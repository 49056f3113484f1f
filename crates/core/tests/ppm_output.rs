//! Pins the bytes PPM writes. The conform goldens see PPM's floats only
//! through the lengths of its stats lines; these tests hash the contents
//! of `/out/ppm.dat` on every node, plus the halo traffic and event count,
//! after driving a PPM fleet on the cluster directly.

use essio::cluster::Beowulf;
use essio::experiment::Experiment;
use essio::workloads;

/// Byte-wise FNV-1a 64.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Runs a PPM fleet and returns (hash of every node's `/out/ppm.dat` in
/// node order, net stats, events delivered).
fn ppm_output(e: Experiment) -> (String, (u64, u64), u64) {
    let mut bw = Beowulf::new(e.cluster.clone());
    workloads::install_assets(&mut bw, e.cluster.seed);
    workloads::spawn_ppm_fleet(&mut bw, &e.ppm, 0);
    bw.run_apps(e.settle_secs * 1_000_000);
    let mut h = 0xcbf29ce484222325;
    for n in 0..bw.nodes() {
        let fs = bw.kernel(n).fs();
        let ino = fs.lookup("/out/ppm.dat").expect("ppm.dat written");
        h = fnv1a(h, fs.inode(ino).expect("ppm.dat inode").content());
    }
    (format!("{h:016x}"), bw.net_stats(), bw.events_delivered())
}

#[test]
fn quick_ppm_output_is_pinned() {
    let (hash, net, events) = ppm_output(Experiment::ppm().quick().seed(3));
    assert_eq!(hash, "7b40f7397b4530fd");
    assert_eq!(net, (40, 7680));
    assert_eq!(events, 531);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper scale: run with cargo test --release"
)]
fn paper_scale_ppm_output_is_pinned() {
    let (hash, net, events) = ppm_output(Experiment::ppm().seed(3));
    assert_eq!(hash, "ed67801e4507fea5");
    assert_eq!(net, (2944, 1413120));
    assert_eq!(events, 21_596);
}
