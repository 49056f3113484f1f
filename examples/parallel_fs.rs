//! The PIOUS extension: coordinated parallel I/O over a declustered
//! parafile, observed by the per-disk instrumentation (DESIGN.md §7).
//!
//! ```sh
//! cargo run --example parallel_fs
//! ```

use ess_io_study::pfs::StripeSpec;
use ess_io_study::prelude::*;
use essio::pfsio;

fn main() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 4,
        seed: 31,
        ..Default::default()
    });
    let svc = pfsio::spawn_service(&mut bw);

    // One writer produces a 256 KB dataset striped over all four disks;
    // three readers then scan disjoint thirds of it concurrently.
    let spec = StripeSpec::new(4096, vec![0, 1, 2, 3]);
    let svc_w = svc.clone();
    let writer_task = bw.next_task();
    let spec_w = spec.clone();
    bw.spawn(0, "producer", 0, move |mut ctx| async move {
        let mut pf = pfsio::ParaFile::open("dataset", spec_w, &svc_w, writer_task);
        let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 253) as u8).collect();
        for chunk in 0..8u64 {
            pf.write(
                &mut ctx,
                chunk * 32 * 1024,
                &payload[(chunk as usize) * 32 * 1024..][..32 * 1024],
            )
            .await;
        }
        0
    });
    for r in 0..3u8 {
        let svc_r = svc.clone();
        let spec_r = spec.clone();
        let my_task = bw.next_task();
        bw.spawn(1 + r, "consumer", 2_000_000, move |mut ctx| async move {
            let mut pf = pfsio::ParaFile::open("dataset", spec_r, &svc_r, my_task);
            let base = r as u64 * 80 * 1024;
            let data = pf.read(&mut ctx, base, 80 * 1024).await;
            // Verify content that the producer has committed by now; the
            // coordinator serializes access, so reads are never torn.
            let ok = data
                .iter()
                .enumerate()
                .all(|(i, &b)| b == 0 || b == (((base as usize + i) % 253) as u8));
            assert!(ok, "consumer {r} read torn data");
            if r == 0 {
                ctx.compute(3_000_000).await;
                pfsio::shutdown(&mut ctx, &svc_r).await;
            }
            0
        });
    }
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());

    let trace = bw.take_trace();
    println!("{} driver records across {} disks", trace.len(), bw.nodes());
    for n in 0..bw.nodes() {
        let per: Vec<_> = trace.iter().filter(|r| r.node == n).collect();
        let user = per
            .iter()
            .filter(|r| (60_000..940_000).contains(&r.sector))
            .count();
        println!(
            "  node {n}: {} records, {} in the user-data region (segment files)",
            per.len(),
            user
        );
    }
    let summary = TraceSummary::compute(&trace, 30_000_000, 999_936);
    println!();
    println!("{}", summary.report("pfs"));
    println!("=> the declustered parafile turned one logical dataset into parallel I/O on every member disk");
}
