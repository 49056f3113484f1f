//! PIOUS extension integration: declustered parallel I/O under the
//! instrumentation, with coordinated (sequentially consistent) semantics.

use ess_io_study::pfs::StripeSpec;
use ess_io_study::prelude::*;
use essio::pfsio;

#[test]
fn striped_writes_land_on_every_member_disk() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 3,
        seed: 1,
        ..Default::default()
    });
    let svc = pfsio::spawn_service(&mut bw);
    let svc2 = svc.clone();
    let my_task = bw.next_task();
    bw.spawn(0, "client", 1_000, move |mut ctx| async move {
        let spec = StripeSpec::new(2048, vec![0, 1, 2]);
        let mut pf = pfsio::ParaFile::open("grid", spec, &svc2, my_task);
        let data: Vec<u8> = (0..48 * 1024u32).map(|i| (i % 251) as u8).collect();
        pf.write(&mut ctx, 0, &data).await;
        let back = pf.read(&mut ctx, 0, 48 * 1024).await;
        assert_eq!(back, data);
        pfsio::shutdown(&mut ctx, &svc2).await;
        0
    });
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
    let trace = bw.take_trace();
    for n in 0..3u8 {
        let writes = trace
            .iter()
            .filter(|r| {
                r.node == n
                    && r.op == ess_io_study::trace::Op::Write
                    && (60_000..940_000).contains(&r.sector)
            })
            .count();
        assert!(writes > 0, "node {n} must have received segment writes");
    }
}

#[test]
fn coordinated_access_is_never_torn_across_many_clients() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 4,
        seed: 2,
        ..Default::default()
    });
    let svc = pfsio::spawn_service(&mut bw);
    // Every node runs a client that repeatedly rewrites the shared
    // parafile with its own byte and checks reads are uniform.
    let nclients = 4u8;
    for c in 0..nclients {
        let svc_c = svc.clone();
        let my_task = bw.next_task();
        bw.spawn(c, "mutator", 1_000, move |mut ctx| async move {
            let spec = StripeSpec::new(1024, vec![0, 1, 2, 3]);
            let mut pf = pfsio::ParaFile::open("shared", spec, &svc_c, my_task);
            for round in 0..3 {
                pf.write(&mut ctx, 0, &vec![0x40 + c; 12 * 1024]).await;
                let got = pf.read(&mut ctx, 0, 12 * 1024).await;
                let first = got[0];
                assert!(
                    got.iter().all(|&b| b == first),
                    "torn read in round {round}: mixed {:?}",
                    got.iter().collect::<std::collections::BTreeSet<_>>()
                );
                ctx.compute(100_000).await;
            }
            if c == 0 {
                ctx.compute(5_000_000).await;
                pfsio::shutdown(&mut ctx, &svc_c).await;
            }
            0
        });
    }
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
}

#[test]
fn parafile_reads_of_unwritten_ranges_are_zero_filled() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 2,
        seed: 3,
        ..Default::default()
    });
    let svc = pfsio::spawn_service(&mut bw);
    let svc2 = svc.clone();
    let my_task = bw.next_task();
    bw.spawn(0, "sparse", 1_000, move |mut ctx| async move {
        let spec = StripeSpec::new(1024, vec![0, 1]);
        let mut pf = pfsio::ParaFile::open("sparse", spec, &svc2, my_task);
        pf.write(&mut ctx, 8192, b"hello").await;
        let head = pf.read(&mut ctx, 0, 8192).await;
        assert!(
            head.iter().all(|&b| b == 0),
            "unwritten prefix reads as zeros"
        );
        let tail = pf.read(&mut ctx, 8192, 5).await;
        assert_eq!(tail, b"hello");
        pfsio::shutdown(&mut ctx, &svc2).await;
        0
    });
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
}

#[test]
fn pfs_traffic_is_visible_to_the_characterization_pipeline() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 2,
        seed: 4,
        ..Default::default()
    });
    let svc = pfsio::spawn_service(&mut bw);
    let svc2 = svc.clone();
    let my_task = bw.next_task();
    bw.spawn(0, "writer", 1_000, move |mut ctx| async move {
        let spec = StripeSpec::new(4096, vec![0, 1]);
        let mut pf = pfsio::ParaFile::open("blob", spec, &svc2, my_task);
        for k in 0..8u64 {
            pf.write(&mut ctx, k * 16 * 1024, &vec![7u8; 16 * 1024])
                .await;
            ctx.compute(500_000).await;
        }
        pfsio::shutdown(&mut ctx, &svc2).await;
        0
    });
    let _ = bw.run_apps(12_000_000);
    let duration = bw.now();
    let trace = bw.take_trace();
    let summary = TraceSummary::compute(&trace, duration, 999_936);
    // The striped write stream shows up as a write-dominated workload
    // across both disks, with driver merging building multi-block writes.
    assert!(summary.rw.write_pct() > 60.0, "{}", summary.rw.report());
    assert!(
        trace.iter().any(|r| r.bytes() >= 2048),
        "flush batching should merge striped segment writes"
    );
}
