//! Using the instrumented cluster as a library: run your *own* workload
//! process, control the trace ioctl at runtime, inject disk faults, and
//! post-process the captured trace with the codec + analysis toolkit.
//!
//! ```sh
//! cargo run --example custom_instrumentation
//! ```

use ess_io_study::apps::{CtxExt, SimFile};
use ess_io_study::kernel::{Placement, Syscall};
use ess_io_study::prelude::*;
use ess_io_study::trace::codec;

fn main() {
    let mut cfg = BeowulfConfig {
        nodes: 1,
        seed: 42,
        // Exercise the drive's slow-command path: 1 in 50 commands is
        // served slowly (drive-internal retries).
        faults: FaultPlan::none().disk(DiskFaultConfig {
            slow_every: 50,
            ..Default::default()
        }),
        ..Default::default()
    };
    cfg.spool_trace = false; // keep the trace free of its own spooling I/O
    let mut bw = Beowulf::new(cfg);

    // A custom workload: a crude database-style workload — append a log,
    // then do scattered point reads against a data file.
    bw.install_file(0, "/data/table", Placement::User, &vec![0xA5u8; 128 * 1024]);
    bw.spawn(0, "mini-db", 0, |mut ctx| async move {
        let mut wal = SimFile::open(&mut ctx, "/data/wal", true, Placement::User).await;
        let mut table = SimFile::open(&mut ctx, "/data/table", false, Placement::User).await;
        for txn in 0..40u64 {
            // Write-ahead record, then force it to disk.
            wal.append(&mut ctx, format!("txn {txn:06} commit\n").into_bytes())
                .await;
            if txn % 8 == 7 {
                wal.fsync(&mut ctx).await;
            }
            // Scattered point read.
            table.seek((txn * 37 % 128) * 1024);
            let page = table.read(&mut ctx, 1024).await;
            assert_eq!(page.len(), 1024);
            ctx.compute(250_000).await; // 0.25 s of "query processing"
        }
        ctx.sys(Syscall::LogMsg { len: 80 }).await; // and a syslog line
        wal.fsync(&mut ctx).await;
        wal.close(&mut ctx).await;
        table.close(&mut ctx).await;
        0
    });
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());

    let trace = bw.take_trace();
    println!("captured {} driver-level records", trace.len());
    println!(
        "injected slow disk commands survived: {}",
        bw.kernel(0).driver_stats().slow_commands
    );

    // Round-trip the trace through the columnar codec — what the study's
    // post-processing pipeline would consume.
    let encoded = codec::encode_columnar(&trace);
    let decoded = codec::decode_columnar(&encoded).expect("own format");
    assert_eq!(decoded, trace);
    println!(
        "columnar trace: {} bytes ({:.1} per record)",
        encoded.len(),
        encoded.len() as f64 / trace.len().max(1) as f64
    );

    // And analyze it like any experiment.
    let summary = TraceSummary::compute(&trace, 60_000_000, 999_936);
    println!();
    println!("{}", summary.report("mini-db"));

    // First few records, for eyeballing.
    for r in &trace[..trace.len().min(10)] {
        println!("{r:?}");
    }
}
