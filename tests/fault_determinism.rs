//! The fault plane's two contracts, asserted end-to-end:
//!
//! 1. **Determinism**: the same master seed and the same [`FaultPlan`]
//!    give a bit-identical merged trace (compared as encoded bytes) and a
//!    bit-identical JSON summary, run after run — faults are a pure
//!    function of (plan seed, node, command/frame index), never of host
//!    state or iteration order.
//! 2. **Inertness when empty**: attaching an empty plan (any plan seed)
//!    leaves every experiment kind bit-identical to a run without the
//!    fault plane at all.

use ess_io_study::prelude::*;

fn degraded_plan() -> FaultPlan {
    FaultPlan::none()
        .seed(0xBAD)
        .disk(DiskFaultConfig {
            media_error_every: 60,
            slow_every: 30,
            ..Default::default()
        })
        .net(NetFaultConfig::lossy_segment())
        .crash_restart(1, 20_000_000, 15_000_000)
}

#[test]
fn same_seed_and_plan_give_bit_identical_trace_and_summary() {
    let run = || {
        Experiment::combined()
            .quick()
            .seed(51)
            .faults(degraded_plan())
            .run()
    };
    let a = run();
    let b = run();
    assert!(a.trace == b.trace, "merged traces must match");
    let sa = serde_json::to_string(&a.summary).expect("summary serializes");
    let sb = serde_json::to_string(&b.summary).expect("summary serializes");
    assert_eq!(sa, sb, "JSON summaries must match");
    let da = serde_json::to_string(&a.degradation).expect("degradation serializes");
    let db = serde_json::to_string(&b.degradation).expect("degradation serializes");
    assert_eq!(da, db, "degradation reports must match");
    assert!(
        !a.degradation.is_clean(),
        "the plan above must actually fire: {da}"
    );
}

#[test]
fn empty_plan_is_bit_identical_to_no_fault_plane_for_every_kind() {
    let kinds: [fn() -> Experiment; 5] = [
        Experiment::baseline,
        Experiment::ppm,
        Experiment::wavelet,
        Experiment::nbody,
        Experiment::combined,
    ];
    for make in kinds {
        let plain = make().quick().seed(52).run();
        let with_plan = make()
            .quick()
            .seed(52)
            .faults(FaultPlan::none().seed(0xFEED))
            .run();
        assert!(
            plain.trace == with_plan.trace,
            "{:?}: empty plan must be invisible in the trace",
            plain.kind
        );
        assert_eq!(
            serde_json::to_string(&plain.summary).unwrap(),
            serde_json::to_string(&with_plan.summary).unwrap(),
            "{:?}: empty plan must be invisible in the summary",
            plain.kind
        );
        assert!(with_plan.degradation.is_clean());
    }
}

#[test]
fn crash_only_plan_degrades_but_still_summarizes() {
    let run = || {
        Experiment::combined()
            .quick()
            .seed(53)
            .faults(FaultPlan::none().crash(1, 10_000_000))
            .run()
    };
    let r = run();
    // Node 1's processes died with it; node 0's may finish or stall on
    // their dead peers — either way the run terminates and reports.
    assert!(r.degradation.nodes[1].crashed);
    assert_eq!(r.degradation.lost_nodes, vec![1]);
    assert!(!r.trace.is_empty(), "survivors and daemons still traced");
    assert!(r.summary.rw.total > 0);
    assert!(r.degradation.report().contains("CRASHED"));
    // A crash tears down several processes at one instant; the teardown
    // order (and with it the exit list) must not depend on map order.
    let json = r.canonical_json();
    for _ in 0..2 {
        let again = run();
        assert!(
            again.canonical_json() == json,
            "crash teardown order drifted: {:?} vs {:?}",
            again.exits,
            r.exits
        );
    }
    let crashed: Vec<_> = r.exits.iter().filter(|e| e.node == 1).collect();
    assert!(crashed.len() > 1, "the crash kills several processes");
    for w in r.exits.windows(2) {
        if w[0].at == w[1].at {
            assert!(w[0].pid < w[1].pid, "same-instant exits in pid order");
        }
    }
}
