#![cfg(feature = "proptests")]

//! Property tests for the disk subsystem: under arbitrary request streams
//! the driver must conserve work (every token completes exactly once, every
//! transferred sector is accounted) and merged requests must stay physically
//! contiguous and direction-pure.

use std::collections::BTreeSet;

use essio_disk::{BlockRequest, IdeDriver, SchedPolicy, SubmitOutcome, TimingModel};
use essio_trace::{InstrumentationLevel, Op};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GenReq {
    sector: u32,
    nsectors: u16,
    read: bool,
    gap_us: u64,
}

fn gen_req() -> impl Strategy<Value = GenReq> {
    (
        0u32..999_000,
        prop_oneof![Just(2u16), Just(4), Just(8), Just(16), Just(32)],
        any::<bool>(),
        0u64..20_000,
    )
        .prop_map(|(sector, nsectors, read, gap_us)| GenReq {
            sector: sector & !1, // block aligned
            nsectors,
            read,
            gap_us,
        })
}

/// Drive the submit/complete protocol to quiescence, gathering completions.
fn run_driver(
    policy: SchedPolicy,
    reqs: &[GenReq],
) -> (IdeDriver, Vec<essio_disk::Completion>, u64) {
    let mut d = IdeDriver::new(3, TimingModel::beowulf_ide(), policy, 1 << 20);
    d.set_instrumentation(InstrumentationLevel::Full);
    let mut now = 0u64;
    let mut deadline: Option<u64> = None;
    let mut completions = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        now += r.gap_us;
        // Retire anything that finished before this submission.
        while let Some(t) = deadline {
            if t > now {
                break;
            }
            let (c, next) = d.on_complete(t);
            completions.push(c);
            deadline = next;
        }
        let outcome = d.submit(
            now,
            BlockRequest {
                sector: r.sector,
                nsectors: r.nsectors,
                op: if r.read { Op::Read } else { Op::Write },
                origin: essio_trace::Origin::FileData,
                token: i as u64,
                relocated: false,
            },
        );
        if let SubmitOutcome::Dispatched { completes_at } = outcome {
            assert!(deadline.is_none(), "dispatch while busy");
            deadline = Some(completes_at);
        }
    }
    while let Some(t) = deadline {
        let (c, next) = d.on_complete(t);
        completions.push(c);
        deadline = next;
    }
    (d, completions, reqs.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_token_completes_exactly_once_elevator(reqs in prop::collection::vec(gen_req(), 1..150)) {
        let (_, completions, n) = run_driver(SchedPolicy::Elevator, &reqs);
        let tokens: Vec<u64> = completions.iter().flat_map(|c| c.tokens.iter().copied()).collect();
        let unique: BTreeSet<u64> = tokens.iter().copied().collect();
        prop_assert_eq!(tokens.len() as u64, n);
        prop_assert_eq!(unique.len() as u64, n);
    }

    #[test]
    fn every_token_completes_exactly_once_fifo(reqs in prop::collection::vec(gen_req(), 1..150)) {
        let (_, completions, n) = run_driver(SchedPolicy::Fifo, &reqs);
        let tokens: Vec<u64> = completions.iter().flat_map(|c| c.tokens.iter().copied()).collect();
        prop_assert_eq!(tokens.len() as u64, n);
    }

    #[test]
    fn sectors_are_conserved(reqs in prop::collection::vec(gen_req(), 1..150)) {
        let (d, completions, _) = run_driver(SchedPolicy::Elevator, &reqs);
        let submitted: u64 = reqs.iter().map(|r| r.nsectors as u64).sum();
        let completed: u64 = completions.iter().map(|c| c.nsectors as u64).sum();
        prop_assert_eq!(submitted, completed);
        let stats = d.stats();
        prop_assert_eq!(stats.read_sectors + stats.written_sectors, submitted);
    }

    #[test]
    fn trace_matches_physical_dispatches(reqs in prop::collection::vec(gen_req(), 1..150)) {
        let (mut d, completions, _) = run_driver(SchedPolicy::Elevator, &reqs);
        let mut recs: Vec<essio_trace::TraceRecord> = Vec::new();
        d.drain_trace_into(&mut recs);
        prop_assert_eq!(recs.len() as u64, d.stats().dispatched);
        prop_assert_eq!(recs.len(), completions.len());
        // Trace timestamps are nondecreasing (dispatch order).
        for w in recs.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
        // Trace sizes correspond to completed physical sizes, in order.
        for (rec, comp) in recs.iter().zip(&completions) {
            prop_assert_eq!(rec.sector, comp.sector);
            prop_assert_eq!(rec.nsectors, comp.nsectors);
        }
    }

    #[test]
    fn merged_requests_never_exceed_cap_or_mix_direction(reqs in prop::collection::vec(gen_req(), 1..200)) {
        let (_, completions, _) = run_driver(SchedPolicy::Elevator, &reqs);
        for c in &completions {
            prop_assert!(c.nsectors <= 64, "32 KB cap respected");
        }
    }
}
