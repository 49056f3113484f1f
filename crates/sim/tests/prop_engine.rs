#![cfg(feature = "proptests")]

//! Property tests over the event engine: total order, FIFO tie-break,
//! clock monotonicity and the pending count under arbitrary schedule/pop
//! interleavings, checked against a `BTreeMap<(time, seq), payload>` model.

use essio_sim::Engine;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum EngineOp {
    ScheduleIn(u64),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<EngineOp>> {
    // Two of three schedules use a delay under 4 µs, so same-instant ties
    // (the FIFO tie-break) are common rather than rare.
    prop::collection::vec(
        prop_oneof![
            (0u64..4).prop_map(EngineOp::ScheduleIn),
            (0u64..4).prop_map(EngineOp::ScheduleIn),
            (0u64..1000).prop_map(EngineOp::ScheduleIn),
            Just(EngineOp::Pop),
            Just(EngineOp::Pop),
            Just(EngineOp::Pop),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_is_a_faithful_priority_queue(ops in ops()) {
        let mut engine: Engine<u64> = Engine::new();
        // Reference model: (time, seq) -> payload for pending events.
        let mut model: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        let mut seq = 0u64;
        let mut last_popped = 0u64;
        for op in ops {
            match op {
                EngineOp::ScheduleIn(delay) => {
                    model.insert((engine.now() + delay, seq), seq);
                    engine.schedule_in(delay, seq);
                    seq += 1;
                }
                EngineOp::Pop => {
                    let expected = model.pop_first().map(|((t, _), v)| (t, v));
                    let popped = engine.pop();
                    prop_assert_eq!(popped, expected, "wrong order");
                    if let Some((t, _)) = popped {
                        prop_assert!(t >= last_popped, "clock went backward");
                        prop_assert_eq!(engine.now(), t);
                        last_popped = t;
                    }
                }
            }
            prop_assert_eq!(engine.pending(), model.len());
        }
        // Drain: remaining events come out in model order.
        while let Some(popped) = engine.pop() {
            let expected = model.pop_first().map(|((t, _), v)| (t, v));
            prop_assert_eq!(Some(popped), expected);
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn rng_below_is_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = essio_sim::SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_fork_streams_do_not_collide(seed in any::<u64>()) {
        let mut root = essio_sim::SimRng::new(seed);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let matches = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(matches <= 1, "{matches} collisions");
    }
}
