#![cfg(feature = "proptests")]

//! Property test over the process host: for random scripts of compute,
//! touch, touch-range, page-walk and request calls under random flush
//! thresholds, the
//! host yields exactly the `ProcMsg` sequence a small reference model of
//! the flush rules predicts — message kinds, compute micros, touch vectors,
//! request payloads and the final `Exit` touches.

use essio_sim::{ProcConfig, ProcCtx, ProcMsg, ProcessHost, Vpn};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    Compute(u64),
    /// Touch one page `times` times in a row (runs of repeats).
    Touch(Vpn, u8),
    TouchRange(Vpn, u64),
    /// Touch `n` pages from `base` down, billing `micros` after each.
    Walk(Vpn, u64, u64),
    Request(u32),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..3_000).prop_map(Step::Compute),
            (0u64..6, 1u8..4).prop_map(|(v, n)| Step::Touch(v, n)),
            (0u64..8, 0u64..24).prop_map(|(b, n)| Step::TouchRange(b, n)),
            (0u64..8, 0u64..24, 0u64..400).prop_map(|(b, n, us)| Step::Walk(b + n, n, us)),
            (0u32..1_000).prop_map(Step::Request),
        ],
        0..60,
    )
}

/// A message as the engine sees it, comparable.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Compute(u64, Vec<Vpn>),
    Request(u32, Vec<Vpn>),
    Exit(i32, Vec<Vpn>),
}

impl From<ProcMsg<u32>> for Seen {
    fn from(msg: ProcMsg<u32>) -> Self {
        match msg {
            ProcMsg::Compute { micros, touches } => Seen::Compute(micros, touches),
            ProcMsg::Request { call, touches } => Seen::Request(call, touches),
            ProcMsg::Exit { code, touches } => Seen::Exit(code, touches),
        }
    }
}

fn reply(call: u32) -> u32 {
    call.wrapping_mul(3).wrapping_add(1)
}

/// The flush rules, stated once: compute and touches accumulate; a yield is
/// forced when accumulated compute reaches `compute_flush_us` or the touch
/// batch reaches `touch_flush`; consecutive duplicate touches collapse; a
/// request first bills outstanding compute; a body that returns flushes its
/// trailing compute before `Exit`, which carries the remaining touches.
struct Model {
    cfg: ProcConfig,
    pending: u64,
    touches: Vec<Vpn>,
    out: Vec<Seen>,
}

impl Model {
    fn flush(&mut self) {
        let micros = std::mem::take(&mut self.pending);
        let touches = std::mem::take(&mut self.touches);
        if micros > 0 || !touches.is_empty() {
            self.out.push(Seen::Compute(micros, touches));
        }
    }

    fn touch(&mut self, vpn: Vpn) {
        if self.touches.last() != Some(&vpn) {
            self.touches.push(vpn);
            if self.touches.len() >= self.cfg.touch_flush {
                self.flush();
            }
        }
    }

    fn predict(cfg: ProcConfig, script: &[Step]) -> Vec<Seen> {
        let mut m = Model {
            cfg,
            pending: 0,
            touches: Vec::new(),
            out: Vec::new(),
        };
        let mut requests = 0;
        for step in script {
            match *step {
                Step::Compute(us) => {
                    m.pending += us;
                    if m.pending >= cfg.compute_flush_us {
                        m.flush();
                    }
                }
                Step::Touch(vpn, times) => (0..times).for_each(|_| m.touch(vpn)),
                Step::TouchRange(base, n) => (base..base + n).for_each(|p| m.touch(p)),
                Step::Walk(base, n, us) => {
                    for p in (base - n..base).rev() {
                        m.touch(p);
                        if us > 0 {
                            m.pending += us;
                            if m.pending >= cfg.compute_flush_us {
                                m.flush();
                            }
                        }
                    }
                }
                Step::Request(call) => {
                    let micros = std::mem::take(&mut m.pending);
                    if micros > 0 {
                        let touches = std::mem::take(&mut m.touches);
                        m.out.push(Seen::Compute(micros, touches));
                    }
                    let touches = std::mem::take(&mut m.touches);
                    m.out.push(Seen::Request(call, touches));
                    requests += 1;
                }
            }
        }
        let touches = std::mem::take(&mut m.touches);
        if m.pending > 0 {
            m.out.push(Seen::Compute(m.pending, Vec::new()));
        }
        m.out.push(Seen::Exit(requests, touches));
        m.out
    }
}

/// Run `script` as a process body: the exit code is the number of requests
/// answered, each answer checked against [`reply`].
async fn interpret(script: &[Step], mut ctx: ProcCtx<u32, u32>) -> i32 {
    let mut requests = 0;
    for step in script {
        match *step {
            Step::Compute(us) => ctx.compute(us).await,
            Step::Touch(vpn, times) => {
                for _ in 0..times {
                    ctx.touch(vpn).await;
                }
            }
            Step::TouchRange(base, n) => ctx.touch_range(base, n).await,
            Step::Walk(base, n, us) => ctx.touch_pages((base - n..base).rev(), us).await,
            Step::Request(call) => {
                assert_eq!(ctx.request(call).await, reply(call));
                requests += 1;
            }
        }
    }
    requests
}

/// Drive a host running `script` to its exit, recording every message.
fn observe(cfg: ProcConfig, script: Vec<Step>) -> Vec<Seen> {
    let mut host = ProcessHost::spawn("prop", cfg, move |ctx| async move {
        interpret(&script, ctx).await
    });
    let mut now = 0;
    let mut seen = Vec::new();
    let mut msg = host.resume(now, None);
    loop {
        now += 1;
        let next = match &msg {
            ProcMsg::Compute { .. } => Some(host.resume(now, None)),
            ProcMsg::Request { call, .. } => Some(host.resume(now, Some(reply(*call)))),
            ProcMsg::Exit { .. } => None,
        };
        seen.push(Seen::from(msg));
        match next {
            Some(m) => msg = m,
            None => break,
        }
    }
    assert!(host.finished());
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn host_yields_exactly_the_modelled_message_sequence(
        compute_flush_us in 0u64..5_000,
        touch_flush in 0usize..16,
        script in steps(),
    ) {
        let cfg = ProcConfig { compute_flush_us, touch_flush };
        let expected = Model::predict(cfg, &script);
        let got = observe(cfg, script);
        prop_assert_eq!(got, expected);
    }
}
