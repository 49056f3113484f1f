//! The streaming Chrome-trace writer over hand-built reports: extreme
//! integers, `pid: None`, every span kind, every fault-flag combination,
//! empty lists. The output must parse, hold one event per record as
//! documented, carry every timestamp, sector and span id exactly, and be
//! formatted exactly as the `serde_json` shim renders the parsed tree.

use std::io::{self, Write};

use essio_obs::{MetricsRegistry, NetEvent, ObsReport, PhysSpan, Span, SpanKind};
use essio_trace::{Op, Origin};
use serde_json::Value;

const KINDS: [SpanKind; 12] = [
    SpanKind::Open,
    SpanKind::Read,
    SpanKind::Write,
    SpanKind::Fsync,
    SpanKind::Sync,
    SpanKind::Log,
    SpanKind::PageIn,
    SpanKind::SwapIn,
    SpanKind::SwapOut,
    SpanKind::Writeback,
    SpanKind::DaemonFlush,
    SpanKind::Other,
];

/// A span whose integer fields are all taken from `v` (cycled), so `v`
/// of `u64::MAX` saturates every field, `u8`/`u32` ones included.
fn span(kind: SpanKind, pid: Option<u32>, truncated: bool, v: &[u64]) -> Span {
    let at = |i: usize| v[i % v.len()];
    Span {
        id: at(0),
        node: at(1) as u8,
        pid,
        kind,
        begin_us: at(2),
        end_us: at(3),
        cache_hits: at(4) as u32,
        cache_misses: at(5) as u32,
        ra_window: at(6) as u32,
        ra_blocks: at(7) as u32,
        tokens: at(8) as u32,
        records: at(9) as u32,
        bytes: at(10),
        queue_wait_us: at(11),
        service_us: at(12),
        retry_us: at(13),
        retries: at(14) as u32,
        relocations: at(15) as u32,
        net_delay_us: at(16),
        truncated,
    }
}

/// A disk command with `flags` bits 0/1/2 as `truncated`/`retry`/`failed`.
fn phys(flags: u8, read: bool, origin: usize, v: &[u64]) -> PhysSpan {
    let at = |i: usize| v[i % v.len()];
    PhysSpan {
        node: at(0) as u8,
        span: at(1),
        sector: at(2),
        nsectors: at(3) as u32,
        op: if read { Op::Read } else { Op::Write },
        origin: Origin::ALL[origin % Origin::ALL.len()],
        submit_us: at(4),
        dispatch_us: at(5),
        complete_us: at(6),
        queue_depth: at(7) as u32,
        truncated: flags & 1 != 0,
        retry: flags & 2 != 0,
        failed: flags & 4 != 0,
    }
}

fn net(v: &[u64]) -> NetEvent {
    let at = |i: usize| v[i % v.len()];
    NetEvent {
        at_us: at(0),
        from_node: at(1) as u8,
        from_pid: at(2) as u32,
        to_pid: at(3) as u32,
        attempts: at(4) as u32,
        backoff_us: at(5),
    }
}

/// Every span kind with and without a pid and truncation, and every
/// `truncated`/`retry`/`failed` combination of a disk command, all at
/// `u64::MAX`.
fn exhaustive() -> ObsReport {
    let max = [u64::MAX];
    let mut spans = Vec::new();
    for kind in KINDS {
        for (pid, truncated) in [(None, false), (Some(u32::MAX), true)] {
            spans.push(span(kind, pid, truncated, &max));
        }
    }
    ObsReport {
        nodes: 2,
        duration_us: u64::MAX,
        spans,
        phys: (0..8u8)
            .map(|flags| phys(flags, flags % 2 == 0, flags as usize, &max))
            .collect(),
        net: vec![net(&max)],
        metrics: MetricsRegistry::new(),
        unclosed: u64::MAX,
    }
}

fn field<'v>(event: &'v Value, name: &str) -> &'v Value {
    event
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{name}` in {event:?}"))
}

fn int(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).expect("a u64"),
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn arg(event: &Value, name: &str) -> u64 {
    int(field(field(event, "args"), name))
}

/// Parse `report`'s trace and check every property the module doc lists.
fn check(report: &ObsReport) {
    let json = report.chrome_trace();
    let root: Value = serde_json::from_str(&json).expect("the trace parses");
    assert_eq!(
        serde_json::to_string(&root).unwrap(),
        json,
        "formatted as the shim renders the same tree"
    );
    let events = field(&root, "traceEvents").as_array().expect("an array");
    let faults = report.phys.iter().filter(|p| p.failed || p.retry).count();
    let expected = 4 * report.nodes as usize
        + 2 * report.spans.len()
        + report.phys.len()
        + faults
        + report.net.len();
    assert_eq!(events.len(), expected);

    let mut rest = events[4 * report.nodes as usize..].iter();
    for s in &report.spans {
        let (b, e) = (rest.next().unwrap(), rest.next().unwrap());
        assert_eq!(field(b, "ph").as_str(), Some("b"));
        assert_eq!(field(b, "name").as_str(), Some(s.kind.label()));
        assert_eq!(int(field(b, "ts")), s.begin_us);
        assert_eq!(arg(b, "span"), s.uid());
        assert_eq!(arg(b, "pid"), s.pid.unwrap_or(0) as u64);
        assert_eq!(arg(b, "bytes"), s.bytes);
        assert_eq!(arg(b, "net_delay_us"), s.net_delay_us);
        assert_eq!(field(e, "ph").as_str(), Some("e"));
        assert_eq!(int(field(e, "ts")), s.end_us);
        assert_eq!(field(b, "id"), field(e, "id"));
    }
    for p in &report.phys {
        let span = ((p.node as u64) << 48) | p.span;
        let x = rest.next().unwrap();
        assert_eq!(field(x, "ph").as_str(), Some("X"));
        assert_eq!(int(field(x, "ts")), p.dispatch_us);
        assert_eq!(arg(x, "sector"), p.sector);
        assert_eq!(arg(x, "span"), span);
        assert_eq!(arg(x, "submit_us"), p.submit_us);
        let flags = ["retry", "failed", "truncated"].map(|k| field(field(x, "args"), k));
        let want = [p.retry, p.failed, p.truncated].map(Value::Bool);
        assert_eq!(flags, want.each_ref());
        if p.failed || p.retry {
            let i = rest.next().unwrap();
            assert_eq!(field(i, "cat").as_str(), Some("faults"));
            assert_eq!(int(field(i, "ts")), p.dispatch_us);
            assert_eq!(arg(i, "sector"), p.sector);
            assert_eq!(arg(i, "span"), span);
        }
    }
    for n in &report.net {
        let i = rest.next().unwrap();
        assert_eq!(field(i, "cat").as_str(), Some("net"));
        assert_eq!(int(field(i, "ts")), n.at_us);
        assert_eq!(arg(i, "backoff_us"), n.backoff_us);
    }
    assert!(rest.next().is_none());
}

#[test]
fn every_kind_and_fault_flag_at_u64_max() {
    check(&exhaustive());
}

#[test]
fn an_empty_report_is_an_empty_event_list() {
    check(&ObsReport::default());
    assert_eq!(
        ObsReport::default().chrome_trace(),
        r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
    );
}

/// Accepts `left` bytes, then fails every write.
struct FailAfter {
    left: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_writer_is_an_err_not_a_panic() {
    let report = exhaustive();
    let len = report.chrome_trace().len();
    for left in [0, 1, 17, len / 2, len - 1] {
        let err = report
            .write_chrome_trace(FailAfter { left })
            .expect_err("a short sink must fail the write");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
    report
        .write_chrome_trace(FailAfter { left: len })
        .expect("exactly enough room");
}

/// The whole of an empty report's trace fits in the file buffer, so only
/// the explicit flush can see the device is full.
#[cfg(target_os = "linux")]
#[test]
fn saving_to_a_full_device_is_an_err() {
    let err = ObsReport::default()
        .save_chrome_trace(std::path::Path::new("/dev/full"))
        .expect_err("/dev/full takes no bytes");
    assert_eq!(err.kind(), io::ErrorKind::StorageFull);
}

#[cfg(feature = "proptests")]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Zero, `u64::MAX` (which truncates to each narrower field's max) or
    /// anything, a third of the time each.
    fn wide() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
    }

    fn values() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(wide(), 17..=17)
    }

    fn report() -> impl Strategy<Value = ObsReport> {
        let spans = prop::collection::vec(
            (
                values(),
                0usize..KINDS.len(),
                prop::option::of(wide()),
                any::<bool>(),
            )
                .prop_map(|(v, kind, pid, truncated)| {
                    span(KINDS[kind], pid.map(|p| p as u32), truncated, &v)
                }),
            0..6,
        );
        let phys = prop::collection::vec(
            (values(), 0u8..8, any::<bool>(), 0usize..8)
                .prop_map(|(v, flags, read, origin)| phys(flags, read, origin, &v)),
            0..6,
        );
        let nets = prop::collection::vec(values().prop_map(|v| net(&v)), 0..3);
        (0u8..3, wide(), spans, phys, nets).prop_map(|(nodes, duration_us, spans, phys, net)| {
            ObsReport {
                nodes,
                duration_us,
                spans,
                phys,
                net,
                metrics: MetricsRegistry::new(),
                unclosed: 0,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_reports_render_exactly(report in report()) {
            check(&report);
        }
    }
}
