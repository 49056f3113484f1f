//! Run-level report and the two exporters: Chrome trace-event JSON
//! (Perfetto-loadable) and `/proc`-style plain-text snapshots.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use essio_stream::sketch::LogHistogram;
use essio_trace::{Op, Origin};
use serde::{Serialize, Value};

use crate::registry::MetricsRegistry;
use crate::span::{NetEvent, PhysSpan, Span};

/// Everything the obs plane collected over one run: closed request spans,
/// physical disk commands, delayed PVM sends, and the merged metrics
/// registry. Plain data — safe to move across threads and merge across
/// campaign seeds.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Cluster size the run used.
    pub nodes: u8,
    /// Virtual end time of the run.
    pub duration_us: u64,
    /// All request spans, per node in (begin, id) order.
    pub spans: Vec<Span>,
    /// All physical disk commands, per node in dispatch order.
    pub phys: Vec<PhysSpan>,
    /// PVM sends that were delayed by retransmit backoff.
    pub net: Vec<NetEvent>,
    /// Hierarchical metrics merged across the cluster.
    pub metrics: MetricsRegistry,
    /// Spans force-closed by a crash or the end of the run.
    pub unclosed: u64,
}

/// Track ids within each node's process in the Chrome trace.
const TID_DISK: u64 = 1;
const TID_FAULTS: u64 = 2;
const TID_NET: u64 = 3;

/// Compact JSON written straight to a byte sink, byte for byte as the
/// `serde_json` shim renders a value tree: no whitespace, integers in
/// decimal, strings escaped as its `write_string` does.
struct JsonWriter<W> {
    out: W,
    /// Nothing written yet in the innermost open object or array.
    first: bool,
}

impl<W: Write> JsonWriter<W> {
    fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)
    }

    /// Comma before every array element or object member but the first.
    fn sep(&mut self) -> io::Result<()> {
        if !std::mem::replace(&mut self.first, false) {
            self.raw(b",")?;
        }
        Ok(())
    }

    fn open(&mut self, delim: u8) -> io::Result<()> {
        self.raw(&[delim])?;
        self.first = true;
        Ok(())
    }

    fn close(&mut self, delim: u8) -> io::Result<()> {
        self.raw(&[delim])?;
        self.first = false;
        Ok(())
    }

    /// Open an object as the next array element.
    fn element(&mut self) -> io::Result<()> {
        self.sep()?;
        self.open(b'{')
    }

    /// Keys are literals with nothing to escape, so they go out raw.
    fn key(&mut self, key: &str) -> io::Result<()> {
        debug_assert!(!key.bytes().any(needs_escape), "{key:?}");
        self.sep()?;
        self.raw(b"\"")?;
        self.raw(key.as_bytes())?;
        self.raw(b"\":")
    }

    /// Open an object as the value of `key`.
    fn object(&mut self, key: &str) -> io::Result<()> {
        self.key(key)?;
        self.open(b'{')
    }

    /// `v` in base `radix` (10 or 16), lowercase, no prefix.
    fn digits(&mut self, v: u64, radix: u64) -> io::Result<()> {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut v = v;
        loop {
            at -= 1;
            buf[at] = b"0123456789abcdef"[(v % radix) as usize];
            v /= radix;
            if v == 0 {
                break;
            }
        }
        self.raw(&buf[at..])
    }

    fn uint(&mut self, key: &str, v: u64) -> io::Result<()> {
        self.key(key)?;
        self.digits(v, 10)
    }

    fn bool(&mut self, key: &str, v: bool) -> io::Result<()> {
        self.key(key)?;
        self.raw(if v { b"true" } else { b"false" })
    }

    fn str(&mut self, key: &str, v: &str) -> io::Result<()> {
        self.key(key)?;
        self.string(v)
    }

    fn string(&mut self, s: &str) -> io::Result<()> {
        self.raw(b"\"")?;
        let bytes = s.as_bytes();
        let mut clean = 0;
        for (at, &b) in bytes.iter().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            self.raw(&bytes[clean..at])?;
            match b {
                b'"' => self.raw(b"\\\"")?,
                b'\\' => self.raw(b"\\\\")?,
                b'\n' => self.raw(b"\\n")?,
                b'\r' => self.raw(b"\\r")?,
                b'\t' => self.raw(b"\\t")?,
                _ => write!(self.out, "\\u{b:04x}")?,
            }
            clean = at + 1;
        }
        self.raw(&bytes[clean..])?;
        self.raw(b"\"")
    }
}

fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

impl ObsReport {
    /// Attach the cluster's delayed-send events and fold them into the
    /// `net` metrics scope (called once by the experiment runner).
    pub fn add_net_events(&mut self, events: Vec<NetEvent>, retransmits: u64) {
        let mut backoff = LogHistogram::new();
        let mut backoff_total = 0u64;
        for e in &events {
            backoff.observe(e.backoff_us);
            backoff_total += e.backoff_us;
        }
        let net = self.metrics.scope("net");
        net.counter("retransmit_frames", retransmits);
        net.counter("delayed_sends", events.len() as u64);
        net.counter("backoff_us", backoff_total);
        if !events.is_empty() {
            net.hist("send_backoff_us", &backoff);
        }
        self.net = events;
    }

    /// Render the whole run as Chrome trace-event JSON into a `String`;
    /// see [`ObsReport::write_chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        // A span's b/e pair renders to about 420 bytes, a disk command
        // to about 250; the slack covers fault markers.
        let size = 64
            + 300 * self.nodes as usize
            + 440 * self.spans.len()
            + 260 * self.phys.len()
            + 200 * self.net.len();
        let mut buf = Vec::with_capacity(size);
        self.write_chrome_trace(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("the writer emits UTF-8")
    }

    /// Write the whole run as Chrome trace-event JSON, loadable in
    /// Perfetto (`ui.perfetto.dev`). One process per node; within it a
    /// `disk` track of physical commands, a `faults` track of
    /// failure/retry markers, a `net` track of delayed PVM sends, and
    /// request spans as async begin/end pairs grouped by operation.
    /// All timestamps are virtual microseconds.
    ///
    /// Events go to `out` one small write at a time, so give it a
    /// buffered writer. The only errors are `out`'s own.
    pub fn write_chrome_trace(&self, out: impl Write) -> io::Result<()> {
        let origins = Origin::ALL.map(|o| format!("{o:?}"));
        let ops = [Op::Read, Op::Write].map(|o| format!("{o:?}").to_lowercase());
        let mut w = JsonWriter { out, first: true };
        w.open(b'{')?;
        w.key("traceEvents")?;
        w.open(b'[')?;
        for node in 0..self.nodes {
            let pid = node as u64;
            w.element()?;
            w.str("name", "process_name")?;
            w.str("ph", "M")?;
            w.uint("pid", pid)?;
            w.object("args")?;
            w.str("name", &format!("node{node:02}"))?;
            w.close(b'}')?;
            w.close(b'}')?;
            for (tid, name) in [(TID_DISK, "disk"), (TID_FAULTS, "faults"), (TID_NET, "net")] {
                w.element()?;
                w.str("name", "thread_name")?;
                w.str("ph", "M")?;
                w.uint("pid", pid)?;
                w.uint("tid", tid)?;
                w.object("args")?;
                w.str("name", name)?;
                w.close(b'}')?;
                w.close(b'}')?;
            }
        }
        for span in &self.spans {
            let cat = if span.kind.is_kernel() {
                "kernel"
            } else {
                "request"
            };
            let head = |w: &mut JsonWriter<_>, ph: &str, ts: u64| {
                w.element()?;
                w.str("name", span.kind.label())?;
                w.str("cat", cat)?;
                w.str("ph", ph)?;
                w.key("id")?;
                w.raw(b"\"0x")?;
                w.digits(span.uid(), 16)?;
                w.raw(b"\"")?;
                w.uint("pid", span.node as u64)?;
                w.uint("tid", 0)?;
                w.uint("ts", ts)
            };
            head(&mut w, "b", span.begin_us)?;
            w.object("args")?;
            w.uint("span", span.uid())?;
            w.uint("pid", span.pid.map(|p| p as u64).unwrap_or(0))?;
            w.uint("cache_hits", span.cache_hits as u64)?;
            w.uint("cache_misses", span.cache_misses as u64)?;
            w.uint("ra_window", span.ra_window as u64)?;
            w.uint("ra_blocks", span.ra_blocks as u64)?;
            w.uint("tokens", span.tokens as u64)?;
            w.uint("records", span.records as u64)?;
            w.uint("bytes", span.bytes)?;
            w.uint("queue_wait_us", span.queue_wait_us)?;
            w.uint("service_us", span.service_us)?;
            w.uint("retry_us", span.retry_us)?;
            w.uint("retries", span.retries as u64)?;
            w.uint("relocations", span.relocations as u64)?;
            w.uint("net_delay_us", span.net_delay_us)?;
            if span.truncated {
                w.bool("truncated", true)?;
            }
            w.close(b'}')?;
            w.close(b'}')?;
            head(&mut w, "e", span.end_us)?;
            w.close(b'}')?;
        }
        for ph in &self.phys {
            let span = ((ph.node as u64) << 48) | ph.span;
            w.element()?;
            // `{op} {nsectors}@{sector}`
            w.key("name")?;
            w.raw(b"\"")?;
            w.raw(ops[ph.op as usize].as_bytes())?;
            w.raw(b" ")?;
            w.digits(ph.nsectors as u64, 10)?;
            w.raw(b"@")?;
            w.digits(ph.sector, 10)?;
            w.raw(b"\"")?;
            w.str("cat", "disk")?;
            w.str("ph", "X")?;
            w.uint("pid", ph.node as u64)?;
            w.uint("tid", TID_DISK)?;
            w.uint("ts", ph.dispatch_us)?;
            w.uint("dur", ph.complete_us.saturating_sub(ph.dispatch_us))?;
            w.object("args")?;
            w.uint("sector", ph.sector)?;
            w.uint("nsectors", ph.nsectors as u64)?;
            w.str("origin", &origins[ph.origin as usize])?;
            w.uint("span", span)?;
            w.uint("submit_us", ph.submit_us)?;
            w.uint("queue_depth", ph.queue_depth as u64)?;
            w.bool("retry", ph.retry)?;
            w.bool("failed", ph.failed)?;
            w.bool("truncated", ph.truncated)?;
            w.close(b'}')?;
            w.close(b'}')?;
            if ph.failed || ph.retry {
                w.element()?;
                w.str("name", if ph.failed { "media-fail" } else { "retry" })?;
                w.str("cat", "faults")?;
                w.str("ph", "i")?;
                w.str("s", "t")?;
                w.uint("pid", ph.node as u64)?;
                w.uint("tid", TID_FAULTS)?;
                w.uint("ts", ph.dispatch_us)?;
                w.object("args")?;
                w.uint("sector", ph.sector)?;
                w.uint("span", span)?;
                w.close(b'}')?;
                w.close(b'}')?;
            }
        }
        for e in &self.net {
            w.element()?;
            w.str("name", "retransmit")?;
            w.str("cat", "net")?;
            w.str("ph", "i")?;
            w.str("s", "t")?;
            w.uint("pid", e.from_node as u64)?;
            w.uint("tid", TID_NET)?;
            w.uint("ts", e.at_us)?;
            w.object("args")?;
            w.uint("from_pid", e.from_pid as u64)?;
            w.uint("to_pid", e.to_pid as u64)?;
            w.uint("attempts", e.attempts as u64)?;
            w.uint("backoff_us", e.backoff_us)?;
            w.close(b'}')?;
            w.close(b'}')?;
        }
        w.close(b']')?;
        w.str("displayTimeUnit", "ms")?;
        w.close(b'}')
    }

    /// Write the Chrome trace to a new file at `path` through a buffer.
    /// The buffer is flushed explicitly, so a full disk is an `Err`, not
    /// a silently short file.
    pub fn save_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(File::create(path)?);
        self.write_chrome_trace(&mut out)?;
        out.flush()
    }

    /// `/proc`-style plain-text snapshot for one node, mirroring the
    /// paper's proc-fs spooling of driver statistics.
    pub fn proc_snapshot(&self, node: u8) -> String {
        let prefix = format!("node{node:02}/");
        let mut out = format!("=== /proc/essio/node{node:02} ===\n");
        out.push_str(&self.metrics.render_text(&prefix));
        out
    }

    /// `/proc`-style snapshot of every node plus the cluster-wide scopes.
    pub fn proc_text(&self) -> String {
        let mut out = String::new();
        for node in 0..self.nodes {
            out.push_str(&self.proc_snapshot(node));
        }
        out.push_str("=== /proc/essio/cluster ===\n");
        let mut seen = std::collections::BTreeSet::new();
        for path in self.metrics.scopes.keys() {
            if !path.starts_with("node") && seen.insert(path.clone()) {
                out.push_str(&self.metrics.render_text(path));
            }
        }
        out
    }
}

impl Serialize for ObsReport {
    /// Compact summary (counts + full metrics); the span/phys lists are
    /// exported through [`ObsReport::chrome_trace`] instead.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nodes".into(), Value::Int(self.nodes as i128)),
            ("duration_us".into(), Value::Int(self.duration_us as i128)),
            ("spans".into(), Value::Int(self.spans.len() as i128)),
            ("phys_cmds".into(), Value::Int(self.phys.len() as i128)),
            ("delayed_sends".into(), Value::Int(self.net.len() as i128)),
            ("unclosed_spans".into(), Value::Int(self.unclosed as i128)),
            ("metrics".into(), self.metrics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::JsonWriter;

    #[test]
    fn strings_are_escaped_as_the_shim_escapes_them() {
        let mut all: String = (0u8..0x80).map(char::from).collect();
        all.push_str("é→😀\u{7f}\u{2028}");
        for s in [all.as_str(), "", "plain", "\"\\", "tail\n"] {
            let mut w = JsonWriter {
                out: Vec::new(),
                first: true,
            };
            w.string(s).unwrap();
            let shim = serde_json::to_string(&s.to_string()).unwrap();
            assert_eq!(String::from_utf8(w.out).unwrap(), shim);
        }
    }
}
