//! Tracing from outside the program: wrappers around the seams the
//! program already accepts from its caller (`Device`, `QuerySource`,
//! `TraceSink`). Spans stay in memory and are written out at exit as
//! Chrome trace-event JSON.

use noswalker_core::{QuerySource, QuerySpec, TraceEvent, TraceSink};
use noswalker_storage::{Device, DeviceError, IoStatsSnapshot};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored, so a long
/// traced run cannot grow without bound.
const MAX_SPANS: usize = 200_000;

/// One complete ("X") or instant ("i") trace event.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cat: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    /// `None` for an instant event.
    pub dur_ns: Option<u64>,
    /// Extra `"key":value` JSON members for `args`.
    pub args: String,
}

/// The in-memory span recorder shared by every wrapper of one run.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::new(Probe {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a complete span from `start` to now on the calling thread.
    pub fn span(&self, name: &'static str, cat: &'static str, start: Instant, args: String) {
        let end = Instant::now();
        self.push(Span {
            name,
            cat,
            tid: tid(),
            start_ns: self.ns(start),
            dur_ns: Some(self.ns(end).saturating_sub(self.ns(start))),
            args,
        });
    }

    /// Records an instant event now on the calling thread.
    pub fn instant(&self, name: &'static str, cat: &'static str, args: String) {
        let at = Instant::now();
        self.push(Span {
            name,
            cat,
            tid: tid(),
            start_ns: self.ns(at),
            dur_ns: None,
            args,
        });
    }

    /// Renders every stored span as Chrome trace-event JSON (opens in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let ts = s.start_ns as f64 / 1e3;
            let timing = match s.dur_ns {
                Some(d) => format!("\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3}", d as f64 / 1e3),
                None => format!("\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3}"),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",{timing},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                s.name, s.cat, s.tid, s.args
            ));
        }
        out.push_str(&format!(
            "\n],\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped.load(Ordering::Relaxed)
        ));
        out
    }
}

/// Counters of one [`TimedDevice`], copied out with [`TimedDevice::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    pub ops: u64,
    pub bytes: u64,
    /// Wall time spent inside the wrapped `Device::read`.
    pub wall_ns: u64,
    /// Sum of the modeled service times the device returned.
    pub modeled_ns: u64,
}

impl ReadCounts {
    pub fn since(&self, earlier: &ReadCounts) -> ReadCounts {
        ReadCounts {
            ops: self.ops - earlier.ops,
            bytes: self.bytes - earlier.bytes,
            wall_ns: self.wall_ns - earlier.wall_ns,
            modeled_ns: self.modeled_ns - earlier.modeled_ns,
        }
    }

    pub fn add(&mut self, other: &ReadCounts) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.wall_ns += other.wall_ns;
        self.modeled_ns += other.modeled_ns;
    }
}

/// A `Device` that forwards to another and times every read.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Arc<dyn Device>,
    probe: Arc<Probe>,
    lane: u32,
    ops: AtomicU64,
    bytes: AtomicU64,
    wall_ns: AtomicU64,
    modeled_ns: AtomicU64,
}

impl TimedDevice {
    pub fn new(inner: Arc<dyn Device>, probe: Arc<Probe>, lane: u32) -> Arc<Self> {
        Arc::new(TimedDevice {
            inner,
            probe,
            lane,
            ops: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            modeled_ns: AtomicU64::new(0),
        })
    }

    pub fn counts(&self) -> ReadCounts {
        ReadCounts {
            ops: self.ops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            modeled_ns: self.modeled_ns.load(Ordering::Relaxed),
        }
    }
}

impl Device for TimedDevice {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        let start = Instant::now();
        let r = self.inner.read(offset, buf);
        let wall = start.elapsed().as_nanos() as u64;
        if let Ok(service_ns) = r {
            self.ops.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
            self.wall_ns.fetch_add(wall, Ordering::Relaxed);
            self.modeled_ns.fetch_add(service_ns, Ordering::Relaxed);
            self.probe.span(
                "storage.read",
                "storage",
                start,
                format!(
                    "\"lane\":{},\"bytes\":{},\"modeled_ns\":{service_ns}",
                    self.lane,
                    buf.len()
                ),
            );
        }
        r
    }

    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, DeviceError> {
        self.inner.write(offset, data)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.inner.stats()
    }
}

/// A `QuerySource` that forwards to another and marks round boundaries.
///
/// `TickCore::tick` drains arrivals with `next_ready` at the start of
/// every tick and asks `next_pending_at` only on a tick that ran no round,
/// so the wall time between two tick starts is one round unless the first
/// tick asked for the next arrival.
pub struct TimedSource<'a> {
    inner: &'a mut dyn QuerySource,
    probe: Arc<Probe>,
    tick_start: Option<Instant>,
    /// Set by `next_pending_at`, which takes `&self`.
    tick_idle: Cell<bool>,
    draining: bool,
    /// Wall duration of every round, in order.
    pub round_ns: Vec<u64>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn QuerySource, probe: Arc<Probe>) -> Self {
        TimedSource {
            inner,
            probe,
            tick_start: None,
            tick_idle: Cell::new(false),
            draining: false,
            round_ns: Vec::new(),
        }
    }

    fn close_tick(&mut self) {
        if let Some(start) = self.tick_start.take() {
            if !self.tick_idle.get() {
                self.round_ns.push(start.elapsed().as_nanos() as u64);
                self.probe
                    .span("serve.round", "serve", start, String::new());
            }
        }
    }

    /// Closes the last tick; returns the round durations.
    pub fn finish(mut self) -> Vec<u64> {
        self.close_tick();
        self.round_ns
    }
}

impl QuerySource for TimedSource<'_> {
    fn next_ready(&mut self, now_ns: u64, room: u64) -> Option<QuerySpec> {
        if !self.draining {
            self.close_tick();
            self.tick_start = Some(Instant::now());
            self.tick_idle.set(false);
            self.draining = true;
        }
        let q = self.inner.next_ready(now_ns, room);
        if q.is_none() {
            self.draining = false;
        }
        q
    }

    fn next_pending_at(&self, now_ns: u64) -> Option<u64> {
        self.tick_idle.set(true);
        self.inner.next_pending_at(now_ns)
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}

/// A `TraceSink` that counts handed-off walkers and keeps every serving
/// event as an instant.
pub struct QuerySink {
    probe: Arc<Probe>,
    pub handoff_walkers: u64,
}

impl QuerySink {
    pub fn new(probe: Arc<Probe>) -> Self {
        QuerySink {
            probe,
            handoff_walkers: 0,
        }
    }
}

impl TraceSink for QuerySink {
    fn record(&mut self, ev: &TraceEvent) {
        if let TraceEvent::ShardHandoff { walkers, .. } = ev {
            self.handoff_walkers += walkers;
        }
        let args = ev
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        self.probe.instant(ev.kind(), "serve", args);
    }
}
