//! `sar-trace`: structured event tracing for the machine models
//! (DESIGN.md §3 S13).
//!
//! Machine models emit *spans* (a component occupied for an interval),
//! *instants* (a point event such as a bank conflict) and *counter
//! samples* (a gauge over time) onto semantic [`Track`]s — one per
//! core, per DMA engine, per directed mesh link, plus the eLink, the
//! SDRAM device and the run-level phase timeline. A [`Tracer`] is a
//! cheaply clonable handle to one shared event buffer; every model in
//! the stack (`emesh`, `memsim`, `epiphany`, the mapping drivers)
//! holds a clone and appends into the same timeline.
//!
//! The contract that keeps tracing free for ordinary runs: a
//! *disabled* tracer ([`Tracer::disabled`], the default) holds no
//! buffer at all, and every emission method returns after one branch —
//! no allocation, no formatting, no locking. The overhead guard test
//! (`crates/desim/tests/disabled_overhead.rs`) pins this down with a
//! counting allocator.
//!
//! [`chrome_trace`] renders a finished event buffer into the Chrome
//! `trace_event` JSON format, loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one process per component
//! family, one thread per track.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;
use crate::time::{Cycle, Frequency};

/// Which of the three physical meshes a link belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MeshKind {
    /// On-chip write mesh.
    CMesh,
    /// Read-request mesh.
    RMesh,
    /// Off-chip mesh.
    XMesh,
}

impl MeshKind {
    /// The three meshes in fabric order: every per-mesh table (the
    /// fabric's link tables, the cost model's tallies, fault queues)
    /// is laid out in this order.
    pub const ALL: [MeshKind; 3] = [MeshKind::CMesh, MeshKind::RMesh, MeshKind::XMesh];

    /// Position in [`MeshKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (`"cmesh"`, …) used in heatmaps and
    /// trace process names.
    pub fn label(self) -> &'static str {
        match self {
            MeshKind::CMesh => "cmesh",
            MeshKind::RMesh => "rmesh",
            MeshKind::XMesh => "xmesh",
        }
    }
}

/// Compass letter for a router output direction index (the order of
/// `emesh::routing::Direction::index`; `L` only for an index no link
/// has).
pub fn direction_letter(dir: u8) -> &'static str {
    match dir {
        0 => "W",
        1 => "E",
        2 => "N",
        3 => "S",
        _ => "L",
    }
}

/// Where an event happened. Each track maps to one Chrome-trace
/// `(pid, tid)` pair; the pid groups a component family into one
/// named process row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Run-level phases: merge iterations, pipeline stages.
    Run,
    /// One core's execution timeline.
    Core(u32),
    /// One core's DMA engine.
    Dma(u32),
    /// A directed mesh link: the output of `node`'s router in
    /// direction `dir` (index per `direction_letter`).
    MeshLink {
        /// Which physical mesh.
        mesh: MeshKind,
        /// Router the link exits (row-major node index).
        node: u32,
        /// Output direction index.
        dir: u8,
    },
    /// The shared off-chip eLink.
    ELink,
    /// The external SDRAM device.
    Sdram,
    /// Host-side activity (program loading).
    Host,
}

impl Track {
    /// Chrome-trace process id: one per component family.
    pub fn pid(self) -> u32 {
        match self {
            Track::Run => 1,
            Track::Core(_) => 2,
            Track::Dma(_) => 3,
            Track::MeshLink { mesh, .. } => match mesh {
                MeshKind::CMesh => 4,
                MeshKind::RMesh => 5,
                MeshKind::XMesh => 6,
            },
            Track::ELink => 7,
            Track::Sdram => 8,
            Track::Host => 9,
        }
    }

    /// Chrome-trace thread id within the family.
    pub fn tid(self) -> u32 {
        match self {
            Track::Run | Track::ELink | Track::Sdram | Track::Host => 0,
            Track::Core(i) | Track::Dma(i) => i,
            Track::MeshLink { node, dir, .. } => node * 5 + u32::from(dir),
        }
    }

    /// Human name of the family (the Chrome process name).
    pub fn process_name(self) -> &'static str {
        match self {
            Track::Run => "run",
            Track::Core(_) => "cores",
            Track::Dma(_) => "dma",
            Track::MeshLink { mesh, .. } => mesh.label(),
            Track::ELink => "elink",
            Track::Sdram => "sdram",
            Track::Host => "host",
        }
    }

    /// Human name of the track (the Chrome thread name).
    pub fn thread_name(self) -> String {
        match self {
            Track::Run => "phases".to_string(),
            Track::Core(i) => format!("core {i}"),
            Track::Dma(i) => format!("dma {i}"),
            Track::MeshLink { node, dir, .. } => {
                format!("n{node} {}", direction_letter(dir))
            }
            Track::ELink => "elink".to_string(),
            Track::Sdram => "sdram".to_string(),
            Track::Host => "loader".to_string(),
        }
    }
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span: the track was occupied for `dur` cycles
    /// starting at the event timestamp (Chrome phase `"X"`).
    Span {
        /// Span length.
        dur: Cycle,
    },
    /// A point event (Chrome phase `"i"`).
    Instant,
    /// A gauge sample (Chrome phase `"C"`).
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label. Static for the hot emission points; owned for
    /// dynamic phase names.
    pub name: Cow<'static, str>,
    /// Where it happened.
    pub track: Track,
    /// When it happened (span start for spans).
    pub ts: Cycle,
    /// Span / instant / counter.
    pub kind: EventKind,
}

/// Default cap on buffered events; beyond it new events are counted
/// but dropped, so a paper-scale run cannot exhaust memory. Chrome
/// and Perfetto degrade well before this many events anyway.
pub const DEFAULT_EVENT_CAP: usize = 2_000_000;

#[derive(Debug, Default)]
struct TraceBuffer {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceBuffer {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// A handle to one shared trace timeline.
///
/// Cloning is cheap (a reference-count bump, or nothing at all for a
/// disabled tracer); every machine model in a run holds a clone of the
/// same tracer. The default is [`Tracer::disabled`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buf: Option<Rc<RefCell<TraceBuffer>>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing. All
    /// emission methods are a single branch.
    pub fn disabled() -> Tracer {
        Tracer { buf: None }
    }

    /// A recording tracer with the [`DEFAULT_EVENT_CAP`].
    pub fn enabled() -> Tracer {
        Tracer::with_event_cap(DEFAULT_EVENT_CAP)
    }

    /// A recording tracer that drops events beyond `cap`.
    pub fn with_event_cap(cap: usize) -> Tracer {
        Tracer {
            buf: Some(Rc::new(RefCell::new(TraceBuffer {
                events: Vec::new(),
                cap,
                dropped: 0,
            }))),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record a complete span `[start, end)` on `track`. No-op when
    /// disabled or when `end <= start` (zero-length spans add noise
    /// without information).
    #[inline]
    pub fn span(&self, track: Track, name: impl Into<Cow<'static, str>>, start: Cycle, end: Cycle) {
        if let Some(buf) = &self.buf {
            if end > start {
                buf.borrow_mut().push(TraceEvent {
                    name: name.into(),
                    track,
                    ts: start,
                    kind: EventKind::Span { dur: end - start },
                });
            }
        }
    }

    /// Record a point event on `track`. No-op when disabled.
    #[inline]
    pub fn instant(&self, track: Track, name: impl Into<Cow<'static, str>>, at: Cycle) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().push(TraceEvent {
                name: name.into(),
                track,
                ts: at,
                kind: EventKind::Instant,
            });
        }
    }

    /// Record a gauge sample on `track`. No-op when disabled.
    #[inline]
    pub fn counter(&self, track: Track, name: impl Into<Cow<'static, str>>, at: Cycle, value: f64) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().push(TraceEvent {
                name: name.into(),
                track,
                ts: at,
                kind: EventKind::Counter { value },
            });
        }
    }

    /// Number of buffered events (0 when disabled).
    pub fn event_count(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    /// Events dropped past the cap.
    pub fn dropped(&self) -> u64 {
        self.buf.as_ref().map_or(0, |b| b.borrow().dropped)
    }

    /// Whether any span has been recorded on `track`.
    pub fn has_span_on(&self, track: Track) -> bool {
        self.buf.as_ref().is_some_and(|b| {
            b.borrow()
                .events
                .iter()
                .any(|e| e.track == track && matches!(e.kind, EventKind::Span { .. }))
        })
    }

    /// A copy of the buffered events in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf
            .as_ref()
            .map_or(Vec::new(), |b| b.borrow().events.clone())
    }

    /// Render the buffered events as a Chrome `trace_event` document;
    /// `clock` converts cycle timestamps into microseconds.
    pub fn to_chrome_json(&self, clock: Frequency) -> Json {
        chrome_trace(&self.snapshot(), clock, self.dropped())
    }
}

/// Microseconds for `at` cycles at `clock`.
fn micros(at: Cycle, clock: Frequency) -> f64 {
    at.raw() as f64 / clock.hz() * 1e6
}

/// Render `events` as a Chrome `trace_event`-format JSON document
/// (`{"traceEvents": [...]}`), one named process per component family
/// and one named thread per track. Events are ordered by `(ts, pid,
/// tid)` with a stable sort, so a deterministic simulation produces a
/// byte-identical document.
pub fn chrome_trace(events: &[TraceEvent], clock: Frequency, dropped: u64) -> Json {
    // Metadata first: name every process and thread that appears.
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort();
    tracks.dedup();
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 2 * tracks.len());
    let mut named_pids: Vec<u32> = Vec::new();
    for t in &tracks {
        if !named_pids.contains(&t.pid()) {
            named_pids.push(t.pid());
            out.push(
                Json::obj()
                    .with("name", "process_name")
                    .with("ph", "M")
                    .with("ts", 0.0)
                    .with("pid", t.pid())
                    .with("tid", 0u64)
                    .with("args", Json::obj().with("name", t.process_name())),
            );
        }
        out.push(
            Json::obj()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("ts", 0.0)
                .with("pid", t.pid())
                .with("tid", t.tid())
                .with("args", Json::obj().with("name", t.thread_name().as_str())),
        );
    }

    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by(|a, b| {
        (a.ts, a.track.pid(), a.track.tid()).cmp(&(b.ts, b.track.pid(), b.track.tid()))
    });
    for e in sorted {
        let base = Json::obj()
            .with("name", e.name.as_ref())
            .with("ts", micros(e.ts, clock))
            .with("pid", e.track.pid())
            .with("tid", e.track.tid());
        out.push(match e.kind {
            EventKind::Span { dur } => base.with("ph", "X").with("dur", micros(dur, clock)),
            EventKind::Instant => base.with("ph", "i").with("s", "t"),
            EventKind::Counter { value } => base
                .with("ph", "C")
                .with("args", Json::obj().with("value", value)),
        });
    }

    Json::obj()
        .with("traceEvents", Json::Arr(out))
        .with("displayTimeUnit", "ms")
        .with(
            "metadata",
            Json::obj()
                .with("clock_hz", clock.hz())
                .with("dropped_events", dropped),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.span(Track::Core(0), "compute", Cycle(0), Cycle(10));
        t.instant(Track::ELink, "x", Cycle(5));
        t.counter(Track::Run, "energy_j", Cycle(5), 1.0);
        assert_eq!(t.event_count(), 0);
        assert!(t.snapshot().is_empty());
        assert!(!t.has_span_on(Track::Core(0)));
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        t.span(Track::Core(1), "a", Cycle(0), Cycle(4));
        u.span(Track::Dma(1), "b", Cycle(2), Cycle(6));
        assert_eq!(t.event_count(), 2);
        assert_eq!(u.event_count(), 2);
        assert!(t.has_span_on(Track::Dma(1)));
    }

    #[test]
    fn zero_length_spans_are_skipped() {
        let t = Tracer::enabled();
        t.span(Track::Core(0), "empty", Cycle(7), Cycle(7));
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let t = Tracer::with_event_cap(2);
        for i in 0..5u64 {
            t.instant(Track::Core(0), "e", Cycle(i));
        }
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn track_ids_are_unique_per_track() {
        let tracks = [
            Track::Run,
            Track::Core(0),
            Track::Core(15),
            Track::Dma(0),
            Track::MeshLink {
                mesh: MeshKind::CMesh,
                node: 3,
                dir: 1,
            },
            Track::MeshLink {
                mesh: MeshKind::RMesh,
                node: 3,
                dir: 1,
            },
            Track::MeshLink {
                mesh: MeshKind::CMesh,
                node: 3,
                dir: 2,
            },
            Track::ELink,
            Track::Sdram,
            Track::Host,
        ];
        let ids: Vec<(u32, u32)> = tracks.iter().map(|t| (t.pid(), t.tid())).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "pid/tid collision: {ids:?}");
    }

    #[test]
    fn chrome_export_carries_required_fields() {
        let t = Tracer::enabled();
        t.span(Track::Core(2), "compute", Cycle(1000), Cycle(3000));
        t.instant(Track::Sdram, "row_miss", Cycle(1500));
        t.counter(Track::Run, "energy_j", Cycle(3000), 0.25);
        let doc = t.to_chrome_json(Frequency::ghz(1.0));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 3 events + per-track metadata (3 processes + 3 threads).
        assert_eq!(events.len(), 9);
        for e in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "event lacks {key}: {e:?}");
            }
        }
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("span event present");
        // 1000 cycles @ 1 GHz = 1 us.
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn chrome_export_is_sorted_and_deterministic() {
        let build = || {
            let t = Tracer::enabled();
            t.span(Track::Core(1), "b", Cycle(50), Cycle(60));
            t.span(Track::Core(0), "a", Cycle(10), Cycle(20));
            t.instant(Track::ELink, "x", Cycle(10));
            t.to_chrome_json(Frequency::ghz(1.0)).to_string_pretty()
        };
        let one = build();
        assert_eq!(one, build(), "same events must serialise identically");
        // Span at cycle 10 (pid 2) sorts before the eLink instant at
        // cycle 10 (pid 7), which sorts before the span at 50.
        let a = one.find("\"a\"").unwrap();
        let x = one.find("\"x\"").unwrap();
        let b = one.find("\"b\"").unwrap();
        assert!(a < x && x < b, "events out of order");
    }
}
