//! The event collector: spans, instants, counters, samples, histograms.

use std::borrow::Cow;
use std::time::Instant;

use crate::Histogram;

/// Which timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Wall-clock time of the host process; timestamps are microseconds
    /// since the collector was created.
    Host,
    /// Simulated time; timestamps are simulation cycles (rendered as
    /// one microsecond per cycle in Chrome traces).
    Sim,
    /// Wall-clock time of one worker thread (0-based index); renders as
    /// its own lane under the host process in Chrome traces.
    Worker(u32),
    /// Wall-clock time of one request-serving lane (0-based index) in a
    /// long-running service; renders as its own lane under the host
    /// process in Chrome traces, after the [`Track::Worker`] lanes.
    Request(u32),
}

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened ([`Collector::begin`]).
    Begin,
    /// A span closed ([`Collector::end`]).
    End,
    /// A point-in-time marker ([`Collector::instant`]).
    Instant,
    /// One time-series sample ([`Collector::sample_at`]).
    Sample(f64),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (span name, marker name, or time-series name).
    pub name: Cow<'static, str>,
    /// Timestamp in track units (see [`Track`]).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which timeline it belongs to.
    pub track: Track,
}

/// Handle for a span opened with [`Collector::begin`].
///
/// Pass it back to [`Collector::end`]; the move-only type makes double
/// closing a compile error.
#[derive(Debug)]
#[must_use = "a span must be closed with Collector::end"]
pub struct SpanId(usize);

/// A closed span, reconstructed by [`Collector::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Start timestamp, microseconds since collector creation.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth (0 = top level).
    pub depth: usize,
}

/// Collects structured observability events for one pipeline run.
///
/// The collector is always passed explicitly — there is no thread-local
/// or global registry — so ownership of instrumentation cost is visible
/// in every signature that pays it. A collector created with
/// [`Collector::disabled`] turns every method into a no-op that never
/// allocates, which is how the simulator hot loops stay free when
/// tracing is off. One created with [`Collector::metrics_only`] keeps
/// counters and histograms but no events, so a long-running process
/// holds a bounded amount no matter how many spans it opens.
///
/// # Example
///
/// ```
/// use emx_obs::Collector;
///
/// let mut c = Collector::new();
/// let outer = c.begin("characterize");
/// let inner = c.begin("simulate");
/// c.add("instructions", 1234.0);
/// c.record("case_cycles", 5678);
/// c.end(inner);
/// c.end(outer);
///
/// let spans = c.spans();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].name, "characterize");
/// assert_eq!(spans[1].depth, 1);
/// assert_eq!(c.counter("instructions"), 1234.0);
/// ```
#[derive(Debug)]
pub struct Collector {
    enabled: bool,
    keep_events: bool,
    origin: Instant,
    events: Vec<Event>,
    counters: Vec<(Cow<'static, str>, f64)>,
    histograms: Vec<(Cow<'static, str>, Histogram)>,
}

impl Collector {
    /// An enabled collector; timestamps count from this call.
    pub fn new() -> Self {
        Collector {
            enabled: true,
            keep_events: true,
            origin: Instant::now(),
            events: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A collector whose every method is an allocation-free no-op.
    pub fn disabled() -> Self {
        Collector {
            enabled: false,
            keep_events: false,
            ..Self::new()
        }
    }

    /// An enabled collector that records counters and histograms but
    /// drops every event (spans, instants, samples): events cost memory
    /// per event, counters and histograms only per distinct name.
    pub fn metrics_only() -> Self {
        Collector {
            keep_events: false,
            ..Self::new()
        }
    }

    /// `false` for collectors created with [`Collector::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds of wall-clock time since the collector was created.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the host track. Close it with [`Collector::end`].
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>) -> SpanId {
        self.begin_on(name, Track::Host)
    }

    /// Opens a span on an explicit track — [`Track::Worker`] lanes let
    /// parallel evaluators keep per-thread timelines in one trace.
    pub fn begin_on(&mut self, name: impl Into<Cow<'static, str>>, track: Track) -> SpanId {
        if !self.keep_events {
            return SpanId(usize::MAX);
        }
        let id = SpanId(self.events.len());
        self.events.push(Event {
            name: name.into(),
            ts: self.now_us(),
            kind: EventKind::Begin,
            track,
        });
        id
    }

    /// Closes a span opened with [`Collector::begin`] or
    /// [`Collector::begin_on`]; the End event lands on the same track.
    pub fn end(&mut self, span: SpanId) {
        if !self.keep_events {
            return;
        }
        let name = self.events[span.0].name.clone();
        let track = self.events[span.0].track;
        debug_assert!(matches!(self.events[span.0].kind, EventKind::Begin));
        self.events.push(Event {
            name,
            ts: self.now_us(),
            kind: EventKind::End,
            track,
        });
    }

    /// Runs `f` inside a span — the closure form of begin/end.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let span = self.begin(name);
        let out = f(self);
        self.end(span);
        out
    }

    /// Records a point-in-time marker on the host track.
    pub fn instant(&mut self, name: impl Into<Cow<'static, str>>) {
        if !self.keep_events {
            return;
        }
        self.events.push(Event {
            name: name.into(),
            ts: self.now_us(),
            kind: EventKind::Instant,
            track: Track::Host,
        });
    }

    /// Records one time-series sample on the simulated-time track at an
    /// explicit timestamp (in cycles).
    pub fn sample_at(&mut self, name: impl Into<Cow<'static, str>>, ts_cycles: u64, value: f64) {
        if !self.keep_events {
            return;
        }
        self.events.push(Event {
            name: name.into(),
            ts: ts_cycles,
            kind: EventKind::Sample(value),
            track: Track::Sim,
        });
    }

    /// Adds to a named cumulative counter.
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, delta: f64) {
        if !self.enabled {
            return;
        }
        let name = name.into();
        if let Some(slot) = self.counters.iter_mut().find(|(k, _)| *k == name) {
            slot.1 += delta;
        } else {
            self.counters.push((name, delta));
        }
    }

    /// Current value of a cumulative counter (0.0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// All cumulative counters, in first-touch order.
    pub fn counters(&self) -> &[(Cow<'static, str>, f64)] {
        &self.counters
    }

    /// Records one sample into a named histogram.
    pub fn record(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        if !self.enabled {
            return;
        }
        let name = name.into();
        if let Some(slot) = self.histograms.iter_mut().find(|(k, _)| *k == name) {
            slot.1.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.push((name, h));
        }
    }

    /// A named histogram, if any sample was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// All histograms, in first-touch order.
    pub fn histograms(&self) -> &[(Cow<'static, str>, Histogram)] {
        &self.histograms
    }

    /// A child collector sharing this collector's time origin, for use
    /// on another thread. Because `origin` is shared, timestamps from
    /// the child land on the same timeline when merged back with
    /// [`Collector::absorb`]. A fork of a disabled (or metrics-only)
    /// collector is itself disabled (or metrics-only).
    pub fn fork(&self) -> Self {
        Collector {
            enabled: self.enabled,
            keep_events: self.keep_events,
            origin: self.origin,
            events: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Merges a forked child back: events are appended, counters are
    /// summed, histograms are merged bucket-wise.
    pub fn absorb(&mut self, child: Self) {
        if !self.enabled {
            return;
        }
        if self.keep_events {
            self.events.extend(child.events);
        }
        for (name, value) in child.counters {
            self.add(name, value);
        }
        for (name, hist) in child.histograms {
            if let Some(slot) = self.histograms.iter_mut().find(|(k, _)| *k == name) {
                slot.1.merge(&hist);
            } else {
                self.histograms.push((name, hist));
            }
        }
    }

    /// The raw event stream, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Reconstructs the closed spans (in opening order) with nesting
    /// depths. Spans still open are omitted.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // indices into `out`
        for event in &self.events {
            match event.kind {
                EventKind::Begin => {
                    out.push(SpanRecord {
                        name: event.name.to_string(),
                        start_us: event.ts,
                        dur_us: u64::MAX, // patched on End; sentinel for "open"
                        depth: stack.len(),
                    });
                    stack.push(out.len() - 1);
                }
                EventKind::End => {
                    if let Some(i) = stack.pop() {
                        out[i].dur_us = event.ts - out[i].start_us;
                    }
                }
                _ => {}
            }
        }
        out.retain(|s| s.dur_us != u64::MAX);
        out
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_order() {
        let mut c = Collector::new();
        let a = c.begin("outer");
        let b = c.begin("middle");
        let d = c.begin("inner");
        c.end(d);
        c.end(b);
        let e = c.begin("sibling");
        c.end(e);
        c.end(a);

        let spans = c.spans();
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["outer", "middle", "inner", "sibling"]
        );
        assert_eq!(
            spans.iter().map(|s| s.depth).collect::<Vec<_>>(),
            [0, 1, 2, 1]
        );
        // A child starts no earlier and ends no later than its parent.
        assert!(spans[2].start_us >= spans[1].start_us);
        assert!(spans[2].start_us + spans[2].dur_us <= spans[1].start_us + spans[1].dur_us);
    }

    #[test]
    fn open_spans_are_omitted() {
        let mut c = Collector::new();
        let _open = c.begin("never-closed");
        let b = c.begin("closed");
        c.end(b);
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "closed");
        assert_eq!(spans[0].depth, 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Collector::new();
        c.add("insts", 10.0);
        c.add("insts", 5.0);
        c.add("misses", 1.0);
        assert_eq!(c.counter("insts"), 15.0);
        assert_eq!(c.counter("misses"), 1.0);
        assert_eq!(c.counter("absent"), 0.0);
    }

    #[test]
    fn histograms_collect() {
        let mut c = Collector::new();
        for v in [1u64, 2, 3] {
            c.record("lat", v);
        }
        let h = c.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3);
        assert!(c.histogram("absent").is_none());
    }

    #[test]
    fn disabled_collector_is_inert_and_allocation_free() {
        let mut c = Collector::disabled();
        let s = c.begin("x");
        c.add("n", 1.0);
        c.record("h", 1);
        c.sample_at("s", 0, 1.0);
        c.instant("i");
        c.end(s);
        assert!(!c.is_enabled());
        assert!(c.events().is_empty());
        assert!(c.counters().is_empty());
        assert!(c.histograms().is_empty());
        // Vec::new() never allocated: capacities stay zero.
        assert_eq!(c.events.capacity(), 0);
        assert_eq!(c.counters.capacity(), 0);
        assert_eq!(c.histograms.capacity(), 0);
    }

    #[test]
    fn span_closure_form() {
        let mut c = Collector::new();
        let out = c.span("work", |c| {
            c.add("steps", 1.0);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(c.spans().len(), 1);
    }

    #[test]
    fn worker_spans_keep_their_track() {
        let mut c = Collector::new();
        let s = c.begin_on("evaluate", Track::Worker(3));
        c.end(s);
        let tracks: Vec<Track> = c.events().iter().map(|e| e.track).collect();
        assert_eq!(tracks, [Track::Worker(3), Track::Worker(3)]);
    }

    #[test]
    fn fork_and_absorb_merge_everything() {
        let mut parent = Collector::new();
        parent.add("hits", 1.0);
        parent.record("lat", 10);

        let mut child = parent.fork();
        assert!(child.is_enabled());
        let s = child.begin_on("work", Track::Worker(0));
        child.end(s);
        child.add("hits", 2.0);
        child.add("misses", 5.0);
        child.record("lat", 30);
        child.record("other", 7);

        parent.absorb(child);
        assert_eq!(parent.counter("hits"), 3.0);
        assert_eq!(parent.counter("misses"), 5.0);
        assert_eq!(parent.histogram("lat").unwrap().count(), 2);
        assert_eq!(parent.histogram("lat").unwrap().max(), 30);
        assert_eq!(parent.histogram("other").unwrap().count(), 1);
        assert_eq!(parent.spans().len(), 1);
    }

    #[test]
    fn metrics_only_keeps_counts_but_no_events() {
        let mut parent = Collector::metrics_only();
        for _ in 0..3 {
            let mut child = parent.fork();
            let s = child.begin_on("request", Track::Request(0));
            child.instant("mark");
            child.sample_at("series", 0, 1.0);
            child.end(s);
            child.add("requests", 1.0);
            child.record("latency_us", 5);
            parent.absorb(child);
        }
        // Events of a child that kept them are dropped on absorb.
        let mut traced = Collector::new();
        traced.span("traced", |_| ());
        parent.absorb(traced);
        assert!(parent.is_enabled());
        assert!(parent.events().is_empty());
        assert_eq!(parent.counter("requests"), 3.0);
        assert_eq!(parent.histogram("latency_us").unwrap().count(), 3);
    }

    #[test]
    fn fork_of_disabled_is_disabled() {
        let parent = Collector::disabled();
        let mut child = parent.fork();
        assert!(!child.is_enabled());
        let s = child.begin_on("x", Track::Worker(0));
        child.end(s);
        assert!(child.events().is_empty());
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut c = Collector::new();
        for i in 0..100 {
            c.instant(format!("e{i}"));
        }
        let ts: Vec<u64> = c.events().iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
