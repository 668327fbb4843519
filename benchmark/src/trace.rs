//! Harness-side tracing: spans around calls into each crate's public
//! functions, and timing decorators over the three public trait seams
//! (`ServiceModel`, `LogSink`, `Target`) plus the drive's `OpSource`.
//!
//! Nothing here lives inside the program; spans are kept in memory and
//! written out by the caller when the pass ends.

use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uswg_core::{FileId, LogSink, OpRecord, OpRequest, ServiceModel, SessionRecord, Stage};
use uswg_drive::{OpSource, SourceError, Target, TargetError};

/// One timed interval. A decorator's millions of calls fold into a single
/// *aggregate* span: `calls > 1`, and `end_ns - start_ns` is the summed
/// busy time, not a wall interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub calls: u64,
    /// Work items the calls handled (stages returned, records, ops).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for one pass. Switched off it records nothing and the
/// decorators read no clocks — the untraced pass the overhead ratio is
/// taken against.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 1,
            items: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Sets the work-item count of the innermost open span.
    pub fn items(&mut self, items: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].items = items;
        }
    }

    /// A fresh tally for a decorator, or `None` when tracing is off.
    pub fn tally(&self) -> Option<Arc<Tally>> {
        self.on.then(Arc::default)
    }

    /// Folds a decorator's tally into one aggregate child of the innermost
    /// open span.
    pub fn aggregate(&mut self, name: &'static str, tally: &Option<Arc<Tally>>) {
        let Some(tally) = tally else { return };
        let start_ns = self.open.last().map_or(0, |&id| self.spans[id].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + tally.busy_ns.load(Ordering::Relaxed),
            parent: self.open.last().copied(),
            calls: tally.calls.load(Ordering::Relaxed),
            items: tally.items.load(Ordering::Relaxed),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    pub fn total_calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    pub fn total_items(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.items).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed self time of every span called `name`, ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self_times(&self.spans)
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&t, _)| t)
            .sum()
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// What a decorator accumulates. Relaxed atomics: these are statistics
/// that publish no other data, read only after the threads have joined.
#[derive(Debug, Default)]
pub struct Tally {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl Tally {
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// Times `f` into `tally` (when tracing), counting `items(&result)` work
/// items.
#[inline]
fn timed<T>(tally: &Option<Arc<Tally>>, f: impl FnOnce() -> T, items: impl FnOnce(&T) -> u64) -> T {
    let Some(tally) = tally else { return f() };
    let start = Instant::now();
    let out = f();
    tally
        .busy_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    tally.calls.fetch_add(1, Ordering::Relaxed);
    tally.items.fetch_add(items(&out), Ordering::Relaxed);
    out
}

/// `ServiceModel` decorator: times `stages()` and counts the stages it
/// returns.
#[derive(Debug)]
pub struct TimedModel {
    pub inner: Box<dyn ServiceModel>,
    pub tally: Option<Arc<Tally>>,
}

impl ServiceModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage> {
        let inner = &mut self.inner;
        timed(&self.tally, || inner.stages(req, rng), |s| s.len() as u64)
    }

    fn invalidate(&mut self, file: FileId) {
        self.inner.invalidate(file);
    }
}

/// `LogSink` decorator: times every record pushed into `inner`.
#[derive(Debug)]
pub struct TimedSink<S> {
    pub inner: S,
    pub tally: Option<Arc<Tally>>,
}

impl<S: LogSink> LogSink for TimedSink<S> {
    #[inline]
    fn record_op(&mut self, op: &OpRecord) {
        let inner = &mut self.inner;
        timed(&self.tally, || inner.record_op(op), |()| 1);
    }

    #[inline]
    fn record_session(&mut self, session: &SessionRecord) {
        let inner = &mut self.inner;
        timed(&self.tally, || inner.record_session(session), |()| 1);
    }
}

/// `Target` decorator: times every `apply` on the worker threads.
pub struct TimedTarget<T> {
    pub inner: T,
    pub tally: Option<Arc<Tally>>,
}

impl<T: Target> Target for TimedTarget<T> {
    fn apply(&self, op: &OpRecord) -> Result<(), TargetError> {
        timed(&self.tally, || self.inner.apply(op), |_| 1)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `OpSource` decorator: times `next_op` on the pacer thread and remembers
/// the last scheduled arrival (simulated µs), from which the caller works
/// out how late the generator finished.
pub struct TimedSource<S> {
    pub inner: S,
    pub tally: Option<Arc<Tally>>,
    pub last_arrival_us: Arc<AtomicU64>,
}

impl<S: OpSource> OpSource for TimedSource<S> {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        let inner = &mut self.inner;
        let next = timed(
            &self.tally,
            || inner.next_op(),
            |r| u64::from(matches!(r, Ok(Some(_)))),
        );
        if let Ok(Some((at, _))) = &next {
            self.last_arrival_us.fetch_max(*at, Ordering::Relaxed);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            calls: 1,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            // An aggregate: 12 ns of busy time folded from many calls.
            span("b.calls", 50, 62, Some(2)),
        ];
        assert_eq!(self_times(&spans), [30, 20, 28, 10, 12]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_folds_tallies() {
        let mut tr = Tracer::new(true);
        let tally = tr.tally();
        tr.span("outer", |tr| {
            tr.span("inner", |tr| tr.items(7));
            timed(&tally, || (), |()| 3);
            timed(&tally, || (), |()| 4);
            tr.aggregate("calls", &tally);
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("calls", Some(0))]
        );
        assert_eq!(tr.total_items("inner"), 7);
        assert_eq!((tr.total_calls("calls"), tr.total_items("calls")), (2, 7));
        assert!(tr.self_ns("outer") <= tr.total_ns("outer"));
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert!(tr.tally().is_none());
        assert_eq!(tr.span("x", |_| 5), 5);
        tr.aggregate("calls", &None);
        assert!(tr.spans().is_empty());
    }
}
