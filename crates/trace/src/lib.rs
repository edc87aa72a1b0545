//! # ftnoc-trace — observability for the NoC simulator
//!
//! A zero-dependency tracing substrate: cycle-stamped structured events
//! ([`TraceEvent`]/[`TraceRecord`]), pluggable compile-time-dispatched
//! sinks ([`TraceSink`]: [`NullSink`], [`MemorySink`], [`JsonlSink`]),
//! bounded per-router [`FlightRecorder`] rings for post-mortem dumps,
//! and [`SpanCollector`] per-packet lifecycle spans with latency
//! attribution.
//!
//! The design rule is that observability must be free when off: the
//! simulator is generic over `S: TraceSink`, and every instrumentation
//! site is guarded by the associated constant `S::ENABLED`. With the
//! default [`NullSink`] that constant is `false`, so the optimizer
//! removes event construction entirely — no branch, no allocation, no
//! measurable cost.
//!
//! Serialization is hand-rolled JSON Lines (integers, booleans and
//! fixed identifier strings only), which makes traces deterministic
//! byte-for-byte for identical seeds and configurations.
//!
//! # Examples
//!
//! ```
//! use ftnoc_trace::{MemorySink, TraceEvent, Tracer};
//!
//! // A 4-node network, flight recorders keeping the last 16 events.
//! let mut tracer = Tracer::new(MemorySink::new(), 4, 16);
//! tracer.emit(100, 2, TraceEvent::RecoveryStarted);
//! tracer.emit(130, 2, TraceEvent::RecoveryEnded);
//!
//! let sink = tracer.into_sink();
//! assert_eq!(sink.records.len(), 2);
//! assert!(sink.to_jsonl().contains("\"kind\":\"recovery_start\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod recorder;
pub mod sink;
pub mod span;

pub use event::{AcStage, DropReason, TraceEvent, TraceRecord};
pub use recorder::FlightRecorder;
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};
pub use span::{LatencyBreakdown, PacketSpan, SpanCollector};

/// The instrumentation front-end the simulator holds: fans each emitted
/// event out to the sink and to the owning router's flight recorder.
///
/// `Tracer<NullSink>` (the default in the simulator) compiles to a
/// zero-sized no-op; guard any non-trivial event construction with
/// [`Tracer::enabled`].
#[derive(Debug)]
pub struct Tracer<S: TraceSink> {
    sink: S,
    recorders: Vec<FlightRecorder>,
}

impl Default for Tracer<NullSink> {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer<NullSink> {
    /// The no-op tracer: no sink, no recorders, no cost.
    pub fn disabled() -> Self {
        Tracer {
            sink: NullSink,
            recorders: Vec::new(),
        }
    }
}

impl<S: TraceSink> Tracer<S> {
    /// A tracer for `nodes` routers whose flight recorders retain
    /// `recorder_capacity` events each (0 disables the recorders).
    pub fn new(sink: S, nodes: usize, recorder_capacity: usize) -> Self {
        let recorders = if S::ENABLED && recorder_capacity > 0 {
            (0..nodes)
                .map(|_| FlightRecorder::new(recorder_capacity))
                .collect()
        } else {
            Vec::new()
        };
        Tracer { sink, recorders }
    }

    /// Whether events are observed at all (constant-folds per sink).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        S::ENABLED
    }

    /// Records one event at `cycle` on `node`.
    #[inline]
    pub fn emit(&mut self, cycle: u64, node: u16, event: TraceEvent) {
        if S::ENABLED {
            let rec = TraceRecord { cycle, node, event };
            if let Some(fr) = self.recorders.get_mut(node as usize) {
                fr.push(rec);
            }
            self.sink.record(&rec);
        }
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        if S::ENABLED {
            self.sink.flush();
        }
    }

    /// All flight recorders (empty when disabled).
    pub fn recorders(&self) -> &[FlightRecorder] {
        &self.recorders
    }

    /// Flushes and surrenders the sink (e.g. to read a
    /// [`MemorySink`]'s records after a run).
    pub fn into_sink(mut self) -> S {
        self.sink.flush();
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_fans_out_to_sink_and_recorder() {
        let mut tracer = Tracer::new(MemorySink::new(), 2, 4);
        for c in 0..10u64 {
            tracer.emit(c, (c % 2) as u16, TraceEvent::RecoveryStarted);
        }
        assert_eq!(tracer.recorders()[0].len(), 4);
        assert_eq!(tracer.recorders()[0].total_seen(), 5);
        assert!(tracer.recorders().get(2).is_none());
        let sink = tracer.into_sink();
        assert_eq!(sink.records.len(), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit(1, 0, TraceEvent::RecoveryStarted);
        assert!(tracer.recorders().is_empty());
    }

    #[test]
    fn zero_recorder_capacity_disables_rings() {
        let mut tracer = Tracer::new(MemorySink::new(), 4, 0);
        tracer.emit(1, 0, TraceEvent::RecoveryStarted);
        assert!(tracer.recorders().is_empty());
        assert_eq!(tracer.into_sink().records.len(), 1);
    }
}
