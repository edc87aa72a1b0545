//! Pluggable trace destinations.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{jsonl, TraceRecord};

/// A destination for trace records.
///
/// The sink is chosen at compile time (the simulator is generic over
/// `S: TraceSink`), so with [`NullSink`] — whose `ENABLED` is `false` —
/// every instrumentation site folds away to nothing: event construction
/// is guarded behind `S::ENABLED`, a constant the optimizer eliminates.
pub trait TraceSink {
    /// Whether this sink observes events at all. Instrumentation sites
    /// must check this before constructing events.
    const ENABLED: bool = true;

    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes buffered output (a no-op for most sinks).
    fn flush(&mut self) {}
}

/// The do-nothing sink: compiles tracing out of the simulator entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Collects every record in memory, for tests and programmatic analysis.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The collected records serialized as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        jsonl(self.records.iter())
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(*rec);
    }
}

/// Streams records as JSON Lines to any writer (typically a buffered
/// file — see [`JsonlSink::create`]).
///
/// A trace is diagnostic output: an I/O error must not kill a
/// simulation that is otherwise healthy, and must not pass unnoticed
/// either. The sink keeps the first error, writes nothing after it, and
/// hands it over through [`JsonlSink::take_error`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: Vec<u8>,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) a JSONL trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: Vec::with_capacity(128),
            error: None,
        }
    }

    /// The first I/O error a write or flush met, if any. Call it after
    /// the final [`TraceSink::flush`]: a buffered writer reports most
    /// failures only then.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        rec.write_json(&mut self.line);
        self.line.push(b'\n');
        if let Err(e) = self.writer.write_all(&self.line) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.writer.flush().err();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(cycle: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            node: 1,
            event: TraceEvent::NackSent { port: 0, vc: 0 },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(MemorySink::ENABLED) };
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        for c in 0..5 {
            sink.record(&rec(c));
        }
        assert_eq!(sink.records.len(), 5);
        assert!(sink.records.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert_eq!(sink.to_jsonl().lines().count(), 5);
    }

    /// Accepts `room` bytes, then fails every write; counts the calls.
    struct FailAfter {
        room: usize,
        written: Vec<u8>,
        calls: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.written.len() + buf.len() > self.room {
                return Err(io::Error::other(format!("full at call {}", self.calls)));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_keeps_the_first_error_and_stops_writing() {
        let line = rec(3).to_json().len() + 1;
        let mut sink = JsonlSink::new(FailAfter {
            room: 2 * line,
            written: Vec::new(),
            calls: 0,
        });
        for c in 3..9 {
            sink.record(&rec(c));
        }
        sink.flush();
        let e = sink.take_error().expect("the third record did not fit");
        assert_eq!(e.to_string(), "full at call 3");
        let w = sink.into_inner();
        assert_eq!(w.calls, 3, "no write is attempted after the first error");
        let text = String::from_utf8(w.written).unwrap();
        assert_eq!(
            text,
            format!("{}\n{}\n", rec(3).to_json(), rec(4).to_json())
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(3));
        sink.record(&rec(4));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().next().unwrap(), rec(3).to_json());
    }
}
