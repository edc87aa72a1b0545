//! The benchmark's own spans: recorded in a preallocated buffer around
//! calls into public functions, written out only after timing ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span. `count > 1` marks an aggregate of `count` back-to-back calls
/// whose durations were summed (one span per call would be ~10^6 spans
/// on `fuzz_batch`); its `end_ns` is `start_ns` plus that sum.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at the root.
    pub parent: Option<u32>,
    pub count: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-capacity span recorder. Recording never allocates: once the
/// buffer is full further spans are counted in `dropped` instead.
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub dropped: u64,
}

/// Handle of an open span (`None` when it was dropped for capacity).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// Nanoseconds since the buffer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start_ns = self.now();
        let id = self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 1,
        });
        if let Some(id) = id {
            self.open.push(id);
        }
        Open(id)
    }

    /// Closes `span` and returns its duration in ns (0 if it was dropped).
    pub fn close(&mut self, span: Open) -> u64 {
        let end_ns = self.now();
        let Some(id) = span.0 else { return 0 };
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.duration_ns()
    }

    /// Times `body` as one span standing for `calls` back-to-back calls.
    pub fn time<R>(&mut self, name: &'static str, calls: u32, body: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let result = body();
        if let Some(id) = span.0 {
            self.spans[id as usize].count = calls;
        }
        self.close(span);
        result
    }

    /// Records an already-measured span (or an aggregate of `count`
    /// calls lasting `duration_ns` in total) under the innermost open one.
    pub fn record(&mut self, name: &'static str, start_ns: u64, duration_ns: u64, count: u32) {
        let parent = self.open.last().copied();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// `(total self time, total calls)` over every span called `name`.
    pub fn self_total(&self, name: &str) -> (u64, u64) {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(ns, calls), (s, own)| {
                (ns + own, calls + u64::from(s.count))
            })
    }

    /// Mean self time per call of the spans called `name`; `None` if there
    /// are none.
    pub fn self_ns_per_call(&self, name: &str) -> Option<f64> {
        let (ns, calls) = self.self_total(name);
        (calls > 0).then(|| ns as f64 / calls as f64)
    }

    /// The whole buffer as one JSON document: a name table, then one
    /// `[name, start_ns, end_ns, parent, count]` row per span (`parent`
    /// is a row index, -1 at the root).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(at) => at,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                rows,
                "{sep}\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.count
            );
        }
        let names = names
            .iter()
            .map(|n| crate::output::jstr(n))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"dropped\":{},\
             \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"count\"],\
             \"names\":[{names}],\"spans\":[{rows}\n]}}\n",
            crate::output::jstr(workload),
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut buf = SpanBuf::with_capacity(8);
        let root = buf.open("root");
        buf.record("child", 10, 30, 1);
        buf.record("agg", 50, 20, 4);
        let inner = buf.open("inner");
        buf.record("leaf", 0, 5, 1);
        buf.close(inner);
        buf.close(root);
        let spans = buf.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        let own = buf.self_times();
        let inner_dur = spans[3].duration_ns();
        assert_eq!(
            own[0],
            spans[0].duration_ns().saturating_sub(30 + 20 + inner_dur)
        );
        assert_eq!(own[3], inner_dur.saturating_sub(5));
        assert_eq!(buf.self_total("agg"), (20, 4));
        assert_eq!(buf.self_ns_per_call("agg"), Some(5.0));
        assert_eq!(buf.self_ns_per_call("absent"), None);
        assert_eq!(buf.durations("child"), vec![30]);
    }

    #[test]
    fn a_full_buffer_drops_and_never_grows() {
        let mut buf = SpanBuf::with_capacity(2);
        let a = buf.open("a");
        buf.record("b", 0, 1, 1);
        let c = buf.open("c");
        buf.record("d", 0, 1, 1);
        assert_eq!(buf.close(c), 0);
        buf.close(a);
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.dropped, 2);
        assert_eq!(buf.spans.capacity(), 2);
    }

    #[test]
    fn span_file_parses_with_the_metrics_json_reader() {
        let mut buf = SpanBuf::with_capacity(4);
        let root = buf.open("bench.workload");
        buf.record("engine.step", 1, 2, 1);
        buf.close(root);
        let doc = ftnoc_metrics::json::parse(buf.to_json("sparse8", 7).trim()).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("sparse8"));
        assert_eq!(doc.u64_field("seed"), Some(7));
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].as_arr().unwrap()[3].as_f64(), Some(0.0));
        assert_eq!(spans[0].as_arr().unwrap()[3].as_f64(), Some(-1.0));
    }
}
