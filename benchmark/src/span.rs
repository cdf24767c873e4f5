//! Outside-in span recorder: the benchmark wraps its calls into each
//! simulator layer in a span, keeps them in memory, derives self times and
//! writes one Chrome trace-event file (Perfetto-loadable) at exit.

use std::time::Instant;
use vksim_testkit::json::escape;

/// One recorded interval around a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate name.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The workload whose run recorded the span.
    pub workload: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Recorder {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let at = self.now_ns();
        self.begin_at(name, at)
    }

    /// Closes a span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the innermost open span: spans nest.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let at = self.now_ns();
        self.end_at(id, at)
    }

    /// Times one call as a leaf span; returns its result and seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    fn begin_at(&mut self, name: &str, at: u64) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    fn end_at(&mut self, id: SpanId, at: u64) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id.0];
        span.end_ns = at.max(span.start_ns);
        span.duration_ns() as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of it its direct
    /// children cover (grandchildren are already inside the children).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// `(name, calls, total self ns)` per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<(String, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += own;
                }
                None => rows.push((s.name.clone(), 1, own)),
            }
        }
        rows
    }

    /// Chrome trace-event JSON: one complete (`X`) event per closed span on
    /// a single track, in start order, microsecond timestamps.
    pub fn chrome_trace_json(&self) -> String {
        let own = self.self_times_ns();
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, i));
        let events: Vec<String> = order
            .into_iter()
            .map(|i| {
                let s = &self.spans[i];
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{}\",\"parent\":{},\"self_us\":{:.3}}}}}",
                    escape(&s.name),
                    escape(s.name.split('.').next().unwrap_or("")),
                    s.start_ns as f64 / 1e3,
                    s.duration_ns() as f64 / 1e3,
                    escape(&s.workload),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    own[i] as f64 / 1e3,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_testkit::json::{parse_json, JsonValue};

    /// root [0,100) { a [10,50) { a1 [20,30) }, b [50,90) }
    fn nested() -> Recorder {
        let mut r = Recorder::new("w");
        let root = r.begin_at("core.run", 0);
        let a = r.begin_at("gpu.run", 10);
        let a1 = r.begin_at("mem.advance", 20);
        r.end_at(a1, 30);
        r.end_at(a, 50);
        let b = r.begin_at("gpu.run", 50);
        r.end_at(b, 90);
        r.end_at(root, 100);
        r
    }

    #[test]
    fn nested_children_subtract_once() {
        let r = nested();
        // root loses a (40) and b (40) but not the grandchild again.
        assert_eq!(r.self_times_ns(), vec![20, 30, 10, 40]);
        let total: u64 = r.self_times_ns().iter().sum();
        assert_eq!(
            total,
            r.spans()[0].duration_ns(),
            "self times partition the root"
        );
        assert_eq!(
            r.self_time_by_name(),
            vec![
                ("core.run".to_string(), 1, 20),
                ("gpu.run".to_string(), 2, 70),
                ("mem.advance".to_string(), 1, 10)
            ]
        );
    }

    #[test]
    fn siblings_do_not_overlap_and_stay_inside_their_parent() {
        let r = nested();
        let spans = r.spans();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
            for t in &spans[i + 1..] {
                if t.parent == s.parent {
                    assert!(s.end_ns <= t.start_ns, "{} overlaps {}", s.name, t.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new("w");
        let outer = r.begin("a.x");
        let _inner = r.begin("b.y");
        r.end(outer);
    }

    #[test]
    fn chrome_trace_parses_with_monotonic_timestamps() {
        let mut r = nested();
        let ((), secs) = r.timed("stats.add", || ());
        assert!(secs >= 0.0);
        let doc = parse_json(&r.chrome_trace_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 5);
        let mut last = f64::MIN;
        for e in events {
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            let ts = e.get("ts").and_then(JsonValue::as_f64).unwrap();
            assert!(ts >= last, "timestamps on the track must not go back");
            last = ts;
            assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
        }
        assert_eq!(
            events[0].get("cat").and_then(JsonValue::as_str),
            Some("core")
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }
}
