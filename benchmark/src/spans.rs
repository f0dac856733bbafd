//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer and from the SCF observer hooks; they are kept in memory
//! and written when the process ends, in the chrome-trace event format
//! the repository's `TRACE_fig6.json` already uses. Times are on the
//! `ls3df_obs` process clock so the program's own spans (present in the
//! traced build) land on the same timeline.

use ls3df::obs::clock::epoch_nanos;
use ls3df::obs::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span store of one run; every span carries the run's id.
#[derive(Debug)]
pub struct Recorder {
    pub run_id: String,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            run_id,
            spans: Vec::new(),
        }
    }

    /// Now, on the span clock.
    pub fn now() -> u64 {
        epoch_nanos()
    }

    /// Records a closed span and returns its id (for use as a parent).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Self::now();
        let out = f();
        self.record(name, start, Self::now(), parent);
        out
    }

    /// Moves a span's end (a parent recorded before its children finish).
    pub fn close(&mut self, id: usize, end_ns: u64) {
        self.spans[id].end_ns = end_ns.max(self.spans[id].start_ns);
    }

    /// A span's duration minus the part of it its child spans cover
    /// (overlapping children are counted once, and only inside the span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Chrome-trace complete (`"ph": "X"`) events, one per span, on lane
    /// `pid`; span id, parent id, run id and self time ride in `args`.
    pub fn chrome_events(&self, pid: u32, lane: &str) -> Vec<Json> {
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(f64::from(pid))),
            ("args", Json::obj(vec![("name", Json::str(lane))])),
        ])];
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::num(p as f64));
            events.push(Json::obj(vec![
                ("name", Json::str(span.name.as_str())),
                ("ph", Json::str("X")),
                ("pid", Json::num(f64::from(pid))),
                ("tid", Json::num(0.0)),
                ("ts", Json::num(span.start_ns as f64 * 1e-3)),
                (
                    "dur",
                    Json::num((span.end_ns - span.start_ns) as f64 * 1e-3),
                ),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::num(id as f64)),
                        ("parent", parent),
                        ("run", Json::str(self.run_id.as_str())),
                        ("self_us", Json::num(self.self_ns(id) as f64 * 1e-3)),
                    ]),
                ),
            ]));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new("t".into());
        let root = r.record("root", 100, 1100, None);
        // Two overlapping children cover [200, 600); one pokes out past the
        // parent's end and only its inside part [1000, 1100) counts; a
        // grandchild never counts against the root.
        let a = r.record("a", 200, 500, Some(root));
        r.record("b", 400, 600, Some(root));
        r.record("c", 1000, 1500, Some(root));
        r.record("grandchild", 250, 300, Some(a));
        assert_eq!(r.self_ns(root), 1000 - 400 - 100);
        assert_eq!(r.self_ns(a), 300 - 50);
        // A leaf's self time is its duration.
        assert_eq!(r.self_ns(2), 200);
    }

    #[test]
    fn close_never_moves_the_end_before_the_start() {
        let mut r = Recorder::new("t".into());
        let id = r.record("x", 50, 50, None);
        r.close(id, 10);
        assert_eq!(r.spans[id].end_ns, 50);
        r.close(id, 90);
        assert_eq!(r.self_ns(id), 40);
    }

    #[test]
    fn chrome_events_carry_ids_and_parents() {
        let mut r = Recorder::new("run-7".into());
        let root = r.record("root", 0, 2000, None);
        r.record("leaf", 500, 1500, Some(root));
        let events = r.chrome_events(3, "benchmark");
        assert_eq!(events.len(), 3);
        let leaf = &events[2];
        assert_eq!(leaf.get("name").and_then(Json::as_str), Some("leaf"));
        assert_eq!(leaf.get("dur").and_then(Json::as_f64), Some(1.0));
        let args = leaf.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("run").and_then(Json::as_str), Some("run-7"));
        let root_args = events[1].get("args").unwrap();
        assert_eq!(root_args.get("self_us").and_then(Json::as_f64), Some(1.0));
    }
}
