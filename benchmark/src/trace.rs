//! Spans recorded by the benchmark around its calls into a layer.
//!
//! Every span has `{id, parent, name, request, start_ns, end_ns}`. The
//! first [`KEEP_PER_NAME`] spans of each name are kept, in a vector
//! allocated before timing starts, and written out when the run ends; the
//! per-name counts and totals always cover every span. A disabled tracer
//! records nothing, which is how every end-to-end number is taken.

use crate::json::Json;
use std::time::Instant;

/// Spans kept per name. Counts and totals are not capped.
pub const KEEP_PER_NAME: usize = 1 << 12;

pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: u16,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What is known about every span of one name, kept or not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by direct children, so `total_ns - child_ns` is the
    /// layer's self time.
    pub child_ns: u64,
    kept: usize,
}

impl NameTotals {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: SpanId,
    /// Id and name of the parent span, if any.
    parent: Option<(SpanId, u16)>,
    name: u16,
    request: u32,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
    names: Vec<NameTotals>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), next_id: 0, spans: Vec::new(), names: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stop or resume recording (warm-up windows are not traced).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A tracer for another thread, on the same clock and knowing the
    /// same names by the same indices; fold it back in with
    /// [`Tracer::absorb`] once the thread is joined.
    pub fn fork(&self) -> Tracer {
        let mut fork = Tracer { epoch: self.epoch, ..Tracer::new(self.enabled) };
        for n in &self.names {
            fork.name(&n.name);
        }
        fork
    }

    /// Fold in a forked tracer: totals add up by name, and its kept spans
    /// are kept here (renumbered) while there is room under the cap.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next_id;
        self.next_id += other.next_id;
        let map: Vec<u16> = other.names.iter().map(|n| self.name(&n.name)).collect();
        for (theirs, &mine) in other.names.iter().zip(&map) {
            let t = &mut self.names[mine as usize];
            t.count += theirs.count;
            t.total_ns += theirs.total_ns;
            t.child_ns += theirs.child_ns;
        }
        for s in other.spans {
            let t = &mut self.names[map[s.name as usize] as usize];
            if t.kept < KEEP_PER_NAME {
                t.kept += 1;
                let parent = if s.parent == NO_PARENT { NO_PARENT } else { s.parent + base };
                self.spans.push(Span { id: s.id + base, parent, name: map[s.name as usize], ..s });
            }
        }
    }

    /// Register a span name before timing, reserving room for its kept
    /// spans so recording never allocates. Returns the name's index.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n.name == name) {
            return i as u16;
        }
        self.names.push(NameTotals { name: name.to_string(), ..Default::default() });
        if self.enabled {
            self.spans.reserve(KEEP_PER_NAME);
        }
        (self.names.len() - 1) as u16
    }

    /// Open a span now, as a child of `parent` if one is given.
    pub fn begin(&mut self, name: u16, parent: Option<&Open>, request: u32) -> Open {
        let id = self.next_id;
        self.next_id += self.enabled as SpanId;
        let parent = parent.map(|p| (p.id, p.name));
        Open { id, parent, name, request, start: Instant::now() }
    }

    /// Open a top-level span of `name`, registering the name if need be;
    /// for calls made once, where looking the name up costs nothing.
    pub fn begin_named(&mut self, name: &str) -> Open {
        let id = self.name(name);
        self.begin(id, None, 0)
    }

    /// Close `open` now and return its duration in nanoseconds. The
    /// duration is measured whether or not the tracer is enabled, so the
    /// traced and the untraced run read the same two clocks per call.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if self.enabled {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.record(open, start_ns, start_ns + dur);
        }
        dur
    }

    fn record(&mut self, open: Open, start_ns: u64, end_ns: u64) {
        let dur = end_ns - start_ns;
        let totals = &mut self.names[open.name as usize];
        totals.count += 1;
        totals.total_ns += dur;
        let keep = totals.kept < KEEP_PER_NAME;
        if keep {
            totals.kept += 1;
        }
        if let Some((_, parent_name)) = open.parent {
            self.names[parent_name as usize].child_ns += dur;
        }
        if keep {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent.map_or(NO_PARENT, |(id, _)| id),
                name: open.name,
                request: open.request,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn totals(&self, name: &str) -> Option<&NameTotals> {
        self.names.iter().find(|n| n.name == name)
    }

    pub fn to_json(&self) -> Json {
        let names = self.names.iter().map(|n| Json::Str(n.name.clone())).collect();
        let totals = self
            .names
            .iter()
            .map(|n| {
                Json::object([
                    ("name", Json::Str(n.name.clone())),
                    ("count", Json::Num(n.count as f64)),
                    ("total_ns", Json::Num(n.total_ns as f64)),
                    ("self_ns", Json::Num(n.self_ns() as f64)),
                    ("kept", Json::Num(n.kept as f64)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let parent =
                    if s.parent == NO_PARENT { Json::Null } else { Json::Num(s.parent as f64) };
                Json::Arr(vec![
                    Json::Num(s.id as f64),
                    parent,
                    Json::Num(s.name as f64),
                    Json::Num(s.request as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        Json::object([
            ("span_fields", Json::Arr(FIELDS.iter().map(|f| Json::Str(f.to_string())).collect())),
            ("keep_per_name", Json::Num(KEEP_PER_NAME as f64)),
            ("names", Json::Arr(names)),
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

const FIELDS: [&str; 6] = ["id", "parent", "name", "request", "start_ns", "end_ns"];

#[cfg(test)]
mod tests {
    use super::*;

    /// Record a span of `name` over `[start_ns, end_ns)` under `parent`.
    fn put(tr: &mut Tracer, name: u16, parent: Option<&Open>, start_ns: u64, end_ns: u64) -> Open {
        let open = tr.begin(name, parent, 0);
        tr.record(open, start_ns, end_ns);
        open
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tr = Tracer::new(true);
        let (window, call, probe) = (tr.name("window"), tr.name("call"), tr.name("probe"));
        let w = put(&mut tr, window, None, 0, 100);
        let c1 = put(&mut tr, call, Some(&w), 10, 40);
        put(&mut tr, call, Some(&w), 50, 70);
        put(&mut tr, probe, Some(&c1), 15, 20);
        let t = |n| tr.totals(n).unwrap();
        assert_eq!((t("window").total_ns, t("window").self_ns()), (100, 50));
        assert_eq!((t("call").count, t("call").total_ns, t("call").self_ns()), (2, 50, 45));
        assert_eq!(t("probe").self_ns(), 5);
        // The grandchild is charged to its parent only.
        assert_eq!(t("window").child_ns, 50);
        let kept: Vec<(SpanId, SpanId)> = tr.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(kept, vec![(0, NO_PARENT), (1, 0), (2, 0), (3, 1)]);
    }

    #[test]
    fn totals_cover_spans_beyond_the_kept_ones() {
        let mut tr = Tracer::new(true);
        let outer = tr.name("outer");
        let inner = tr.name("inner");
        assert_eq!(tr.name("outer"), outer);
        let n = KEEP_PER_NAME as u64 + 10;
        for i in 0..n {
            let o = tr.begin(outer, None, i as u32);
            let c = tr.begin(inner, Some(&o), i as u32);
            tr.end(c);
            tr.end(o);
        }
        let (o, c) = (tr.totals("outer").unwrap(), tr.totals("inner").unwrap());
        assert_eq!((o.count, c.count), (n, n));
        assert_eq!(o.child_ns, c.total_ns);
        assert!(o.total_ns >= c.total_ns && o.self_ns() == o.total_ns - c.total_ns);
        assert_eq!(tr.spans.len(), 2 * KEEP_PER_NAME);
    }

    #[test]
    fn a_forked_tracer_folds_back_in_by_name() {
        let mut main = Tracer::new(true);
        let a = main.name("a");
        put(&mut main, a, None, 0, 10);
        let mut fork = main.fork();
        let (b, a2) = (fork.name("b"), a);
        let parent = put(&mut fork, a2, None, 5, 25);
        put(&mut fork, b, Some(&parent), 6, 9);
        main.absorb(fork);
        let t = |n| main.totals(n).unwrap();
        assert_eq!((t("a").count, t("a").total_ns, t("a").self_ns()), (2, 30, 27));
        assert_eq!((t("b").count, t("b").total_ns), (1, 3));
        let kept: Vec<(SpanId, SpanId)> = main.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(kept, vec![(0, NO_PARENT), (1, NO_PARENT), (2, 1)]);
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let n = tr.name("x");
        let o = tr.begin(n, None, 0);
        std::hint::black_box((0..1000).sum::<u64>());
        let _ = tr.end(o);
        assert_eq!(tr.totals("x").unwrap().count, 0);
        assert!(tr.spans.is_empty());
    }
}
