//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark measures from outside: every span wraps one call it
//! makes into a crate (`Simulation::run`, `RoutingAtlas::build`,
//! one HTTP request, ...). Spans are kept in memory and written once,
//! at exit, as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! A disabled tracer records nothing, but [`Tracer::close`] still
//! returns the elapsed time, so untraced and traced runs execute the
//! same code and the difference between them is the tracing overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
#[must_use = "close the span to record it"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> Option<u64> {
        Some(self.id).filter(|&id| id != 0)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// End `open`, record it when tracing is on, and return its
    /// duration either way.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        let dur = end - open.start;
        if self.on {
            let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
                tid: TID.with(|t| *t),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        dur
    }

    /// Run `f` inside a span; returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(name, parent);
        let r = f();
        (r, self.close(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children, e.g. two
/// client threads under one parent, are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Total and self seconds per span name, in name order.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e9;
        e.2 += selfs[&s.id] as f64 / 1e9;
    }
    out
}

/// Render spans as Chrome trace-event JSON ("X" complete events). Each
/// event's args carry its span id, parent, run id and self time;
/// `meta` (a JSON object) lands under `otherData`.
pub fn chrome_json(spans: &[Span], run_id: &str, meta: &str) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{parent},\"run_id\":\"{run_id}\",\
             \"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            selfs[&s.id] as f64 / 1e3,
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{meta}}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30), [20,50) (overlapping, as
        // two client threads would) and [60,70); a grandchild [12,18)
        // belongs to child 2, not to the root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            span(5, Some(2), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 6);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent (a span closed late on
        // another thread) only covers the parent's own interval.
        let spans = vec![span(1, None, 0, 50), span(2, Some(1), 40, 90)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let open = t.open("x", None);
        assert_eq!(open.id(), None);
        t.close(open);
        let (v, d) = t.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_writes_chrome_json() {
        let t = Tracer::new(true);
        let outer = t.open("sim.run", None);
        let (_, _) = t.time("engine.pass", outer.id(), || ());
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "engine.pass").unwrap();
        let parent = spans.iter().find(|s| s.name == "sim.run").unwrap();
        assert_eq!(child.parent, Some(parent.id));
        let json = chrome_json(&spans, "r1", "{}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains(&format!("\"parent\":{}", parent.id)));
        assert!(json.contains("\"run_id\":\"r1\""));
        let names = by_name(&spans);
        assert_eq!(names["sim.run"].0, 1);
        assert!(names["sim.run"].2 <= names["sim.run"].1);
    }
}
