//! The span tree of a traced run: one tree per child process, one
//! sub-tree per round, kept in memory and written as JSONL at exit.
//!
//! A span's **self time** is its duration minus the part of that interval
//! its children cover (the union of their intervals, so children that run
//! side by side on different threads are not counted twice).

use crate::json::{self, int, obj, text, Value};

/// Nanoseconds on the benchmark's own clock (child start = 0).
pub type Ns = u64;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = 0;
/// `round` / `lane` of a span outside any round / lane.
pub const NONE: i64 = -1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based, unique within the file.
    pub id: u32,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// `<crate>.<module>[.<what>]` — the layer the time belongs to.
    pub name: String,
    pub round: i64,
    pub lane: i64,
    pub start_ns: Ns,
    pub end_ns: Ns,
    /// Work done inside the span, in the layer's own unit (devices,
    /// hops, samples); 0 when the layer exposes none.
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> Ns {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("id", Value::U64(self.id as u64)),
            ("parent", Value::U64(self.parent as u64)),
            ("name", text(self.name.clone())),
            ("round", int(self.round)),
            ("lane", int(self.lane)),
            ("start_ns", Value::U64(self.start_ns)),
            ("end_ns", Value::U64(self.end_ns)),
            ("units", Value::U64(self.units)),
        ])
    }

    #[cfg(test)]
    pub fn from_json(v: &Value) -> Option<Span> {
        let f = |k: &str| json::get_f64(v, k);
        Some(Span {
            id: f("id")? as u32,
            parent: f("parent")? as u32,
            name: json::get_str(v, "name")?.to_string(),
            round: f("round")? as i64,
            lane: f("lane")? as i64,
            start_ns: f("start_ns")? as Ns,
            end_ns: f("end_ns")? as Ns,
            units: f("units")? as u64,
        })
    }
}

/// Spans plus their parent/child index. Ids are assigned by [`Tree::push`].
#[derive(Debug, Default)]
pub struct Tree {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Tree {
    pub fn new() -> Tree {
        Tree::default()
    }

    /// Add a span under `parent` (an id returned earlier, or
    /// [`NO_PARENT`]) and return its id.
    #[allow(clippy::too_many_arguments)] // one argument per span field
    pub fn push(
        &mut self,
        parent: u32,
        name: &str,
        round: i64,
        lane: i64,
        start_ns: Ns,
        end_ns: Ns,
        units: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        assert!(parent < id, "parent must already be in the tree");
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            round,
            lane,
            start_ns,
            end_ns,
            units,
        });
        self.children.push(Vec::new());
        if parent != NO_PARENT {
            self.children[parent as usize - 1].push(id as usize - 1);
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    pub fn children_of(&self, id: u32) -> impl Iterator<Item = &Span> {
        self.children[id as usize - 1]
            .iter()
            .map(|&i| &self.spans[i])
    }

    /// Duration of span `id` not covered by any of its children.
    pub fn self_ns(&self, id: u32) -> Ns {
        let s = self.get(id);
        let covered = union_ns(
            self.children_of(id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .collect(),
        );
        s.dur_ns().saturating_sub(covered)
    }

    /// Check the nesting: every child lies inside its parent, and the
    /// children of one parent do not add up to more than the parent —
    /// unless `is_parallel` names the parent as one whose children run
    /// side by side on several threads. `slack_ns` absorbs the offset
    /// between the two clocks the spans were stamped with; a further 1 %
    /// of the parent is allowed on top.
    pub fn validate(
        &self,
        slack_ns: Ns,
        is_parallel: impl Fn(&Span) -> bool,
    ) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            let slack = slack_ns + s.dur_ns() / 100;
            let mut sum = 0u64;
            for c in self.children_of(s.id) {
                if c.start_ns + slack < s.start_ns || c.end_ns > s.end_ns + slack {
                    return Err(format!(
                        "span {} ({}, round {}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                        c.id,
                        c.name,
                        c.round,
                        c.start_ns,
                        c.end_ns,
                        s.id,
                        s.name,
                        s.start_ns,
                        s.end_ns
                    ));
                }
                sum += c.dur_ns();
            }
            if !is_parallel(s) && sum > s.dur_ns() + slack {
                return Err(format!(
                    "children of span {} ({}, round {}) sum to {} ns, parent has {} ns",
                    s.id,
                    s.name,
                    s.round,
                    sum,
                    s.dur_ns()
                ));
            }
        }
        Ok(())
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            out.push_str(&json::compact(&s.to_json()));
            out.push('\n');
        }
        out
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(Ns, Ns)>) -> Ns {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(Ns, Ns)> = None;
    for (a, b) in intervals {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// round [0, 1000] -> algo [100, 800] -> {lane0 [200, 600], lane1
    /// [300, 700]}, eval [850, 950].
    fn sample() -> (Tree, u32, u32) {
        let mut t = Tree::new();
        let round = t.push(NO_PARENT, "core.algorithm.round", 0, NONE, 0, 1000, 1);
        let algo = t.push(round, "core.algorithm.algo", 0, NONE, 100, 800, 10);
        t.push(algo, "core.ring_sim.lane", 0, 0, 200, 600, 4);
        t.push(algo, "core.ring_sim.lane", 0, 1, 300, 700, 5);
        t.push(round, "core.local.eval", 0, NONE, 850, 950, 0);
        (t, round, algo)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let (t, round, algo) = sample();
        // round: 1000 - (700 + 100)
        assert_eq!(t.self_ns(round), 200);
        // algo: lanes overlap on [300, 600]; union is [200, 700] = 500
        assert_eq!(t.self_ns(algo), 200);
        // A leaf is all self time.
        assert_eq!(t.self_ns(5), 100);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let mut t = Tree::new();
        let p = t.push(NO_PARENT, "p", 0, NONE, 100, 200, 0);
        t.push(p, "c", 0, NONE, 90, 150, 0);
        assert_eq!(t.self_ns(p), 50);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(vec![(0, 10), (10, 20), (5, 8), (30, 31)]), 21);
        assert_eq!(union_ns(vec![(5, 5), (7, 3)]), 0);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn valid_tree_passes_and_parallel_children_need_the_parallel_rule() {
        let (t, _, _) = sample();
        // Lanes sum to 800 > algo's 700: only valid as parallel children.
        assert!(t.validate(0, |s| s.name == "core.algorithm.algo").is_ok());
        let err = t.validate(0, |_| false).unwrap_err();
        assert!(err.contains("sum to 800"), "{err}");
    }

    #[test]
    fn child_outside_its_parent_is_rejected_beyond_the_slack() {
        let mut t = Tree::new();
        let p = t.push(NO_PARENT, "p", 0, NONE, 1000, 2000, 0);
        t.push(p, "c", 0, NONE, 980, 1500, 0);
        // 1 % of the parent is 10 ns; the child starts 20 ns early.
        assert!(t.validate(0, |_| false).is_err());
        assert!(t.validate(10, |_| false).is_ok());
    }

    #[test]
    fn inverted_span_is_rejected() {
        let mut t = Tree::new();
        t.push(NO_PARENT, "p", 0, NONE, 10, 5, 0);
        assert!(t.validate(0, |_| false).is_err());
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let (t, _, _) = sample();
        let text = t.to_jsonl();
        let back: Vec<Span> = text
            .lines()
            .map(|l| Span::from_json(&json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(back, t.spans());
        assert_eq!(back[2].lane, 0);
        assert_eq!(back[0].lane, NONE);
    }
}
