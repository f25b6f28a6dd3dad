//! Spans recorded by the benchmark's own code around every call into a
//! layer's public function (spans *inside* the program are a later issue).
//!
//! A span is `(name, start, end, parent, op)`; spans of one operation share
//! its `op` id. They stay in memory during the round and are written as JSONL
//! when it ends. A layer's **self time** is its spans' duration minus the part
//! their child spans cover. With the recorder disabled every call is a plain
//! call: end-to-end numbers are measured with tracing off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that wraps one whole operation; its `class` says which.
pub const OP: &str = "op";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`, or [`OP`].
    pub name: &'static str,
    /// Operation class, for [`OP`] spans only.
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation (0 = set-up).
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Operation ids are `thread * OPS_PER_THREAD + n`, unique across threads.
    next_op: u32,
}

const OPS_PER_THREAD: u32 = 1 << 24;

impl Recorder {
    /// A recorder for thread number `thread`; all threads of a round share
    /// `epoch` so their spans lie on one time axis.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: thread * OPS_PER_THREAD + 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            class: "",
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// [`Recorder::span`] for a call whose name depends on its outcome (a cache
    /// load is a hit or a miss only once it returns).
    pub fn span_named_by<T>(&mut self, f: impl FnOnce() -> (T, &'static str)) -> T {
        if !self.enabled {
            return f().0;
        }
        let id = self.begin("");
        let (out, name) = f();
        self.end(id);
        self.spans[id as usize].name = name;
        out
    }

    /// Runs one operation: `f` gets the recorder for its layer calls and
    /// returns its result plus the operation's class (known only afterwards
    /// when, say, a `load` turns out to be a hit or a miss). Returns the
    /// result, the class and the operation's latency in milliseconds, which is
    /// measured the same way with tracing on or off.
    pub fn op<T>(
        &mut self,
        f: impl FnOnce(&mut Recorder) -> (T, &'static str),
    ) -> (T, &'static str, f64) {
        if !self.enabled {
            let start = Instant::now();
            let (out, class) = f(self);
            return (out, class, start.elapsed().as_secs_f64() * 1e3);
        }
        self.op = self.next_op;
        self.next_op += 1;
        let id = self.begin(OP);
        let (out, class) = f(self);
        self.end(id);
        self.op = 0;
        let span = &mut self.spans[id as usize];
        span.class = class;
        let ms = span.duration_ns() as f64 / 1e6;
        (out, class, ms)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(per_thread.iter().map(Vec::len).sum());
    for spans in per_thread {
        let base = all.len() as u32;
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total duration and call count of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// Mean duration in milliseconds of the spans named `name` (0 when none ran).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    match total_ns(spans, name) {
        (_, 0) => 0.0,
        (ns, n) => ns as f64 / n as f64 / 1e6,
    }
}

/// How the operations of a traced round decompose into layers.
#[derive(Debug, Default, PartialEq)]
pub struct Decomposition {
    /// Sum of the durations of all [`OP`] spans.
    pub op_ns: u64,
    /// Self time of the spans below an [`OP`] span, by layer.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Decomposition {
    /// Share of operation time the layers' self times account for; the rest is
    /// the harness's own time between layer calls.
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 1.0;
        }
        self.layer_self_ns.values().sum::<u64>() as f64 / self.op_ns as f64
    }

    pub fn layer_share(&self, layer: &str) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / self.op_ns as f64
    }
}

pub fn decompose(spans: &[Span]) -> Decomposition {
    decompose_classes(spans, |_| true)
}

/// [`decompose`] restricted to the operations whose class `keep` accepts.
pub fn decompose_classes(spans: &[Span], keep: impl Fn(&str) -> bool) -> Decomposition {
    let kept: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == OP && keep(s.class))
        .map(|s| s.op)
        .collect();
    let own = self_times_ns(spans);
    let mut out = Decomposition::default();
    for (span, own_ns) in spans.iter().zip(own) {
        if !kept.contains(&span.op) {
            continue;
        }
        if span.name == OP {
            out.op_ns += span.duration_ns();
        } else if span.op != 0 {
            let layer: &'static str = layer_of(span.name);
            *out.layer_self_ns.entry(layer).or_default() += own_ns;
        }
    }
    out
}

/// One JSON object per span: `id`, `name`, `class` (operations only),
/// `start_ns`, `end_ns`, `parent` (null for roots), `op`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(out, "{{\"id\":{id},\"name\":\"{}\"", s.name);
        if !s.class.is_empty() {
            let _ = write!(out, ",\"class\":\"{}\"", s.class);
        }
        let _ = write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(out, ",\"op\":{}}}", s.op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            class: "",
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] > serve.session_query [10,90] > { ir.parse_term [10,30],
        // engine.run_goal [40,80] }
        let spans = vec![
            span(OP, 0, 100, None, 1),
            span("serve.session_query", 10, 90, Some(0), 1),
            span("ir.parse_term", 10, 30, Some(1), 1),
            span("engine.run_goal", 40, 80, Some(1), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        let d = decompose(&spans);
        assert_eq!(d.op_ns, 100);
        assert_eq!(d.layer_self_ns["serve"], 20);
        assert_eq!(d.layer_self_ns["ir"], 20);
        assert_eq!(d.layer_self_ns["engine"], 40);
        assert!((d.coverage() - 0.8).abs() < 1e-12);
        assert!((d.layer_share("engine") - 0.4).abs() < 1e-12);
        assert_eq!(d.layer_share("datalog"), 0.0);
    }

    #[test]
    fn decomposition_can_be_restricted_to_some_classes() {
        let mut spans = vec![
            span(OP, 0, 100, None, 1),
            span("analysis.analyze", 0, 80, Some(0), 1),
            span(OP, 100, 200, None, 2),
            span("ir.parse_program", 100, 190, Some(2), 2),
        ];
        spans[0].class = "fib";
        spans[2].class = "attack_star";
        let programs = decompose_classes(&spans, |class| class == "fib");
        assert_eq!(programs.op_ns, 100);
        assert!((programs.layer_share("analysis") - 0.8).abs() < 1e-12);
        assert_eq!(programs.layer_share("ir"), 0.0);
        assert_eq!(decompose(&spans).op_ns, 200);
    }

    #[test]
    fn set_up_spans_are_not_part_of_any_operation() {
        let spans = vec![
            span("ir.parse_program", 0, 50, None, 0),
            span(OP, 60, 70, None, 1),
            span("engine.run_goal", 61, 69, Some(1), 1),
        ];
        let d = decompose(&spans);
        assert_eq!(d.op_ns, 10);
        assert_eq!(d.layer_self_ns.get("ir"), None);
        assert_eq!(mean_ms(&spans, "ir.parse_program"), 50.0 / 1e6);
        assert_eq!(total_ns(&spans, "engine.run_goal"), (8, 1));
        assert_eq!(mean_ms(&spans, "never.ran"), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_operations() {
        let mut rec = Recorder::new(true, Instant::now(), 2);
        rec.span("ir.parse_program", || ());
        let ((), class, ms) = rec.op(|rec| {
            rec.span("engine.run_goal", || ());
            ((), "fib")
        });
        assert_eq!(class, "fib");
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[0].parent), (0, None));
        assert_eq!((spans[1].name, spans[1].class), (OP, "fib"));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, spans[1].op);
        assert_eq!(spans[1].op, 2 * OPS_PER_THREAD + 1);
        assert!((spans[1].duration_ns() as f64 / 1e6 - ms).abs() < 1e-12);
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times_operations() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let (value, _, ms) = rec.op(|rec| (rec.span("engine.run_goal", || 7), "fib"));
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_jsonl_has_one_line_per_span() {
        let a = vec![span(OP, 0, 10, None, 1), span("x.y", 1, 9, Some(0), 1)];
        let b = vec![span(OP, 0, 10, None, 2), span("x.y", 1, 9, Some(0), 2)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let text = to_jsonl(&all);
        assert_eq!(text.lines().count(), 4);
        assert_eq!(
            text.lines().nth(3).unwrap(),
            "{\"id\":3,\"name\":\"x.y\",\"start_ns\":1,\"end_ns\":9,\"parent\":2,\"op\":2}"
        );
        assert!(text
            .lines()
            .next()
            .unwrap()
            .ends_with("\"parent\":null,\"op\":1}"));
    }
}
