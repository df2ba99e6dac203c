//! Spans recorded around the benchmark's calls into the program. They
//! are kept in memory and written as JSON Lines when a worker ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for an op's root span.
    pub parent: u64,
    pub name: &'static str,
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while active; while inactive `open`/`close` cost one
/// branch, so untraced ops run the same code.
pub struct Tracer {
    active: bool,
    epoch: Instant,
    id_base: u64,
    op: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What `open` returns for an inactive tracer.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    /// Span ids are unique across the blocks of a run: the block is the
    /// high half.
    pub fn new(block: usize) -> Tracer {
        Tracer {
            active: false,
            epoch: Instant::now(),
            id_base: (block as u64) << 32,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(0)
    }

    pub fn start_op(&mut self, op: usize, active: bool) {
        self.op = op;
        self.active = active;
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.active {
            return NO_SPAN;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let id = self.id_base + self.spans.len() as u64 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        if span == NO_SPAN {
            return;
        }
        self.spans[span].end_ns = self.now_ns();
        self.open.retain(|&i| i != span);
    }

    /// Closes whatever a panicking op left open.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for &i in &self.open {
            self.spans[i].end_ns = now;
        }
        self.open.clear();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends every span as one JSON line.
    pub fn write(&self, out: &mut impl Write, workload: &str, block: usize) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == 0 {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{},\"workload\":{},\"block\":{block},\
                 \"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                json::quote(s.name),
                json::quote(workload),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the part its children
/// cover, summed per span name. `spans` holds whole ops, parents before
/// children (the order `open` records them in).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *by_name.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "core.row_native", 10, 40),
            span(3, 1, "core.row_meta", 50, 90),
            span(4, 3, "inner", 60, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], 30);
        assert_eq!(st["core.row_native"], 30);
        assert_eq!(st["core.row_meta"], 30);
        assert_eq!(st["inner"], 10);
        assert_eq!(
            st.values().sum::<u64>(),
            100,
            "self times add up to the root span"
        );
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut tr = Tracer::new(1);
        tr.start_op(0, false);
        let s = tr.open("op");
        tr.close(s);
        assert_eq!(tr.len(), 0);
        tr.start_op(1, true);
        let root = tr.open("op");
        let child = tr.open("core.campaign_new");
        tr.close(child);
        tr.close(root);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.spans()[1].parent, tr.spans()[0].id);
        assert_eq!(tr.spans()[0].id >> 32, 1);
    }
}
