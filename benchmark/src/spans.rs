//! Spans around the harness's own calls into each layer (traced runs
//! only): kept in a preallocated buffer, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of "no parent".
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    pub round: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span buffer with an open-span cursor.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: u32,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: ROOT,
        }
    }

    /// Opens a span under the currently open one.
    pub fn open(&mut self, name: &'static str, round: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open,
            round,
        });
        self.open = id;
        // Read the clock last, so the push is not inside the span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open, id, "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        self.open = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn clear(&mut self) {
        assert_eq!(self.open, ROOT, "cleared with a span still open");
        self.spans.clear();
    }
}

/// Each span's self time: its duration minus the part its child spans
/// cover.
///
/// # Panics
/// Panics when a child reaches outside its parent or a span has more
/// children than time — then the subtraction would not be a self time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        let p = &spans[s.parent as usize];
        assert!(
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
            "span {} [{}, {}] leaves its parent {} [{}, {}]",
            s.name,
            s.start_ns,
            s.end_ns,
            p.name,
            p.start_ns,
            p.end_ns
        );
        own[s.parent as usize] = own[s.parent as usize]
            .checked_sub(s.ns())
            .expect("sibling spans overlap");
    }
    own
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.round
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("round", 100, 200, ROOT),
            span("decode", 105, 115, 0),
            span("tick", 120, 190, 0),
            span("allocate", 125, 150, 2),
            span("apply", 210, 230, ROOT),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 45, 25, 20]);
    }

    #[test]
    #[should_panic(expected = "leaves its parent")]
    fn child_outside_parent_is_rejected() {
        self_times(&[span("round", 100, 200, ROOT), span("tick", 150, 201, 0)]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut rec = Recorder::with_capacity(8);
        let round = rec.open("round", 3);
        let tick = rec.open("tick", 3);
        rec.close(tick);
        rec.close(round);
        let after = rec.open("apply", 3);
        rec.close(after);
        let s = rec.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (ROOT, 0, ROOT));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        self_times(s);
        let mut out = Vec::new();
        write_jsonl(s, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"name\":\"round\",\"start_ns\":"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"round\":3"));
    }
}
