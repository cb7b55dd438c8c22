//! Spans recorded around the calls the benchmark makes into each layer,
//! and the counting allocator behind the `*.allocs_*` rows.
//!
//! Spans are kept in memory while the traced run replays its ops and
//! written out when it ends. A layer's self time is its span's duration
//! minus the time its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Name of the span that encloses one replayed op. Its children are the
/// layers; its own self time is benchmark glue that no layer explains.
pub const OP: &str = "op";

const NO_PARENT: u32 = u32::MAX;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts allocations (including reallocations)
/// while [`count_allocations`] is on. Off, it costs one relaxed load.
pub struct CountingAlloc;

fn note_alloc() {
    // ordering: a statistic; it publishes no other data
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory handed out by the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    // ordering: the flag guards only the statistic itself
    COUNTING.store(on, Ordering::Relaxed);
}

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span: layer name, op id, enclosing span, and host time
/// (nanoseconds since the tracer started) plus allocations while open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Open span handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder. A disabled tracer records nothing and reads no clock,
/// so the same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ops: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one. Opening [`OP`]
    /// starts a new op id.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if name == OP {
            self.ops += 1;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let span = Span {
            name,
            op: self.ops,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: allocs_now(),
        };
        self.spans.push(span);
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs_now() - span.allocs;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `op parent name start_ns end_ns allocs`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tparent\tname\tstart_ns\tend_ns\tallocs")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Self time, span count and self allocations of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub self_ns: u64,
    pub count: u64,
    pub allocs: u64,
}

impl Layer {
    /// Mean self time per span, microseconds.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 / 1e3, self.count as f64)
    }
}

/// Per-span self time and self allocations: its own figure minus what
/// its direct children account for.
fn self_parts(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut parts: Vec<(u64, u64)> = spans.iter().map(|s| (s.dur_ns(), s.allocs)).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut parts[s.parent as usize];
            p.0 = p.0.saturating_sub(s.dur_ns());
            p.1 = p.1.saturating_sub(s.allocs);
        }
    }
    parts
}

/// Self time per layer name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, (self_ns, allocs)) in spans.iter().zip(self_parts(spans)) {
        let layer = out.entry(s.name).or_default();
        layer.self_ns += self_ns;
        layer.count += 1;
        layer.allocs += allocs;
    }
    out
}

/// Share of the traced op time that the layers' self times explain:
/// `1 - (self time of the op spans) / (duration of the op spans)`.
/// Spans outside any op (probes) do not count either way.
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let mut op_ns = 0u64;
    let mut glue_ns = 0u64;
    for (s, (self_ns, _)) in spans.iter().zip(self_parts(spans)) {
        if s.name == OP {
            op_ns += s.dur_ns();
            glue_ns += self_ns;
        }
    }
    1.0 - crate::stats::ratio(glue_ns as f64, op_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64, allocs: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > a [10,50) > b [20,30); op > c [60,90)
        let spans = [
            span(OP, NO_PARENT, 0, 100, 9),
            span("a", 0, 10, 50, 5),
            span("b", 1, 20, 30, 2),
            span("c", 0, 60, 90, 3),
        ];
        let l = layers(&spans);
        assert_eq!(l[OP].self_ns, 100 - 40 - 30);
        assert_eq!(l["a"].self_ns, 40 - 10);
        assert_eq!(l["b"].self_ns, 10);
        assert_eq!(l["c"].self_ns, 30);
        assert_eq!(l[OP].allocs, 9 - 5 - 3);
        assert_eq!(l["a"].allocs, 3);
        // The self times partition the op exactly.
        let total: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(total, 100);
        assert!((layer_coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn coverage_ignores_probes_and_sums_over_ops() {
        let spans = [
            span(OP, NO_PARENT, 0, 100, 0),
            span("a", 0, 0, 95, 0),
            span(OP, NO_PARENT, 100, 200, 0),
            span("a", 2, 100, 200, 0),
            // A probe outside every op.
            span("probe", NO_PARENT, 200, 1000, 0),
        ];
        assert!((layer_coverage(&spans) - 0.975).abs() < 1e-12);
        assert_eq!(layer_coverage(&[]), 1.0);
        assert_eq!(layers(&spans)["a"].count, 2);
        assert!((layers(&spans)["a"].mean_us() - 0.0975).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let op = t.begin(OP);
        let x = t.span("leaf", || 41 + 1);
        t.end(op);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[0].op, spans[1].op), (1, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let op = off.begin(OP);
        off.span("leaf", || ());
        off.end(op);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn counting_allocator_counts_only_while_on() {
        let mut t = Tracer::new(true);
        count_allocations(true);
        let s = t.begin("alloc");
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        t.end(s);
        count_allocations(false);
        drop(v);
        assert!(t.spans()[0].allocs >= 1);
    }
}
