//! Outside-in stage tracing: spans recorded from the benchmark's own code
//! around each call into a layer, plus the exact counts taken at the same
//! boundaries.
//!
//! A [`Tracer`] belongs to one thread at a time and keeps its spans in its
//! own vector; nothing is written until the run ends ([`write_trace`]). A
//! span names the layer (a crate of the workspace) and the call, its start
//! and end in nanoseconds since the run's epoch, the span that caused it
//! (an index into the same tracer's vector) and the op it served. A layer's
//! time is *self time*: a span's duration minus what its child spans cover
//! ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The crate the call enters (`passes`, `vm`, ...), or `bench` for the
    /// harness's own root spans.
    pub layer: &'static str,
    /// The call (`loop-unroll`, `run`, `compile_guest`, ...).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The op this span served.
    pub op: u32,
}

/// Exact counts taken where the work happens. Every field is a sum over
/// the ops of one round, so two runs of the same op list must agree bit for
/// bit (the one float, `ir_size_ratio_ln`, is summed in op order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub src_bytes: u64,
    pub pass_runs: u64,
    pub pass_changed: u64,
    /// Σ `Module::size()` entering each pass invocation.
    pub pass_ir_insts: u64,
    /// Σ ln(post-pipeline size ÷ base size), and how many pipelines.
    pub ir_size_ratio_ln: f64,
    pub pipelines: u64,
    /// Σ `Module::size()` entering codegen.
    pub codegen_ir_insts: u64,
    pub insts_emitted: u64,
    pub spilled_vregs: u64,
    pub instret: u64,
    pub total_cycles: u64,
    pub paging_cycles: u64,
    pub segments: u64,
    pub probe_hits: u64,
    pub probe_misses: u64,
    pub traces_formed: u64,
    pub trace_exits: u64,
    pub rows: u64,
    pub padded_rows: u64,
    pub segments_proved: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.src_bytes += o.src_bytes;
        self.pass_runs += o.pass_runs;
        self.pass_changed += o.pass_changed;
        self.pass_ir_insts += o.pass_ir_insts;
        self.ir_size_ratio_ln += o.ir_size_ratio_ln;
        self.pipelines += o.pipelines;
        self.codegen_ir_insts += o.codegen_ir_insts;
        self.insts_emitted += o.insts_emitted;
        self.spilled_vregs += o.spilled_vregs;
        self.instret += o.instret;
        self.total_cycles += o.total_cycles;
        self.paging_cycles += o.paging_cycles;
        self.segments += o.segments;
        self.probe_hits += o.probe_hits;
        self.probe_misses += o.probe_misses;
        self.traces_formed += o.traces_formed;
        self.trace_exits += o.trace_exits;
        self.rows += o.rows;
        self.padded_rows += o.padded_rows;
        self.segments_proved += o.segments_proved;
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    pub counts: Counts,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; tracers of one run
    /// share the epoch so their spans line up across threads.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Counts::default(),
        }
    }

    /// Spans recorded from now on serve op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span. Spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// How many spans are open: what [`Tracer::close_to`] restores after a
    /// caught panic unwound through some of them.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened beyond `depth`, ending them now.
    pub fn close_to(&mut self, depth: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        for index in self.open.drain(depth..) {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Drop everything recorded, keeping the allocations for the next round.
    pub fn reset(&mut self) {
        assert!(self.open.is_empty(), "reset inside an open span");
        self.spans.clear();
        self.counts = Counts::default();
    }
}

/// The tracers of one traced run. A single-threaded workload takes one out
/// for the whole round; `tune_cold`'s fitness closure takes one per call
/// from whichever worker thread it runs on, so at most `threads` exist and
/// each is used by one thread at a time.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    idle: Mutex<Vec<Tracer>>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            epoch: Instant::now(),
            idle: Mutex::new(Vec::new()),
        }
    }

    pub fn take(&self) -> Tracer {
        self.idle
            .lock()
            .expect("no tracer user panics while holding the pool")
            .pop()
            .unwrap_or_else(|| Tracer::new(self.epoch))
    }

    pub fn give(&self, t: Tracer) {
        self.idle
            .lock()
            .expect("no tracer user panics while holding the pool")
            .push(t);
    }

    /// All tracers, for reading after a round (none may be taken out).
    pub fn tracers(&mut self) -> &mut Vec<Tracer> {
        self.idle
            .get_mut()
            .expect("no tracer user panics while holding the pool")
    }
}

/// Self time of every span of one tracer, in span order: its duration minus
/// the durations of its direct children. Children of one parent never
/// overlap (a tracer is single-threaded and spans nest), so the subtraction
/// is exact and the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let child = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(child);
        }
    }
    own
}

/// Summed self time per `(op, layer, name)` over any number of tracers,
/// nanoseconds.
pub fn self_time_by_call<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<(u32, &'static str, &'static str), u64> {
    let mut out = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans.iter().zip(self_times(&t.spans)) {
            *out.entry((s.op, s.layer, s.name)).or_insert(0) += own;
        }
    }
    out
}

/// Write labelled tracers' spans as one JSON document: thread by thread,
/// each span with its parent's index *within that thread's list*.
///
/// # Errors
/// Any I/O error, including the final flush.
pub fn write_trace<'a>(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    threads: impl IntoIterator<Item = (&'a str, &'a Tracer)>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"ns\", \"threads\": [",
        crate::json::string(workload)
    )?;
    for (ti, (label, t)) in threads.into_iter().enumerate() {
        let comma = if ti == 0 { "" } else { "," };
        write!(
            w,
            "{comma}\n {{\"thread\": {ti}, \"phase\": {}, \"spans\": [",
            crate::json::string(label)
        )?;
        for (si, s) in t.spans.iter().enumerate() {
            let comma = if si == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{comma}\n  {{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}",
                crate::json::string(&format!("{}.{}", s.layer, s.name)),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        write!(w, "\n ]}}")?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 50, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn tracer_links_parents_and_tags_ops() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let v = t.span("bench", "op", |t| {
            t.span("passes", "gvn", |_| ());
            t.span("vm", "run", |t| t.span("vm", "inner", |_| 42))
        });
        assert_eq!(v, 42);
        let parents: Vec<Option<u32>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        // Children lie inside their parent.
        for s in &t.spans {
            if let Some(p) = s.parent {
                let p = &t.spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        t.reset();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_sums_across_threads() {
        let probe = Probe::new();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut t = probe.take();
                    t.span("bench", "op", |t| {
                        t.span("vm", "run", |_| std::hint::black_box(1 + 1));
                    });
                    probe.give(t);
                });
            }
        });
        let mut probe = probe;
        let tracers = probe.tracers();
        assert!(!tracers.is_empty() && tracers.len() <= 2);
        assert_eq!(tracers.iter().map(|t| t.spans.len()).sum::<usize>(), 4);
        let by_call = self_time_by_call(tracers.iter());
        let total: u64 = by_call.values().sum();
        let roots: u64 = tracers
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(total, roots, "self times tile the roots on every thread");
        assert!(by_call.contains_key(&(0, "vm", "run")));
    }

    #[test]
    fn counts_add_fieldwise() {
        let a = Counts {
            pass_runs: 3,
            instret: 10,
            ir_size_ratio_ln: 0.5,
            ..Counts::default()
        };
        let mut b = Counts {
            pass_runs: 4,
            padded_rows: 8,
            ..Counts::default()
        };
        b.add(&a);
        assert_eq!((b.pass_runs, b.instret, b.padded_rows), (7, 10, 8));
        assert_eq!(b.ir_size_ratio_ln, 0.5);
    }
}
