//! In-memory span tracer for the traced run.
//!
//! A span records its name, start, end, parent and op id. Spans nest per
//! thread: the innermost open span on a thread is the parent of the next
//! one opened there. Closing a span folds it into per-name aggregates
//! (calls, total time, self time, allocations) so that the per-layer
//! metrics never need the raw records; the first [`SPAN_CAP`] raw records
//! are also kept and can be written out with [`write_spans`] at the end.
//!
//! Self time is a span's duration minus the time its child spans cover.
//! Children always close before their parent on the same thread, so the
//! covered time is the sum of the children's durations.
//!
//! Every thread that opens a span registers its state once; the state sits
//! behind a mutex only that thread locks on the hot path, so the threaded
//! runtime's worker threads can be traced and their data read after they
//! exit.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::alloc;

macro_rules! span_names {
    ($($variant:ident => $text:literal),* $(,)?) => {
        /// Every span the benchmark records, one per layer boundary.
        /// Each variant is documented by its dotted name.
        #[allow(missing_docs)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Name { $($variant),* }

        impl Name {
            /// All names, in index order.
            pub const ALL: &'static [Name] = &[$(Name::$variant),*];

            /// The dotted name used in metrics and span files.
            pub fn as_str(self) -> &'static str {
                match self { $(Name::$variant => $text),* }
            }
        }
    };
}

span_names! {
    NetPump => "net.pump",
    NetInject => "net.inject",
    ServerGetTs => "core.server.get_ts",
    ServerWrite => "core.server.write",
    ServerRead => "core.server.read",
    ServerFlush => "core.server.flush",
    ServerCompleteRead => "core.server.complete_read",
    ServerOther => "core.server.other",
    ServerTimer => "core.server.timer",
    ClientTsReply => "core.client.ts_reply",
    ClientWriteAck => "core.client.write_ack",
    ClientReply => "core.client.reply",
    ClientFlushAck => "core.client.flush_ack",
    ClientInvoke => "core.client.invoke",
    ClientOther => "core.client.other",
    ClientTimer => "core.client.timer",
    LabelsNext => "labels.next",
    StorageAppend => "storage.append",
    StorageSync => "storage.sync",
    StorageSnapshot => "storage.snapshot",
    SpecCheck => "spec.check",
    ExplorerStart => "explorer.start",
    ExplorerEnabled => "explorer.enabled",
    ExplorerStep => "explorer.step",
    ExplorerFinish => "explorer.finish",
    ExplorerDigest => "explorer.digest",
}

const NAMES: usize = Name::ALL.len();

/// Raw span records kept for [`write_spans`], across all threads.
pub const SPAN_CAP: usize = 200_000;

/// Per-name totals of closed spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Allocations made inside the span but outside its children.
    pub self_allocs: u64,
    /// Bytes requested by those allocations.
    pub self_bytes: u64,
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    id: u64,
    parent: u64,
    name: Name,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: Name,
    id: u64,
    parent: u64,
    op: u64,
    start: Instant,
    allocs0: (u64, u64),
    child_ns: u64,
    child_allocs: (u64, u64),
}

struct ThreadTrace {
    thread: u64,
    next_id: u64,
    stack: Vec<Open>,
    agg: [Agg; NAMES],
    /// `precedes` calls keyed by the enclosing span (`NAMES` = no span).
    precedes: [u64; NAMES + 1],
    storage_bytes: u64,
    spans: Vec<SpanRec>,
    /// First span opened and last span closed since the last reset.
    window: Option<(Instant, Instant)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicUsize = AtomicUsize::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadTrace>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadTrace>>>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn with_local<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    let state = LOCAL.with(|slot| {
        slot.borrow_mut()
            .get_or_insert_with(|| {
                let mut reg = REGISTRY.lock().expect("tracer registry poisoned");
                let state = Arc::new(Mutex::new(ThreadTrace {
                    thread: reg.len() as u64,
                    next_id: 1,
                    stack: Vec::new(),
                    agg: [Agg::default(); NAMES],
                    precedes: [0; NAMES + 1],
                    storage_bytes: 0,
                    spans: Vec::new(),
                    window: None,
                }));
                reg.push(state.clone());
                state
            })
            .clone()
    });
    let mut guard = state.lock().expect("thread trace poisoned");
    f(&mut guard)
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when the guard is dropped"]
pub struct Span {
    active: bool,
}

/// Open a span named `name` for operation `op` (0 when the span belongs to
/// no single operation). A no-op while tracing is disabled.
pub fn enter(name: Name, op: u64) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    with_local(|t| {
        let id = (t.thread << 40) | t.next_id;
        t.next_id += 1;
        let parent = t.stack.last().map_or(0, |o| o.id);
        let start = Instant::now();
        t.window.get_or_insert((start, start));
        t.stack.push(Open {
            name,
            id,
            parent,
            op,
            start,
            allocs0: alloc::thread_counts(),
            child_ns: 0,
            child_allocs: (0, 0),
        });
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        with_local(|t| {
            let end = Instant::now();
            let (a, b) = alloc::thread_counts();
            let Some(open) = t.stack.pop() else { return };
            let dur = ns(end.duration_since(open.start));
            let allocs = (a - open.allocs0.0, b - open.allocs0.1);
            let agg = &mut t.agg[open.name as usize];
            agg.calls += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(open.child_ns);
            agg.self_allocs += allocs.0.saturating_sub(open.child_allocs.0);
            agg.self_bytes += allocs.1.saturating_sub(open.child_allocs.1);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += dur;
                parent.child_allocs.0 += allocs.0;
                parent.child_allocs.1 += allocs.1;
            }
            if let Some((first, _)) = t.window {
                t.window = Some((first, end));
            }
            if RECORDED.fetch_add(1, Ordering::Relaxed) < SPAN_CAP {
                let base = epoch();
                t.spans.push(SpanRec {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    op: open.op,
                    start_ns: ns(open.start.saturating_duration_since(base)),
                    end_ns: ns(end.saturating_duration_since(base)),
                });
            }
        });
    }
}

/// Count one `precedes` call against the innermost open span.
pub fn count_precedes() {
    if !enabled() {
        return;
    }
    with_local(|t| {
        let slot = t.stack.last().map_or(NAMES, |o| o.name as usize);
        t.precedes[slot] += 1;
    });
}

/// Count `n` bytes handed to stable storage.
pub fn add_storage_bytes(n: u64) {
    if !enabled() {
        return;
    }
    with_local(|t| t.storage_bytes += n);
}

/// Totals merged over every thread since the last [`reset`].
#[derive(Clone, Debug)]
pub struct Summary {
    agg: [Agg; NAMES],
    precedes: [u64; NAMES + 1],
    /// Bytes handed to stable storage (snapshot and append payloads).
    pub storage_bytes: u64,
    /// Sum over threads of the time from a thread's first span opening to
    /// its last span closing.
    pub active_ns: u64,
    /// Raw span records kept.
    pub spans_kept: u64,
    /// Spans closed in total (kept or not).
    pub spans_closed: u64,
}

impl Summary {
    /// Aggregate for one span name.
    pub fn get(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Sum of the aggregates of several names.
    pub fn sum(&self, names: &[Name]) -> Agg {
        names.iter().fold(Agg::default(), |mut acc, &n| {
            let a = self.get(n);
            acc.calls += a.calls;
            acc.total_ns += a.total_ns;
            acc.self_ns += a.self_ns;
            acc.self_allocs += a.self_allocs;
            acc.self_bytes += a.self_bytes;
            acc
        })
    }

    /// `precedes` calls made directly under a span whose name satisfies
    /// `pred` (`None` = outside every span).
    pub fn precedes_under(&self, pred: impl Fn(Option<Name>) -> bool) -> u64 {
        let mut total = 0;
        for (i, &n) in self.precedes.iter().enumerate() {
            if pred(Name::ALL.get(i).copied()) {
                total += n;
            }
        }
        total
    }
}

/// Merge every thread's totals.
pub fn summary() -> Summary {
    let reg = REGISTRY.lock().expect("tracer registry poisoned");
    let mut s = Summary {
        agg: [Agg::default(); NAMES],
        precedes: [0; NAMES + 1],
        storage_bytes: 0,
        active_ns: 0,
        spans_kept: 0,
        spans_closed: 0,
    };
    for state in reg.iter() {
        let t = state.lock().expect("thread trace poisoned");
        for (acc, a) in s.agg.iter_mut().zip(t.agg.iter()) {
            acc.calls += a.calls;
            acc.total_ns += a.total_ns;
            acc.self_ns += a.self_ns;
            acc.self_allocs += a.self_allocs;
            acc.self_bytes += a.self_bytes;
            s.spans_closed += a.calls;
        }
        for (acc, p) in s.precedes.iter_mut().zip(t.precedes.iter()) {
            *acc += p;
        }
        s.storage_bytes += t.storage_bytes;
        if let Some((first, last)) = t.window {
            s.active_ns += ns(last.saturating_duration_since(first));
        }
        s.spans_kept += t.spans.len() as u64;
    }
    s
}

/// Forget every total and raw record (open spans stay open).
pub fn reset() {
    let reg = REGISTRY.lock().expect("tracer registry poisoned");
    for state in reg.iter() {
        let mut t = state.lock().expect("thread trace poisoned");
        t.agg = [Agg::default(); NAMES];
        t.precedes = [0; NAMES + 1];
        t.storage_bytes = 0;
        t.spans.clear();
        t.window = None;
    }
    RECORDED.store(0, Ordering::SeqCst);
}

/// Write the kept raw spans as tab-separated lines: thread, id, parent
/// (0 = none), name, op id (0 = none), start and end in nanoseconds since
/// the tracer's epoch.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tid\tparent\tname\top\tstart_ns\tend_ns")?;
    let reg = REGISTRY.lock().expect("tracer registry poisoned");
    let mut written = 0;
    for state in reg.iter() {
        let t = state.lock().expect("thread trace poisoned");
        for s in &t.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.thread,
                s.id,
                s.parent,
                s.name.as_str(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}
