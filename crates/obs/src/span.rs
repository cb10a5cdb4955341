//! Lightweight span tracing: scoped guards capture nested timing trees
//! per thread, and a finished tree worth keeping is filed into the
//! flight recorder ([`crate::trace`]).
//!
//! # Model
//!
//! [`span`] opens a span on the current thread and returns a guard;
//! dropping the guard closes it. Guards nest lexically (they are
//! `!Send` scope guards), so the per-thread open stack always closes in
//! LIFO order and a finished tree can never contain an orphaned span.
//! When the *root* guard drops, the whole tree is finalized at once and
//! moved into the flight recorder iff it was head-sampled (its
//! [`trace_root`] context says so) or its root lasted at least
//! [`slow_threshold_ns`]. A slow root also bumps `obs.slow_queries` in
//! the global registry; a slow tree opened without a trace context is
//! filed under a fresh id, labelled with its root span's name. Any
//! other tree is dropped.
//!
//! Trees are per thread by construction; cross-thread requests are
//! stitched explicitly: a scatter worker runs under [`capture_from`]
//! (same time origin as the caller's root) and the caller [`graft`]s
//! the returned subtree under its own open span, so a fan-out request
//! still finalizes as one tree on the coordinating thread.
//!
//! All bookkeeping is thread-local; the only shared state touched on a
//! hot path is one relaxed load of the kill switch, and the recorder's
//! (per-thread, uncontended) mutex is taken only when a kept tree
//! completes.

use crate::trace::{TraceContext, TraceRecord};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default slow threshold: 50 ms.
const DEFAULT_SLOW_NS: u64 = 50_000_000;

static SLOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_NS);

/// Set the root-duration threshold (ns) at or above which a completed
/// tree is kept in the flight recorder and counted as slow.
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns, Ordering::SeqCst);
}

/// The current slow threshold in nanoseconds.
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// One closed span inside a [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (dotted taxonomy, e.g. `serve.request`).
    pub name: &'static str,
    /// Index of the parent span within the tree; `None` for the root.
    pub parent: Option<u32>,
    /// Start offset from the root's start, ns.
    pub start_ns: u64,
    /// Duration, ns (u64: negative durations cannot be represented).
    pub dur_ns: u64,
    /// Shard the span ran against, when the work was shard-addressed
    /// (scatter legs, routed single-shard calls).
    pub shard: Option<u32>,
}

/// A completed per-thread span tree, root first, parents before
/// children (preorder by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The spans; index 0 is the root.
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }

    /// Total duration (the root's), ns.
    pub fn total_ns(&self) -> u64 {
        self.root().dur_ns
    }

    /// Structural validity: exactly one root at index 0, every parent
    /// precedes its child, and every child runs within its parent's
    /// window. Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("empty tree".to_string());
        }
        if self.spans[0].parent.is_some() {
            return Err("span 0 is not a root".to_string());
        }
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let Some(p) = s.parent else {
                return Err(format!("span {i} ({}) is an orphaned second root", s.name));
            };
            let p = p as usize;
            if p >= i {
                return Err(format!("span {i} ({}) has forward parent {p}", s.name));
            }
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns
                || s.start_ns + s.dur_ns > parent.start_ns + parent.dur_ns
            {
                return Err(format!(
                    "span {i} ({}) [{}, +{}] escapes parent {} ({}) [{}, +{}]",
                    s.name, s.start_ns, s.dur_ns, p, parent.name, parent.start_ns, parent.dur_ns
                ));
            }
        }
        Ok(())
    }

    /// An indented one-span-per-line rendering for logs.
    pub fn render(&self) -> String {
        let mut depth = vec![0usize; self.spans.len()];
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                depth[i] = depth[p as usize] + 1;
            }
            for _ in 0..depth[i] {
                out.push_str("  ");
            }
            out.push_str(s.name);
            out.push(' ');
            out.push_str(&format_ns(s.dur_ns));
            if let Some(shard) = s.shard {
                out.push_str(&format!(" [shard {shard}]"));
            }
            out.push('\n');
        }
        out
    }
}

/// Human-scale duration rendering (`873ns`, `14.2us`, `3.4ms`, `1.20s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

struct ThreadSpans {
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    root_start: Option<Instant>,
    /// Trace identity the current tree was opened with ([`trace_root`]).
    trace: Option<(TraceContext, &'static str)>,
    /// When set, the finishing tree is stashed in `captured` for the
    /// caller of [`capture_from`] instead of being filed.
    capture: bool,
    captured: Option<SpanTree>,
}

thread_local! {
    static TLS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            spans: Vec::new(),
            open: Vec::new(),
            root_start: None,
            trace: None,
            capture: false,
            captured: None,
        })
    };
}

/// Open a span on the current thread; with `nested_only`, only when a
/// tree is already open here.
fn open_span(name: &'static str, shard: Option<u32>, nested_only: bool) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::new(false);
    }
    let active = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if nested_only && t.open.is_empty() {
            return false;
        }
        let start_ns = match t.root_start {
            Some(root) => root.elapsed().as_nanos() as u64,
            None => {
                t.root_start = Some(Instant::now());
                0
            }
        };
        let parent = t.open.last().copied();
        let idx = t.spans.len() as u32;
        t.spans.push(SpanRecord {
            name,
            parent,
            start_ns,
            dur_ns: 0,
            shard,
        });
        t.open.push(idx);
        true
    });
    SpanGuard::new(active)
}

/// Open a span named `name` on the current thread. Close it by
/// dropping the guard; guards must nest lexically (the guard is not
/// `Send` and should be bound to a scope).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None, false)
}

/// Like [`span`], tagging the record with the shard the work is
/// addressed to (scatter legs, routed single-shard calls).
#[inline]
pub fn span_sharded(name: &'static str, shard: u32) -> SpanGuard {
    open_span(name, Some(shard), false)
}

/// Like [`span`], but records only when a tree is already open on this
/// thread. A lone child would otherwise finalize as a single-span root
/// tree — full tree bookkeeping (two clock reads, finalize) for a
/// record nothing can attribute to a request. Use it for hot-path
/// markers (single-flight legs, cache-hit markers) that are only
/// meaningful inside an enclosing traced request.
pub fn child_span(name: &'static str) -> SpanGuard {
    open_span(name, None, true)
}

/// Open a **traced root** span: the tree's time origin is backdated to
/// `started` (typically the instant the request was admitted, so queue
/// wait falls inside the window), and the finished tree is filed into
/// the flight recorder under `ctx` when head-sampled or slow. `label`
/// names the request kind on the resulting trace record.
///
/// If a tree is already open on this thread the call degrades to a
/// plain child [`span`] — nested roots cannot re-origin the clock.
pub fn trace_root(
    name: &'static str,
    label: &'static str,
    ctx: TraceContext,
    started: Instant,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::new(false);
    }
    let fresh = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.open.is_empty() {
            return false;
        }
        t.root_start = Some(started);
        if ctx.trace_id != 0 {
            t.trace = Some((ctx, label));
        }
        t.spans.push(SpanRecord {
            name,
            parent: None,
            start_ns: 0,
            dur_ns: 0,
            shard: None,
        });
        t.open.push(0);
        true
    });
    if !fresh {
        return span(name);
    }
    SpanGuard::new(true)
}

/// Attach a pre-measured, already-closed child span to the innermost
/// open span (no-op when no span is open). `start_ns` is the offset
/// from the current tree's time origin. Used for intervals measured
/// before the tree existed, e.g. queue wait under a [`trace_root`]
/// backdated to the enqueue instant.
pub fn annotate(name: &'static str, start_ns: u64, dur_ns: u64) {
    if !crate::enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(&parent) = t.open.last() else {
            return;
        };
        t.spans.push(SpanRecord {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns,
            shard: None,
        });
    });
}

/// The time origin of the tree currently open on this thread, if any.
/// Scatter coordinators pass it to worker threads so captured subtrees
/// share the same clock (see [`capture_from`] / [`graft`]).
pub fn current_root_start() -> Option<Instant> {
    if !crate::enabled() {
        return None;
    }
    TLS.with(|t| {
        let t = t.borrow();
        if t.open.is_empty() {
            None
        } else {
            t.root_start
        }
    })
}

/// Run `f` under a span named `name` on the *current* thread and return
/// the finished subtree instead of filing it, with every span offset
/// measured from `base` (the coordinating thread's root origin). The
/// caller moves the subtree back and [`graft`]s it under its own tree.
/// `shard` is stamped on every captured span that has no shard yet.
///
/// If this thread already has a tree open the subtree cannot be
/// re-origined; `f` runs under a plain [`span`] and `None` is returned.
pub fn capture_from<R>(
    name: &'static str,
    base: Instant,
    shard: Option<u32>,
    f: impl FnOnce() -> R,
) -> (R, Option<SpanTree>) {
    if !crate::enabled() {
        return (f(), None);
    }
    let fresh = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.open.is_empty() {
            return false;
        }
        t.root_start = Some(base);
        t.capture = true;
        true
    });
    if !fresh {
        let _nested = span(name);
        return (f(), None);
    }
    let r = {
        let _root = span(name);
        f()
    };
    let mut tree = TLS.with(|t| t.borrow_mut().captured.take());
    if let Some(tree) = tree.as_mut() {
        for s in &mut tree.spans {
            if s.shard.is_none() {
                s.shard = shard;
            }
        }
    }
    (r, tree)
}

/// Append a subtree captured by [`capture_from`] (same time origin)
/// under the innermost open span of the current thread's tree. No-op
/// when no span is open.
pub fn graft(tree: SpanTree) {
    if !crate::enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(&parent) = t.open.last() else {
            return;
        };
        let offset = t.spans.len() as u32;
        for mut s in tree.spans {
            s.parent = match s.parent {
                None => Some(parent),
                Some(p) => Some(p + offset),
            };
            t.spans.push(s);
        }
    });
}

/// The scope guard returned by [`span`]; dropping it closes the span.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn new(active: bool) -> SpanGuard {
        SpanGuard {
            active,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let finished = TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(idx) = t.open.pop() else {
                return None; // tree was torn down mid-flight; ignore
            };
            let end_ns = t
                .root_start
                .map(|root| root.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            let rec = &mut t.spans[idx as usize];
            rec.dur_ns = end_ns.saturating_sub(rec.start_ns);
            if !t.open.is_empty() {
                return None;
            }
            // Root closed: take the whole tree.
            let spans = std::mem::take(&mut t.spans);
            t.root_start = None;
            let trace = t.trace.take();
            let tree = SpanTree { spans };
            if t.capture {
                // A capture_from subtree: hand it back, don't file it.
                t.capture = false;
                t.captured = Some(tree);
                return None;
            }
            Some((tree, trace))
        });
        let Some((tree, trace)) = finished else {
            return;
        };
        let total_ns = tree.total_ns();
        let slow = total_ns >= slow_threshold_ns();
        if slow {
            crate::global().counter("obs.slow_queries").incr();
        }
        let (ctx, label) = trace.unwrap_or((TraceContext::none(), tree.root().name));
        if ctx.sampled || slow {
            crate::trace::record(TraceRecord {
                trace_id: match ctx.trace_id {
                    0 => crate::trace::next_id().1,
                    id => id,
                },
                label,
                sampled: ctx.sampled,
                slow,
                total_ns,
                tree,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests touching the flight recorder and the process-global
    // knobs live in tests/span_tree.rs (their own process); here only
    // pure helpers.

    #[test]
    fn check_rejects_malformed_trees() {
        let root = SpanRecord {
            name: "r",
            parent: None,
            start_ns: 0,
            dur_ns: 100,
            shard: None,
        };
        assert!(SpanTree { spans: vec![] }.check().is_err());
        assert!(SpanTree {
            spans: vec![root.clone()]
        }
        .check()
        .is_ok());
        // Orphaned second root.
        assert!(SpanTree {
            spans: vec![root.clone(), root.clone()]
        }
        .check()
        .is_err());
        // Child escaping its parent's window.
        let bad_child = SpanRecord {
            name: "c",
            parent: Some(0),
            start_ns: 90,
            dur_ns: 20,
            shard: None,
        };
        assert!(SpanTree {
            spans: vec![root.clone(), bad_child]
        }
        .check()
        .is_err());
        // Well-nested child.
        let good_child = SpanRecord {
            name: "c",
            parent: Some(0),
            start_ns: 10,
            dur_ns: 50,
            shard: Some(3),
        };
        let tree = SpanTree {
            spans: vec![root, good_child],
        };
        tree.check().unwrap();
        let rendered = tree.render();
        assert!(rendered.contains("r 100ns"));
        assert!(rendered.contains("  c 50ns [shard 3]"));
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(873), "873ns");
        assert_eq!(format_ns(14_200), "14.2us");
        assert_eq!(format_ns(3_400_000), "3.4ms");
        assert_eq!(format_ns(1_200_000_000), "1.20s");
    }
}
