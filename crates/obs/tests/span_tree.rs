//! Span-tree retention: the flight recorder keeps a finished tree
//! exactly when it was head-sampled or slow, exactly once, and a forced
//! slow request yields a well-formed tree — no orphaned or
//! negative-duration spans.
//!
//! Runs as its own test binary because it owns the process-global
//! tracing knobs (slow threshold, kill switch) and the flight recorder.

use hft_obs::{
    clear_traces, set_enabled, set_slow_threshold_ns, span, trace_root, trace_snapshot,
    TraceContext, TraceRecord,
};
use std::time::{Duration, Instant};

/// The canonical request shape:
/// `serve.request > singleflight.wait > session.networks > route.apa`,
/// opened under `ctx` when given (a traced root labelled `geographic`).
fn run_request(ctx: Option<TraceContext>, slow: bool) {
    let _root = match ctx {
        Some(ctx) => trace_root("serve.request", "geographic", ctx, Instant::now()),
        None => span("serve.request"),
    };
    {
        let _wait = span("singleflight.wait");
        if slow {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    {
        let _net = span("session.networks");
        let _apa = span("route.apa");
        if slow {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn traced(trace_id: u128, sampled: bool) -> Option<TraceContext> {
    Some(TraceContext { trace_id, sampled })
}

fn kept() -> Vec<TraceRecord> {
    trace_snapshot(usize::MAX)
}

fn slow_count() -> u64 {
    hft_obs::global().counter("obs.slow_queries").value()
}

// One test function: the tracing knobs (threshold, kill switch) and the
// recorder are process-global, so concurrent #[test]s would race on
// them.
#[test]
fn recorder_keeps_sampled_and_slow_trees_exactly_once() {
    clear_traces();
    set_slow_threshold_ns(u64::MAX);

    // Fast trees that were not head-sampled are not kept.
    for _ in 0..10 {
        run_request(None, false);
    }
    run_request(traced(42, false), false);
    assert!(kept().is_empty(), "fast unsampled trees are dropped");

    // A head-sampled fast traced tree is kept exactly once.
    run_request(traced(7, true), false);
    let recs = kept();
    assert_eq!(recs.len(), 1, "{recs:?}");
    assert_eq!(recs[0].trace_id, 7);
    assert_eq!(recs[0].label, "geographic");
    assert!(recs[0].sampled && !recs[0].slow);
    assert_eq!(recs[0].tree.spans.len(), 4);
    recs[0]
        .tree
        .check()
        .expect("sampled trees are well-formed too");

    // A slow traced tree is kept exactly once, marked slow; two slow
    // untraced trees are kept under fresh, distinct, nonzero ids with
    // their root span's name as the label. Each bumps obs.slow_queries.
    clear_traces();
    let slow_before = slow_count();
    set_slow_threshold_ns(1_000_000); // 1 ms, far below the forced 10 ms
    run_request(traced(8, false), true);
    run_request(None, true);
    run_request(None, true);
    set_slow_threshold_ns(u64::MAX);
    assert_eq!(slow_count() - slow_before, 3, "every slow root is counted");
    let recs = kept();
    assert_eq!(recs.len(), 3, "{recs:?}");
    assert!(recs.iter().all(|r| r.slow));
    let traced_slow: Vec<&TraceRecord> = recs.iter().filter(|r| r.trace_id == 8).collect();
    assert_eq!(traced_slow.len(), 1, "the slow traced tree is kept once");
    assert_eq!(traced_slow[0].label, "geographic");
    assert!(!traced_slow[0].sampled);
    let untraced: Vec<&TraceRecord> = recs.iter().filter(|r| r.trace_id != 8).collect();
    assert_eq!(untraced.len(), 2);
    assert_ne!(untraced[0].trace_id, untraced[1].trace_id, "ids are unique");
    for rec in &untraced {
        assert_ne!(rec.trace_id, 0);
        assert!(!rec.sampled);
        assert_eq!(rec.label, "serve.request");
    }

    // Well-formed: single root, parents precede children, children
    // nest inside their parent's window (durations are u64, so a
    // negative duration cannot even be represented; `check` verifies
    // the windows are consistent).
    let tree = &untraced[0].tree;
    tree.check().expect("tree must be well-formed");
    let names: Vec<&str> = tree.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "serve.request",
            "singleflight.wait",
            "session.networks",
            "route.apa"
        ]
    );
    assert_eq!(tree.spans[0].parent, None);
    assert_eq!(tree.spans[1].parent, Some(0));
    assert_eq!(tree.spans[2].parent, Some(0));
    assert_eq!(tree.spans[3].parent, Some(2), "route.apa nests in networks");
    assert!(tree.total_ns() >= 10_000_000, "two 5 ms sleeps inside");
    assert_eq!(untraced[0].total_ns, tree.total_ns());
    assert!(tree.spans[1].dur_ns <= tree.total_ns());

    // The rendering indents by depth.
    let rendered = tree.render();
    assert!(rendered.starts_with("serve.request "));
    assert!(rendered.contains("\n  singleflight.wait "));
    assert!(rendered.contains("\n    route.apa "));

    // The kill switch suppresses capture altogether, sampled or slow.
    clear_traces();
    set_enabled(false);
    run_request(traced(9, true), false);
    set_slow_threshold_ns(0);
    run_request(None, false);
    set_slow_threshold_ns(u64::MAX);
    set_enabled(true);
    assert!(kept().is_empty(), "disabled spans record nothing");

    // Re-enabled, capture resumes.
    run_request(traced(10, true), false);
    assert_eq!(kept().len(), 1);
}
