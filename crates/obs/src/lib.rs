//! Workspace-wide observability with zero external dependencies.
//!
//! Four pillars, sized for a hot path that must not notice them:
//!
//! * **Metrics** — monotonic [`Counter`]s, signed [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (HDR-style: fixed memory, bounded
//!   relative error; [`HistogramSnapshot`] is the plain form that
//!   records and merges without atomics). Recording is a few relaxed
//!   atomic operations; handles are resolved once from the global
//!   [`Registry`] and cached, so the hot path never touches a lock.
//! * **Spans** — scoped guards ([`span`]) that capture nested timing
//!   trees per thread; cross-thread legs are stitched back with
//!   [`capture_from`] and [`graft`].
//! * **Traces** — a [`TraceContext`] minted at admission
//!   ([`TraceContext::mint`]) rides the request through queues, worker
//!   pools and shard fan-outs. The per-thread flight recorder
//!   ([`trace_snapshot`], [`find_trace`]) is the one store of finished
//!   trees: it keeps a tree that was head-sampled at 1/N or whose root
//!   crossed the slow threshold (traced or not, counted in
//!   `obs.slow_queries`), and drops the rest.
//! * **Exposition** — deterministic JSON ([`expo::render_json`]) and
//!   Prometheus-style text ([`expo::render_prometheus`]) of a
//!   [`RegistrySnapshot`], with histogram p50/p90/p99/p999.
//!
//! A process-wide kill switch ([`set_enabled`]) turns every recording
//! path into an early return; the overhead bench compares it against
//! the enabled default to bound instrumentation cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{global, HistDelta, HistSummary, Registry, RegistryDelta, RegistrySnapshot};
pub use span::{
    annotate, capture_from, child_span, current_root_start, graft, set_slow_threshold_ns,
    slow_threshold_ns, span, span_sharded, trace_root, SpanGuard, SpanRecord, SpanTree,
};
pub use trace::{
    clear_traces, find_trace, format_trace_id, parse_trace_id, set_trace_sample_every,
    trace_sample_every, trace_snapshot, TraceContext, TraceRecord,
};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide recording switch. Disabling turns every counter, gauge,
/// histogram and span record into an early return (structural state the
/// callers keep themselves — e.g. per-server snapshots — is unaffected).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
