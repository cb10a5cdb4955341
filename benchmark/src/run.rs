//! One benchmark run: harness inputs, the phases on fresh servers,
//! post-window verification, and the metrics of `BENCHMARK.json`.

use crate::phase::{self, Book, Ctx, Mode, PhaseOutcome, PublishLog, Publisher, Tally};
use crate::probe::{self, LayerCosts, Metrics, Timed, KINDS};
use crate::system::{self, History};
use crate::workload::{self, Inputs, Kind, Spec};
use hft_obs::registry::RegistryDelta;
use hft_serve::api::{Request, Response};
use hft_serve::binwire;
use hft_serve::{Handler, Service, ShardRouter};
use hft_uls::shard::ShardStrategy;
use std::time::Instant;

/// Command-line settings of a run.
pub struct Args {
    /// The workload.
    pub spec: &'static Spec,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds, split between the closed and open loops.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// A run's verdict and metrics, plus the per-phase record lines.
pub struct Report {
    /// Every answer was the right one: no wrong bytes, no unexpected
    /// `Error`, no request lost. An `Overloaded` refusal is a correct
    /// protocol answer; it counts as failed and as an SLO miss instead.
    pub correct: bool,
    /// Requests attempted over every timed phase.
    pub attempted: u64,
    /// Failed requests over every timed phase.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Metrics,
    /// One JSON object per phase.
    pub phases: Vec<String>,
    /// The hash of the generated request list.
    pub requests_fnv64: u64,
}

/// Handler time per kind from a timed phase: `(calls, ns)`.
type KindTimes = [(u64, u64); 9];

/// One served phase and its set-up time.
struct Served {
    name: &'static str,
    mode: Mode,
    out: PhaseOutcome,
    setup_s: f64,
    kinds: Option<KindTimes>,
}

/// Run `mode` on a freshly built system. Set-up time covers corpus
/// generation, index (and fleet) build, bind, warm pass and the first
/// timed answer.
fn serve(
    ctx: &Ctx<'_>,
    name: &'static str,
    mode: Mode,
    seconds: f64,
    timed: bool,
) -> Result<Served, String> {
    let began = Instant::now();
    let corpus = system::corpus();
    let (out, kinds, build_s) = if ctx.spec.kind == Kind::FleetIngest {
        let h = system::history(&corpus.db)?;
        drop(corpus);
        let applier = system::seeded_applier(&h)?;
        let store = system::fleet(&applier);
        let router = ShardRouter::over(&store);
        let publisher = Publisher::new(&store, applier, &h.batches[h.half..]);
        let build_s = began.elapsed().as_secs_f64();
        let (out, kinds) = run_on(
            ctx,
            &router,
            mode,
            seconds,
            Some(publisher),
            Some(&store),
            timed,
        )?;
        (out, kinds, build_s)
    } else {
        let service = Service::new(&corpus.db);
        let build_s = began.elapsed().as_secs_f64();
        let (out, kinds) = run_on(ctx, &service, mode, seconds, None, None, timed)?;
        (out, kinds, build_s)
    };
    Ok(Served {
        name,
        mode,
        setup_s: build_s + out.setup_tail_s,
        out,
        kinds,
    })
}

fn run_on(
    ctx: &Ctx<'_>,
    handler: &dyn Handler,
    mode: Mode,
    seconds: f64,
    publisher: Option<Publisher<'_>>,
    fleet: Option<&hft_ingest::ShardedStore>,
    timed: bool,
) -> Result<(PhaseOutcome, Option<KindTimes>), String> {
    if !timed {
        return Ok((
            phase::run(ctx, handler, mode, seconds, publisher, fleet)?,
            None,
        ));
    }
    let t = Timed::new(handler);
    let out = phase::run(ctx, &t, mode, seconds, publisher, fleet)?;
    Ok((out, Some(std::array::from_fn(|k| t.kind(k)))))
}

/// Nearest-rank quantile of sorted samples, and how many lie above it.
fn quantile(sorted: &[u64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    (sorted[rank] as f64, sorted.len() - rank - 1)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Sum of every counter whose name is `base` or `base{...}` (shard
/// labelled series included).
fn counter_family(d: &RegistryDelta, base: &str) -> u64 {
    d.counters
        .iter()
        .filter(|(n, _)| n == base || n.starts_with(&format!("{base}{{")))
        .map(|(_, v)| v)
        .sum()
}

fn delta(out: &PhaseOutcome) -> RegistryDelta {
    hft_obs::registry::delta(&out.before, &out.after)
}

/// Verify deferred answers after the window and fold the verdicts in.
fn settle(inputs: &Inputs, history: Option<&History>, t: &mut Tally) -> Result<(), String> {
    let deferred = std::mem::take(&mut t.deferred);
    match history {
        Some(h) => system::verify_fleet(inputs, h, deferred, t),
        None => {
            system::verify_unique(inputs, deferred, t);
            Ok(())
        }
    }
}

fn phase_record(spec: &Spec, s: &Served) -> String {
    let t = &s.out.tally;
    let outcome = match s.mode {
        Mode::Closed => format!(
            "\"loop\": \"closed\", \"throughput_rps\": {}",
            throughput(s)
        ),
        Mode::Open => {
            let l = open_latency(spec, t);
            format!(
                "\"loop\": \"open\", \"p50_ms\": {}, \"p99_ms\": {}, \"beyond_p99\": {}, \
                 \"slo_share\": {}",
                l.p50_ms, l.p99_ms, l.beyond_p99, l.slo_share
            )
        }
        Mode::SetupOnly => "\"loop\": \"none\"".to_string(),
    };
    format!(
        "{{\"phase\": \"{}\", {outcome}, \"sent\": {}, \"succeeded\": {}, \
         \"failed\": {}, \"wrong\": {}, \"errors\": {}, \"overloaded\": {}, \"io\": {}, \
         \"retried\": {}, \"unpinned\": {}, \"seconds\": {}, \"setup_s\": {}, \
         \"rss_mb\": {}, \"latency_samples\": {}, \"first_failure\": {}}}",
        s.name,
        t.sent,
        t.ok,
        t.failed(),
        t.wrong,
        t.errors,
        t.overloaded,
        t.io,
        t.retried,
        t.unpinned,
        s.out.elapsed_s,
        s.setup_s,
        s.out.rss_mb,
        t.latencies_ns.len() + t.unpinned_latencies_ns.len(),
        t.first_failure
            .as_deref()
            .map_or("null".to_string(), |f| format!("{f:?}")),
    )
}

/// Execute one run.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = args.spec;
    let closed_s = args.seconds * spec.closed_share;
    let open_s = args.seconds - closed_s;

    // Harness-only inputs: the request list and its reference bytes,
    // computed before any timed window and kept as bytes only.
    let harness = system::corpus();
    let (mix, history) = match spec.kind {
        Kind::Lookup => (workload::lookup_mix(&harness.connected), None),
        Kind::Weather => (workload::weather_mix(&harness.connected), None),
        Kind::FleetIngest => {
            let h = system::history(&harness.db)?;
            let all: Vec<&str> = h.licensees.iter().map(|s| s.as_str()).collect();
            let names = workload::fleet_licensees(&harness.connected, &all);
            (workload::fleet_mix(&names), Some(h))
        }
    };
    let inputs = Inputs::new(spec, mix, args.seed, open_s);
    let book = match spec.kind {
        Kind::FleetIngest => Book::new(&inputs.mix, None)?,
        _ => Book::new(&inputs.mix, Some(&Service::new(&harness.db)))?,
    };
    drop(harness);
    let ctx = Ctx {
        spec,
        inputs: &inputs,
        book: &book,
    };

    let mut phases = if args.trace {
        vec![
            serve(&ctx, "closed-untraced", Mode::Closed, closed_s, false)?,
            serve(&ctx, "closed-traced", Mode::Closed, closed_s, true)?,
            serve(&ctx, "open-traced", Mode::Open, open_s, true)?,
        ]
    } else {
        vec![
            serve(&ctx, "closed", Mode::Closed, closed_s, false)?,
            serve(&ctx, "open", Mode::Open, open_s, false)?,
            serve(&ctx, "setup", Mode::SetupOnly, 0.0, false)?,
            serve(&ctx, "setup", Mode::SetupOnly, 0.0, false)?,
            serve(&ctx, "setup", Mode::SetupOnly, 0.0, false)?,
        ]
    };
    for s in &mut phases {
        settle(&inputs, history.as_ref(), &mut s.out.tally)?;
    }
    let attempted: u64 = phases.iter().map(|s| s.out.tally.sent).sum();
    let failed: u64 = phases.iter().map(|s| s.out.tally.failed()).sum();
    let refused: u64 = phases.iter().map(|s| s.out.tally.overloaded).sum();
    let metrics = if args.trace {
        per_layer(&ctx, &phases, history.as_ref())?
    } else {
        end_to_end(spec, &phases)
    };
    Ok(Report {
        correct: failed == refused && attempted > 0,
        attempted,
        failed,
        metrics,
        phases: phases.iter().map(|s| phase_record(spec, s)).collect(),
        requests_fnv64: inputs.digest(spec.conns.len()),
    })
}

/// The closed-loop phase's verified answers per second.
fn throughput(s: &Served) -> f64 {
    ratio(s.out.tally.ok as f64, s.out.elapsed_s)
}

/// Open-loop latency from due time over every answered request:
/// (p50 ms, p99 ms, samples above p99), and the share of requests sent
/// answered correctly within the workload's latency limit.
struct OpenLatency {
    p50_ms: f64,
    p99_ms: f64,
    beyond_p99: usize,
    slo_share: f64,
}

fn open_latency(spec: &Spec, t: &Tally) -> OpenLatency {
    let mut answered: Vec<u64> = t
        .latencies_ns
        .iter()
        .chain(&t.unpinned_latencies_ns)
        .copied()
        .collect();
    answered.sort_unstable();
    let limit_ns = spec.limit_ms * 1e6;
    let in_slo = t
        .latencies_ns
        .iter()
        .filter(|&&l| (l as f64) <= limit_ns)
        .count();
    let (p99, beyond_p99) = quantile(&answered, 0.99);
    OpenLatency {
        p50_ms: quantile(&answered, 0.50).0 / 1e6,
        p99_ms: p99 / 1e6,
        beyond_p99,
        slo_share: ratio(in_slo as f64, t.sent as f64),
    }
}

/// The bounded metrics: the open loop's SLO share, the median set-up
/// time, and the resident set at the end of the closed-loop window (the
/// first timed window, when the process has served only one system).
fn end_to_end(spec: &Spec, phases: &[Served]) -> Metrics {
    let (closed, open) = (&phases[0].out, &phases[1].out);
    vec![
        (
            "slo_share".into(),
            open_latency(spec, &open.tally).slo_share,
            "ratio",
        ),
        (
            "setup_s".into(),
            median(phases.iter().map(|s| s.setup_s).collect()),
            "s",
        ),
        ("rss_mb".into(), closed.rss_mb, "MiB"),
    ]
}

/// Freshness quantiles of a publish log, ms.
fn freshness(log: &PublishLog) -> (f64, f64) {
    let mut f = log.freshness_ns.clone();
    f.sort_unstable();
    (quantile(&f, 0.5).0 / 1e6, quantile(&f, 0.9).0 / 1e6)
}

fn per_layer(
    ctx: &Ctx<'_>,
    phases: &[Served],
    history: Option<&History>,
) -> Result<Metrics, String> {
    let (untraced, traced, open) = (&phases[0], &phases[1], &phases[2]);
    let kinds = traced.kinds.expect("the traced phase is timed");
    let mut m: Metrics = Vec::new();
    let mix = &ctx.inputs.mix;

    // The probe system: the workload's corpus (the fleet's generation 0).
    let full = system::corpus();
    let gen0 = match history {
        Some(h) => Some(system::seeded_applier(h)?),
        None => None,
    };
    let db = gen0.as_ref().map_or(&full.db, |a| a.db());
    let answers: Vec<Response> = if ctx.book.expected.is_empty() {
        let s = Service::new(db);
        mix.iter().map(|r| s.handle(r)).collect()
    } else {
        ctx.book
            .expected
            .iter()
            .map(|e| binwire::decode_response(&e[1]).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    };
    probe::codec(mix, &answers, &mut m);

    // Transport: wake-ups and buffer reuse in the untraced closed loop.
    let d = delta(&untraced.out);
    let wakes = d.histogram("serve.poll_wake_ns");
    let (hits, misses) = (
        d.counter("serve.bufpool_hits"),
        d.counter("serve.bufpool_misses"),
    );
    m.push(("evloop.poll_wake_ns".into(), wakes.mean(), "ns"));
    m.push((
        "evloop.wakes_per_request".into(),
        ratio(wakes.count as f64, untraced.out.tally.sent as f64),
        "count",
    ));
    m.push((
        "evloop.bufpool_hit_rate".into(),
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    ));

    // Admission queue under the open loop.
    let qw = &open.out.queue_wait;
    m.push((
        "pool.queue_wait_p50_us".into(),
        qw.percentile(0.50) as f64 / 1e3,
        "us",
    ));
    m.push((
        "pool.queue_wait_p99_us".into(),
        qw.percentile(0.99) as f64 / 1e3,
        "us",
    ));
    let rejected: u64 = phases
        .iter()
        .map(|s| counter_family(&delta(&s.out), "serve.rejected_overloaded"))
        .sum();
    m.push(("pool.rejected_overloaded".into(), rejected as f64, "count"));

    // Single-flight in the untraced closed loop.
    let led = counter_family(&d, "serve.flights_led");
    let coalesced = counter_family(&d, "serve.flights_coalesced");
    m.push(("singleflight.led".into(), led as f64, "count"));
    m.push(("singleflight.coalesced".into(), coalesced as f64, "count"));
    m.push((
        "singleflight.coalesce_ratio".into(),
        ratio(coalesced as f64, (led + coalesced) as f64),
        "ratio",
    ));

    // Direct calls into each layer.
    let mut costs = LayerCosts::default();
    probe::session(db, mix, &mut costs, &mut m);
    probe::monte_carlo(&full, &mut costs, &mut m);
    let td = delta(&traced.out);
    let mc_hits = td.counter(&hft_obs::registry::labeled(
        "race.mc_cache",
        "outcome",
        "hit",
    ));
    let mc_misses = td.counter(&hft_obs::registry::labeled(
        "race.mc_cache",
        "outcome",
        "miss",
    ));
    m.push((
        "race.mc_cache_hit_rate".into(),
        ratio(mc_hits as f64, (mc_hits + mc_misses) as f64),
        "ratio",
    ));
    let weather_sent: Vec<&workload::Arrival> = ctx
        .inputs
        .schedule
        .iter()
        .filter(|a| matches!(mix[a.idx], Request::Weather { .. }))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let repeated = weather_sent
        .iter()
        .filter(|a| !seen.insert(binwire::encode_request(&ctx.inputs.request(a.idx, a.seed))))
        .count();
    m.push((
        "weather.mc_repeat_share".into(),
        ratio(repeated as f64, weather_sent.len() as f64),
        "ratio",
    ));
    probe::uls(db, mix, &mut costs, &mut m);
    let store = match &gen0 {
        Some(a) => system::fleet(a),
        None => hft_ingest::ShardedStore::seeded(
            db,
            workload::FLEET_SHARDS,
            ShardStrategy::LicenseeHash,
            None,
        ),
    };
    let router = ShardRouter::over(&store);
    probe::router(&router, mix, &mut costs, &mut m);

    // Handler time per kind; kinds the mix lacks are timed by a direct
    // warm call on a service over the full corpus.
    let direct = Service::new(&full.db);
    let catalog: Vec<Request> = mix
        .iter()
        .cloned()
        .chain(workload::weather_mix(&full.connected))
        .collect();
    for (k, name) in KINDS.iter().enumerate() {
        let (n, ns) = kinds[k];
        let us = if n > 0 {
            ns as f64 / n as f64 / 1e3
        } else {
            let req = catalog
                .iter()
                .find(|r| r.kind() == *name)
                .expect("the catalog covers every kind");
            probe::warm_handle_us(&direct, req)
        };
        m.push((format!("service.handle_us.{name}"), us, "us"));
    }
    let handler_ns = kinds.iter().map(|k| k.1).sum::<u64>() as f64;
    m.push((
        "service.transport_share".into(),
        1.0 - ratio(handler_ns, traced.out.tally.client_ns as f64),
        "ratio",
    ));

    // Ingest: the fleet's own publisher under load, or a direct replay.
    let log = match history {
        Some(_) => open.out.publish.clone(),
        None => probe::ingest(&full.db, 64)?,
    };
    let mean_of = |xs: &[u64]| ratio(xs.iter().sum::<u64>() as f64, xs.len() as f64);
    m.push(("ingest.apply_us".into(), mean_of(&log.apply_ns) / 1e3, "us"));
    m.push((
        "ingest.publish_ms".into(),
        mean_of(&log.publish_ns) / 1e6,
        "ms",
    ));
    m.push(("ingest.generations".into(), log.generations as f64, "count"));
    let (f50, f90) = freshness(&log);
    m.push(("freshness_p50_ms".into(), f50, "ms"));
    m.push(("freshness_p90_ms".into(), f90, "ms"));
    let (ok, unpinned): (u64, u64) = phases.iter().fold((0, 0), |(a, b), s| {
        (a + s.out.tally.ok, b + s.out.tally.unpinned)
    });
    m.push((
        "fleet.unpinned_share".into(),
        ratio(unpinned as f64, (ok + unpinned) as f64),
        "ratio",
    ));

    // End-to-end figures too unsteady on the seed to carry a bound:
    // closed-loop throughput and open-loop latency percentiles.
    m.push(("throughput_rps".into(), throughput(untraced), "req/s"));
    let l = open_latency(ctx.spec, &open.out.tally);
    m.push(("p50_ms".into(), l.p50_ms, "ms"));
    m.push(("p99_ms".into(), l.p99_ms, "ms"));

    // Harness.
    let mut lag = open.out.tally.lag_ns.clone();
    lag.sort_unstable();
    m.push((
        "loadgen.lag_p99_ms".into(),
        quantile(&lag, 0.99).0 / 1e6,
        "ms",
    ));
    let (plain, with) = (throughput(untraced), throughput(traced));
    m.push((
        "bench.trace_overhead_pct".into(),
        100.0 * ratio(plain - with, plain),
        "%",
    ));
    let (attempted, failed) = phases.iter().fold((0, 0), |(a, f), s| {
        (a + s.out.tally.sent, f + s.out.tally.failed())
    });
    m.push((
        "failed_share".into(),
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));

    if history.is_none() {
        // No router serves this workload: broadcasts pay no scatter.
        costs.scatter_overhead_us = 0.0;
    }
    ledger(&kinds, &costs, &td, &mut m);
    Ok(m)
}

/// Attribute the traced closed loop's handler time to layers, using
/// each kind's direct-call cost in the cache state the server saw
/// (cold shares from the session counters), capped at the time the
/// handler actually took for that kind.
fn ledger(kinds: &KindTimes, c: &LayerCosts, d: &RegistryDelta, m: &mut Metrics) {
    let rebuilt = d.counter("session.reconstructions") as f64;
    let net_cold = ratio(rebuilt, rebuilt + d.counter("session.network_hits") as f64);
    let misses = d.counter("session.route_misses") as f64;
    let route_cold = ratio(misses, misses + d.counter("session.route_hits") as f64);
    let mix = |cold: f64, warm: f64, share: f64| share * cold + (1.0 - share) * warm;
    const LAYERS: [&str; 5] = ["session", "uls", "weather", "race", "router"];
    // Per kind: µs per call in each layer.
    let per_kind: [[f64; 5]; 9] = [
        [
            mix(c.network_cold_us, c.network_warm_us, net_cold),
            0.0,
            0.0,
            0.0,
            0.0,
        ],
        [
            mix(
                c.graph_cold_us + c.route_cold_us,
                c.route_warm_us,
                route_cold,
            ),
            0.0,
            0.0,
            0.0,
            0.0,
        ],
        [
            mix(c.graph_cold_us + c.apa_cold_us, c.apa_warm_us, route_cold),
            0.0,
            0.0,
            0.0,
            0.0,
        ],
        [0.0, c.geographic_us, 0.0, 0.0, c.scatter_overhead_us],
        [0.0, c.site_search_us, 0.0, 0.0, c.scatter_overhead_us],
        [
            mix(c.scrape_cold_us, c.scrape_warm_us, net_cold),
            0.0,
            0.0,
            0.0,
            c.scatter_overhead_us,
        ],
        [0.0, 0.0, c.mc_us, 0.0, 0.0],
        [0.0, 0.0, 0.0, c.race_warm_us, 0.0],
        [0.0, 0.0, 0.0, c.sweep_warm_us, 0.0],
    ];
    let total_ns: f64 = kinds.iter().map(|k| k.1 as f64).sum();
    let mut shares = [0.0f64; 5];
    for (k, &(n, ns)) in kinds.iter().enumerate() {
        let layer_ns: Vec<f64> = per_kind[k].iter().map(|us| us * 1e3 * n as f64).collect();
        let claimed: f64 = layer_ns.iter().sum();
        let scale = if claimed > ns as f64 {
            ns as f64 / claimed
        } else {
            1.0
        };
        for (l, v) in layer_ns.iter().enumerate() {
            shares[l] += ratio(v * scale, total_ns);
        }
    }
    for (l, name) in LAYERS.iter().enumerate() {
        m.push((format!("ledger.{name}_share"), shares[l], "ratio"));
    }
    m.push((
        "ledger.unattributed_share".into(),
        1.0 - shares.iter().sum::<f64>(),
        "ratio",
    ));
}
