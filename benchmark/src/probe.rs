//! The traced run's layer timings, taken from outside the program: a
//! timing [`Handler`] wrapper around the served handler, and direct
//! calls into each layer's public functions on the workload's inputs.

use crate::phase::{answer_bytes, PublishLog, Publisher};
use crate::system::{self, Corpus};
use crate::workload::weather_mix;
use hft_core::session::AnalysisSession;
use hft_core::weather;
use hft_geodesy::LatLon;
use hft_race::RaceEngine;
use hft_radio::WeatherSampler;
use hft_serve::api::{Request, Response};
use hft_serve::binwire::{self, Proto};
use hft_serve::service::data_center;
use hft_serve::{Handler, ServeStats, ShardRouter};
use hft_uls::scrape::ScrapeConfig;
use hft_uls::{RadioService, StationClass, UlsDatabase, UlsPortal};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The request kinds the ledger attributes, in report order.
pub const KINDS: [&str; 9] = [
    "network",
    "route",
    "apa",
    "geographic",
    "site_search",
    "shortlist",
    "weather",
    "race",
    "stretch_sweep",
];

fn kind_index(req: &Request) -> Option<usize> {
    KINDS.iter().position(|k| *k == req.kind())
}

/// A [`Handler`] wrapper timing every `handle` call by request kind.
pub struct Timed<'a> {
    inner: &'a dyn Handler,
    count: [AtomicU64; 9],
    sum_ns: [AtomicU64; 9],
}

impl<'a> Timed<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Handler) -> Timed<'a> {
        Timed {
            inner,
            count: Default::default(),
            sum_ns: Default::default(),
        }
    }

    /// Calls and total handler time (ns) of kind `k`.
    pub fn kind(&self, k: usize) -> (u64, u64) {
        (
            self.count[k].load(Ordering::Relaxed),
            self.sum_ns[k].load(Ordering::Relaxed),
        )
    }
}

impl Handler for Timed<'_> {
    fn handle(&self, req: &Request) -> Response {
        let t = Instant::now();
        let resp = self.inner.handle(req);
        if let Some(k) = kind_index(req) {
            self.count[k].fetch_add(1, Ordering::Relaxed);
            self.sum_ns[k].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        resp
    }

    fn serve_stats(&self) -> &ServeStats {
        self.inner.serve_stats()
    }
}

/// Mean ns of `f` over `reps` calls.
fn mean_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// Wall time of one call, ns, and its result.
fn once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as f64, out)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Named measurements: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Codec cost and answer size over the mix, both protocols.
pub fn codec(mix: &[Request], answers: &[Response], out: &mut Metrics) {
    let reps = (20_000 / mix.len().max(1)).max(1);
    let json_req: Vec<Vec<u8>> = mix.iter().map(|r| r.encode()).collect();
    let bin_req: Vec<Vec<u8>> = mix.iter().map(binwire::encode_request).collect();
    let per_op = |ns: f64| ns / mix.len() as f64;
    let bin_dec = mean_ns(reps, || {
        for b in &bin_req {
            black_box(binwire::decode_request(black_box(b)).ok());
        }
    });
    let json_dec = mean_ns(reps, || {
        for b in &json_req {
            black_box(Request::decode(black_box(b)).ok());
        }
    });
    let mut buf = Vec::new();
    let bin_enc = mean_ns(reps, || {
        for a in answers {
            buf.clear();
            binwire::encode_response_into(black_box(a), &mut buf);
            black_box(&buf);
        }
    });
    let json_enc = mean_ns(reps, || {
        for a in answers {
            black_box(black_box(a).encode());
        }
    });
    let size = |p: Proto| {
        mean(
            &answers
                .iter()
                .map(|a| answer_bytes(p, a).len() as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.push(("codec.bin.decode_ns".into(), per_op(bin_dec), "ns"));
    out.push(("codec.bin.encode_ns".into(), per_op(bin_enc), "ns"));
    out.push(("codec.json.decode_ns".into(), per_op(json_dec), "ns"));
    out.push(("codec.json.encode_ns".into(), per_op(json_enc), "ns"));
    out.push((
        "codec.bin.response_bytes".into(),
        size(Proto::Binary),
        "bytes",
    ));
    out.push((
        "codec.json.response_bytes".into(),
        size(Proto::Json),
        "bytes",
    ));
}

/// Direct-call costs per request kind in the state a warmed server
/// serves them from, µs: the ledger's attribution table.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    /// `session.network` + `active_count`, cold and warm.
    pub network_cold_us: f64,
    /// See `network_cold_us`.
    pub network_warm_us: f64,
    /// `session.routing_graph` with the network warm.
    pub graph_cold_us: f64,
    /// `session.route` with the graph warm, then warm.
    pub route_cold_us: f64,
    /// See `route_cold_us`.
    pub route_warm_us: f64,
    /// `session.apa` with the graph warm, then warm.
    pub apa_cold_us: f64,
    /// See `apa_cold_us`.
    pub apa_warm_us: f64,
    /// `session.scrape`, cold and warm.
    pub scrape_cold_us: f64,
    /// See `scrape_cold_us`.
    pub scrape_warm_us: f64,
    /// `UlsPortal::geographic_search`.
    pub geographic_us: f64,
    /// `UlsPortal::site_search`.
    pub site_search_us: f64,
    /// `weather::conditional_latency_on`, 60k samples.
    pub mc_us: f64,
    /// `RaceEngine::race`, cold and cached.
    pub race_cold_us: f64,
    /// See `race_cold_us`.
    pub race_warm_us: f64,
    /// `RaceEngine::stretch_sweep`, warm.
    pub sweep_warm_us: f64,
    /// Broadcast `ShardRouter::handle` minus the slowest shard's.
    pub scatter_overhead_us: f64,
}

fn pair(
    from: &str,
    to: &str,
) -> (
    &'static hft_core::corridor::DataCenter,
    &'static hft_core::corridor::DataCenter,
) {
    (
        data_center(from).expect("workload data centers resolve"),
        data_center(to).expect("workload data centers resolve"),
    )
}

/// Time the session layer on a fresh [`AnalysisSession`]: every
/// distinct key of the mix once cold and once warm.
pub fn session(db: &UlsDatabase, mix: &[Request], costs: &mut LayerCosts, out: &mut Metrics) {
    let session = AnalysisSession::new(db);
    let (mut net_cold, mut net_warm) = (Vec::new(), Vec::new());
    let (mut graph, mut route_cold, mut route_warm, mut apa_cold, mut apa_warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut scrape_cold, mut scrape_warm) = (Vec::new(), Vec::new());
    let mut seen = std::collections::HashSet::new();
    for req in mix {
        if !seen.insert(binwire::encode_request(req)) {
            continue;
        }
        if let Request::Network { licensee, date } = req {
            let call = || {
                black_box(session.network(licensee, *date));
                black_box(session.active_count(licensee, *date));
            };
            net_cold.push(once(call).0);
            net_warm.push(once(call).0);
        }
    }
    for req in mix {
        if let Request::Route {
            licensee,
            date,
            from,
            to,
        } = req
        {
            if !seen.insert(format!("graph|{licensee}|{date:?}|{from}|{to}").into_bytes()) {
                continue;
            }
            let (a, b) = pair(from, to);
            black_box(session.network(licensee, *date));
            graph.push(once(|| black_box(session.routing_graph(licensee, *date, a, b))).0);
            route_cold.push(once(|| black_box(session.route(licensee, *date, a, b))).0);
            route_warm.push(once(|| black_box(session.route(licensee, *date, a, b))).0);
            apa_cold.push(once(|| black_box(session.apa(licensee, *date, a, b))).0);
            apa_warm.push(once(|| black_box(session.apa(licensee, *date, a, b))).0);
        }
    }
    for req in mix {
        if let Request::Shortlist {
            lat_deg,
            lon_deg,
            radius_km,
            min_filings,
        } = req
        {
            let Ok(center) = LatLon::new(*lat_deg, *lon_deg) else {
                continue;
            };
            let config = ScrapeConfig {
                radius_km: *radius_km,
                min_filings: *min_filings,
            };
            scrape_cold.push(once(|| black_box(session.scrape(&center, &config))).0);
            scrape_warm.push(once(|| black_box(session.scrape(&center, &config))).0);
        }
    }
    let stats = session.stats();
    let hits = stats.network_hits + stats.route_hits + stats.apa_hits + stats.graph_hits;
    let misses = stats.reconstructions + stats.route_misses + stats.apa_misses + stats.graph_misses;
    let us = |xs: &[f64]| mean(xs) / 1e3;
    costs.network_cold_us = us(&net_cold);
    costs.network_warm_us = us(&net_warm);
    costs.graph_cold_us = us(&graph);
    costs.route_cold_us = us(&route_cold);
    costs.route_warm_us = us(&route_warm);
    costs.apa_cold_us = us(&apa_cold);
    costs.apa_warm_us = us(&apa_warm);
    costs.scrape_cold_us = us(&scrape_cold);
    costs.scrape_warm_us = us(&scrape_warm);
    out.push((
        "session.network_cold_ms".into(),
        costs.network_cold_us / 1e3,
        "ms",
    ));
    out.push((
        "session.network_warm_us".into(),
        costs.network_warm_us,
        "us",
    ));
    out.push((
        "session.graph_cold_ms".into(),
        costs.graph_cold_us / 1e3,
        "ms",
    ));
    out.push((
        "session.route_cold_ms".into(),
        costs.route_cold_us / 1e3,
        "ms",
    ));
    out.push(("session.apa_cold_ms".into(), costs.apa_cold_us / 1e3, "ms"));
    out.push((
        "session.scrape_cold_ms".into(),
        costs.scrape_cold_us / 1e3,
        "ms",
    ));
    out.push((
        "session.reconstructions".into(),
        stats.reconstructions as f64,
        "count",
    ));
    out.push((
        "session.hit_rate".into(),
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
}

/// Time the portal's indexed searches on the mix's search requests.
pub fn uls(db: &UlsDatabase, mix: &[Request], costs: &mut LayerCosts, out: &mut Metrics) {
    let geo: Vec<(LatLon, f64)> = mix
        .iter()
        .filter_map(|r| match r {
            Request::Geographic {
                lat_deg,
                lon_deg,
                radius_km,
            } => LatLon::new(*lat_deg, *lon_deg)
                .ok()
                .map(|c| (c, *radius_km)),
            _ => None,
        })
        .collect();
    let sites: Vec<(RadioService, StationClass)> = mix
        .iter()
        .filter_map(|r| match r {
            Request::SiteSearch { service, class } => Some((
                RadioService::from_code(service),
                StationClass::from_code(class),
            )),
            _ => None,
        })
        .collect();
    let reps = 2000;
    costs.geographic_us = mean_ns(reps, || {
        for (c, r) in &geo {
            black_box(db.geographic_search(c, *r));
        }
    }) / geo.len().max(1) as f64
        / 1e3;
    costs.site_search_us = mean_ns(reps / 10, || {
        for (s, c) in &sites {
            black_box(db.site_search(s, c));
        }
    }) / sites.len().max(1) as f64
        / 1e3;
    out.push(("uls.geographic_search_us".into(), costs.geographic_us, "us"));
    out.push(("uls.site_search_us".into(), costs.site_search_us, "us"));
}

/// Time the §5 Monte-Carlo and the race engine on the full corpus, at
/// the weather workload's first hot key.
pub fn monte_carlo(corpus: &Corpus, costs: &mut LayerCosts, out: &mut Metrics) {
    let session = AnalysisSession::new(&corpus.db);
    let mix = weather_mix(&corpus.connected);
    let (licensee, date, from, to) = mix
        .iter()
        .find_map(|r| match r {
            Request::Weather {
                licensee,
                date,
                from,
                to,
                ..
            } => Some((licensee.clone(), *date, from.clone(), to.clone())),
            _ => None,
        })
        .expect("the weather mix has Monte-Carlo requests");
    let (a, b) = pair(&from, &to);
    let net = session.network(&licensee, date);
    let rg = session.routing_graph(&licensee, date, a, b);
    let sampler = WeatherSampler::stormy_season();
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            once(|| {
                black_box(weather::conditional_latency_on(
                    &rg, &net, a, b, &sampler, 60_000, 7,
                ))
            })
            .0
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    costs.mc_us = runs[1] / 1e3;
    let engine = RaceEngine::new();
    let race = || {
        black_box(
            engine
                .race(&session, &licensee, date, a, b, "starlink", 20_000, 7)
                .ok(),
        )
    };
    costs.race_cold_us = once(race).0 / 1e3;
    costs.race_warm_us = once(race).0 / 1e3;
    let sweep = || {
        black_box(
            engine
                .stretch_sweep(&session, &licensee, date, "starlink")
                .ok(),
        )
    };
    once(sweep);
    costs.sweep_warm_us = once(sweep).0 / 1e3;
    out.push(("weather.mc_ms".into(), costs.mc_us / 1e3, "ms"));
    out.push(("race.race_cold_ms".into(), costs.race_cold_us / 1e3, "ms"));
}

/// Time a 4-shard router on the mix's point and broadcast requests,
/// and each broadcast against its slowest shard leg.
pub fn router(router: &ShardRouter, mix: &[Request], costs: &mut LayerCosts, out: &mut Metrics) {
    let reps = 20;
    let (mut point, mut broadcast, mut overhead, mut skew) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for req in mix {
        match req {
            Request::Weather { .. } | Request::Race { .. } | Request::StretchSweep { .. } => {
                continue
            }
            Request::Geographic { .. } | Request::SiteSearch { .. } | Request::Shortlist { .. } => {
                black_box(router.handle(req));
                let whole = mean_ns(reps, || {
                    black_box(router.handle(req));
                });
                let legs: Vec<f64> = router
                    .shards()
                    .iter()
                    .map(|shard| {
                        black_box(Handler::handle(shard, req));
                        mean_ns(reps, || {
                            black_box(Handler::handle(shard, req));
                        })
                    })
                    .collect();
                let slowest = legs.iter().copied().fold(0.0, f64::max);
                broadcast.push(whole);
                overhead.push(whole - slowest);
                skew.push(slowest / mean(&legs).max(1.0));
            }
            _ => {
                black_box(router.handle(req));
                point.push(mean_ns(reps, || {
                    black_box(router.handle(req));
                }));
            }
        }
    }
    costs.scatter_overhead_us = mean(&overhead) / 1e3;
    out.push(("router.point_us".into(), mean(&point) / 1e3, "us"));
    out.push(("router.broadcast_us".into(), mean(&broadcast) / 1e3, "us"));
    out.push((
        "router.scatter_overhead_us".into(),
        costs.scatter_overhead_us,
        "us",
    ));
    out.push(("router.shard_skew".into(), mean(&skew), "ratio"));
}

/// Replay `batches` batches of history back to back into a fresh
/// fleet, for workloads that do not ingest while serving.
pub fn ingest(db: &UlsDatabase, batches: usize) -> Result<PublishLog, String> {
    let h = system::history(db)?;
    let applier = system::seeded_applier(&h)?;
    let store = system::fleet(&applier);
    let replay = &h.batches[h.half..];
    let mut p = Publisher::new(&store, applier, &replay[..batches.min(replay.len())]);
    p.replay_all()?;
    Ok(p.log)
}

/// A handler's time on one request, warm: one call, then the timed one.
pub fn warm_handle_us(handler: &dyn Handler, req: &Request) -> f64 {
    black_box(handler.handle(req));
    once(|| black_box(handler.handle(req))).0 / 1e3
}
