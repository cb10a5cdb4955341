//! The §5 reliability argument as a runnable experiment.
//!
//! The paper *argues* that Webline Holdings survives against faster
//! competitors because its shorter links, lower frequencies and higher
//! APA make it more reliable: "one network may be able to dominate
//! another in fair weather, but a more reliable network may be faster at
//! other times." This module quantifies that claim: sample corridor
//! weather states, fail the links whose rain attenuation exceeds their
//! fade margin, and recompute each network's conditional latency.

use crate::corridor::DataCenter;
use crate::route::RoutingGraph;
use crate::Network;
use hft_netgraph::EdgeId;
use hft_radio::{
    effective_path_length_km, rain_coefficients, LinkOutageModel, WeatherEvent, WeatherSampler,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Distribution summary of a network's latency across weather states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherOutcome {
    /// Clear-sky latency, ms.
    pub clear_ms: f64,
    /// Median conditional latency, ms (disconnected samples count as ∞).
    pub p50_ms: f64,
    /// 95th-percentile conditional latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile conditional latency, ms.
    pub p99_ms: f64,
    /// Fraction of weather states in which the network stays connected.
    pub availability: f64,
    /// Number of sampled weather states.
    pub samples: usize,
}

/// Run the weather Monte Carlo for `network` between two data centers.
///
/// Each sample draws a corridor weather state from `sampler`; every
/// microwave link whose rain attenuation (at its length and lowest
/// authorized frequency) exceeds its clear-air fade margin is removed,
/// and the route re-solved. Deterministic in `seed`.
pub fn conditional_latency(
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    conditional_latency_on(
        &RoutingGraph::build(network, a, b),
        network,
        a,
        b,
        sampler,
        samples,
        seed,
    )
}

/// [`conditional_latency`] over a pre-built routing graph, so callers
/// holding a cached graph (e.g. an analysis session) skip the rebuild.
/// `rg` must have been built for `network` between `a` and `b`.
///
/// The entire Monte Carlo is a pure function of `seed`: the RNG is
/// constructed here from the seed and threaded explicitly through
/// [`conditional_latency_rng`] — no ambient entropy anywhere — so two
/// runs with the same inputs are bit-identical.
pub fn conditional_latency_on(
    rg: &RoutingGraph,
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    conditional_latency_rng(rg, network, a, b, sampler, samples, &mut rng)
}

/// [`conditional_latency_on`] with the weather-state RNG threaded in by
/// the caller, for composing the MC into a larger deterministic
/// experiment (one seeded stream shared across several runs).
pub fn conditional_latency_rng<R: Rng + ?Sized>(
    rg: &RoutingGraph,
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    rng: &mut R,
) -> Option<WeatherOutcome> {
    let mut kernel = Kernel::new(rg, network, a, b)?;
    let latencies = (0..samples)
        .map(|_| {
            let state = sampler.sample(rng);
            kernel.latency_ms(state.as_ref()).unwrap_or(f64::INFINITY)
        })
        .collect();
    Some(summarize(latencies, kernel.clear_ms))
}

/// The §5 closing thought, quantified: "The most competitive trading
/// firms may even use a combination of both services to maintain their
/// advantage in varied conditions." Evaluates a *portfolio* of networks
/// against one shared sequence of weather states, taking the best
/// available latency in each state.
pub fn portfolio_latency(
    networks: &[&Network],
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    portfolio_latency_rng(networks, a, b, sampler, samples, &mut rng)
}

/// [`portfolio_latency`] with the RNG threaded in by the caller (same
/// contract as [`conditional_latency_rng`]: no ambient entropy).
pub fn portfolio_latency_rng<R: Rng + ?Sized>(
    networks: &[&Network],
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    rng: &mut R,
) -> Option<WeatherOutcome> {
    if networks.is_empty() {
        return None;
    }
    let graphs: Vec<RoutingGraph> = networks
        .iter()
        .map(|net| RoutingGraph::build(net, a, b))
        .collect();
    let mut members = graphs
        .iter()
        .zip(networks)
        .map(|(rg, net)| Kernel::new(rg, net, a, b))
        .collect::<Option<Vec<_>>>()?;

    // Each sample's best latency over the members that stay connected.
    let latencies = (0..samples)
        .map(|_| {
            let state = sampler.sample(rng);
            members
                .iter_mut()
                .filter_map(|m| m.latency_ms(state.as_ref()))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let clear_ms = members
        .iter()
        .map(|m| m.clear_ms)
        .fold(f64::INFINITY, f64::min);
    Some(summarize(latencies, clear_ms))
}

/// Quantiles and availability of one run's per-sample latencies
/// (disconnected samples are `f64::INFINITY`).
fn summarize(mut latencies: Vec<f64>, clear_ms: f64) -> WeatherOutcome {
    let samples = latencies.len();
    let connected = latencies.iter().filter(|ms| ms.is_finite()).count();
    latencies.sort_unstable_by(|x, y| x.partial_cmp(y).expect("INF sorts fine"));
    let q = |p: f64| latencies[((p * samples as f64) as usize).min(samples - 1)];
    WeatherOutcome {
        clear_ms,
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        p99_ms: q(0.99),
        availability: connected as f64 / samples as f64,
        samples,
    }
}

/// Slack around the rain cell when selecting the links to test, as a
/// fraction of corridor length. Far above the rounding error of
/// `rain_at`'s `|x − center| < half_width` near 1.0, so the window is a
/// superset of the links that can see rain; `rain_at` still decides.
const CELL_PAD: f64 = 1e-9;

/// Relative slack of [`McLink::survives_below_mm_h`]: many orders of
/// magnitude above the few-ulp error of the float attenuation.
const BOUND_SLACK: f64 = 1e-9;

/// One microwave link as the Monte Carlo sees it: its corridor position
/// and the rain-independent parts of its outage test.
struct McLink {
    /// Fraction of the way from `a` to `b` (see [`Kernel::new`]).
    x: f64,
    edge: EdgeId,
    length_km: f64,
    /// Rain power-law coefficients at the link's lowest frequency.
    k: f64,
    alpha: f64,
    /// Clear-air fade margin, dB.
    margin_db: f64,
    /// A rain rate below which the link certainly stays up, so the exact
    /// test can be skipped. The effective path length is largest in no
    /// rain, so `k·Rᵅ·d_eff(0)` bounds the attenuation from above; this
    /// is where that bound meets the margin, less [`BOUND_SLACK`].
    survives_below_mm_h: f64,
}

impl McLink {
    fn new(x: f64, edge: EdgeId, length_km: f64, freq_ghz: f64) -> McLink {
        let margin_db = LinkOutageModel::typical(length_km, freq_ghz).fade_margin_db();
        let (k, alpha) = rain_coefficients(freq_ghz);
        let worst_attenuation_at_1mm_h = k * effective_path_length_km(length_km, 0.0);
        let survives_below_mm_h = if margin_db > 0.0 {
            (margin_db / (worst_attenuation_at_1mm_h * (1.0 + BOUND_SLACK))).powf(1.0 / alpha)
                * (1.0 - BOUND_SLACK)
        } else {
            0.0
        };
        McLink {
            x,
            edge,
            length_km,
            k,
            alpha,
            margin_db,
            survives_below_mm_h,
        }
    }

    /// [`LinkOutageModel::up_under_rain`]: the same arithmetic in the
    /// same order, unless the rain is below the certified survival bound.
    fn up_under_rain(&self, rain_mm_h: f64) -> bool {
        rain_mm_h < self.survives_below_mm_h
            || self.k
                * rain_mm_h.powf(self.alpha)
                * effective_path_length_km(self.length_km, rain_mm_h)
                < self.margin_db
    }
}

/// The per-network state of one Monte-Carlo run: the links sorted by
/// corridor position, a reusable failure bitset over network edge ids,
/// and a memo from each failed-link set to its re-solved latency.
struct Kernel<'n> {
    rg: &'n RoutingGraph,
    network: &'n Network,
    clear_ms: f64,
    links: Vec<McLink>,
    down: Vec<u64>,
    failed: Vec<EdgeId>,
    memo: HashMap<Vec<EdgeId>, Option<f64>>,
}

impl<'n> Kernel<'n> {
    /// `None` when `network` does not connect `a` and `b` in clear skies.
    fn new(
        rg: &'n RoutingGraph,
        network: &'n Network,
        a: &DataCenter,
        b: &DataCenter,
    ) -> Option<Kernel<'n>> {
        let clear_ms = rg.route_filtered(network, |_| true)?.latency_ms;
        // A link's corridor position: its nearer endpoint's distance
        // from `a` as a fraction of the corridor length.
        let a_pos = a.position();
        let corridor_len = a_pos.geodesic_distance_m(&b.position());
        let mut links: Vec<McLink> = network
            .graph
            .edges()
            .map(|(edge, u, v, link)| {
                let d = a_pos
                    .geodesic_distance_m(&network.graph.node(u).position)
                    .min(a_pos.geodesic_distance_m(&network.graph.node(v).position));
                let freq = link
                    .frequencies_ghz
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                let freq = if freq.is_finite() { freq } else { 11.0 };
                let x = (d / corridor_len).clamp(0.0, 1.0);
                McLink::new(x, edge, link.length_m / 1000.0, freq)
            })
            .collect();
        links.sort_by(|p, q| p.x.total_cmp(&q.x));
        Some(Kernel {
            rg,
            network,
            clear_ms,
            links,
            down: vec![0; network.graph.edge_count().div_ceil(64)],
            failed: Vec::new(),
            memo: HashMap::new(),
        })
    }

    /// Fill `failed` with the links `event` takes down, sorted: only
    /// the links under the (padded) cell are tested.
    fn scan(&mut self, event: &WeatherEvent) {
        let lo_x = event.center - event.half_width - CELL_PAD;
        let hi_x = event.center + event.half_width + CELL_PAD;
        let lo = self.links.partition_point(|l| l.x < lo_x);
        let hi = lo + self.links[lo..].partition_point(|l| l.x <= hi_x);
        self.failed.clear();
        for link in &self.links[lo..hi] {
            let rain = event.rain_at(link.x);
            if rain > 0.0 && !link.up_under_rain(rain) {
                self.failed.push(link.edge);
            }
        }
        self.failed.sort_unstable();
    }

    /// Latency (ms) in weather state `event` (`None` = clear skies), or
    /// `None` when the failed links disconnect the network.
    fn latency_ms(&mut self, event: Option<&WeatherEvent>) -> Option<f64> {
        let Some(event) = event else {
            return Some(self.clear_ms);
        };
        self.scan(event);
        if self.failed.is_empty() {
            return Some(self.clear_ms);
        }
        if let Some(&hit) = self.memo.get(self.failed.as_slice()) {
            return hit;
        }
        for e in &self.failed {
            self.down[e.index() / 64] |= 1 << (e.index() % 64);
        }
        let down = &self.down;
        let latency = self
            .rg
            .route_filtered(self.network, |e| {
                down[e.index() / 64] & (1 << (e.index() % 64)) == 0
            })
            .map(|r| r.latency_ms);
        for e in &self.failed {
            self.down[e.index() / 64] = 0;
        }
        self.memo.insert(self.failed.clone(), latency);
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corridor::{CME, EQUINIX_NY4, NASDAQ, NYSE};
    use crate::AnalysisSession;
    use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
    use hft_time::Date;
    use std::sync::OnceLock;

    /// The per-sample loops as they were before the shared kernel: every
    /// link tested on every rainy sample, a `HashSet` per sample and a
    /// re-solve per failed set. The kernel must match them bit for bit.
    mod reference {
        use super::super::*;
        use hft_geodesy::gc_initial_bearing_deg;

        pub(super) fn conditional_latency_rng<R: Rng + ?Sized>(
            rg: &RoutingGraph,
            network: &Network,
            a: &DataCenter,
            b: &DataCenter,
            sampler: &WeatherSampler,
            samples: usize,
            rng: &mut R,
        ) -> Option<WeatherOutcome> {
            let clear = rg.route_filtered(network, |_| true)?;

            // Pre-compute each link's outage model and corridor position
            // (fraction of the way from `a` to `b`, by projection onto the
            // corridor axis).
            let a_pos = a.position();
            let b_pos = b.position();
            let corridor_len = a_pos.geodesic_distance_m(&b_pos);
            let corridor_bearing = gc_initial_bearing_deg(&a_pos, &b_pos).to_radians();
            let links: Vec<(hft_netgraph::EdgeId, LinkOutageModel, f64)> = network
                .graph
                .edges()
                .map(|(e, u, v, link)| {
                    let mid_u = network.graph.node(u).position;
                    let mid_v = network.graph.node(v).position;
                    // Project the link midpoint onto the corridor axis.
                    let d = a_pos
                        .geodesic_distance_m(&mid_u)
                        .min(a_pos.geodesic_distance_m(&mid_v));
                    let x = (d / corridor_len).clamp(0.0, 1.0);
                    let freq = link
                        .frequencies_ghz
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min);
                    let freq = if freq.is_finite() { freq } else { 11.0 };
                    (e, LinkOutageModel::typical(link.length_m / 1000.0, freq), x)
                })
                .collect();
            let _ = corridor_bearing;

            let mut latencies: Vec<f64> = Vec::with_capacity(samples);
            let mut connected = 0usize;
            for _ in 0..samples {
                let state = sampler.sample(rng);
                let latency = match state {
                    None => Some(clear.latency_ms),
                    Some(event) => {
                        let mut down = std::collections::HashSet::new();
                        for (e, model, x) in &links {
                            let rain = event.rain_at(*x);
                            if rain > 0.0 && !model.up_under_rain(rain) {
                                down.insert(*e);
                            }
                        }
                        if down.is_empty() {
                            Some(clear.latency_ms)
                        } else {
                            rg.route_filtered(network, |e| !down.contains(&e))
                                .map(|r| r.latency_ms)
                        }
                    }
                };
                match latency {
                    Some(ms) => {
                        connected += 1;
                        latencies.push(ms);
                    }
                    None => latencies.push(f64::INFINITY),
                }
            }
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("INF sorts fine"));
            let q = |p: f64| latencies[((p * samples as f64) as usize).min(samples - 1)];
            Some(WeatherOutcome {
                clear_ms: clear.latency_ms,
                p50_ms: q(0.50),
                p95_ms: q(0.95),
                p99_ms: q(0.99),
                availability: connected as f64 / samples as f64,
                samples,
            })
        }

        pub(super) fn portfolio_latency_rng<R: Rng + ?Sized>(
            networks: &[&Network],
            a: &DataCenter,
            b: &DataCenter,
            sampler: &WeatherSampler,
            samples: usize,
            rng: &mut R,
        ) -> Option<WeatherOutcome> {
            if networks.is_empty() {
                return None;
            }
            struct Member {
                rg: RoutingGraph,
                clear_ms: f64,
                links: Vec<(hft_netgraph::EdgeId, LinkOutageModel, f64)>,
            }
            let a_pos = a.position();
            let b_pos = b.position();
            let corridor_len = a_pos.geodesic_distance_m(&b_pos);
            let mut members = Vec::new();
            for net in networks {
                let rg = RoutingGraph::build(net, a, b);
                let clear = rg.route_filtered(net, |_| true)?;
                let links = net
                    .graph
                    .edges()
                    .map(|(e, u, v, link)| {
                        let d = a_pos
                            .geodesic_distance_m(&net.graph.node(u).position)
                            .min(a_pos.geodesic_distance_m(&net.graph.node(v).position));
                        let x = (d / corridor_len).clamp(0.0, 1.0);
                        let freq = link
                            .frequencies_ghz
                            .iter()
                            .copied()
                            .fold(f64::INFINITY, f64::min);
                        let freq = if freq.is_finite() { freq } else { 11.0 };
                        (e, LinkOutageModel::typical(link.length_m / 1000.0, freq), x)
                    })
                    .collect();
                members.push(Member {
                    rg,
                    clear_ms: clear.latency_ms,
                    links,
                });
            }

            let mut latencies = Vec::with_capacity(samples);
            let mut connected = 0usize;
            for _ in 0..samples {
                let state = sampler.sample(rng);
                let mut best = f64::INFINITY;
                for (net, m) in networks.iter().zip(&members) {
                    let ms = match &state {
                        None => Some(m.clear_ms),
                        Some(event) => {
                            let down: std::collections::HashSet<_> = m
                                .links
                                .iter()
                                .filter(|(_, model, x)| {
                                    let rain = event.rain_at(*x);
                                    rain > 0.0 && !model.up_under_rain(rain)
                                })
                                .map(|(e, _, _)| *e)
                                .collect();
                            if down.is_empty() {
                                Some(m.clear_ms)
                            } else {
                                m.rg.route_filtered(net, |e| !down.contains(&e))
                                    .map(|r| r.latency_ms)
                            }
                        }
                    };
                    if let Some(ms) = ms {
                        best = best.min(ms);
                    }
                }
                if best.is_finite() {
                    connected += 1;
                }
                latencies.push(best);
            }
            latencies.sort_by(|x, y| x.partial_cmp(y).expect("INF sorts fine"));
            let q = |p: f64| latencies[((p * samples as f64) as usize).min(samples - 1)];
            Some(WeatherOutcome {
                clear_ms: members
                    .iter()
                    .map(|m| m.clear_ms)
                    .fold(f64::INFINITY, f64::min),
                p50_ms: q(0.50),
                p95_ms: q(0.95),
                p99_ms: q(0.99),
                availability: connected as f64 / samples as f64,
                samples,
            })
        }
    }

    fn eco() -> &'static GeneratedEcosystem {
        static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
        ECO.get_or_init(|| generate(&chicago_nj(), 2020))
    }

    const SEEDS: [u64; 3] = [7, 12345, 999];
    const SAMPLES: [usize; 3] = [1, 37, 60_000];

    /// Every field's bits, plus the next draw of the RNG the run
    /// consumed (the kernel must leave the stream where the loop did).
    fn bits(o: Option<WeatherOutcome>, rng: &mut ChaCha8Rng) -> (Option<[u64; 6]>, u64) {
        let fields = o.map(|o| {
            [
                o.clear_ms.to_bits(),
                o.p50_ms.to_bits(),
                o.p95_ms.to_bits(),
                o.p99_ms.to_bits(),
                o.availability.to_bits(),
                o.samples as u64,
            ]
        });
        (fields, rng.gen())
    }

    fn paper_date() -> Date {
        Date::new(2020, 4, 1).unwrap()
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let eco = eco();
        let session = AnalysisSession::new(&eco.db);
        let sampler = WeatherSampler::stormy_season();
        let cases: Vec<(&str, DataCenter)> = eco
            .connected_2020
            .iter()
            .flat_map(|name| [EQUINIX_NY4, NYSE, NASDAQ].map(|b| (name.as_str(), b)))
            .collect();
        let connected = session.par_map(cases, |(name, b)| {
            let net = session.network(name, paper_date());
            let rg = session.routing_graph(name, paper_date(), &CME, &b);
            let mut runs = 0;
            for seed in SEEDS {
                for n in SAMPLES {
                    let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
                    let want = reference::conditional_latency_rng(
                        &rg,
                        &net,
                        &CME,
                        &b,
                        &sampler,
                        n,
                        &mut want_rng,
                    );
                    let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
                    let got =
                        conditional_latency_rng(&rg, &net, &CME, &b, &sampler, n, &mut got_rng);
                    runs += usize::from(got.is_some());
                    assert_eq!(
                        bits(got, &mut got_rng),
                        bits(want, &mut want_rng),
                        "{name} CME-{} seed {seed} samples {n}",
                        b.code
                    );
                }
            }
            runs
        });
        assert!(
            connected.iter().sum::<usize>() >= eco.connected_2020.len() * 9,
            "every connected-2020 licensee reaches NY4: {connected:?}"
        );
    }

    #[test]
    fn portfolio_kernel_matches_reference_bit_for_bit() {
        let eco = eco();
        let session = AnalysisSession::new(&eco.db);
        let sampler = WeatherSampler::stormy_season();
        let names = &eco.connected_2020;
        let cases: Vec<(&str, &str, DataCenter)> = (0..names.len())
            .flat_map(|i| {
                let pair = (names[i].as_str(), names[(i + 1) % names.len()].as_str());
                [EQUINIX_NY4, NYSE, NASDAQ].map(|b| (pair.0, pair.1, b))
            })
            .collect();
        session.par_map(cases, |(x, y, b)| {
            let nx = session.network(x, paper_date());
            let ny = session.network(y, paper_date());
            let nets = [nx.as_ref(), ny.as_ref()];
            for seed in SEEDS {
                for n in SAMPLES {
                    let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
                    let want = reference::portfolio_latency_rng(
                        &nets,
                        &CME,
                        &b,
                        &sampler,
                        n,
                        &mut want_rng,
                    );
                    let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
                    let got = portfolio_latency_rng(&nets, &CME, &b, &sampler, n, &mut got_rng);
                    assert_eq!(
                        bits(got, &mut got_rng),
                        bits(want, &mut want_rng),
                        "{x} + {y} CME-{} seed {seed} samples {n}",
                        b.code
                    );
                }
            }
        });
    }

    #[test]
    fn link_test_matches_outage_model_on_a_rain_grid() {
        let edge = EdgeId::from_index(0);
        for length_km in [0.0, 0.5, 5.0, 20.0, 36.0, 48.5, 80.0, 150.0] {
            for freq in [0.5, 1.0, 2.0, 6.2, 10.7, 11.2, 18.0, 23.0, 25.0, 40.0] {
                let link = McLink::new(0.5, edge, length_km, freq);
                let model = LinkOutageModel::typical(length_km, freq);
                let bound = link.survives_below_mm_h;
                let mut rains: Vec<f64> = (1..=1500).map(|i| f64::from(i) * 0.1).collect();
                if bound.is_finite() && bound > 0.0 {
                    rains.extend([bound, bound * (1.0 + 1e-12), bound * (1.0 - 1e-12)]);
                    assert!(
                        model.up_under_rain(bound * (1.0 - 1e-12)),
                        "{length_km} km {freq} GHz"
                    );
                }
                for r in rains {
                    assert_eq!(
                        link.up_under_rain(r),
                        model.up_under_rain(r),
                        "{length_km} km at {freq} GHz under {r} mm/h (bound {bound})"
                    );
                }
            }
        }
        // The bound skips real work on a typical §5 hop.
        assert!(McLink::new(0.5, edge, 48.5, 11.2).survives_below_mm_h > 5.0);
    }

    #[test]
    fn scan_fails_exactly_the_links_a_full_scan_fails() {
        let eco = eco();
        let session = AnalysisSession::new(&eco.db);
        let mut rng = ChaCha8Rng::seed_from_u64(4242);
        for name in &eco.connected_2020 {
            let net = session.network(name, paper_date());
            let rg = session.routing_graph(name, paper_date(), &CME, &EQUINIX_NY4);
            let mut kernel = Kernel::new(&rg, &net, &CME, &EQUINIX_NY4).expect("connected");
            let full: Vec<(EdgeId, LinkOutageModel, f64)> = {
                let mut links: Vec<_> = kernel.links.iter().map(|l| (l.edge, l.x)).collect();
                links.sort_by_key(|(e, _)| *e);
                links
                    .into_iter()
                    .map(|(e, x)| {
                        let link = net.graph.edge(e);
                        let freq = link
                            .frequencies_ghz
                            .iter()
                            .copied()
                            .fold(f64::INFINITY, f64::min);
                        let freq = if freq.is_finite() { freq } else { 11.0 };
                        (e, LinkOutageModel::typical(link.length_m / 1000.0, freq), x)
                    })
                    .collect()
            };
            // Cells whose edge falls exactly on, or an ulp either side
            // of, a link (with rain far past any margin, so an edge link
            // that sees rain at all fails), plus sampled storms.
            let mut events = Vec::new();
            for &(_, _, x) in &full {
                for half_width in [1e-3, 0.05, 0.12] {
                    for center in [x - half_width, x + half_width] {
                        for c in [center.next_down(), center, center.next_up()] {
                            events.push(WeatherEvent {
                                center: c,
                                half_width,
                                peak_mm_h: 1e20,
                            });
                        }
                    }
                }
            }
            let sampler = WeatherSampler::stormy_season();
            events.extend((0..20_000).filter_map(|_| sampler.sample(&mut rng)));
            for event in &events {
                let want: Vec<EdgeId> = full
                    .iter()
                    .filter(|(_, model, x)| {
                        let rain = event.rain_at(*x);
                        rain > 0.0 && !model.up_under_rain(rain)
                    })
                    .map(|(e, _, _)| *e)
                    .collect();
                kernel.scan(event);
                assert_eq!(kernel.failed, want, "{name} under {event:?}");
            }
        }
    }

    #[test]
    fn no_route_returns_none() {
        let eco = eco();
        let session = AnalysisSession::new(&eco.db);
        let sampler = WeatherSampler::stormy_season();
        let connected = session.network(&eco.connected_2020[0], paper_date());
        let empty = Network {
            licensee: "Nobody".into(),
            as_of: paper_date(),
            graph: hft_netgraph::Graph::new(),
        };
        let rg = RoutingGraph::build(&empty, &CME, &EQUINIX_NY4);
        for n in SAMPLES {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            assert!(conditional_latency_rng(
                &rg,
                &empty,
                &CME,
                &EQUINIX_NY4,
                &sampler,
                n,
                &mut rng
            )
            .is_none());
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            assert!(reference::conditional_latency_rng(
                &rg,
                &empty,
                &CME,
                &EQUINIX_NY4,
                &sampler,
                n,
                &mut rng
            )
            .is_none());
            // One disconnected member sinks the portfolio, as before.
            let nets = [connected.as_ref(), &empty];
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            assert!(
                portfolio_latency_rng(&nets, &CME, &EQUINIX_NY4, &sampler, n, &mut rng).is_none()
            );
        }
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(portfolio_latency_rng(&[], &CME, &EQUINIX_NY4, &sampler, 10, &mut rng).is_none());
    }
}
