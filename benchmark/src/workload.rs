//! The three workloads: their request mixes, connections, offered
//! rates and latency limits, and the seeded inputs (per-connection
//! request orders, open-loop arrival schedules, fresh Monte-Carlo
//! seeds) derived from the workload seed.
//!
//! The corpus itself is fixed at the paper's ecosystem seed; the
//! workload seed only decides which requests arrive in which order and
//! when, so runs with different seeds measure the same system on
//! different but equally shaped traffic.

use hft_serve::api::Request;
use hft_serve::binwire::{self, Proto};
use hft_time::Date;
use hft_uls::shard::shard_of_licensee;

/// The ecosystem seed of every published number in the repository.
pub const CORPUS_SEED: u64 = 2020;
/// Shards of the `fleet-ingest` router.
pub const FLEET_SHARDS: usize = 4;
/// `fleet-ingest` republishes the fleet after this many batches.
pub const PUBLISH_EVERY: usize = 4;
/// `fleet-ingest` applies one dump batch per this many milliseconds.
pub const BATCH_PACE_MS: u64 = 20;
/// One `weather` Monte-Carlo request in this many carries a fresh seed.
pub const UNIQUE_SEED_EVERY: u64 = 4;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Memoized point and search requests, binary + JSON.
    Lookup,
    /// The §5 Monte-Carlo questions over the lookup background.
    Weather,
    /// A 4-shard router serving reads while history ingests.
    FleetIngest,
}

/// A workload's fixed shape. Rates and limits were set once, when the
/// benchmark was introduced, on a 2-core host and are not retuned: a
/// capacity gain shows as lower latency at the same offered rate.
/// Each rate is low enough that the burst a late generator sends after
/// a host stall of 100 ms stays below the 64-deep admission queue, so
/// no open-loop request is refused; each limit lies at about the seed's
/// open-loop p99.9 at that rate.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// One entry per connection: the protocol it speaks.
    pub conns: &'static [Proto],
    /// Closed loop: requests each connection keeps in flight.
    pub window: usize,
    /// Open loop: offered requests per second (all connections).
    pub rate_rps: f64,
    /// Open loop: the latency limit behind `slo_share`, ms.
    pub limit_ms: f64,
    /// Share of the run's `--seconds` given to the closed loop; the
    /// open loop gets the rest.
    pub closed_share: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "lookup",
        kind: Kind::Lookup,
        conns: &[Proto::Binary, Proto::Json],
        window: 30,
        rate_rps: 500.0,
        limit_ms: 20.0,
        closed_share: 0.3,
    },
    Spec {
        name: "weather",
        kind: Kind::Weather,
        conns: &[Proto::Binary, Proto::Binary],
        window: 30,
        rate_rps: 60.0,
        limit_ms: 200.0,
        closed_share: 0.3,
    },
    Spec {
        name: "fleet-ingest",
        kind: Kind::FleetIngest,
        conns: &[Proto::Binary],
        window: 60,
        rate_rps: 200.0,
        limit_ms: 50.0,
        closed_share: 0.3,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64: a tiny seeded generator for schedules and shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so different uses of one seed do
    /// not share a stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// FNV-1a 64 over a byte slice, continuing from `h`.
pub fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64 offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn d2020() -> Date {
    Date::new(2020, 4, 1).expect("valid date")
}

/// The lookup surface: Network (2 dates), Route (3 pairs) and Apa for
/// every licensee, plus Geographic x6, SiteSearch and Shortlist.
pub fn lookup_mix(licensees: &[String]) -> Vec<Request> {
    let d2019 = Date::new(2019, 1, 1).expect("valid date");
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020(), d2019] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        for to in ["NY4", "NYSE", "NASDAQ"] {
            mix.push(Request::Route {
                licensee: name.clone(),
                date: d2020(),
                from: "CME".into(),
                to: to.into(),
            });
        }
        mix.push(Request::Apa {
            licensee: name.clone(),
            date: d2020(),
            from: "CME".into(),
            to: "NY4".into(),
        });
    }
    for i in 0..6 {
        mix.push(Request::Geographic {
            lat_deg: 41.7625 + 0.02 * i as f64,
            lon_deg: -88.1712 + 0.4 * i as f64,
            radius_km: 10.0,
        });
    }
    mix.push(Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    });
    mix.push(Request::Shortlist {
        lat_deg: 41.7625,
        lon_deg: -88.1712,
        radius_km: 10.0,
        min_filings: 11,
    });
    mix
}

/// The §5 mix: the hot Weather block (2 licensees x 2 pairs, 60k
/// samples, seed 7) x6, Race (starlink, 20k samples) x3 and one
/// StretchSweep, over the lookup set as background.
pub fn weather_mix(licensees: &[String]) -> Vec<Request> {
    let mut mix = lookup_mix(licensees);
    let pairs = [("CME", "NY4"), ("CME", "NYSE")];
    let hot: Vec<&String> = licensees.iter().take(2).collect();
    for _ in 0..6 {
        for name in &hot {
            for (from, to) in pairs {
                mix.push(Request::Weather {
                    licensee: (*name).clone(),
                    date: d2020(),
                    from: from.into(),
                    to: to.into(),
                    samples: 60_000,
                    seed: 7,
                });
            }
        }
    }
    for _ in 0..3 {
        for name in &hot {
            for (from, to) in pairs {
                mix.push(Request::Race {
                    licensee: (*name).clone(),
                    date: d2020(),
                    from: from.into(),
                    to: to.into(),
                    constellation: "starlink".into(),
                    samples: 20_000,
                    seed: 7,
                });
            }
        }
    }
    if let Some(name) = licensees.first() {
        mix.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020(),
            constellation: "starlink".into(),
        });
    }
    mix
}

/// The fleet read mix: point Network (2 dates) and Route per licensee,
/// plus broadcast Geographic x4, SiteSearch and a 500 km Shortlist.
pub fn fleet_mix(licensees: &[String]) -> Vec<Request> {
    let d2016 = Date::new(2016, 6, 1).expect("valid date");
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020(), d2016] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        mix.push(Request::Route {
            licensee: name.clone(),
            date: d2020(),
            from: "CME".into(),
            to: "NY4".into(),
        });
    }
    for i in 0..4 {
        mix.push(Request::Geographic {
            lat_deg: 41.7625 + 0.02 * i as f64,
            lon_deg: -88.1712 + 0.5 * i as f64,
            radius_km: 10.0,
        });
    }
    mix.push(Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    });
    mix.push(Request::Shortlist {
        lat_deg: 41.7625,
        lon_deg: -88.1712,
        radius_km: 500.0,
        min_filings: 2,
    });
    mix
}

/// The fleet's licensees: the connected-2020 networks, widened from the
/// whole corpus until every shard owns at least one of them.
pub fn fleet_licensees(connected: &[String], all: &[&str]) -> Vec<String> {
    let mut names = connected.to_vec();
    let mut covered = [false; FLEET_SHARDS];
    for name in &names {
        covered[shard_of_licensee(name, FLEET_SHARDS) as usize] = true;
    }
    for name in all {
        let k = shard_of_licensee(name, FLEET_SHARDS) as usize;
        if !covered[k] {
            covered[k] = true;
            names.push(name.to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// `req` with its Monte-Carlo seed replaced (Weather only).
pub fn with_seed(req: &Request, fresh: u64) -> Request {
    let mut req = req.clone();
    if let Request::Weather { seed, .. } = &mut req {
        *seed = fresh;
    }
    req
}

/// The fresh seed of the `n`-th unique Monte-Carlo request of stream
/// `stream` (a connection, or the open-loop schedule).
pub fn fresh_seed(workload_seed: u64, stream: u64, n: u64) -> u64 {
    Rng::new(workload_seed, 0x5EED ^ (stream << 32) ^ n).next_u64()
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Due time, ns after the open loop starts.
    pub due_ns: u64,
    /// Connection index.
    pub conn: usize,
    /// Index into the mix.
    pub idx: usize,
    /// A fresh Monte-Carlo seed replacing the mix entry's.
    pub seed: Option<u64>,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The distinct request mix.
    pub mix: Vec<Request>,
    /// Open loop: Poisson arrivals at the offered rate.
    pub schedule: Vec<Arrival>,
    /// The workload seed.
    pub seed: u64,
}

impl Inputs {
    /// Derive every input of a run from the workload seed.
    pub fn new(spec: &Spec, mix: Vec<Request>, seed: u64, open_seconds: f64) -> Inputs {
        let unique_mc = spec.kind == Kind::Weather;
        let mut rng = Rng::new(seed, 0xA11);
        let mut order = Vec::new();
        let mut schedule = Vec::new();
        let mut t = 0.0f64;
        let mut weather_seen = 0u64;
        let horizon = open_seconds * 1e9;
        loop {
            t += -(1.0 - rng.unit()).ln() / spec.rate_rps * 1e9;
            if t >= horizon {
                break;
            }
            if order.is_empty() {
                order = rng.permutation(mix.len());
            }
            let idx = order.pop().expect("refilled above");
            let seed = match &mix[idx] {
                Request::Weather { .. } if unique_mc => {
                    weather_seen += 1;
                    weather_seen
                        .is_multiple_of(UNIQUE_SEED_EVERY)
                        .then(|| fresh_seed(seed, u64::MAX, weather_seen))
                }
                _ => None,
            };
            schedule.push(Arrival {
                due_ns: t as u64,
                conn: schedule.len() % spec.conns.len(),
                idx,
                seed,
            });
        }
        Inputs {
            mix,
            schedule,
            seed,
        }
    }

    /// Closed loop: connection `conn`'s request order, a fresh seeded
    /// permutation of the mix per cycle.
    pub fn order(&self, conn: usize) -> impl Iterator<Item = usize> {
        let mut rng = Rng::new(self.seed, 1 + conn as u64);
        let n = self.mix.len();
        std::iter::repeat_with(move || rng.permutation(n)).flatten()
    }

    /// The request an arrival (or closed-loop send) puts on the wire.
    pub fn request(&self, idx: usize, seed: Option<u64>) -> Request {
        match seed {
            Some(s) => with_seed(&self.mix[idx], s),
            None => self.mix[idx].clone(),
        }
    }

    /// A hash of the generated request list: every mix entry's binary
    /// encoding, the first cycle of each closed-loop order and the
    /// open-loop schedule.
    pub fn digest(&self, conns: usize) -> u64 {
        let mut h = FNV_BASIS;
        for req in &self.mix {
            h = fnv64(h, &binwire::encode_request(req));
        }
        for c in 0..conns {
            for i in self.order(c).take(self.mix.len()) {
                h = fnv64(h, &(i as u64).to_le_bytes());
            }
        }
        for a in &self.schedule {
            h = fnv64(h, &a.due_ns.to_le_bytes());
            h = fnv64(h, &(a.conn as u64).to_le_bytes());
            h = fnv64(h, &(a.idx as u64).to_le_bytes());
            h = fnv64(h, &a.seed.unwrap_or(0).to_le_bytes());
        }
        h
    }
}
