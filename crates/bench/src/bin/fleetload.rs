//! `fleetload` — the shard-router fleet bench: serve a sharded corpus
//! behind a [`hft_serve::ShardRouter`] while the corpus history ingests
//! underneath it, byte-verifying every scatter-gathered answer against
//! a direct single-corpus [`hft_serve::Service`] over the same
//! generation. Writes `BENCH_fleet.json` at the workspace root.
//!
//! ```text
//! cargo run --release -p hft-bench --bin fleetload
//! cargo run --release -p hft-bench --bin fleetload -- --shards 4 --seconds 1
//! ```
//!
//! For each fleet size N the harness seeds an [`Applier`] with the
//! first half of the rendered dump history, partitions the corpus into
//! an N-shard [`ShardedStore`], and serves it with `Server::run_with`
//! over a [`ShardRouter`]. A publisher thread replays the remaining
//! batches, republishing the fleet (every shard, in lockstep) every few
//! batches, while client threads hammer the server with a mixed
//! point-to-point + scatter-gather workload.
//!
//! Correctness is the headline number, latency second: each answer is
//! *generation-vector bracketed* — the client reads every shard's
//! generation before sending and after receiving. When both vectors are
//! uniform and equal, the answer is attributable to exactly one
//! full-corpus generation and must byte-match a reference service over
//! that generation's unsharded corpus; a mismatch is a hard failure.
//! When a fleet publish lands mid-flight (mixed or advanced vector) the
//! answer counts as `unpinned`.
//!
//! Latencies are attributed client-side: under the licensee-hash
//! strategy a licensee-bearing request's owning shard is a pure
//! function of the name, so each request lands in a per-shard bucket
//! (scatter-gather requests land in a final `broadcast` bucket), and
//! the report breaks out p50/p90/p99 per bucket next to the merged
//! percentiles.

use hft_bench::REPRO_SEED;
use hft_core::memo::Memo;
use hft_corridor::{chicago_nj, generate};
use hft_ingest::{render_history, Applier, ShardedStore};
use hft_obs::HistogramShard;
use hft_serve::api::{Request, Response};
use hft_serve::{Client, ServeConfig, Server, Service, ShardRouter, WireTrace};
use hft_time::Date;
use hft_uls::shard::{shard_of_licensee, ShardStrategy};
use hft_uls::UlsDatabase;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    shards: Vec<usize>,
    seconds: f64,
    concurrency: usize,
    publish_every: usize,
    strategy: ShardStrategy,
    seed: u64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        shards: vec![1, 4, 8],
        seconds: 2.0,
        concurrency: 8,
        publish_every: 4,
        strategy: ShardStrategy::LicenseeHash,
        seed: REPRO_SEED,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--shards" => {
                parsed.shards = need("--shards")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --shards (comma-separated sizes)".to_string())?
            }
            "--seconds" => {
                parsed.seconds = need("--seconds")?
                    .parse()
                    .map_err(|_| "bad --seconds".to_string())?
            }
            "--concurrency" => {
                parsed.concurrency = need("--concurrency")?
                    .parse()
                    .map_err(|_| "bad --concurrency".to_string())?
            }
            "--publish-every" => {
                parsed.publish_every = need("--publish-every")?
                    .parse()
                    .map_err(|_| "bad --publish-every".to_string())?
            }
            "--strategy" => {
                parsed.strategy = ShardStrategy::parse(&need("--strategy")?)
                    .ok_or("bad --strategy (licensee|spatial)".to_string())?
            }
            "--seed" => {
                parsed.seed = need("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--out" => parsed.out = Some(need("--out")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: fleetload [--shards N,N,...] \
                     [--seconds S] [--concurrency N] [--publish-every N] \
                     [--strategy licensee|spatial] [--seed N] [--out PATH]"
                ))
            }
        }
    }
    if parsed.shards.is_empty() || parsed.shards.contains(&0) {
        return Err("--shards must list positive fleet sizes".into());
    }
    if parsed.concurrency == 0 || parsed.publish_every == 0 {
        return Err("--concurrency and --publish-every must be positive".into());
    }
    Ok(parsed)
}

/// The query mix: point-to-point analysis per licensee plus
/// scatter-gather geographic/site/funnel queries — every request
/// answerable (if only emptily) at every corpus generation.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let d2016 = Date::new(2016, 6, 1).unwrap();
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020, d2016] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        mix.push(Request::Route {
            licensee: name.clone(),
            date: d2020,
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

/// Client-side latency attribution: bucket index per mix entry. Under a
/// name-routed strategy, licensee-bearing requests belong to their
/// owning shard's bucket; everything else (and every request under a
/// corpus-dependent strategy) lands in the final `broadcast` bucket.
fn attribution(mix: &[Request], shards: usize, strategy: ShardStrategy) -> Vec<usize> {
    mix.iter()
        .map(|req| match req {
            Request::Network { licensee, .. }
            | Request::Route { licensee, .. }
            | Request::Apa { licensee, .. }
            | Request::Weather { licensee, .. }
                if strategy.routes_by_name() =>
            {
                shard_of_licensee(licensee, shards) as usize
            }
            _ => shards,
        })
        .collect()
}

fn bucket_label(bucket: usize, shards: usize) -> String {
    if bucket == shards {
        "broadcast".into()
    } else {
        format!("shard{bucket}")
    }
}

/// Per-generation reference corpora and lazily built single-corpus
/// engines. The publisher registers each generation's *full* corpus
/// before publishing it to the fleet, so any client that observes a
/// uniform generation vector can find the matching unsharded corpus.
struct FleetBook {
    corpora: Mutex<HashMap<u64, Arc<UlsDatabase>>>,
    engines: Memo<u64, Arc<Service<'static>>>,
}

impl FleetBook {
    fn new() -> FleetBook {
        FleetBook {
            corpora: Mutex::new(HashMap::new()),
            engines: Memo::new("bench.reference"),
        }
    }

    fn register(&self, generation: u64, db: Arc<UlsDatabase>) {
        self.corpora
            .lock()
            .expect("fleet book corpora")
            .insert(generation, db);
    }

    fn engine(&self, generation: u64) -> Option<Arc<Service<'static>>> {
        let db = Arc::clone(
            self.corpora
                .lock()
                .expect("fleet book corpora")
                .get(&generation)?,
        );
        let (engine, _) = self.engines.get_or_init(generation, || {
            Arc::new(Service::over_snapshot(
                db,
                generation,
                Arc::new(hft_serve::ServeStats::default()),
            ))
        });
        Some(engine)
    }
}

#[derive(Default)]
struct ClientOutcome {
    completed: u64,
    verified: u64,
    unpinned: u64,
    wrong: u64,
    overloaded_retries: u64,
    first_mismatch: Option<String>,
    /// Merged end-to-end latency shard (ns).
    latencies: HistogramShard,
    /// Per-bucket latency shards (ns): one per shard + broadcast.
    by_bucket: Vec<HistogramShard>,
}

/// One serial client: round-trip requests until `done`, bracketing each
/// answer between fleet generation vectors and byte-verifying pinned
/// answers against the generation's single-corpus reference.
fn drive(
    addr: &SocketAddr,
    fleet: &ShardedStore,
    book: &FleetBook,
    mix: &[Request],
    attr: &[usize],
    offset: usize,
    done: &AtomicBool,
) -> Result<ClientOutcome, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut outcome = ClientOutcome {
        by_bucket: (0..=fleet.shard_count())
            .map(|_| HistogramShard::default())
            .collect(),
        ..ClientOutcome::default()
    };
    let mut next = offset % mix.len();
    while !done.load(Ordering::Relaxed) {
        let idx = next;
        let request = &mix[idx];
        next = (next + 1) % mix.len();
        let before = fleet.generation_vector();
        let sent = Instant::now();
        let response = client
            .call(request)
            .map_err(|e| format!("fleetload IO: {e}"))?;
        if response == Response::Overloaded {
            outcome.overloaded_retries += 1;
            continue;
        }
        let latency_ns = sent.elapsed().as_nanos() as u64;
        outcome.latencies.record(latency_ns);
        outcome.by_bucket[attr[idx]].record(latency_ns);
        outcome.completed += 1;
        let after = fleet.generation_vector();
        let uniform = before == after && before.windows(2).all(|w| w[0] == w[1]);
        if !uniform {
            // A fleet publish landed mid-flight: some shard answered at
            // a different generation than the bracket can pin.
            outcome.unpinned += 1;
            continue;
        }
        let Some(reference) = book.engine(before[0]) else {
            outcome.unpinned += 1;
            continue;
        };
        let want = reference.handle(request).encode();
        let got = response.encode();
        if got == want {
            outcome.verified += 1;
        } else {
            outcome.wrong += 1;
            if outcome.first_mismatch.is_none() {
                outcome.first_mismatch = Some(format!(
                    "generation {} request {:?}\n  want {}\n  got  {}",
                    before[0],
                    request,
                    String::from_utf8_lossy(&want),
                    String::from_utf8_lossy(&got),
                ));
            }
        }
    }
    Ok(outcome)
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

struct RunReport {
    shards: usize,
    seconds: f64,
    completed: u64,
    rps: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    per_bucket: Vec<(String, u64, f64, f64, f64)>,
    generations: u64,
    generation_swaps: u64,
    verified: u64,
    unpinned: u64,
    wrong: u64,
    overloaded_retries: u64,
    /// The slowest captured traces pulled from the fleet's flight
    /// recorder just before shutdown — the cross-shard waterfalls
    /// behind this run's tail.
    traces: Vec<WireTrace>,
}

/// Serve one fleet size under concurrent ingest and report.
fn run_fleet(
    args: &Args,
    shards: usize,
    batches: &[hft_ingest::DumpBatch],
    licensees: &[String],
) -> Result<RunReport, String> {
    let mix = workload(licensees);
    let attr = attribution(&mix, shards, args.strategy);
    let half = batches.len() / 2;
    let mut applier = Applier::new(UlsDatabase::new());
    for batch in &batches[..half] {
        let conflicts = applier.apply(batch);
        if !conflicts.is_empty() {
            return Err(format!("seed ingest conflict: {}", conflicts[0]));
        }
    }
    let fleet = ShardedStore::seeded(applier.db(), shards, args.strategy, applier.last_date());
    let router = ShardRouter::over(&fleet);
    let book = FleetBook::new();
    book.register(0, Arc::new(applier.rebuild()));
    let done = AtomicBool::new(false);
    let pace = Duration::from_secs_f64(args.seconds / (batches.len() - half).max(1) as f64);

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: args.concurrency.clamp(4, 64),
        queue_depth: (args.concurrency * 4).max(64),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "fleet n={shards} ({}): serving generation vector {:?} on {addr}; \
         ingesting {} batches behind it...",
        args.strategy.name(),
        fleet.generation_vector(),
        batches.len() - half,
    );

    let served = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run_with(&router));
        let publisher = scope.spawn(|| {
            let mut generation = 0u64;
            let mut publish = |applier: &Applier| {
                // Register the full corpus *before* the fleet can serve
                // it, so a uniform bracket always finds its reference.
                book.register(generation + 1, Arc::new(applier.rebuild()));
                generation = applier.publish_sharded(&fleet);
            };
            for (i, batch) in batches[half..].iter().enumerate() {
                let conflicts = applier.apply(batch);
                assert!(conflicts.is_empty(), "ingest conflict: {}", conflicts[0]);
                if (i + 1) % args.publish_every == 0 {
                    publish(&applier);
                }
                std::thread::sleep(pace);
            }
            publish(&applier);
            done.store(true, Ordering::Relaxed);
            generation
        });
        let clients: Vec<_> = (0..args.concurrency)
            .map(|i| {
                let fleet = &fleet;
                let book = &book;
                let mix = &mix;
                let attr = attr.as_slice();
                let done = &done;
                scope.spawn(move || drive(&addr, fleet, book, mix, attr, i * 7, done))
            })
            .collect();
        let outcomes: Vec<Result<ClientOutcome, String>> =
            clients.into_iter().map(|h| h.join().unwrap()).collect();
        let generations = publisher.join().unwrap();
        let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
        // Pull the slowest captured traces before the fleet goes down.
        let traces = match c.call(&Request::Traces {
            limit: 3,
            trace_id: None,
        }) {
            Ok(Response::Traces { traces }) => traces,
            _ => Vec::new(),
        };
        let ack = c.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        if ack != Response::ShuttingDown {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
        server_handle
            .join()
            .expect("server thread")
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((outcomes, generations, traces))
    });
    let (outcomes, generations, traces) = outcomes?;
    let serve_s = served.elapsed().as_secs_f64();
    let generation_swaps: u64 = router
        .shards()
        .iter()
        .map(|s| s.stats().snapshot().generation_swaps)
        .sum();

    let mut total = ClientOutcome {
        by_bucket: (0..=shards).map(|_| HistogramShard::default()).collect(),
        ..ClientOutcome::default()
    };
    for outcome in outcomes {
        let outcome = outcome?;
        total.completed += outcome.completed;
        total.verified += outcome.verified;
        total.unpinned += outcome.unpinned;
        total.wrong += outcome.wrong;
        total.overloaded_retries += outcome.overloaded_retries;
        if total.first_mismatch.is_none() {
            total.first_mismatch = outcome.first_mismatch;
        }
        total.latencies.merge(&outcome.latencies);
        for (mine, theirs) in total.by_bucket.iter_mut().zip(&outcome.by_bucket) {
            mine.merge(theirs);
        }
    }
    if total.wrong > 0 {
        return Err(format!(
            "fleet n={shards}: scatter-gathered bytes diverge from the \
             single-corpus reference:\n{}",
            total.first_mismatch.unwrap_or_default()
        ));
    }
    if total.verified == 0 {
        return Err(format!(
            "fleet n={shards}: no answer was ever generation-pinned — bracketing is broken"
        ));
    }

    let latencies = total.latencies.snapshot();
    let pct_ms = |snap: &hft_obs::HistogramSnapshot, q: f64| snap.percentile(q) as f64 / 1e6;
    let per_bucket: Vec<(String, u64, f64, f64, f64)> = total
        .by_bucket
        .iter()
        .enumerate()
        .map(|(b, shard)| {
            let snap = shard.snapshot();
            (
                bucket_label(b, shards),
                snap.count,
                pct_ms(&snap, 0.50),
                pct_ms(&snap, 0.90),
                pct_ms(&snap, 0.99),
            )
        })
        .collect();
    Ok(RunReport {
        shards,
        seconds: serve_s,
        completed: total.completed,
        rps: total.completed as f64 / serve_s.max(1e-9),
        p50: pct_ms(&latencies, 0.50),
        p90: pct_ms(&latencies, 0.90),
        p99: pct_ms(&latencies, 0.99),
        per_bucket,
        generations,
        generation_swaps,
        verified: total.verified,
        unpinned: total.unpinned,
        wrong: total.wrong,
        overloaded_retries: total.overloaded_retries,
        traces,
    })
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    eprintln!("generating corpus (seed {})...", args.seed);
    let eco = generate(&chicago_nj(), args.seed);
    let published = hft_uls::flatfile::decode(&hft_uls::flatfile::encode(eco.db.licenses()))
        .map_err(|e| format!("corpus round trip: {e}"))?;
    let published_db = UlsDatabase::from_licenses(published);
    let batches = render_history(published_db.licenses());
    eprintln!(
        "history: {} daily batches over {}..{}",
        batches.len(),
        batches.first().map(|b| b.date.to_iso()).unwrap_or_default(),
        batches.last().map(|b| b.date.to_iso()).unwrap_or_default(),
    );
    let mut licensees = eco.connected_2020.clone();
    // The connected-2020 mix alone can leave shards idle: with 8 shards
    // the paper's nine licensees hash onto only six residues, so two
    // shard workers never see a request and their per-shard percentiles
    // are vacuous. Widen the mix from the full corpus so every shard of
    // every benched fleet size owns at least one mix licensee.
    for &n in &args.shards {
        let mut covered = vec![false; n];
        for name in &licensees {
            covered[shard_of_licensee(name, n) as usize] = true;
        }
        for name in published_db.licensees() {
            let k = shard_of_licensee(name, n) as usize;
            if !covered[k] {
                covered[k] = true;
                licensees.push(name.to_string());
            }
        }
    }
    licensees.sort();
    licensees.dedup();

    let mut reports = Vec::new();
    for &n in &args.shards {
        reports.push(run_fleet(&args, n, &batches, &licensees)?);
    }

    for r in &reports {
        println!(
            "fleet n={:<2} {:>7} requests {:>9.0} rps  p50 {:.3} ms  p90 {:.3} ms  \
             p99 {:.3} ms  ({} generations, {} swaps)",
            r.shards, r.completed, r.rps, r.p50, r.p90, r.p99, r.generations, r.generation_swaps,
        );
        for (label, count, p50, p90, p99) in &r.per_bucket {
            if *count == 0 {
                continue;
            }
            println!(
                "  {label:<10} {count:>7} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  \
                 p99 {p99:.3} ms"
            );
        }
        println!(
            "  answers: {} vector-verified, {} unpinned, {} wrong, {} overloaded retries",
            r.verified, r.unpinned, r.wrong, r.overloaded_retries,
        );
        if !r.traces.is_empty() {
            println!("  slowest captured traces:");
            for t in &r.traces {
                print!("{}", t.render());
            }
        }
    }

    let runs: Vec<String> = reports
        .iter()
        .map(|r| {
            let buckets: Vec<String> = r
                .per_bucket
                .iter()
                .map(|(label, count, p50, p90, p99)| {
                    format!(
                        "{{\"bucket\": \"{label}\", \"count\": {count}, \"p50_ms\": {}, \
                         \"p90_ms\": {}, \"p99_ms\": {}}}",
                        fmt(*p50),
                        fmt(*p90),
                        fmt(*p99),
                    )
                })
                .collect();
            format!(
                "{{\"shards\": {}, \"seconds\": {}, \"requests\": {}, \"rps\": {}, \
                 \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"generations\": {}, \
                 \"generation_swaps\": {}, \"verified\": {}, \"unpinned\": {}, \
                 \"wrong_answers\": {}, \"overloaded_retries\": {},\n    \"per_shard\": [{}]}}",
                r.shards,
                fmt(r.seconds),
                r.completed,
                fmt(r.rps),
                fmt(r.p50),
                fmt(r.p90),
                fmt(r.p99),
                r.generations,
                r.generation_swaps,
                r.verified,
                r.unpinned,
                r.wrong,
                r.overloaded_retries,
                buckets.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n\"strategy\": \"{}\", \"concurrency\": {}, \"publish_every\": {}, \"seed\": {},\n\
         \"runs\": [\n  {}\n]\n}}\n",
        args.strategy.name(),
        args.concurrency,
        args.publish_every,
        args.seed,
        runs.join(",\n  "),
    );
    let path = args
        .out
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json").into());
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}
