//! `raceload` — the latency-race acceptance scenario: serve a sharded
//! corpus behind a [`hft_serve::ShardRouter`] fleet and hammer it with
//! repeated [`Request::Race`] / [`Request::StretchSweep`] queries over
//! *both* wire protocols, byte-verifying every answer against a direct
//! single-corpus [`hft_serve::Service`] over the same corpus. Writes a
//! JSON record under `--out`.
//!
//! ```text
//! cargo run --release -p hft-bench --bin raceload -- --out BENCH_race.json
//! cargo run --release -p hft-bench --bin raceload -- --seconds 1 --shards 3
//! ```
//!
//! The workload is deliberately repetitive: a handful of distinct
//! (licensee, pair, samples, seed) races asked over and over, which is
//! the race engine's design point — the §5 weather Monte Carlo runs
//! once per distinct key and every repeat is a cache hit. The scenario
//! snapshots the `race.mc_cache{outcome=...}` counters around the
//! serving window and fails unless the hit rate clears 80%, alongside
//! the hard failure on any byte mismatch. Latency percentiles are
//! reported per protocol so the JSON-vs-binary codec gap on the
//! race-heavy mix is measured in the same run.

use hft_bench::harness::{self, record, Flag, Flags, Load, Until, Verifier};
use hft_ingest::ShardedStore;
use hft_serve::json::Json;
use hft_serve::{Proto, Request, Service, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;

const FLAGS: &[Flag] = &[
    Flag::Value("--seconds", Some("2")),
    Flag::Value("--shards", Some("2")),
    harness::SEED,
    harness::OUT,
];

/// The race mix: every licensee races every corridor pair with the same
/// (samples, seed), so the distinct Monte-Carlo population is small and
/// the serving window is dominated by cache hits. One stretch sweep per
/// licensee rides along to exercise the multi-pair panorama path.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let pairs = [("CME", "NY4"), ("CME", "NYSE"), ("CME", "NASDAQ")];
    let mut distinct = Vec::new();
    for name in licensees {
        for (from, to) in pairs {
            distinct.push(Request::Race {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
                constellation: "starlink".into(),
                samples: 20_000,
                seed: 7,
            });
        }
        distinct.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020,
            constellation: "starlink".into(),
        });
    }
    // Repeat the distinct population so even a short serving window is
    // repeats-heavy; the timed loops then cycle the mix indefinitely.
    let mut mix = Vec::new();
    for i in 0..distinct.len() * 4 {
        mix.push(distinct[i % distinct.len()].clone());
    }
    mix
}

fn main() -> std::process::ExitCode {
    harness::main(run)
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env("raceload", FLAGS)?;
    let seconds: f64 = flags.get("--seconds")?;
    let shards = flags.positive("--shards")?;
    let seed: u64 = flags.get("--seed")?;
    let (eco, mut licensees) = harness::corpus(seed);
    licensees.truncate(3);
    if licensees.is_empty() {
        return Err("corpus has no connected 2020 licensees".into());
    }
    let mix = workload(&licensees);

    // Ground truth: the same requests answered by a direct in-process
    // single-corpus service. Computing these warms the *reference*
    // engine's caches; the fleet's counters are measured from a snapshot
    // taken afterwards so the reference run never inflates the hit rate.
    eprintln!("computing {} expected answers locally...", mix.len());
    let verifier = Verifier::fixed(&Service::new(&eco.db), &mix);
    let load = Load {
        mix: &mix,
        verifier: &verifier,
        bucket_of: &[],
        window: 1,
    };

    let fleet = ShardedStore::seeded(&eco.db, shards, ShardStrategy::LicenseeHash, None);
    let router = ShardRouter::over(&fleet);
    let hit_name = hft_obs::registry::labeled("race.mc_cache", "outcome", "hit");
    let miss_name = hft_obs::registry::labeled("race.mc_cache", "outcome", "miss");
    let before = hft_obs::global().snapshot();
    let (reports, _, _) = harness::self_host(
        8,
        64,
        |s| s.run_with(&router),
        |addr| {
            eprintln!(
                "fleet n={shards} (licensee-hash): serving {} distinct race queries on {addr}...",
                mix.len() / 4,
            );
            // Warm pass: every distinct request once, so the timed windows
            // measure the cached steady state on a warm fleet.
            harness::warm(&addr, Proto::Json, &mix[..mix.len() / 4])?;
            [Proto::Json, Proto::Binary]
                .map(|proto| {
                    eprintln!("[{}] racing for {seconds:.1}s...", proto.name());
                    let conn = vec![harness::connect_retry(&addr, proto)?];
                    Ok((
                        proto,
                        harness::run(conn, &load, |_| 0, Until::Seconds(seconds))?,
                    ))
                })
                .into_iter()
                .collect::<Result<Vec<_>, String>>()
        },
    )?;
    let delta = hft_obs::registry::delta(&before, &hft_obs::global().snapshot());
    let (hits, misses) = (delta.counter(&hit_name), delta.counter(&miss_name));
    let mc_total = hits + misses;
    let hit_rate = if mc_total > 0 {
        hits as f64 / mc_total as f64
    } else {
        0.0
    };

    let quantiles = ["p50", "p90", "p99", "max"];
    for (proto, r) in &reports {
        println!(
            "{:<4} {}  ({} overloaded retries, {} wrong)",
            proto.name(),
            r.line(&quantiles),
            r.overloaded_retries,
            r.wrong,
        );
    }
    println!(
        "mc cache: {hits} hits / {misses} misses = {:.1}% hit rate",
        hit_rate * 100.0
    );

    let runs: Vec<Json> = reports
        .iter()
        .map(|(proto, r)| {
            Json::Obj(record! {
                ..r.fields(&quantiles);
                "proto" => proto.name(),
                "overloaded_retries" => r.overloaded_retries,
                "wrong_answers" => r.wrong,
            })
        })
        .collect();
    let record = record! {
        "workload" => Json::Obj(record! {
            "distinct_requests" => (mix.len() / 4) as u64,
            "pairs" => 3u64,
            "licensees" => licensees.len() as u64,
            "seed" => seed,
        }),
        "shards" => shards as u64,
        "runs" => Json::Arr(runs),
        "mc_cache" => Json::Obj(record! {
            "hits" => hits,
            "misses" => misses,
            "hit_rate" => hit_rate,
        }),
    };
    let fnv = harness::requests_fnv64(mix.iter().map(Request::encode));
    harness::write_record(flags.opt("--out"), record, seed, fnv)?;

    for (proto, r) in &reports {
        r.check(&format!(
            "race answers through the shard router ({})",
            proto.name()
        ))?;
    }
    if reports.iter().any(|(_, r)| r.completed == 0) {
        return Err("a protocol phase completed zero requests".into());
    }
    if mc_total == 0 {
        return Err("no weather Monte Carlo ran — the corpus has no microwave routes?".into());
    }
    if hit_rate <= 0.80 {
        return Err(format!(
            "mc cache hit rate {:.1}% below the 80% acceptance floor on a repeats-heavy mix",
            hit_rate * 100.0
        ));
    }
    Ok(())
}
