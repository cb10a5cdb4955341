//! `fleetload` — the shard-router fleet scenario: serve a sharded
//! corpus behind a [`hft_serve::ShardRouter`] while the corpus history
//! ingests underneath it, byte-verifying every scatter-gathered answer
//! against a direct single-corpus [`hft_serve::Service`] over the same
//! generation. Writes a JSON record under `--out`.
//!
//! ```text
//! cargo run --release -p hft-bench --bin fleetload -- --out BENCH_fleet.json
//! cargo run --release -p hft-bench --bin fleetload -- --shards 4 --seconds 1
//! ```
//!
//! For each fleet size N the scenario seeds an applier with the first
//! half of the rendered dump history, partitions the corpus into an
//! N-shard [`ShardedStore`], and serves it over a [`ShardRouter`]. A
//! publisher thread replays the remaining batches, republishing the
//! fleet (every shard, in lockstep) every few batches, while client
//! threads hammer the server with a mixed point-to-point +
//! scatter-gather workload.
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

use hft_bench::harness::{self, record, Book, Flag, Flags, Load, Tally, Verifier};
use hft_ingest::{Applier, DumpBatch, ShardedStore};
use hft_serve::json::Json;
use hft_serve::{Proto, Request, ShardRouter};
use hft_uls::shard::{shard_of_licensee, ShardStrategy};
use std::sync::Arc;

const FLAGS: &[Flag] = &[
    Flag::Value("--shards", Some("1,4,8")),
    Flag::Value("--seconds", Some("2")),
    Flag::Value("--concurrency", Some("8")),
    Flag::Value("--publish-every", Some("4")),
    Flag::Value("--strategy", Some("licensee")),
    harness::SEED,
    harness::OUT,
];

/// The query mix: the live-corpus mix plus a corpus-wide funnel query,
/// so point-to-point and scatter-gather requests share the fleet.
fn workload(licensees: &[String]) -> Vec<Request> {
    let mut mix = harness::live_mix(licensees);
    mix.push(Request::Shortlist {
        lat_deg: 41.7625,
        lon_deg: -88.1712,
        radius_km: 500.0,
        min_filings: 2,
    });
    mix
}

/// Serve one fleet size under concurrent ingest, print its report, and
/// return its record entry with the tally for the end-of-run check.
fn run_fleet(
    shards: usize,
    strategy: ShardStrategy,
    concurrency: usize,
    publish_every: usize,
    seconds: f64,
    batches: &[DumpBatch],
    mix: &[Request],
) -> Result<(Json, Tally), String> {
    let half = batches.len() / 2;
    let mut applier = harness::seed(&batches[..half])?;
    let fleet = ShardedStore::seeded(applier.db(), shards, strategy, applier.last_date());
    let router = ShardRouter::over(&fleet);
    let book = Book::default();
    book.register(0, Arc::new(applier.rebuild()));
    let generations = || fleet.generation_vector();
    let verifier = Verifier::Bracketed {
        mix,
        book: &book,
        generations: &generations,
    };
    let load = Load {
        mix,
        verifier: &verifier,
        bucket_of: &harness::attribution(mix, shards, strategy),
        window: 1,
    };
    let mut generation = 0u64;
    // Register the full corpus *before* the fleet can serve it, so a
    // uniform bracket always finds its reference.
    let publish = |a: &Applier| {
        book.register(generation + 1, Arc::new(a.rebuild()));
        generation = a.publish_sharded(&fleet);
    };
    let serve = |s: &hft_serve::Server| s.run_with(&router);
    let queue_depth = (concurrency * 4).max(64);
    let (t, traces, _) =
        harness::self_host(concurrency.clamp(4, 64), queue_depth, serve, |addr| {
            eprintln!(
                "fleet n={shards} ({}): serving generation vector {:?} on {addr}; \
             ingesting {} batches behind it...",
                strategy.name(),
                fleet.generation_vector(),
                batches.len() - half,
            );
            let conns = (0..concurrency)
                .map(|_| harness::connect_retry(&addr, Proto::Json))
                .collect::<Result<Vec<_>, _>>()?;
            let rest = &batches[half..];
            harness::run_replaying(
                conns,
                &load,
                &mut applier,
                rest,
                publish_every,
                seconds,
                publish,
            )
        })?;
    let swaps: u64 = router
        .shards()
        .iter()
        .map(|s| s.stats().snapshot().generation_swaps)
        .sum();

    let quantiles = ["p50", "p90", "p99"];
    println!(
        "fleet n={shards:<2} {}  ({generation} generations, {swaps} swaps)",
        t.line(&quantiles)
    );
    let label = |b| harness::bucket_label(b, shards);
    let buckets = harness::breakout(&t.by_bucket, label, ("bucket", "count"), &quantiles);
    println!("  answers: {}", t.answers());
    harness::print_traces("  ", &traces);
    let run = record! {
        ..t.fields(&quantiles);
        "shards" => shards as u64,
        "generations" => generation,
        "generation_swaps" => swaps,
        "verified" => t.verified,
        "unpinned" => t.unpinned,
        "wrong_answers" => t.wrong,
        "overloaded_retries" => t.overloaded_retries,
        "per_shard" => Json::Arr(buckets),
    };
    Ok((Json::Obj(run), t))
}

fn main() -> std::process::ExitCode {
    harness::main(run)
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env("fleetload", FLAGS)?;
    let sizes: Vec<usize> = flags
        .opt("--shards")
        .unwrap_or_default()
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| "bad --shards (comma-separated sizes)".to_string())?;
    if sizes.is_empty() || sizes.contains(&0) {
        return Err("--shards must list positive fleet sizes".into());
    }
    let seconds = flags.non_negative("--seconds")?;
    let concurrency = flags.positive("--concurrency")?;
    let publish_every = flags.positive("--publish-every")?;
    let strategy = ShardStrategy::parse(flags.opt("--strategy").unwrap_or_default())
        .ok_or("bad --strategy (licensee|spatial)".to_string())?;
    let seed: u64 = flags.get("--seed")?;
    let (eco, mut licensees) = harness::corpus(seed);
    let (published, batches) = harness::history(&eco)?;
    // The connected-2020 mix alone can leave shards idle: with 8 shards
    // the paper's nine licensees hash onto only six residues, so two
    // shard workers never see a request and their per-shard percentiles
    // are vacuous. Widen the mix from the full corpus so every shard of
    // every benched fleet size owns at least one mix licensee.
    for &n in &sizes {
        let mut covered = vec![false; n];
        for name in &licensees {
            covered[shard_of_licensee(name, n) as usize] = true;
        }
        for name in published.licensees() {
            let k = shard_of_licensee(name, n) as usize;
            if !covered[k] {
                covered[k] = true;
                licensees.push(name.to_string());
            }
        }
    }
    licensees.sort();
    licensees.dedup();
    let mix = workload(&licensees);

    let (runs, tallies): (Vec<Json>, Vec<Tally>) = sizes
        .iter()
        .map(|&n| {
            run_fleet(
                n,
                strategy,
                concurrency,
                publish_every,
                seconds,
                &batches,
                &mix,
            )
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let record = record! {
        "strategy" => strategy.name(),
        "concurrency" => concurrency as u64,
        "publish_every" => publish_every as u64,
        "seed" => seed,
        "runs" => Json::Arr(runs),
    };
    let fnv = harness::requests_fnv64(mix.iter().map(Request::encode));
    harness::write_record(flags.opt("--out"), record, seed, fnv)?;
    for (n, tally) in sizes.iter().zip(&tallies) {
        tally.check(&format!(
            "fleet n={n}: scatter-gathered bytes against the single-corpus reference"
        ))?;
    }
    Ok(())
}
