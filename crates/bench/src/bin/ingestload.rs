//! `ingestload` — the hft-ingest scenario: measure dump-replay ingest
//! throughput, then serve a live corpus while the rest of the history
//! ingests underneath it, verifying every generation-pinned answer
//! against a direct in-process session over the same generation.
//! Writes a JSON record under `--out`.
//!
//! ```text
//! cargo run --release -p hft-bench --bin ingestload -- --out BENCH_ingest.json
//! cargo run --release -p hft-bench --bin ingestload -- --seconds 2 --concurrency 4
//! ```
//!
//! Phase A replays the corpus's full 2013–2020 event history (rendered
//! as daily transaction dumps, decoded from text like a real follower
//! would) through the incremental [`hft_ingest::Applier`], publishing
//! each batch, and reports events/second.
//!
//! Phase B seeds a [`hft_ingest::SnapshotStore`] with the first half of
//! the history, serves it with `Server::run_live`, and ingests the
//! remaining batches on a paced background thread while client threads
//! hammer the server. Each answer is *generation-bracketed*: the client
//! reads the store generation before sending and after receiving.
//! When the brackets agree the answer is attributable to exactly one
//! corpus generation and must byte-match a reference service over that
//! generation's snapshot — a wrong answer is a hard failure. When a
//! publish lands mid-flight the answer is counted `unpinned` (either
//! generation would be a correct answer; the bracket just can't tell
//! which one was used).

use hft_bench::harness::{self, record, Book, Flag, Flags, Load, Verifier};
use hft_ingest::{decode_batch, Applier, SnapshotStore};
use hft_serve::json::Json;
use hft_serve::{Proto, Request};
use hft_uls::UlsDatabase;
use std::sync::Arc;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag::Value("--seconds", Some("3")),
    Flag::Value("--concurrency", Some("8")),
    Flag::Value("--publish-every", Some("4")),
    harness::SEED,
    harness::OUT,
];

fn main() -> std::process::ExitCode {
    harness::main(run)
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env("ingestload", FLAGS)?;
    let seconds = flags.non_negative("--seconds")?;
    let concurrency = flags.positive("--concurrency")?;
    let publish_every = flags.positive("--publish-every")?;
    let seed: u64 = flags.get("--seed")?;
    let (eco, licensees) = harness::corpus(seed);
    let (published, batches) = harness::history(&eco)?;
    let texts: Vec<String> = batches.iter().map(hft_ingest::encode_batch).collect();

    // ---- Phase A: pure ingest throughput (decode + apply + publish).
    let store_a = SnapshotStore::new(UlsDatabase::new());
    let mut applier = Applier::new(UlsDatabase::new());
    let started = Instant::now();
    for (text, batch) in texts.iter().zip(&batches) {
        let (decoded, report) = decode_batch(text).map_err(|e| format!("decode: {e}"))?;
        if !report.is_clean() {
            return Err(format!("{} quarantined records", report.count()));
        }
        harness::apply(&mut applier, &decoded)?;
        debug_assert_eq!(decoded.date, batch.date);
        applier.publish(&store_a);
    }
    let ingest_s = started.elapsed().as_secs_f64();
    let stats = applier.stats();
    applier.verify()?;
    // The replayed corpus is grant-date-ordered; compare license *sets*.
    let by_id = |licenses: &[hft_uls::License]| {
        let mut sorted = licenses.to_vec();
        sorted.sort_by_key(|l| l.id);
        sorted
    };
    if by_id(applier.db().licenses()) != by_id(published.licenses()) {
        return Err("replayed corpus differs from the published corpus".into());
    }
    let events_per_sec = stats.events() as f64 / ingest_s.max(1e-9);
    eprintln!(
        "ingest: {} events in {} batches in {:.3}s = {:.0} events/s",
        stats.events(),
        stats.batches,
        ingest_s,
        events_per_sec,
    );

    // ---- Phase B: serve under concurrent ingest.
    let mix = harness::live_mix(&licensees);
    let half = batches.len() / 2;
    let mut applier = harness::seed(&batches[..half])?;
    let store = Arc::new(SnapshotStore::new(UlsDatabase::new()));
    let book = Book::default();
    // Each published generation's corpus is registered as it lands; a
    // client that sees a generation before its registration counts the
    // answer unpinned, never compared against another generation.
    let publish = |applier: &Applier| {
        let generation = applier.publish(&store);
        book.register(generation, store.current().db_arc());
    };
    publish(&applier);
    let generations = || vec![store.generation()];
    let verifier = Verifier::Bracketed {
        mix: &mix,
        book: &book,
        generations: &generations,
    };
    let load = Load {
        mix: &mix,
        verifier: &verifier,
        bucket_of: &[],
        window: 1,
    };
    let serve = |s: &hft_serve::Server| s.run_live(&store);
    let queue_depth = (concurrency * 4).max(64);
    let (total, _, serve_stats) =
        harness::self_host(concurrency.clamp(4, 64), queue_depth, serve, |addr| {
            eprintln!(
                "serving generation {} on {addr}; ingesting {} batches behind it...",
                store.generation(),
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
    let final_generation = store.generation();
    let swaps = serve_stats.generation_swaps;
    let quantiles = ["p50", "p90", "p99", "p999"];

    println!(
        "ingest:  {:>7} events  {:>9.0} events/s  ({} batches, {} conflicts)",
        stats.events(),
        events_per_sec,
        stats.batches,
        stats.conflicts,
    );
    println!(
        "serve:   {}  ({final_generation} generations, {swaps} swaps observed)",
        total.line(&quantiles)
    );
    println!("answers: {}", total.answers());

    let serve = record! {
        ..total.fields(&quantiles);
        "concurrency" => concurrency as u64,
        "publish_every" => publish_every as u64,
        "generations" => final_generation,
        "generation_swaps" => swaps,
        "verified" => total.verified,
        "unpinned" => total.unpinned,
        "wrong_answers" => total.wrong,
        "overloaded_retries" => total.overloaded_retries,
    };
    let record = record! {
        "ingest" => Json::Obj(record! {
            "batches" => stats.batches,
            "events" => stats.events(),
            "conflicts" => stats.conflicts,
            "seconds" => ingest_s,
            "events_per_sec" => events_per_sec,
        }),
        "serve_under_ingest" => Json::Obj(serve),
        "seed" => seed,
    };
    let fnv = harness::requests_fnv64(mix.iter().map(Request::encode));
    harness::write_record(flags.opt("--out"), record, seed, fnv)?;
    total.check("generation-pinned answers")
}
