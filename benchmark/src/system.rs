//! Building the system under test — the part of a run that `setup_s`
//! times — and the post-window verification that needs a corpus again.

use crate::phase::{answer_bytes, pi, Deferred, Tally};
use crate::workload::{fnv64, Inputs, CORPUS_SEED, FLEET_SHARDS, FNV_BASIS, PUBLISH_EVERY};
use hft_corridor::{chicago_nj, generate};
use hft_ingest::{render_history, Applier, DumpBatch, ShardedStore};
use hft_serve::Service;
use hft_uls::shard::ShardStrategy;
use hft_uls::UlsDatabase;
use std::collections::HashMap;

/// The paper's corpus and its CME–NY4 connected networks (sorted).
pub struct Corpus {
    /// Every license.
    pub db: UlsDatabase,
    /// Networks connected CME–NY4 as of 2020-04-01.
    pub connected: Vec<String>,
}

/// Generate the corpus and build its indexes.
pub fn corpus() -> Corpus {
    let eco = generate(&chicago_nj(), CORPUS_SEED);
    let mut connected = eco.connected_2020;
    connected.sort();
    Corpus {
        db: eco.db,
        connected,
    }
}

/// The corpus as the scraper would have seen it day by day.
pub struct History {
    /// Daily dump batches, oldest first.
    pub batches: Vec<DumpBatch>,
    /// Batches before this index seed the fleet; the rest are replayed.
    pub half: usize,
    /// Every licensee of the published corpus.
    pub licensees: Vec<String>,
}

/// Render the corpus's history from its published flat-file form.
pub fn history(db: &UlsDatabase) -> Result<History, String> {
    let published = hft_uls::flatfile::decode(&hft_uls::flatfile::encode(db.licenses()))
        .map_err(|e| format!("corpus round trip: {e}"))?;
    let published = UlsDatabase::from_licenses(published);
    let batches = render_history(published.licenses());
    Ok(History {
        half: batches.len() / 2,
        licensees: published
            .licensees()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        batches,
    })
}

/// An applier holding the first half of the history.
pub fn seeded_applier(h: &History) -> Result<Applier, String> {
    let mut applier = Applier::new(UlsDatabase::new());
    for batch in &h.batches[..h.half] {
        if let Some(c) = applier.apply(batch).first() {
            return Err(format!("seed ingest conflict: {c}"));
        }
    }
    Ok(applier)
}

/// The 4-shard licensee-hash fleet over the applier's corpus.
pub fn fleet(applier: &Applier) -> ShardedStore {
    ShardedStore::seeded(
        applier.db(),
        FLEET_SHARDS,
        ShardStrategy::LicenseeHash,
        applier.last_date(),
    )
}

/// Check fresh-seed Monte-Carlo answers against a reference service
/// over a freshly generated corpus, on two threads.
pub fn verify_unique(inputs: &Inputs, deferred: Vec<Deferred>, tally: &mut Tally) {
    if deferred.is_empty() {
        return;
    }
    let corpus = corpus();
    let reference = Service::new(&corpus.db);
    let half = deferred.len().div_ceil(2);
    let verdicts: Vec<bool> = std::thread::scope(|s| {
        let parts: Vec<_> = deferred
            .chunks(half)
            .map(|part| {
                let reference = &reference;
                s.spawn(move || {
                    part.iter()
                        .map(|d| {
                            let resp = reference.handle(&inputs.request(d.idx, d.seed));
                            fnv64(FNV_BASIS, &answer_bytes(d.proto, &resp)) == d.hash
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("verifier panicked"))
            .collect()
    });
    for (d, ok) in deferred.iter().zip(verdicts) {
        settle(tally, d, ok, false, inputs);
    }
}

/// Check fleet answers against a single-corpus reference at each
/// generation they could have been answered from, replaying the
/// history to rebuild every generation in turn.
pub fn verify_fleet(
    inputs: &Inputs,
    h: &History,
    deferred: Vec<Deferred>,
    tally: &mut Tally,
) -> Result<(), String> {
    if deferred.is_empty() {
        return Ok(());
    }
    let mut wanted: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    for d in &deferred {
        for g in d.gen_lo..=d.gen_hi {
            wanted.entry(g).or_default().push((d.idx, pi(d.proto)));
        }
    }
    let last = wanted.keys().copied().max().unwrap_or(0);
    let mut refs: HashMap<(u64, usize, usize), u64> = HashMap::new();
    let mut applier = seeded_applier(h)?;
    let replay = &h.batches[h.half..];
    for g in 0..=last {
        if g > 0 {
            let from = (g as usize - 1) * PUBLISH_EVERY;
            for batch in replay.get(from..from + PUBLISH_EVERY).unwrap_or(&[]) {
                applier.apply(batch);
            }
        }
        let Some(keys) = wanted.get_mut(&g) else {
            continue;
        };
        keys.sort_unstable();
        keys.dedup();
        let reference = Service::new(applier.db());
        for &(idx, p) in keys.iter() {
            let proto = if p == 0 {
                hft_serve::Proto::Json
            } else {
                hft_serve::Proto::Binary
            };
            let resp = reference.handle(&inputs.mix[idx]);
            refs.insert((g, idx, p), fnv64(FNV_BASIS, &answer_bytes(proto, &resp)));
        }
    }
    for d in &deferred {
        let ok = (d.gen_lo..=d.gen_hi).any(|g| refs.get(&(g, d.idx, pi(d.proto))) == Some(&d.hash));
        settle(tally, d, ok, d.gen_lo != d.gen_hi, inputs);
    }
    Ok(())
}

/// Book one post-window verdict. An answer that straddled a publish
/// and matches no single generation is unpinned, not wrong.
fn settle(tally: &mut Tally, d: &Deferred, ok: bool, straddled: bool, inputs: &Inputs) {
    if ok {
        tally.ok += 1;
        tally.latencies_ns.extend(d.latency_ns);
    } else if straddled {
        tally.unpinned += 1;
        tally.unpinned_latencies_ns.extend(d.latency_ns);
    } else {
        tally.wrong += 1;
        if tally.first_failure.is_none() {
            tally.first_failure = Some(format!(
                "wrong bytes for {:?} (generation {})",
                inputs.request(d.idx, d.seed),
                d.gen_lo
            ));
        }
    }
}
