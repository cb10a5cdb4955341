//! `loadgen` — the hft-serve load scenario: replay a mixed analysis
//! workload against a running server (or a self-hosted one) at
//! configurable concurrency, verify every answer byte-for-byte against
//! direct `AnalysisSession` computation, and report latency percentiles
//! + throughput (a JSON record under `--out`).
//!
//! ```text
//! # self-hosted (binds its own server on a free port):
//! cargo run --release -p hft-bench --bin loadgen -- --out BENCH_serve.json
//!
//! # both protocols (json, bin), each on a fresh self-hosted server:
//! cargo run --release -p hft-bench --bin loadgen -- --matrix
//!
//! # against an external `hftnetview serve` (seeds must match):
//! cargo run --release -p hft-bench --bin loadgen -- \
//!     --connect 127.0.0.1:4710 --seconds 1 --concurrency 4 --shutdown-server
//! ```
//!
//! Two timed phases over the same workload: a single-threaded serial
//! client loop (one request in flight, ever), then the concurrent phase
//! (`--concurrency` connections, `--window` pipelined requests each).
//! The speedup between them is what the serving layer buys: batched
//! syscalls, back-to-back worker dispatch, and single-flight coalescing
//! of identical in-flight computations (weather Monte Carlo requests are
//! not session-cached, so the serial loop pays them every time while
//! concurrent duplicates share one evaluation).
//!
//! `--proto bin` negotiates the compact binary codec over the same
//! frames; the harness verifies the *decoded* response re-encoded with
//! the canonical JSON codec, so a wrong answer cannot hide behind a
//! different wire format. `--matrix` self-hosts a fresh server per
//! protocol and reports both cells plus the speedup of bin/evented over
//! the json/evented baseline measured in the same run at the same
//! settings. Each self-hosted cell starts with an empty flight
//! recorder, so the traces it prints are its own.
//!
//! A byte mismatch is a hard failure — the harness exits non-zero. Any
//! latency bucket whose p90/p50 ratio exceeds 10x gets a loud
//! `TAIL ALERT` line so queueing regressions fail visibly in CI smoke
//! output.

use hft_bench::harness::{self, record, Flag, Flags, Load, Tally, Until, Verifier};
use hft_obs::RegistrySnapshot;
use hft_serve::json::Json;
use hft_serve::{Proto, Request, Service, WireTrace};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use std::net::{SocketAddr, ToSocketAddrs};

const FLAGS: &[Flag] = &[
    Flag::Value("--connect", None),
    Flag::Value("--seconds", Some("5")),
    Flag::Value("--concurrency", Some("32")),
    Flag::Value("--window", Some("8")),
    harness::SEED,
    Flag::Switch("--shutdown-server"),
    harness::OUT,
    Flag::Value("--shards", Some("0")),
    Flag::Value("--proto", Some("json")),
    Flag::Switch("--matrix"),
];

/// The mixed workload: the paper's query surface with hot-spot
/// duplication (many clients asking the same things), which is what the
/// single-flight layer exists for.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let d2019 = Date::new(2019, 1, 1).unwrap();
    let pairs = [("CME", "NY4"), ("CME", "NYSE"), ("CME", "NASDAQ")];
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020, d2019] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        for (from, to) in pairs {
            mix.push(Request::Route {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
            });
        }
        mix.push(Request::Apa {
            licensee: name.clone(),
            date: d2020,
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
    for _ in 0..4 {
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
    }
    // Hot weather queries: few distinct computations, many repeats. The
    // Monte Carlo is the one expensive, non-session-cached request. Hot
    // race queries ride the same weather Monte Carlo, but behind the race
    // engine's per-(pair, seed) cache — repeats after the first are cache
    // hits, so the tail attribution shows where the cold computation
    // lands.
    let hot: Vec<(&String, &str)> = licensees
        .iter()
        .take(2)
        .flat_map(|name| [(name, "NY4"), (name, "NYSE")])
        .collect();
    for &(name, to) in hot.iter().cycle().take(24) {
        mix.push(Request::Weather {
            licensee: name.clone(),
            date: d2020,
            from: "CME".into(),
            to: to.into(),
            samples: 60_000,
            seed: 7,
        });
    }
    for &(name, to) in hot.iter().cycle().take(12) {
        mix.push(Request::Race {
            licensee: name.clone(),
            date: d2020,
            from: "CME".into(),
            to: to.into(),
            constellation: "starlink".into(),
            samples: 20_000,
            seed: 7,
        });
    }
    if let Some(name) = licensees.first() {
        mix.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020,
            constellation: "starlink".into(),
        });
    }
    mix
}

/// Emit a loud alert when the p90/p50 ratio of a latency population
/// exceeds 10x — the tail is no longer a tail, it's a queueing or
/// skew pathology, and it should jump out of CI smoke output.
fn tail_alert(label: &str, latencies: &hft_obs::HistogramSnapshot) {
    if let [(_, p50), (_, p90)] = harness::quantiles_ms(latencies, &["p50", "p90"])[..] {
        if p50 > 0.0 && p90 / p50 > 10.0 {
            println!(
                "TAIL ALERT [{label}]: p90/p50 = {:.1}x exceeds 10x (p50 {p50:.3} ms, p90 {p90:.3} ms)",
                p90 / p50
            );
        }
    }
}

/// Where the wire time went during one self-hosted cell: deltas of the
/// server's `serve.decode_ns`/`serve.encode_ns`/`serve.poll_wake_ns`
/// histograms and buffer-pool counters since `before` (the registry is
/// process-global and cumulative, so each cell is the after-minus-before
/// difference), as a report line and the record's `wire` block.
fn wire_sample(before: &RegistrySnapshot) -> (String, Json) {
    let d = hft_obs::registry::delta(before, &hft_obs::global().snapshot());
    let decode = d.histogram("serve.decode_ns");
    let encode = d.histogram("serve.encode_ns");
    let wake = d.histogram("serve.poll_wake_ns");
    let (hits, misses) = (
        d.counter("serve.bufpool_hits"),
        d.counter("serve.bufpool_misses"),
    );
    let line = format!(
        "wire: decode {:.1} us mean (n={}), encode {:.1} us mean (n={}), poll wake \
         {:.1} us mean (n={}), bufpool {:.1}% hit",
        decode.mean() / 1e3,
        decode.count,
        encode.mean() / 1e3,
        encode.count,
        wake.mean() / 1e3,
        wake.count,
        hits as f64 / (hits + misses).max(1) as f64 * 100.0,
    );
    let json = Json::Obj(record! {
        "decode_count" => decode.count,
        "decode_mean_ns" => decode.mean(),
        "encode_count" => encode.count,
        "encode_mean_ns" => encode.mean(),
        "poll_wake_count" => wake.count,
        "poll_wake_mean_ns" => wake.mean(),
        "bufpool_hits" => hits,
        "bufpool_misses" => misses,
    });
    (line, json)
}

/// One protocol cell of the benchmark matrix.
struct Combo {
    proto: Proto,
    /// `remote` for an external server (`--connect`), else `evented`.
    io: &'static str,
    serial: Tally,
    concurrent: Tally,
    /// Server-side wire attribution (report line, record block); only
    /// available when the server shares this process (self-hosted runs).
    wire: Option<(String, Json)>,
    /// The slowest captured traces, pulled from the server's flight
    /// recorder after the concurrent phase — the waterfall behind any
    /// `TAIL ALERT` this cell prints.
    traces: Vec<WireTrace>,
}

impl Combo {
    fn label(&self) -> String {
        format!("{}/{}", self.proto.name(), self.io)
    }

    fn speedup(&self) -> f64 {
        if self.serial.rps() > 0.0 {
            self.concurrent.rps() / self.serial.rps()
        } else {
            0.0
        }
    }

    fn print(&self) {
        let (serial, concurrent) = (&self.serial, &self.concurrent);
        println!("=== {} ===", self.label());
        println!("serial:     {}", serial.line(&["p50", "max"]));
        let concurrent_quantiles = ["p50", "p90", "p95", "p99", "p999", "max"];
        println!("concurrent: {}", concurrent.line(&concurrent_quantiles));
        println!(
            "speedup {:.1}x, {} overloaded retries, {} wrong answers",
            self.speedup(),
            serial.overloaded_retries + concurrent.overloaded_retries,
            serial.wrong + concurrent.wrong
        );
        if let Some((line, _)) = &self.wire {
            println!("{line}");
        }
        tail_alert(
            &format!("{} concurrent", self.label()),
            &concurrent.latencies,
        );
        harness::print_traces("", &self.traces);
    }

    /// The cell's `proto`, `io`, `serial` and `concurrent` fields, with
    /// `wrong` as the concurrent block's `wrong_answers`.
    fn fields(&self, concurrency: usize, window: usize, wrong: u64) -> Vec<(String, Json)> {
        let concurrent = record! {
            ..self.concurrent.fields(&["p50", "p90", "p95", "p99", "p999", "max"]);
            "concurrency" => concurrency as u64,
            "window" => window as u64,
            "overloaded_retries" => self.concurrent.overloaded_retries,
            "wrong_answers" => wrong,
        };
        record! {
            "proto" => self.proto.name(),
            "io" => self.io,
            "serial" => Json::Obj(self.serial.fields(&["p50", "max"])),
            "concurrent" => Json::Obj(concurrent),
        }
    }
}

fn main() -> std::process::ExitCode {
    harness::main(run)
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env("loadgen", FLAGS)?;
    let seconds = flags.non_negative("--seconds")?;
    let concurrency = flags.positive("--concurrency")?;
    let window = flags.positive("--window")?;
    let shards: usize = flags.get("--shards")?;
    let seed: u64 = flags.get("--seed")?;
    let proto = flags.get::<String>("--proto")?;
    let proto = Proto::parse(&proto).ok_or(format!("bad proto {proto:?} (json|bin)"))?;
    let matrix = flags.on("--matrix");
    if matrix && flags.opt("--connect").is_some() {
        return Err(
            "--matrix self-hosts a server per combo; it cannot be used with --connect".into(),
        );
    }
    let (eco, licensees) = harness::corpus(seed);
    let mix = workload(&licensees);

    // Ground truth: the same requests answered by a direct in-process
    // session, encoded with the same canonical codec.
    eprintln!("computing {} expected answers locally...", mix.len());
    let verifier = Verifier::fixed(&Service::new(&eco.db), &mix);

    // Optional per-shard latency breakout: attribute each request to the
    // shard a licensee-hash fleet would route it to (last bucket =
    // broadcast). This is client-side bookkeeping — it works against any
    // server and lets the p90-vs-p50 queueing gap be pinned on a shard.
    let bucket_of = if shards > 0 {
        harness::attribution(&mix, shards, ShardStrategy::LicenseeHash)
    } else {
        Vec::new()
    };
    let load = |window| Load {
        mix: &mix,
        verifier: &verifier,
        bucket_of: &bucket_of,
        window,
    };

    // Warm (every request once, so both timed phases hit a warm server),
    // then the serial and the concurrent phase against one server.
    let phases = |addr: SocketAddr, proto: Proto| -> Result<(Tally, Tally), String> {
        harness::warm(&addr, proto, &mix)?;
        eprintln!("warm; serial phase ({seconds:.1}s)...");
        let conn = vec![harness::connect_retry(&addr, proto)?];
        let serial = harness::run(conn, &load(1), |_| 0, Until::Seconds(seconds))?;
        eprintln!(
            "serial: {} requests in {:.2}s = {:.0} rps; concurrent phase ({concurrency} conns, \
             window {window})...",
            serial.completed,
            serial.elapsed_s,
            serial.rps(),
        );
        // Connect everyone first so the timed window measures serving,
        // not connection setup.
        let conns = (0..concurrency)
            .map(|_| harness::connect_retry(&addr, proto))
            .collect::<Result<Vec<_>, _>>()?;
        let concurrent = harness::run(conns, &load(window), |i| i * 13, Until::Seconds(seconds))?;
        Ok((serial, concurrent))
    };

    let combos: Vec<Combo> = match flags.opt("--connect") {
        Some(spec) => {
            let addr = spec
                .to_socket_addrs()
                .map_err(|e| format!("bad --connect {spec:?}: {e}"))?
                .next()
                .ok_or(format!("--connect {spec:?} resolved to nothing"))?;
            let (serial, concurrent) = phases(addr, proto)?;
            let traces = harness::finish(&addr, flags.on("--shutdown-server"))?;
            vec![Combo {
                proto,
                io: "remote",
                serial,
                concurrent,
                wire: None,
                traces,
            }]
        }
        // The matrix baseline cell (json) runs first, the acceptance cell
        // (bin) last; every cell gets a fresh server whose worker pool is
        // sized identically, so cells are comparable.
        None => {
            let protos = if matrix {
                vec![Proto::Json, Proto::Binary]
            } else {
                vec![proto]
            };
            let width = concurrency * window;
            let cell = |proto: Proto| -> Result<Combo, String> {
                let before = hft_obs::global().snapshot();
                let serve = |server: &hft_serve::Server| server.run(&eco.db);
                let hosted =
                    harness::self_host(width.clamp(8, 256), width.max(64), serve, |addr| {
                        eprintln!("[{}/evented] self-hosting on {addr}", proto.name());
                        phases(addr, proto)
                    })?;
                let ((serial, concurrent), traces, _) = hosted;
                Ok(Combo {
                    proto,
                    io: "evented",
                    serial,
                    concurrent,
                    wire: Some(wire_sample(&before)),
                    traces,
                })
            };
            protos.into_iter().map(cell).collect::<Result<_, _>>()?
        }
    };

    for combo in &combos {
        combo.print();
    }

    // The cell that headlines the top-level summary: bin/evented when
    // the matrix ran, otherwise the single cell that was measured.
    let primary = combos
        .iter()
        .find(|c| c.proto == Proto::Binary && c.io == "evented")
        .unwrap_or(&combos[0]);
    let baseline = combos
        .iter()
        .find(|c| c.proto == Proto::Json && c.io == "evented");
    let matrix_speedup = baseline.filter(|b| matrix && b.concurrent.rps() > 0.0);
    let wrong_total: u64 = combos
        .iter()
        .map(|c| c.serial.wrong + c.concurrent.wrong)
        .sum();
    let runs: Vec<Json> = combos
        .iter()
        .map(|c| {
            let mut run = c.fields(concurrency, window, c.serial.wrong + c.concurrent.wrong);
            run.extend(c.wire.clone().map(|(_, w)| ("wire".to_string(), w)));
            Json::Obj(run)
        })
        .collect();
    // Top-level serial/concurrent mirror the primary cell so existing
    // consumers of the serve record keep working; "runs" carries every
    // measured protocol cell.
    let mut record = record! {
        ..primary.fields(concurrency, window, wrong_total);
        "workload" => Json::Obj(record! {
            "distinct_requests" => mix.len() as u64,
            "seed" => seed,
        }),
        "speedup" => primary.speedup(),
        "runs" => Json::Arr(runs),
    };
    if let Some(baseline) = matrix_speedup {
        let speedup = primary.concurrent.rps() / baseline.concurrent.rps();
        println!(
            "matrix: bin/evented {:.0} rps vs json/evented {:.0} rps = {speedup:.2}x",
            primary.concurrent.rps(),
            baseline.concurrent.rps(),
        );
        record.extend(record! { "speedup_bin_vs_json" => speedup });
    }

    // Per-shard breakout of the primary cell's concurrent phase: where
    // does the tail live? The bucket with the widest p90-p50 gap is the
    // queueing culprit — a shard, or the broadcast fan-out.
    if shards > 0 {
        let quantiles = ["p50", "p90", "p99", "p999", "max"];
        let buckets = &primary.concurrent.by_bucket;
        let label = |b| harness::bucket_label(b, shards);
        let rows = harness::breakout(buckets, label, ("label", "requests"), &quantiles);
        let mut worst: Option<(String, f64)> = None;
        for (b, shard) in buckets.iter().enumerate().filter(|(_, h)| h.count > 0) {
            tail_alert(&label(b), shard);
            let q = harness::quantiles_ms(shard, &["p50", "p90"]);
            let gap = q[1].1 - q[0].1;
            if worst.as_ref().is_none_or(|(_, g)| gap > *g) {
                worst = Some((label(b), gap));
            }
        }
        if let Some((label, gap)) = &worst {
            println!("  widest p90-p50 gap: {label} ({gap:.3} ms)");
        }
        record.extend(record! { "per_shard" => Json::Arr(rows) });
    }

    let fnv = harness::requests_fnv64(mix.iter().map(Request::encode));
    harness::write_record(flags.opt("--out"), record, seed, fnv)?;
    for c in &combos {
        c.serial.check(&format!("{} serial", c.label()))?;
        c.concurrent.check(&format!("{} concurrent", c.label()))?;
    }
    Ok(())
}
