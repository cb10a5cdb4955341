//! The load harness behind every load generator (`loadgen`, `fleetload`,
//! `ingestload`, `raceload`, `httpload`).
//!
//! A load generator is a *scenario*: a request mix, a server topology
//! and the report fields only it has. Everything else lives here, once:
//! the flag parser, corpus and history setup, self-hosting with a
//! protocol shutdown, the load loop, the verifier, the tally and the
//! JSON record writer.
//!
//! # Adding a scenario
//!
//! 1. Declare the binary's flags as a `&[Flag]` (reuse [`SEED`] and
//!    [`OUT`]) and read them with [`Flags::from_env`]; unknown flags are
//!    rejected with the binary's own usage line.
//! 2. Build the corpus with [`corpus`] (plus [`history`] and [`seed`]
//!    for a live-ingesting scenario, served with [`run_replaying`]) and
//!    the request mix from it.
//! 3. Pick how answers are judged: [`Verifier::fixed`] byte-compares
//!    against a reference handler's answers; [`Verifier::Bracketed`]
//!    compares against a [`Book`] entry for the generation that was
//!    current both before sending and after receiving.
//! 4. [`self_host`] the server (or [`finish`] an external one) and
//!    [`run`] N connections over it with a window of W pipelined
//!    requests, until a deadline or a done flag. The result is a
//!    [`Tally`].
//! 5. Print the report, build the record with [`record!`] and
//!    [`Tally::fields`], pass it to [`write_record`] (which writes only
//!    under `--out`), and end with [`Tally::check`], which fails the run
//!    on any wrong answer or on a run that verified nothing.
//! 6. Register the binary in `Cargo.toml` and give it a CI smoke step.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_ingest::{render_history, Applier, DumpBatch};
use hft_obs::HistogramSnapshot;
use hft_serve::json::Json;
use hft_serve::{
    Client, Handler, Proto, Request, Response, ServeConfig, ServeSnapshot, Server, Service,
    WireTrace,
};
use hft_time::Date;
use hft_uls::shard::{fnv1a, shard_of_licensee, ShardStrategy};
use hft_uls::UlsDatabase;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::io;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- flags

/// One command-line flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--name VALUE`, with the value used when the flag is absent.
    Value(&'static str, Option<&'static str>),
    /// `--name`, off unless given.
    Switch(&'static str),
}

/// `--seed N`, defaulting to [`crate::REPRO_SEED`].
pub const SEED: Flag = Flag::Value("--seed", Some("2020"));
/// `--out PATH`: where to write the JSON record (none: no file).
pub const OUT: Flag = Flag::Value("--out", None);

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Value(name, _) | Flag::Switch(name) => name,
        }
    }
}

/// Parsed flags: every given value, and the defaults of the rest.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<&'static str, String>,
}

impl Flags {
    /// Parse this process's arguments against `spec`.
    pub fn from_env(bin: &str, spec: &[Flag]) -> Result<Flags, String> {
        Flags::parse(bin, spec, std::env::args().skip(1))
    }

    /// Parse `args` against `spec`. An undeclared flag is an error that
    /// lists `bin`'s flags; a later occurrence overrides an earlier one.
    pub fn parse(
        bin: &str,
        spec: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut values = HashMap::new();
        for flag in spec {
            if let Flag::Value(name, Some(default)) = flag {
                values.insert(*name, default.to_string());
            }
        }
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match spec.iter().find(|f| f.name() == arg) {
                Some(Flag::Value(name, _)) => {
                    let value = args.next().ok_or(format!("{name} needs a value"))?;
                    values.insert(*name, value);
                }
                Some(Flag::Switch(name)) => {
                    values.insert(*name, String::new());
                }
                None => {
                    let usage: Vec<String> =
                        spec.iter().map(|f| format!("[{}]", f.name())).collect();
                    let usage = usage.join(" ");
                    return Err(format!("unknown argument {arg:?}\nusage: {bin} {usage}"));
                }
            }
        }
        Ok(Flags { values })
    }

    /// The value of `name`, if given or defaulted.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The value of `name`, parsed.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt(name)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("bad {name}"))
    }

    /// The value of `name` as a count that must be at least 1.
    pub fn positive(&self, name: &str) -> Result<usize, String> {
        match self.get(name)? {
            0 => Err(format!("{name} must be positive")),
            n => Ok(n),
        }
    }

    /// The value of `name` as a finite, non-negative number (a
    /// duration in seconds; zero is allowed).
    pub fn non_negative(&self, name: &str) -> Result<f64, String> {
        let v: f64 = self.get(name)?;
        if v >= 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(format!("{name} must be finite and not negative"))
        }
    }
}

/// Run a scenario as the process body: print its error and exit
/// non-zero on failure.
pub fn main(run: fn() -> Result<(), String>) -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- corpus

/// The seeded corpus and its connected-2020 licensees, sorted.
pub fn corpus(seed: u64) -> (GeneratedEcosystem, Vec<String>) {
    eprintln!("generating corpus (seed {seed})...");
    let eco = generate(&chicago_nj(), seed);
    let mut licensees = eco.connected_2020.clone();
    licensees.sort();
    (eco, licensees)
}

/// The dump-visible corpus (what the flat-file dialect can carry) and
/// its event history rendered as daily transaction dumps.
pub fn history(eco: &GeneratedEcosystem) -> Result<(UlsDatabase, Vec<DumpBatch>), String> {
    let text = hft_uls::flatfile::encode(eco.db.licenses());
    let published = hft_uls::flatfile::decode(&text)
        .map(UlsDatabase::from_licenses)
        .map_err(|e| format!("corpus round trip: {e}"))?;
    let batches = render_history(published.licenses());
    let date = |b: Option<&DumpBatch>| b.map(|b| b.date.to_iso()).unwrap_or_default();
    eprintln!(
        "history: {} daily batches over {}..{}",
        batches.len(),
        date(batches.first()),
        date(batches.last()),
    );
    Ok((published, batches))
}

/// Apply one batch; any conflict is an error.
pub fn apply(applier: &mut Applier, batch: &DumpBatch) -> Result<(), String> {
    match applier.apply(batch).first() {
        Some(conflict) => Err(format!(
            "ingest conflict on {}: {conflict}",
            batch.date.to_iso()
        )),
        None => Ok(()),
    }
}

/// An applier over an empty corpus with `batches` applied in order.
pub fn seed(batches: &[DumpBatch]) -> Result<Applier, String> {
    let mut applier = Applier::new(UlsDatabase::new());
    for batch in batches {
        apply(&mut applier, batch)?;
    }
    Ok(applier)
}

/// The live-corpus query mix (`ingestload`; `fleetload` adds a funnel
/// query): session-cached analysis per licensee plus index-backed
/// searches — every request answerable (if only emptily) at every
/// corpus generation.
pub fn live_mix(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).expect("valid date");
    let d2016 = Date::new(2016, 6, 1).expect("valid date");
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
    mix
}

/// Drive `conns` over `load` (connection `i` from mix entry `7i`) while
/// a background thread applies `batches` paced evenly over `seconds`,
/// calling `publish` after every `every` batches and once at the end.
/// The clients stop when the replay ends — also on a conflict, which is
/// then the run's error.
pub fn run_replaying(
    conns: Vec<Client>,
    load: &Load<'_, Request>,
    applier: &mut Applier,
    batches: &[DumpBatch],
    every: usize,
    seconds: f64,
    mut publish: impl FnMut(&Applier) + Send,
) -> Result<Tally, String> {
    let pace = Duration::from_secs_f64(seconds / batches.len().max(1) as f64);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let replayer = scope.spawn(|| {
            let result: Result<(), String> =
                batches.iter().enumerate().try_for_each(|(i, batch)| {
                    apply(applier, batch)?;
                    if (i + 1) % every == 0 {
                        publish(applier);
                    }
                    std::thread::sleep(pace);
                    Ok(())
                });
            if result.is_ok() {
                publish(applier);
            }
            done.store(true, Ordering::Relaxed);
            result
        });
        let tally = run(conns, load, |i| i * 7, Until::Done(&done));
        replayer
            .join()
            .map_err(|_| "replay thread panicked".to_string())??;
        tally
    })
}

/// Which latency bucket each request lands in on a `shards`-shard
/// fleet: a licensee-bearing request under a name-routed strategy
/// belongs to its owning shard; everything else is scatter-gathered
/// and lands in the last bucket, `broadcast`.
pub fn attribution(mix: &[Request], shards: usize, strategy: ShardStrategy) -> Vec<usize> {
    mix.iter()
        .map(|req| match req {
            Request::Network { licensee, .. }
            | Request::Route { licensee, .. }
            | Request::Apa { licensee, .. }
            | Request::Weather { licensee, .. }
            | Request::Race { licensee, .. }
            | Request::StretchSweep { licensee, .. }
                if strategy.routes_by_name() =>
            {
                shard_of_licensee(licensee, shards) as usize
            }
            _ => shards,
        })
        .collect()
}

/// Label of attribution bucket `bucket` among `shards` shards.
pub fn bucket_label(bucket: usize, shards: usize) -> String {
    if bucket == shards {
        "broadcast".into()
    } else {
        format!("shard{bucket}")
    }
}

// ---------------------------------------------------------------- hosting

/// Connect to `addr`, retrying for up to three minutes while an
/// external server is still building its corpus.
pub fn connect_retry(addr: &SocketAddr, proto: Proto) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        match Client::connect_with(addr, proto) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("could not connect to {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
}

/// Ask every request once, resending on `Overloaded`, so the timed
/// phases start on a warm server.
pub fn warm(addr: &SocketAddr, proto: Proto, requests: &[Request]) -> Result<(), String> {
    let mut client = connect_retry(addr, proto)?;
    for request in requests {
        while client.call(request).map_err(|e| format!("warmup: {e}"))? == Response::Overloaded {}
    }
    Ok(())
}

/// Pull the server's slowest captured traces (none from a server that
/// does not answer `traces`), then, when `shutdown`, stop it over the
/// protocol.
pub fn finish(addr: &SocketAddr, shutdown: bool) -> Result<Vec<WireTrace>, String> {
    let mut client = connect_retry(addr, Proto::Json)?;
    let traces = match client.call(&Request::Traces {
        limit: 3,
        trace_id: None,
    }) {
        Ok(Response::Traces { traces }) => traces,
        _ => Vec::new(),
    };
    if shutdown {
        let ack = client
            .call(&Request::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        if ack != Response::ShuttingDown {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
    }
    Ok(traces)
}

/// Bind a server on a free local port, serve with `serve` on its own
/// thread, hand the address to `work`, then pull traces and shut the
/// server down over the protocol — even when `work` failed. Returns what
/// `work` returned, the slowest traces captured while the run served
/// (the flight recorder is process-wide, so it is emptied first) and the
/// server's final serving-layer counters.
pub fn self_host<T>(
    workers: usize,
    queue_depth: usize,
    serve: impl FnOnce(&Server) -> io::Result<ServeSnapshot> + Send,
    work: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<(T, Vec<WireTrace>, ServeSnapshot), String> {
    hft_obs::clear_traces();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&server));
        // A panic in `work` must still stop the server: the scope waits
        // for the server thread, which would otherwise serve forever.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(addr)));
        let traces = finish(&addr, true);
        let joined = server.join();
        let out = out.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let stats = joined
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        Ok((out?, traces?, stats))
    })
}

// ---------------------------------------------------------------- load loop

/// One answer as a transport delivers it.
pub enum Reply {
    /// Admission backpressure: the load loop resends the same request.
    Overloaded,
    /// The answer's canonical bytes.
    Body(Vec<u8>),
    /// An answer the transport itself marks failed (an HTTP error
    /// status), with why.
    Refused(String),
}

/// A connection the load loop can pipeline requests over.
pub trait Transport: Send {
    /// What the mix holds for this transport.
    type Request: Debug + Sync;
    /// The protocol's name, for reports.
    fn name(&self) -> &'static str;
    /// Queue one request.
    fn send(&mut self, request: &Self::Request) -> io::Result<()>;
    /// Put every queued request on the wire.
    fn flush(&mut self) -> io::Result<()>;
    /// Read the oldest outstanding answer.
    fn recv(&mut self) -> io::Result<Reply>;
}

/// The wire client. A decoded response is re-encoded with the
/// canonical JSON codec, so verification is independent of the wire
/// format: a wrong answer cannot hide behind the binary codec.
impl Transport for Client {
    type Request = Request;

    fn name(&self) -> &'static str {
        self.proto().name()
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        Client::send(self, request)
    }

    fn flush(&mut self) -> io::Result<()> {
        Client::flush(self)
    }

    fn recv(&mut self) -> io::Result<Reply> {
        Ok(match Client::recv(self)? {
            Response::Overloaded => Reply::Overloaded,
            response => Reply::Body(response.encode()),
        })
    }
}

/// When connections stop issuing requests; each then drains what it
/// has in flight.
#[derive(Debug, Clone, Copy)]
pub enum Until<'a> {
    /// This many seconds after the run starts.
    Seconds(f64),
    /// Once the flag is raised.
    Done(&'a AtomicBool),
}

/// What every connection of a run sends and how answers are judged.
pub struct Load<'a, Q> {
    /// The request mix, cycled from each connection's offset.
    pub mix: &'a [Q],
    /// How each answer is judged.
    pub verifier: &'a Verifier<'a>,
    /// Latency bucket of each mix entry; empty for no breakout.
    pub bucket_of: &'a [usize],
    /// Requests each connection keeps in flight (1: a serial client).
    pub window: usize,
}

/// Drive `conns` concurrently over `load` until `until`, connection `i`
/// starting at mix entry `offset(i)`, and merge their tallies.
/// `Overloaded` answers are counted and resent. `elapsed_s` spans the
/// whole run, drain included.
pub fn run<T: Transport>(
    conns: Vec<T>,
    load: &Load<'_, T::Request>,
    offset: impl Fn(usize) -> usize,
    until: Until<'_>,
) -> Result<Tally, String> {
    if load.mix.is_empty() {
        return Err("empty request mix".into());
    }
    let buckets = load.bucket_of.iter().max().map_or(0, |m| m + 1);
    let started = Instant::now();
    let live = || match until {
        Until::Seconds(s) => started.elapsed().as_secs_f64() < s,
        Until::Done(done) => !done.load(Ordering::Relaxed),
    };
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let live = &live;
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut conn)| {
                let start = offset(i);
                scope.spawn(move || drive(&mut conn, load, start, buckets, live))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally?);
    }
    total.elapsed_s = started.elapsed().as_secs_f64();
    Ok(total)
}

/// One connection: keep up to `window` requests in flight while `live`,
/// then drain.
fn drive<T: Transport>(
    conn: &mut T,
    load: &Load<'_, T::Request>,
    offset: usize,
    buckets: usize,
    live: &(dyn Fn() -> bool + Sync),
) -> Result<Tally, String> {
    let name = conn.name();
    let io = |e: io::Error| format!("{name} IO: {e}");
    let mix = load.mix;
    let mut tally = Tally {
        by_bucket: vec![HistogramSnapshot::new(); buckets],
        ..Tally::default()
    };
    let mut next = offset % mix.len();
    let mut resend = VecDeque::new();
    let mut pending = VecDeque::new();
    loop {
        let mut queued = false;
        while pending.len() < load.window && live() {
            let idx = resend.pop_front().unwrap_or_else(|| {
                let idx = next;
                next = (next + 1) % mix.len();
                idx
            });
            let pin = load.verifier.pin();
            conn.send(&mix[idx]).map_err(io)?;
            pending.push_back((idx, pin, Instant::now()));
            queued = true;
        }
        if queued {
            conn.flush().map_err(io)?;
        }
        let Some((idx, pin, sent)) = pending.pop_front() else {
            break; // stopped, with nothing in flight
        };
        let got = match conn.recv().map_err(io)? {
            Reply::Overloaded => {
                tally.overloaded_retries += 1;
                resend.push_back(idx);
                continue;
            }
            Reply::Body(body) => Ok(body),
            Reply::Refused(why) => Err(why),
        };
        let latency_ns = sent.elapsed().as_nanos() as u64;
        tally.latencies.record(latency_ns);
        if let Some(&bucket) = load.bucket_of.get(idx) {
            tally.by_bucket[bucket].record(latency_ns);
        }
        tally.completed += 1;
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        match (load.verifier.expect(&pin, idx), got) {
            ((None, _), Ok(_)) => tally.unpinned += 1,
            ((Some(want), _), Ok(got)) if *want == got[..] => tally.verified += 1,
            ((want, generation), got) => tally.mismatch(format!(
                "{}[{name}] request {:?}\n  want {}\n  got  {}",
                generation.map_or(String::new(), |g| format!("generation {g} ")),
                mix[idx],
                want.map_or("any answer".into(), |w| text(&w)),
                got.map_or_else(|why| why, |b| text(&b)),
            )),
        }
    }
    Ok(tally)
}

// ---------------------------------------------------------------- verifier

/// How each answer is judged.
pub enum Verifier<'a> {
    /// Answer `i` must equal `expected[i]` byte for byte. A `None`
    /// entry has no fixed bytes (an HTTP page): its answer counts as
    /// unpinned unless the transport refused it.
    Fixed(Vec<Option<Vec<u8>>>),
    /// Generation-bracketed: `generations` is read before sending and
    /// after receiving. When both readings are equal and uniform the
    /// answer belongs to exactly that generation and must equal the
    /// book's reference answer for it; otherwise (a publish landed
    /// mid-flight, or the generation has no reference) it is unpinned.
    /// Answers are never compared across generations.
    Bracketed {
        /// The mix being sent.
        mix: &'a [Request],
        /// Reference services per generation.
        book: &'a Book,
        /// The served generation vector (one entry per shard).
        generations: &'a (dyn Fn() -> Vec<u64> + Sync),
    },
}

impl Verifier<'_> {
    /// Fixed expectations: `reference`'s answer to each request.
    pub fn fixed(reference: &impl Handler, mix: &[Request]) -> Verifier<'static> {
        Verifier::Fixed(
            mix.iter()
                .map(|r| Some(reference.handle(r).encode()))
                .collect(),
        )
    }

    fn pin(&self) -> Vec<u64> {
        match self {
            Verifier::Fixed(_) => Vec::new(),
            Verifier::Bracketed { generations, .. } => generations(),
        }
    }

    /// The bytes the answer to mix entry `idx`, sent at generation
    /// vector `pin`, must equal (`None`: nothing to compare against),
    /// and the generation it is pinned to.
    fn expect(&self, pin: &[u64], idx: usize) -> (Option<Cow<'_, [u8]>>, Option<u64>) {
        match self {
            Verifier::Fixed(expected) => (expected[idx].as_deref().map(Cow::Borrowed), None),
            Verifier::Bracketed {
                mix,
                book,
                generations,
            } => {
                let uniform = pin.windows(2).all(|w| w[0] == w[1]);
                let generation = pin
                    .first()
                    .copied()
                    .filter(|_| uniform && generations() == pin);
                let reference = generation.and_then(|g| book.reference(g));
                let want = reference.map(|r| Cow::Owned(r.handle(&mix[idx]).encode()));
                (want, generation)
            }
        }
    }
}

/// Per-generation reference corpora and their lazily built
/// single-corpus services. Register a generation's full corpus before
/// (or as) it is published, so a client that sees the generation can
/// find its reference; each reference answers a repeated request from
/// its own session caches.
pub struct Book {
    corpora: Mutex<HashMap<u64, Arc<UlsDatabase>>>,
    engines: hft_core::memo::Memo<u64, Arc<Service<'static>>>,
}

impl Default for Book {
    fn default() -> Book {
        Book {
            corpora: Mutex::new(HashMap::new()),
            engines: hft_core::memo::Memo::new("bench.reference"),
        }
    }
}

impl Book {
    /// Record generation `generation`'s full corpus.
    pub fn register(&self, generation: u64, db: Arc<UlsDatabase>) {
        self.corpora
            .lock()
            .expect("book lock poisoned by a panicked client")
            .insert(generation, db);
    }

    /// The reference service for `generation`, if its corpus is known.
    pub fn reference(&self, generation: u64) -> Option<Arc<Service<'static>>> {
        let db = Arc::clone(
            self.corpora
                .lock()
                .expect("book lock poisoned by a panicked client")
                .get(&generation)?,
        );
        let (engine, _) = self.engines.get_or_init(generation, || {
            Arc::new(Service::over_snapshot(db, generation, Arc::default()))
        });
        Some(engine)
    }
}

// ---------------------------------------------------------------- tally

/// What a run (or one connection of it) counted.
#[derive(Default)]
pub struct Tally {
    /// Answers received (not counting `Overloaded`).
    pub completed: u64,
    /// Answers equal to their expected bytes.
    pub verified: u64,
    /// Answers with nothing to compare against (see [`Verifier`]).
    pub unpinned: u64,
    /// Answers that differ from their expected bytes, or were refused.
    pub wrong: u64,
    /// `Overloaded` answers, each followed by a resend.
    pub overloaded_retries: u64,
    /// The first wrong answer: request, want and got.
    pub first_mismatch: Option<String>,
    /// End-to-end latency (ns), all requests.
    pub latencies: HistogramSnapshot,
    /// Latency (ns) per attribution bucket.
    pub by_bucket: Vec<HistogramSnapshot>,
    /// Wall time of the run.
    pub elapsed_s: f64,
}

impl Tally {
    fn mismatch(&mut self, detail: String) {
        self.wrong += 1;
        self.first_mismatch.get_or_insert(detail);
    }

    /// Fold `other` in; histograms merge without loss.
    fn merge(&mut self, other: Tally) {
        self.completed += other.completed;
        self.verified += other.verified;
        self.unpinned += other.unpinned;
        self.wrong += other.wrong;
        self.overloaded_retries += other.overloaded_retries;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.latencies.merge(&other.latencies);
        if self.by_bucket.is_empty() {
            self.by_bucket = other.by_bucket;
        } else {
            for (mine, theirs) in self.by_bucket.iter_mut().zip(&other.by_bucket) {
                mine.merge(theirs);
            }
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Answers per second over the run.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }

    /// `N requests  R rps  p50 ... ms ...`, for report lines.
    pub fn line(&self, quantiles: &[&str]) -> String {
        let latencies = latency_line(&self.latencies, quantiles);
        format!(
            "{:>8} requests  {:>9.0} rps  {latencies}",
            self.completed,
            self.rps()
        )
    }

    /// `N verified, N unpinned, N wrong, N overloaded retries`.
    pub fn answers(&self) -> String {
        format!(
            "{} verified, {} unpinned, {} wrong, {} overloaded retries",
            self.verified, self.unpinned, self.wrong, self.overloaded_retries
        )
    }

    /// Record fields `requests`, `seconds`, `rps` and `<q>_ms` for each
    /// of `quantiles` (see [`quantiles_ms`]).
    pub fn fields(&self, quantiles: &[&str]) -> Vec<(String, Json)> {
        record! {
            ..latency_fields(&self.latencies, quantiles);
            "requests" => self.completed,
            "seconds" => self.elapsed_s,
            "rps" => self.rps(),
        }
    }

    /// The end-of-run gate: no wrong answer, every answer accounted for
    /// (`verified + unpinned + wrong == completed`), and at least one
    /// verified answer whenever any completed.
    pub fn check(&self, what: &str) -> Result<(), String> {
        if let Some(first) = &self.first_mismatch {
            return Err(format!(
                "{what}: {} wrong answers; first:\n{first}",
                self.wrong
            ));
        }
        if self.verified + self.unpinned + self.wrong != self.completed {
            return Err(format!(
                "{what}: {} answers but {} verified + {} unpinned + {} wrong",
                self.completed, self.verified, self.unpinned, self.wrong
            ));
        }
        if self.completed > 0 && self.verified == 0 {
            return Err(format!(
                "{what}: {} answers and none verified — verification is broken",
                self.completed
            ));
        }
        Ok(())
    }
}

/// Latency quantiles of `h` in ms. Names: `p50`, `p90`, `p95`, `p99`,
/// `p999`, `max`.
pub fn quantiles_ms<'q>(h: &HistogramSnapshot, names: &[&'q str]) -> Vec<(&'q str, f64)> {
    names
        .iter()
        .map(|&name| {
            let ns = match name {
                "p50" => h.percentile(0.50),
                "p90" => h.percentile(0.90),
                "p95" => h.percentile(0.95),
                "p99" => h.percentile(0.99),
                "p999" => h.percentile(0.999),
                "max" => h.max,
                other => panic!("unknown latency quantile {other:?}"),
            };
            (name, ns as f64 / 1e6)
        })
        .collect()
}

/// `p50 0.123 ms  p90 0.456 ms ...`, for report lines.
fn latency_line(h: &HistogramSnapshot, names: &[&str]) -> String {
    let parts: Vec<String> = quantiles_ms(h, names)
        .into_iter()
        .map(|(name, ms)| format!("{name} {ms:.3} ms"))
        .collect();
    parts.join("  ")
}

/// The same quantiles as record fields `<q>_ms`.
fn latency_fields(h: &HistogramSnapshot, names: &[&str]) -> Vec<(String, Json)> {
    quantiles_ms(h, names)
        .into_iter()
        .map(|(name, ms)| (format!("{name}_ms"), Field::json(ms)))
        .collect()
}

/// Print one report line per non-empty latency bucket and return the
/// record rows (one per bucket),
/// `{label_key: label, count_key: count, <q>_ms: ...}`.
pub fn breakout(
    buckets: &[HistogramSnapshot],
    label: impl Fn(usize) -> String,
    (label_key, count_key): (&str, &str),
    quantiles: &[&str],
) -> Vec<Json> {
    let rows = buckets.iter().enumerate().map(|(b, h)| {
        let label = label(b);
        if h.count > 0 {
            let line = latency_line(h, quantiles);
            println!("  {label:<10} {:>8} requests  {line}", h.count);
        }
        let mut row = vec![
            (label_key.into(), Json::Str(label)),
            (count_key.into(), h.count.json()),
        ];
        row.extend(latency_fields(h, quantiles));
        Json::Obj(row)
    });
    rows.collect()
}

/// Print the slowest captured traces, if any, under a header.
pub fn print_traces(indent: &str, traces: &[WireTrace]) {
    if !traces.is_empty() {
        println!("{indent}slowest captured traces:");
        for trace in traces {
            print!("{}", trace.render());
        }
    }
}

// ---------------------------------------------------------------- records

/// A value a record field can hold.
pub trait Field {
    /// As JSON.
    fn json(self) -> Json;
}

/// Milliseconds, seconds and rates, to 3 decimals; NaN and ±∞ (which
/// JSON cannot carry) become `null`.
impl Field for f64 {
    fn json(self) -> Json {
        Json::num_or_null((self * 1e3).round() / 1e3)
    }
}

impl Field for u64 {
    fn json(self) -> Json {
        Json::Num(self as f64)
    }
}

impl Field for &str {
    fn json(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Field for String {
    fn json(self) -> Json {
        Json::Str(self)
    }
}

impl Field for Json {
    fn json(self) -> Json {
        self
    }
}

/// Record fields: `record! { ..spread; "key" => value, ... }` gives a
/// `Vec<(String, Json)>` holding the fields of each leading `..spread`
/// (such as [`Tally::fields`]), then each key with its [`Field`] value.
#[macro_export]
macro_rules! record {
    ($(..$spread:expr;)* $($key:literal => $value:expr),* $(,)?) => {{
        let mut fields = Vec::new();
        $(fields.extend($spread);)*
        fields.extend([$(($key.to_string(), $crate::harness::Field::json($value))),*]);
        fields
    }};
}
pub use record;

/// `requests_fnv64`: FNV-1a over the mix's requests, encoded and
/// concatenated in mix order.
pub fn requests_fnv64(encoded: impl IntoIterator<Item = Vec<u8>>) -> u64 {
    fnv1a(&encoded.into_iter().flatten().collect::<Vec<u8>>())
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => std::fs::read_to_string(std::path::Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
    }
}

/// Write `record` as one JSON object to `out` — nothing when `out` is
/// `None` — with a `provenance` block: commit (`null` outside a git
/// checkout), core count, build profile, seed and [`requests_fnv64`].
pub fn write_record(
    out: Option<&str>,
    mut record: Vec<(String, Json)>,
    seed: u64,
    requests_fnv64: u64,
) -> Result<(), String> {
    let Some(path) = out else {
        return Ok(());
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    record.extend(record! {
        "provenance" => Json::Obj(record! {
            "commit" => commit().map_or(Json::Null, Json::Str),
            "nproc" => nproc as u64,
            "profile" => profile,
            "seed" => seed,
            "requests_fnv64" => format!("{requests_fnv64:016x}"),
        }),
    });
    std::fs::write(path, Json::Obj(record).encode() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}
