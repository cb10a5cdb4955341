//! One timed phase against a fresh self-hosted server: bind, warm,
//! then a closed loop (a fixed pipelined window per connection) or an
//! open loop (seeded arrivals at a fixed offered rate, each timed from
//! its due time). Answers are byte-compared in the window against
//! reference bytes computed before it; answers whose reference cannot
//! be held as bytes in advance (fresh Monte-Carlo seeds, fleet
//! generations) are kept as hashes and checked after the window.

use crate::client::{frame, Conn};
use crate::workload::{fnv64, fresh_seed, Inputs, Spec, BATCH_PACE_MS, FNV_BASIS, PUBLISH_EVERY};
use crate::workload::{Kind, UNIQUE_SEED_EVERY};
use hft_ingest::{Applier, DumpBatch, ShardedStore};
use hft_obs::{HistogramSnapshot, RegistrySnapshot};
use hft_serve::api::{Request, Response};
use hft_serve::binwire::{self, Proto};
use hft_serve::{Handler, ServeConfig, ServeStats, Server};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the open loop waits for stragglers after its last arrival.
const DRAIN: Duration = Duration::from_secs(10);

/// Index of a protocol in per-protocol byte tables.
pub fn pi(proto: Proto) -> usize {
    match proto {
        Proto::Json => 0,
        Proto::Binary => 1,
    }
}

/// An answer's bytes in `proto`.
pub fn answer_bytes(proto: Proto, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    binwire::response_bytes_into(proto, resp, &mut buf);
    buf
}

/// Reference answers for the fixed mix, as bytes in both protocols,
/// plus the pre-framed request bytes. `expected` is empty for the
/// fleet, whose references depend on the generation that answered.
pub struct Book {
    /// Per mix entry: `[json, binary]` answer bytes.
    pub expected: Vec<[Vec<u8>; 2]>,
    /// Per mix entry: `[json, binary]` request frames.
    pub frames: Vec<[Vec<u8>; 2]>,
    /// `Overloaded` in both protocols.
    pub overloaded: [Vec<u8>; 2],
}

impl Book {
    /// Frame every request; take reference answers from `reference`
    /// when given (a corpus-backed handler the server never sees).
    pub fn new(mix: &[Request], reference: Option<&dyn Handler>) -> Result<Book, String> {
        let both = |resp: &Response| {
            [
                answer_bytes(Proto::Json, resp),
                answer_bytes(Proto::Binary, resp),
            ]
        };
        let mut expected: Vec<[Vec<u8>; 2]> = Vec::new();
        if let Some(reference) = reference {
            // The mix repeats hot requests; answer each distinct one once.
            let mut seen: std::collections::HashMap<Vec<u8>, usize> = Default::default();
            for req in mix {
                let key = binwire::encode_request(req);
                if let Some(&i) = seen.get(&key) {
                    let copy = expected[i].clone();
                    expected.push(copy);
                    continue;
                }
                let resp = reference.handle(req);
                if let Response::Error { message } = &resp {
                    return Err(format!("workload request {req:?} fails: {message}"));
                }
                seen.insert(key, expected.len());
                expected.push(both(&resp));
            }
        }
        let frames = mix
            .iter()
            .map(|r| {
                [
                    frame(&binwire::request_bytes(Proto::Json, r)),
                    frame(&binwire::request_bytes(Proto::Binary, r)),
                ]
            })
            .collect();
        Ok(Book {
            expected,
            frames,
            overloaded: both(&Response::Overloaded),
        })
    }
}

/// An answer checked after the window, by hash.
#[derive(Debug, Clone, Copy)]
pub struct Deferred {
    /// Mix entry.
    pub idx: usize,
    /// Fresh Monte-Carlo seed, if any.
    pub seed: Option<u64>,
    /// Lowest generation any shard was at when the request was sent.
    pub gen_lo: u64,
    /// Highest generation any shard was at when the answer arrived.
    pub gen_hi: u64,
    /// Protocol of the answer.
    pub proto: Proto,
    /// FNV-1a of the answer bytes.
    pub hash: u64,
    /// Open loop: latency from due time, ns.
    pub latency_ns: Option<u64>,
}

/// Counts and samples of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted (retries of `Overloaded` not counted again).
    pub sent: u64,
    /// Answers verified byte-identical to their reference.
    pub ok: u64,
    /// Answers whose bytes differ from the reference.
    pub wrong: u64,
    /// Unexpected `Error` answers.
    pub errors: u64,
    /// Open-loop `Overloaded` answers (failures).
    pub overloaded: u64,
    /// Closed-loop `Overloaded` answers, resent.
    pub retried: u64,
    /// Requests lost to I/O failure or never answered.
    pub io: u64,
    /// Fleet answers that straddled a publish and match no single
    /// generation (neither verified nor failed).
    pub unpinned: u64,
    /// Answers awaiting post-window verification.
    pub deferred: Vec<Deferred>,
    /// Open loop: latency from due time of each correct answer, ns.
    pub latencies_ns: Vec<u64>,
    /// Open loop: latency of unpinned answers, ns.
    pub unpinned_latencies_ns: Vec<u64>,
    /// Open loop: how late each request was sent, ns.
    pub lag_ns: Vec<u64>,
    /// Closed loop: sum of client-observed latencies, ns.
    pub client_ns: u128,
    /// First failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Failures: wrong bytes + unexpected errors + open-loop overloads
    /// + I/O failures.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.overloaded + self.io
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.retried += other.retried;
        self.io += other.io;
        self.unpinned += other.unpinned;
        self.deferred.extend(other.deferred);
        self.latencies_ns.extend(other.latencies_ns);
        self.unpinned_latencies_ns
            .extend(other.unpinned_latencies_ns);
        self.lag_ns.extend(other.lag_ns);
        self.client_ns += other.client_ns;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Remember the first failure.
    pub fn fail(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }
}

/// What the ingest publisher did during a phase.
#[derive(Debug, Default, Clone)]
pub struct PublishLog {
    /// `Applier::apply` time per batch, ns.
    pub apply_ns: Vec<u64>,
    /// `Applier::publish_sharded` time per publish, ns.
    pub publish_ns: Vec<u64>,
    /// Per batch: from the start of its apply until the publish that
    /// made it visible on every shard returned, ns.
    pub freshness_ns: Vec<u64>,
    /// Generations published.
    pub generations: u64,
}

/// The `fleet-ingest` writer: replays the second half of the dump
/// history on a fixed wall-clock pace, republishing every few batches.
pub struct Publisher<'a> {
    store: &'a ShardedStore,
    applier: Applier,
    batches: &'a [DumpBatch],
    next: usize,
    unpublished: Vec<Instant>,
    /// What it has done so far.
    pub log: PublishLog,
}

impl<'a> Publisher<'a> {
    /// A publisher over `store`, whose applier already holds every
    /// batch before `batches`.
    pub fn new(store: &'a ShardedStore, applier: Applier, batches: &'a [DumpBatch]) -> Self {
        Publisher {
            store,
            applier,
            batches,
            next: 0,
            unpublished: Vec::new(),
            log: PublishLog::default(),
        }
    }

    /// When the next batch is due, relative to the phase start.
    fn due(&self, start: Instant) -> Option<Instant> {
        (self.next < self.batches.len())
            .then(|| start + Duration::from_millis(BATCH_PACE_MS * self.next as u64))
    }

    /// Apply the next batch, publishing when a group is complete.
    fn step(&mut self) -> Result<(), String> {
        let began = Instant::now();
        let conflicts = self.applier.apply(&self.batches[self.next]);
        if let Some(c) = conflicts.first() {
            return Err(format!("ingest conflict: {c}"));
        }
        self.log.apply_ns.push(began.elapsed().as_nanos() as u64);
        self.unpublished.push(began);
        self.next += 1;
        if self.next.is_multiple_of(PUBLISH_EVERY) {
            let t = Instant::now();
            self.applier.publish_sharded(self.store);
            let done = Instant::now();
            self.log.publish_ns.push((done - t).as_nanos() as u64);
            for applied in self.unpublished.drain(..) {
                self.log
                    .freshness_ns
                    .push((done - applied).as_nanos() as u64);
            }
            self.log.generations += 1;
        }
        Ok(())
    }

    /// Apply every remaining batch back to back, with no pacing.
    pub fn replay_all(&mut self) -> Result<(), String> {
        while self.next < self.batches.len() {
            self.step()?;
        }
        Ok(())
    }

    /// Run every batch due before `end`, on schedule.
    fn run_until(&mut self, start: Instant, end: Instant) -> Result<(), String> {
        while let Some(due) = self.due(start).filter(|d| *d < end) {
            sleep_until(due);
            self.step()?;
        }
        Ok(())
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What a phase does once its server is warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pipelined windows for `seconds`.
    Closed,
    /// The seeded schedule at the offered rate.
    Open,
    /// Nothing: the phase only measures set-up.
    SetupOnly,
}

/// Everything a phase measured.
pub struct PhaseOutcome {
    /// Bind + warm pass + the first timed answer, s.
    pub setup_tail_s: f64,
    /// Counts and samples.
    pub tally: Tally,
    /// Closed loop: first send to last answer, s.
    pub elapsed_s: f64,
    /// Global registry at the start and end of the window.
    pub before: RegistrySnapshot,
    /// See `before`.
    pub after: RegistrySnapshot,
    /// The admission queue's wait histogram, window only.
    pub queue_wait: HistogramSnapshot,
    /// Resident set at the end of the window, MiB.
    pub rss_mb: f64,
    /// The ingest publisher's log (fleet only).
    pub publish: PublishLog,
}

/// A `&dyn Handler` the generic server can take.
struct Dyn<'a>(&'a dyn Handler);

impl Handler for Dyn<'_> {
    fn handle(&self, req: &Request) -> Response {
        self.0.handle(req)
    }

    fn serve_stats(&self) -> &ServeStats {
        self.0.serve_stats()
    }
}

/// The run-wide context every phase shares.
pub struct Ctx<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its seeded inputs.
    pub inputs: &'a Inputs,
    /// Reference bytes and request frames.
    pub book: &'a Book,
}

/// Resident set size of this process, MiB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The admission-queue wait histogram's current counts.
fn queue_wait_now() -> HistogramSnapshot {
    hft_obs::global()
        .histogram("serve.queue_wait_ns")
        .snapshot()
}

/// Bucket-wise `after − before` of one histogram.
fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        min: 0,
        max: after.max,
    }
}

/// Run one phase on a fresh server answering through `handler`.
/// `publisher` drives ingest underneath the fleet during the window.
pub fn run(
    ctx: &Ctx<'_>,
    handler: &dyn Handler,
    mode: Mode,
    seconds: f64,
    publisher: Option<Publisher<'_>>,
    fleet: Option<&ShardedStore>,
) -> Result<PhaseOutcome, String> {
    hft_obs::clear_traces();
    let began = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let outcome = std::thread::scope(|s| {
        let served = s.spawn(|| server.run_with(&Dyn(handler)));
        let outcome = drive(ctx, &addr, began, mode, seconds, publisher, fleet);
        let stopped = shutdown(&addr);
        let served = served.join().expect("server thread panicked");
        let outcome = outcome?;
        stopped?;
        served.map_err(|e| format!("server: {e}"))?;
        Ok::<_, String>(outcome)
    });
    hft_obs::clear_traces();
    outcome
}

fn shutdown(addr: &SocketAddr) -> Result<(), String> {
    let mut c = Conn::open(addr, Proto::Json).map_err(|e| format!("shutdown connect: {e}"))?;
    c.send(&frame(&Request::Shutdown.encode()))
        .and_then(|_| c.recv())
        .map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

fn drive(
    ctx: &Ctx<'_>,
    addr: &SocketAddr,
    began: Instant,
    mode: Mode,
    seconds: f64,
    publisher: Option<Publisher<'_>>,
    fleet: Option<&ShardedStore>,
) -> Result<PhaseOutcome, String> {
    let io = |e: std::io::Error| format!("client I/O: {e}");
    let mut conns: Vec<Conn> = ctx
        .spec
        .conns
        .iter()
        .map(|&p| Conn::open(addr, p))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    // Warm pass: every distinct request once on every connection.
    for conn in &mut conns {
        for chunk in (0..ctx.inputs.mix.len())
            .collect::<Vec<_>>()
            .chunks(ctx.spec.window)
        {
            let out: Vec<u8> = chunk
                .iter()
                .flat_map(|&i| ctx.book.frames[i][pi(conn.proto)].iter().copied())
                .collect();
            conn.send(&out).map_err(io)?;
            for _ in chunk {
                conn.recv().map_err(io)?;
            }
        }
    }
    // The first timed request: the same cheap point request every run.
    let first = &ctx.book.frames[0][pi(conns[0].proto)];
    conns[0].send(first).map_err(io)?;
    conns[0].recv().map_err(io)?;
    let setup_tail_s = began.elapsed().as_secs_f64();

    let before = hft_obs::global().snapshot();
    let wait_before = queue_wait_now();
    let start = Instant::now();
    let (tally, publish) = match mode {
        Mode::SetupOnly => (Tally::default(), PublishLog::default()),
        Mode::Closed => closed(ctx, &mut conns, start, seconds, publisher, fleet)?,
        Mode::Open => open(ctx, &mut conns, start, seconds, publisher, fleet)?,
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    let rss_mb = rss_mb();
    let after = hft_obs::global().snapshot();
    let queue_wait = hist_delta(&wait_before, &queue_wait_now());
    Ok(PhaseOutcome {
        setup_tail_s,
        tally,
        elapsed_s,
        before,
        after,
        queue_wait,
        rss_mb,
        publish,
    })
}

/// Generation bracket of a fleet request: (lowest, highest) shard
/// generation now.
fn gens(fleet: Option<&ShardedStore>) -> (u64, u64) {
    match fleet {
        None => (0, 0),
        Some(f) => {
            let v = f.generation_vector();
            (
                v.iter().copied().min().unwrap_or(0),
                v.iter().copied().max().unwrap_or(0),
            )
        }
    }
}

/// Check one answer: bytes against the reference now, or a hash for
/// after the window.
#[allow(clippy::too_many_arguments)]
fn check(
    ctx: &Ctx<'_>,
    t: &mut Tally,
    proto: Proto,
    idx: usize,
    seed: Option<u64>,
    gen_lo: u64,
    gen_hi: u64,
    body: &[u8],
    latency_ns: Option<u64>,
) {
    if seed.is_some() || ctx.spec.kind == Kind::FleetIngest {
        t.deferred.push(Deferred {
            idx,
            seed,
            gen_lo,
            gen_hi,
            proto,
            hash: fnv64(FNV_BASIS, body),
            latency_ns,
        });
        return;
    }
    if body == ctx.book.expected[idx][pi(proto)].as_slice() {
        t.ok += 1;
        t.latencies_ns.extend(latency_ns);
        return;
    }
    if body == ctx.book.overloaded[pi(proto)].as_slice() {
        t.overloaded += 1;
        t.fail(format!("Overloaded answer to {:?}", ctx.inputs.mix[idx]));
        return;
    }
    match binwire::response_from(proto, body) {
        Ok(Response::Error { message }) => {
            t.errors += 1;
            t.fail(format!("Error {message:?} for {:?}", ctx.inputs.mix[idx]));
        }
        _ => {
            t.wrong += 1;
            t.fail(format!("wrong bytes for {:?}", ctx.inputs.mix[idx]));
        }
    }
}

struct Pending {
    idx: usize,
    seed: Option<u64>,
    sent: Instant,
    gen_lo: u64,
}

/// The closed loop: each connection keeps `window` requests in flight
/// on its own thread; the fleet's publisher runs beside them.
fn closed(
    ctx: &Ctx<'_>,
    conns: &mut [Conn],
    start: Instant,
    seconds: f64,
    publisher: Option<Publisher<'_>>,
    fleet: Option<&ShardedStore>,
) -> Result<(Tally, PublishLog), String> {
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let publisher =
            publisher.map(|mut p| s.spawn(move || p.run_until(start, deadline).map(|_| p.log)));
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || closed_conn(ctx, conn, c, deadline, fleet)))
            .collect();
        let mut total = Tally::default();
        for w in workers {
            total.merge(w.join().expect("client thread panicked"));
        }
        let log = match publisher {
            Some(p) => p.join().expect("publisher panicked")?,
            None => PublishLog::default(),
        };
        Ok((total, log))
    })
}

fn closed_conn(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    c: usize,
    deadline: Instant,
    fleet: Option<&ShardedStore>,
) -> Tally {
    let mut t = Tally::default();
    let mut order = ctx.inputs.order(c);
    let p = pi(conn.proto);
    let mut weather_seen = 0u64;
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut resend: VecDeque<(usize, Option<u64>)> = VecDeque::new();
    let mut out = Vec::new();
    loop {
        let now = Instant::now();
        out.clear();
        while pending.len() < ctx.spec.window && now < deadline {
            let (idx, seed) = resend.pop_front().unwrap_or_else(|| {
                let idx = order.next().expect("the order never ends");
                t.sent += 1;
                let mut seed = None;
                if ctx.spec.kind == Kind::Weather
                    && matches!(ctx.inputs.mix[idx], Request::Weather { .. })
                {
                    weather_seen += 1;
                    if weather_seen.is_multiple_of(UNIQUE_SEED_EVERY) {
                        seed = Some(fresh_seed(ctx.inputs.seed, c as u64, weather_seen));
                    }
                }
                (idx, seed)
            });
            match seed {
                None => out.extend_from_slice(&ctx.book.frames[idx][p]),
                Some(_) => out.extend_from_slice(&frame(&binwire::request_bytes(
                    conn.proto,
                    &ctx.inputs.request(idx, seed),
                ))),
            }
            pending.push_back(Pending {
                idx,
                seed,
                sent: Instant::now(),
                gen_lo: gens(fleet).0,
            });
        }
        if !out.is_empty() {
            if let Err(e) = conn.send(&out) {
                t.io += pending.len() as u64;
                t.fail(format!("send: {e}"));
                return t;
            }
        }
        let Some(head) = pending.pop_front() else {
            return t;
        };
        let body = match conn.recv() {
            Ok(b) => b,
            Err(e) => {
                t.io += 1 + pending.len() as u64;
                t.fail(format!("recv: {e}"));
                return t;
            }
        };
        let latency = head.sent.elapsed();
        if body == ctx.book.overloaded[p] {
            t.retried += 1;
            resend.push_back((head.idx, head.seed));
            continue;
        }
        t.client_ns += latency.as_nanos();
        let gen_hi = gens(fleet).1;
        check(
            ctx,
            &mut t,
            conn.proto,
            head.idx,
            head.seed,
            head.gen_lo,
            gen_hi,
            &body,
            None,
        );
    }
}

/// The open loop: one thread sends on the seeded schedule (and, for
/// the fleet, runs the publisher on its fixed pace between sends);
/// this thread receives on every connection through one poller.
fn open(
    ctx: &Ctx<'_>,
    conns: &mut [Conn],
    start: Instant,
    seconds: f64,
    publisher: Option<Publisher<'_>>,
    fleet: Option<&ShardedStore>,
) -> Result<(Tally, PublishLog), String> {
    let schedule = &ctx.inputs.schedule;
    let mut writers = conns
        .iter()
        .map(|c| c.writer())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let protos: Vec<Proto> = conns.iter().map(|c| c.proto).collect();
    // Per arrival: the lowest shard generation when it was sent.
    let sent_gen: Vec<AtomicU64> = schedule.iter().map(|_| AtomicU64::new(0)).collect();
    let sender_done = AtomicBool::new(false);
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut publisher = publisher;
            let mut lag_ns = Vec::with_capacity(schedule.len());
            let mut failure: Option<String> = None;
            for (k, a) in schedule.iter().enumerate() {
                let due = start + Duration::from_nanos(a.due_ns);
                if let Some(p) = publisher.as_mut() {
                    if let Err(e) = p.run_until(start, due.min(end)) {
                        failure = Some(e);
                        break;
                    }
                }
                sleep_until(due);
                lag_ns.push(due.elapsed().as_nanos() as u64);
                sent_gen[k].store(gens(fleet).0, Ordering::Release);
                let proto = protos[a.conn];
                let fresh;
                let bytes: &[u8] = match a.seed {
                    None => &ctx.book.frames[a.idx][pi(proto)],
                    Some(_) => {
                        fresh = frame(&binwire::request_bytes(
                            proto,
                            &ctx.inputs.request(a.idx, a.seed),
                        ));
                        &fresh
                    }
                };
                if let Err(e) = std::io::Write::write_all(&mut writers[a.conn], bytes) {
                    failure = Some(format!("send: {e}"));
                    break;
                }
            }
            if failure.is_none() {
                if let Some(p) = publisher.as_mut() {
                    if let Err(e) = p.run_until(start, end) {
                        failure = Some(e);
                    }
                }
            }
            sender_done.store(true, Ordering::Release);
            (
                lag_ns,
                failure,
                publisher.map(|p| p.log).unwrap_or_default(),
            )
        });
        let mut t = receive(ctx, conns, start, &sent_gen, &sender_done, fleet);
        let (lag_ns, failure, log) = sender.join().expect("sender thread panicked");
        t.sent = schedule.len() as u64;
        t.lag_ns = lag_ns;
        if let Some(f) = failure {
            t.fail(f);
        }
        Ok((t, log))
    })
}

fn receive(
    ctx: &Ctx<'_>,
    conns: &mut [Conn],
    start: Instant,
    sent_gen: &[AtomicU64],
    sender_done: &AtomicBool,
    fleet: Option<&ShardedStore>,
) -> Tally {
    let mut t = Tally::default();
    let schedule = &ctx.inputs.schedule;
    let per_conn: Vec<Vec<usize>> = (0..conns.len())
        .map(|c| {
            (0..schedule.len())
                .filter(|&k| schedule[k].conn == c)
                .collect()
        })
        .collect();
    let mut cursor = vec![0usize; conns.len()];
    let poller = match hft_serve::poll::Poller::new() {
        Ok(p) => p,
        Err(e) => {
            t.io = schedule.len() as u64;
            t.fail(format!("poller: {e}"));
            return t;
        }
    };
    for (c, conn) in conns.iter().enumerate() {
        if let Err(e) = poller.register(conn.fd(), c, hft_serve::poll::Interest::READ) {
            t.io = schedule.len() as u64;
            t.fail(format!("poller: {e}"));
            return t;
        }
    }
    let mut events = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    let mut dead = vec![false; conns.len()];
    loop {
        let outstanding = (0..conns.len()).any(|c| !dead[c] && cursor[c] < per_conn[c].len());
        if !outstanding {
            break;
        }
        if sender_done.load(Ordering::Acquire) {
            let d = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= d {
                break;
            }
        }
        events.clear();
        if poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            continue;
        }
        for ev in &events {
            let c = ev.token;
            if dead[c] || !ev.readable {
                continue;
            }
            let conn = &mut conns[c];
            if let Err(e) = conn.fill() {
                dead[c] = true;
                t.fail(format!("recv: {e}"));
                continue;
            }
            let now = Instant::now();
            while let Ok(Some(body)) = conn.take() {
                let Some(&k) = per_conn[c].get(cursor[c]) else {
                    t.wrong += 1;
                    t.fail("answer to a request never sent".into());
                    continue;
                };
                cursor[c] += 1;
                let a = &schedule[k];
                let latency_ns = (now - (start + Duration::from_nanos(a.due_ns))).as_nanos() as u64;
                let gen_lo = sent_gen[k].load(Ordering::Acquire);
                let gen_hi = gens(fleet).1;
                check(
                    ctx,
                    &mut t,
                    conn.proto,
                    a.idx,
                    a.seed,
                    gen_lo,
                    gen_hi,
                    &body,
                    Some(latency_ns),
                );
            }
        }
    }
    for c in 0..conns.len() {
        t.io += (per_conn[c].len() - cursor[c]) as u64;
    }
    if t.io > 0 {
        t.fail(format!("{} requests never answered", t.io));
    }
    t
}
