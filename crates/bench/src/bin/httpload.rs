//! `httpload` — the hft-http scenario: self-host a server with the
//! HTTP explorer on the evented loop, replay a mixed GET/POST workload
//! over keep-alive connections, and report per-route-class latency
//! percentiles (a JSON record under `--out`).
//!
//! ```text
//! cargo run --release -p hft-bench --bin httpload -- --seconds 2 --concurrency 8
//! ```
//!
//! The mix spans every route class the explorer serves: licensee pages
//! (pooled network reconstruction + inline SVG render), the funnel page
//! (pooled scrape), the corpus index and `/metrics` (rendered on the
//! loop), and `POST /api` carrying wire requests. Every API answer is
//! byte-compared against the in-process `Service::handle` encoding of
//! the same request — the explorer's acceptance bar is that HTTP
//! answers are byte-identical to wire answers — and any mismatch fails
//! the run. Page answers have no fixed bytes: an error status fails the
//! run, any other counts as answered. `503` answers are backpressure,
//! not errors: counted, retried, excluded from latency.

use hft_bench::harness::{self, record, Flag, Flags, Load, Reply, Transport, Until, Verifier};
use hft_http::HttpExplorer;
use hft_serve::evloop::ExtraListener;
use hft_serve::json::Json;
use hft_serve::{Request, Service};
use hft_time::Date;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Route classes, in report order.
const ROUTES: [&str; 5] = ["index", "licensee", "funnel", "metrics", "api"];
const R_INDEX: usize = 0;
const R_LICENSEE: usize = 1;
const R_FUNNEL: usize = 2;
const R_METRICS: usize = 3;
const R_API: usize = 4;

const FLAGS: &[Flag] = &[
    Flag::Value("--seconds", Some("3")),
    Flag::Value("--concurrency", Some("8")),
    harness::SEED,
    harness::OUT,
];

/// The workload: pre-rendered request texts, each entry's route class,
/// and (API only) the expected response body.
#[derive(Default)]
struct Mix {
    raw: Vec<String>,
    class: Vec<usize>,
    expected: Vec<Option<Vec<u8>>>,
}

impl Mix {
    fn get(&mut self, class: usize, target: &str) {
        self.raw
            .push(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"));
        self.class.push(class);
        self.expected.push(None);
    }
}

/// Percent-encode a licensee name for a path segment.
fn encode_segment(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The workload: every route class, licensee pages and API requests
/// across the paper's connected-2020 networks. API expectations are
/// computed from the same in-process service the server answers with.
fn workload(service: &Service<'_>, licensees: &[String]) -> Mix {
    let date = Date::new(2020, 4, 1).expect("valid date");
    let mut mix = Mix::default();
    mix.get(R_INDEX, "/");
    mix.get(R_METRICS, "/metrics");
    mix.get(R_FUNNEL, "/funnel?radius_km=10&min_filings=11");
    mix.get(R_FUNNEL, "/funnel?radius_km=25&min_filings=5");
    let mut api_requests: Vec<Request> = vec![
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Shortlist {
            lat_deg: 41.88,
            lon_deg: -87.63,
            radius_km: 15.0,
            min_filings: 11,
        },
    ];
    for name in licensees {
        mix.get(R_LICENSEE, &format!("/licensee/{}", encode_segment(name)));
        api_requests.push(Request::Network {
            licensee: name.clone(),
            date,
        });
    }
    for request in api_requests {
        let body = String::from_utf8(request.encode()).expect("JSON request is UTF-8");
        mix.raw.push(format!(
            "POST /api HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        mix.class.push(R_API);
        mix.expected.push(Some(service.handle(&request).encode()));
    }
    mix
}

/// A keep-alive HTTP client; replies are framed by `Content-Length`,
/// so requests may be pipelined.
struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(HttpClient { reader, writer })
    }
}

impl Transport for HttpClient {
    type Request = String;

    fn name(&self) -> &'static str {
        "http"
    }

    fn send(&mut self, raw: &String) -> io::Result<()> {
        self.writer.write_all(raw.as_bytes())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Read one full response: `503` is backpressure, another status
    /// from 400 up is a refusal, anything else delivers its body.
    fn recv(&mut self) -> io::Result<Reply> {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            if self.reader.read_line(&mut head)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad head {head:?}"));
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(bad)?;
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(match status {
            503 => Reply::Overloaded,
            400.. => Reply::Refused(format!("status {status}")),
            _ => Reply::Body(body),
        })
    }
}

fn main() -> std::process::ExitCode {
    harness::main(run)
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env("httpload", FLAGS)?;
    let seconds: f64 = flags.get("--seconds")?;
    let concurrency = flags.positive("--concurrency")?;
    let seed: u64 = flags.get("--seed")?;
    let (eco, licensees) = harness::corpus(seed);
    let service = Service::new(&eco.db);
    let mix = workload(&service, &licensees);
    let n = mix.raw.len();
    eprintln!(
        "mix: {n} entries over {} routes, {concurrency} clients, {seconds}s",
        ROUTES.len(),
    );
    let verifier = Verifier::Fixed(mix.expected);
    let load = Load {
        mix: &mix.raw,
        verifier: &verifier,
        bucket_of: &mix.class,
        window: 1,
    };

    let explorer = HttpExplorer::new(&service);
    let extra = ExtraListener::bind("127.0.0.1:0", &explorer).map_err(|e| format!("bind: {e}"))?;
    let http_addr = extra.local_addr().map_err(|e| format!("addr: {e}"))?;
    let before = hft_obs::global().snapshot();
    let serve = |s: &hft_serve::Server| s.run_with_extras(&service, &[extra]);
    let (merged, _, _) = harness::self_host(4, 64, serve, |_| {
        let conns = (0..concurrency)
            .map(|_| HttpClient::connect(http_addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let stride = |i| i * n / concurrency;
        harness::run(conns, &load, stride, Until::Seconds(seconds))
    })?;

    // Server-side RED, as the driver's own per-route instruments saw the
    // run: request/error counts and duration means from a registry delta
    // (the registry is process-global and cumulative).
    let red = hft_obs::registry::delta(&before, &hft_obs::global().snapshot());
    println!("server RED metrics (per route):");
    for (name, served) in &red.counters {
        let Some(route) = name
            .strip_prefix("http.requests{route=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        else {
            continue;
        };
        if *served == 0 {
            continue;
        }
        let errors = red.counter(&hft_obs::registry::labeled("http.errors", "route", route));
        let dur = red.histogram(&hft_obs::registry::labeled(
            "http.duration_ns",
            "route",
            route,
        ));
        println!(
            "  {route:<9} {served:>7} served  {errors:>5} errors  mean {:.3} ms",
            dur.mean() / 1e6,
        );
    }

    let quantiles = ["p50", "p90", "p99", "p999"];
    let label = |b: usize| ROUTES[b].to_string();
    let route_rows = harness::breakout(&merged.by_bucket, label, ("route", "count"), &quantiles);
    println!(
        "http: {}  ({} api answers byte-verified, {} wrong, {} overloaded retries)",
        merged.line(&["p50", "p99"]),
        merged.verified,
        merged.wrong,
        merged.overloaded_retries,
    );

    let record = record! {
        ..merged.fields(&quantiles);
        "concurrency" => concurrency as u64,
        "seed" => seed,
        "api_verified" => merged.verified,
        "wrong_answers" => merged.wrong,
        "overloaded_retries" => merged.overloaded_retries,
        "per_route" => Json::Arr(route_rows),
    };
    let fnv = harness::requests_fnv64(mix.raw.iter().map(|r| r.clone().into_bytes()));
    harness::write_record(flags.opt("--out"), record, seed, fnv)?;
    merged.check("http answers")
}
