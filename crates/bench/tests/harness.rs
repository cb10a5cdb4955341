//! The load harness cannot be talked out of verifying: a server that
//! corrupts one response kind is caught and fails the run, a generation
//! that moves mid-flight is never compared across generations, every
//! run accounts for every answer, each binary accepts only its own
//! flags, and records carry no non-finite numbers.

use hft_bench::harness::{self, record, Book, Flag, Flags, Load, Tally, Until, Verifier};
use hft_serve::json::{self, Json};
use hft_serve::{
    Client, Handler, Proto, Request, Response, ServeConfig, ServeStats, Server, Service,
};
use hft_uls::UlsDatabase;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn site_search() -> Request {
    Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    }
}

fn geographic() -> Request {
    Request::Geographic {
        lat_deg: 41.7625,
        lon_deg: -88.1712,
        radius_km: 10.0,
    }
}

/// Answers like `inner`, except that every `SiteSearch` answer is
/// corrupted; with `book` set, each `SiteSearch` also publishes a new
/// generation mid-flight.
struct Corrupting<'a> {
    inner: Service<'a>,
    book: Option<(&'a Book, &'a AtomicU64, Arc<UlsDatabase>)>,
}

impl Handler for Corrupting<'_> {
    fn handle(&self, req: &Request) -> Response {
        match req {
            Request::SiteSearch { .. } => {
                if let Some((book, generation, db)) = &self.book {
                    let next = generation.load(Ordering::SeqCst) + 1;
                    book.register(next, Arc::clone(db));
                    generation.store(next, Ordering::SeqCst);
                }
                Response::Licenses { ids: vec![42] }
            }
            _ => self.inner.handle(req),
        }
    }

    fn serve_stats(&self) -> &ServeStats {
        self.inner.serve_stats()
    }
}

/// Serve `handler` in process and drive `load` over `conns` connections
/// for a short window.
fn drive(handler: &Corrupting<'_>, load: &Load<'_, Request>, conns: usize) -> Tally {
    let serve = |s: &Server| s.run_with(handler);
    let (tally, _, _) = harness::self_host(4, 64, serve, |addr| {
        let clients = (0..conns)
            .map(|_| harness::connect_retry(&addr, Proto::Binary))
            .collect::<Result<Vec<Client>, _>>()?;
        harness::run(clients, load, |i| i, Until::Seconds(0.2))
    })
    .expect("self-hosted run");
    tally
}

#[test]
fn a_corrupted_response_kind_is_counted_named_and_fails_the_run() {
    let db = UlsDatabase::new();
    let mix = vec![geographic(), site_search()];
    let verifier = Verifier::fixed(&Service::new(&db), &mix);
    let load = Load {
        mix: &mix,
        verifier: &verifier,
        bucket_of: &[],
        window: 4,
    };
    let handler = Corrupting {
        inner: Service::new(&db),
        book: None,
    };
    let tally = drive(&handler, &load, 2);
    assert!(tally.wrong >= 1, "corruption went unseen");
    assert!(
        tally.verified >= 1,
        "the uncorrupted kind must still verify"
    );
    assert_eq!(tally.verified + tally.wrong, tally.completed);
    let first = tally.first_mismatch.as_deref().expect("first mismatch");
    assert!(first.contains("[bin] request SiteSearch"), "{first}");
    assert!(
        first.contains("want {\"type\":\"licenses\",\"ids\":[]}"),
        "{first}"
    );
    assert!(
        first.contains("got  {\"type\":\"licenses\",\"ids\":[42]}"),
        "{first}"
    );
    let err = tally
        .check("fault injection")
        .expect_err("a wrong answer fails the run");
    assert!(err.contains("SiteSearch"), "{err}");
}

#[test]
fn loadgen_exits_with_the_mismatch_against_a_corrupting_server() {
    let eco = hft_corridor::generate(&hft_corridor::chicago_nj(), hft_bench::REPRO_SEED);
    let handler = Corrupting {
        inner: Service::new(&eco.db),
        book: None,
    };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let out = std::thread::scope(|scope| {
        let served = scope.spawn(|| server.run_with(&handler));
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(["--connect", &addr.to_string(), "--seconds", "0.1"])
            .args(["--concurrency", "1", "--window", "1", "--shutdown-server"])
            .output()
            .expect("spawn loadgen");
        // loadgen shuts the server down itself; should it die first, stop
        // the server here rather than hang.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !served.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if !served.is_finished() {
            let _ = Client::connect(&addr).and_then(|mut c| c.call(&Request::Shutdown));
        }
        served.join().expect("server thread").expect("server");
        out
    });
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "loadgen passed a corrupting server");
    assert!(stderr.contains("wrong answers; first:"), "{stderr}");
    assert!(stderr.contains("request SiteSearch"), "{stderr}");
}

#[test]
fn a_generation_moving_mid_flight_leaves_the_answer_unpinned() {
    let db = Arc::new(UlsDatabase::new());
    let book = Book::default();
    book.register(0, Arc::clone(&db));
    let generation = AtomicU64::new(0);
    let generations = || vec![generation.load(Ordering::SeqCst)];
    let mix = vec![geographic(), site_search()];
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
    // Every SiteSearch answer is wrong for *every* generation, but each
    // one publishes mid-flight, so none may be compared; the stable
    // Geographic answers are pinned and verified.
    let handler = Corrupting {
        inner: Service::new(&db),
        book: Some((&book, &generation, Arc::clone(&db))),
    };
    let tally = drive(&handler, &load, 1);
    assert_eq!(tally.wrong, 0, "{:?}", tally.first_mismatch);
    assert!(tally.unpinned >= 1 && tally.verified >= 1);
    assert_eq!(tally.verified + tally.unpinned, tally.completed);
    assert!(generation.load(Ordering::SeqCst) >= 1);
    tally.check("bracketed").expect("pinned answers verified");
}

#[test]
fn a_panicking_run_still_shuts_its_server_down() {
    let db = UlsDatabase::new();
    let service = Service::new(&db);
    let serve = |s: &Server| s.run_with(&service);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        harness::self_host(1, 8, serve, |_| -> Result<(), String> {
            panic!("injected")
        })
    }));
    assert!(run.is_err(), "the panic propagates once the server is down");
}

#[test]
fn a_mixed_generation_vector_is_never_pinned() {
    let db = UlsDatabase::new();
    let book = Book::default();
    book.register(3, Arc::new(UlsDatabase::new()));
    let generations = || vec![3, 4];
    let mix = vec![geographic()];
    let verifier = Verifier::Bracketed {
        mix: &mix,
        book: &book,
        generations: &generations,
    };
    let load = Load {
        mix: &mix,
        verifier: &verifier,
        bucket_of: &[],
        window: 2,
    };
    let handler = Corrupting {
        inner: Service::new(&db),
        book: None,
    };
    let tally = drive(&handler, &load, 1);
    assert!(tally.completed > 0);
    assert_eq!(tally.unpinned, tally.completed);
    let err = tally.check("mixed").expect_err("nothing verified");
    assert!(err.contains("none verified"), "{err}");
}

#[test]
fn every_run_accounts_for_every_answer() {
    let tally = |completed, verified, unpinned| Tally {
        completed,
        verified,
        unpinned,
        ..Tally::default()
    };
    tally(0, 0, 0)
        .check("idle")
        .expect("an idle run is not an error");
    tally(5, 5, 0).check("fixed").expect("all verified");
    tally(5, 2, 3)
        .check("bracketed")
        .expect("all accounted for");
    let lost = tally(5, 4, 0)
        .check("lost")
        .expect_err("an answer is missing");
    assert!(lost.contains("5 answers but 4 verified"), "{lost}");
    tally(5, 0, 5)
        .check("unverified")
        .expect_err("nothing verified");
}

const SPEC: &[Flag] = &[
    Flag::Value("--seconds", Some("2")),
    Flag::Value("--connect", None),
    Flag::Switch("--matrix"),
    harness::SEED,
    harness::OUT,
];

fn parse(args: &[&str]) -> Result<Flags, String> {
    Flags::parse("demo", SPEC, args.iter().map(|a| a.to_string()))
}

#[test]
fn flags_default_override_and_switch() {
    let flags = parse(&[]).expect("no flags");
    assert_eq!(flags.get::<f64>("--seconds"), Ok(2.0));
    assert_eq!(flags.get::<u64>("--seed"), Ok(hft_bench::REPRO_SEED));
    assert_eq!(flags.opt("--connect"), None);
    assert_eq!(flags.opt("--out"), None);
    assert!(!flags.on("--matrix"));
    let flags = parse(&["--seconds", "1", "--matrix", "--seconds", "0.5"]).expect("flags");
    assert_eq!(flags.get::<f64>("--seconds"), Ok(0.5));
    assert!(flags.on("--matrix"));
    let flags = parse(&["--seconds", "x"]).expect("parsed lazily");
    assert_eq!(flags.get::<f64>("--seconds"), Err("bad --seconds".into()));
}

#[test]
fn an_unknown_flag_lists_the_binarys_flags() {
    let err = parse(&["--window", "4"]).expect_err("undeclared flag");
    assert!(err.starts_with("unknown argument \"--window\""), "{err}");
    for flag in ["--seconds", "--connect", "--matrix", "--seed", "--out"] {
        assert!(
            err.contains(&format!("[{flag}]")),
            "{flag} missing from {err}"
        );
    }
    assert!(err.contains("usage: demo "), "{err}");
}

#[test]
fn a_flag_without_its_value_is_an_error() {
    let err = parse(&["--matrix", "--seconds"]).expect_err("missing value");
    assert_eq!(err, "--seconds needs a value");
}

/// Run a load generator binary that must fail before it builds a corpus.
fn rejected(bin: &str, exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("spawn");
    assert!(!out.status.success(), "{bin} {args:?} should fail");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn each_binary_rejects_flags_it_does_not_declare() {
    let race = rejected(
        "raceload",
        env!("CARGO_BIN_EXE_raceload"),
        &["--window", "4"],
    );
    assert!(race.contains("unknown argument \"--window\""), "{race}");
    assert!(
        race.contains("usage: raceload [--seconds] [--shards]"),
        "{race}"
    );
    let http = rejected(
        "httpload",
        env!("CARGO_BIN_EXE_httpload"),
        &["--shards", "2"],
    );
    assert!(http.contains("unknown argument \"--shards\""), "{http}");
    let ingest = rejected(
        "ingestload",
        env!("CARGO_BIN_EXE_ingestload"),
        &["--strategy", "spatial"],
    );
    assert!(
        ingest.contains("unknown argument \"--strategy\""),
        "{ingest}"
    );
    let fleet = rejected(
        "fleetload",
        env!("CARGO_BIN_EXE_fleetload"),
        &["--proto", "bin"],
    );
    assert!(fleet.contains("unknown argument \"--proto\""), "{fleet}");
    let fleet = rejected("fleetload", env!("CARGO_BIN_EXE_fleetload"), &["--seconds"]);
    assert!(fleet.contains("--seconds needs a value"), "{fleet}");
    let load = rejected(
        "loadgen",
        env!("CARGO_BIN_EXE_loadgen"),
        &["--concurrency", "0"],
    );
    assert!(load.contains("--concurrency must be positive"), "{load}");
    let load = rejected(
        "loadgen",
        env!("CARGO_BIN_EXE_loadgen"),
        &["--matrix", "--connect", "127.0.0.1:1"],
    );
    assert!(load.contains("cannot be used with --connect"), "{load}");
}

#[test]
fn records_carry_null_for_non_finite_numbers_and_a_provenance_block() {
    let path = format!("{}/harness_record.json", env!("CARGO_TARGET_TMPDIR"));
    let record = record! {
        "pos_inf" => f64::INFINITY,
        "neg_inf" => f64::NEG_INFINITY,
        "nan" => f64::NAN,
        "ms" => 1.23456,
        "count" => 7u64,
    };
    harness::write_record(Some(&path), record, 9001, 0xabc).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    let parsed = json::parse(text.trim_end()).expect("valid JSON");
    for key in ["pos_inf", "neg_inf", "nan"] {
        assert_eq!(parsed.get(key), Some(&Json::Null), "{key} in {text}");
    }
    assert_eq!(parsed.get("ms"), Some(&Json::Num(1.235)));
    assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(7));
    let provenance = parsed.get("provenance").expect("provenance block");
    assert_eq!(provenance.get("seed").and_then(Json::as_u64), Some(9001));
    let fnv = provenance.get("requests_fnv64").and_then(Json::as_str);
    assert_eq!(fnv, Some("0000000000000abc"));
    let profile = provenance.get("profile").and_then(Json::as_str);
    assert!(matches!(profile, Some("debug" | "release")), "{text}");
    assert!(provenance.get("nproc").and_then(Json::as_u64) > Some(0));
    assert!(provenance.get("commit").is_some());
}
