//! A session miss span wraps only the computation a request paid for: a
//! cold `Shortlist`/`Route` request's trace carries its `session.*` miss
//! span, and the same request answered warm carries none.
//!
//! Lives in its own test binary: it flips the process-global trace
//! sampling stride and slow threshold.

use hft_corridor::{chicago_nj, generate};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use hft_time::Date;

/// Call `req`, then return the span names of the request's trace.
fn traced_spans(client: &mut Client, req: &Request) -> Vec<String> {
    hft_obs::clear_traces();
    let answer = client.call(req).expect("answer");
    assert!(!matches!(answer, Response::Error { .. }), "{answer:?}");
    let Response::Traces { traces } = client
        .call(&Request::Traces {
            limit: 8,
            trace_id: None,
        })
        .expect("traces answer")
    else {
        panic!("expected Response::Traces");
    };
    let trace = traces
        .iter()
        .find(|t| t.label == req.kind())
        .unwrap_or_else(|| panic!("no {} trace captured", req.kind()));
    assert_eq!(trace.spans[0].name, "serve.request");
    trace.spans.iter().map(|s| s.name.clone()).collect()
}

#[test]
fn miss_spans_appear_only_on_cold_requests() {
    hft_obs::set_trace_sample_every(1);
    hft_obs::set_slow_threshold_ns(0);

    let eco = generate(&chicago_nj(), 2020);
    let licensee = eco.connected_2020[0].clone();
    let service = Service::new(&eco.db);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&service));
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect");

        let cases = [
            (
                Request::Shortlist {
                    lat_deg: 41.7625,
                    lon_deg: -88.1712,
                    radius_km: 10.0,
                    min_filings: 11,
                },
                "session.scrape",
            ),
            (
                Request::Route {
                    licensee,
                    date: Date::new(2020, 4, 1).unwrap(),
                    from: "CME".into(),
                    to: "NY4".into(),
                },
                "session.route",
            ),
        ];
        for (req, miss) in &cases {
            let cold = traced_spans(&mut client, req);
            assert_eq!(
                cold.iter().filter(|n| n == miss).count(),
                1,
                "cold {} pays one {miss}: {cold:?}",
                req.kind()
            );
            let warm = traced_spans(&mut client, req);
            assert!(
                !warm.iter().any(|n| n.starts_with("session.")),
                "warm {} computes nothing: {warm:?}",
                req.kind()
            );
        }

        match client.call(&Request::Shutdown).expect("shutdown answer") {
            Response::ShuttingDown => {}
            other => panic!("unexpected shutdown answer: {other:?}"),
        }
        handle.join().expect("server thread").expect("clean exit");
    });
}
