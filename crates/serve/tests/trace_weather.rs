//! A traced `Weather` request must attribute its Monte-Carlo run to a
//! `weather.mc` span under the request's root, so the waterfall shows
//! the MC instead of leaving it as unattributed time.
//!
//! Lives in its own test binary: it flips the process-global trace
//! sampling stride and slow threshold.

use hft_corridor::{chicago_nj, generate};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, IoMode, Proto, ServeConfig, Server, Service};
use hft_time::Date;

#[test]
fn weather_request_trace_has_an_mc_span() {
    hft_obs::set_trace_sample_every(1);
    hft_obs::set_slow_threshold_ns(0);
    hft_obs::clear_traces();

    let eco = generate(&chicago_nj(), 2020);
    let licensee = eco
        .connected_2020
        .first()
        .expect("modeled networks")
        .clone();
    let service = Service::new(&eco.db);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        io: IoMode::Evented,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&service));
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect");

        let weather = Request::Weather {
            licensee,
            date: Date::new(2020, 4, 1).unwrap(),
            from: "CME".into(),
            to: "NY4".into(),
            samples: 2_000,
            seed: 7,
        };
        match client.call(&weather).expect("weather answer") {
            Response::Weather { samples, .. } => assert_eq!(samples, 2_000),
            other => panic!("unexpected weather answer: {other:?}"),
        }

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
            .find(|t| t.label == "weather")
            .unwrap_or_else(|| {
                let labels: Vec<&str> = traces.iter().map(|t| t.label.as_str()).collect();
                panic!("no weather trace captured; labels: {labels:?}")
            });
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(trace.spans[0].name, "serve.request");
        let mc: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "weather.mc")
            .collect();
        assert_eq!(mc.len(), 1, "one MC span in {names:?}");
        let mc = mc[0];
        assert!(mc.parent.is_some(), "the MC span hangs under the request");
        assert!(mc.dur_ns > 0, "the MC span measured the run");
        assert!(
            mc.start_ns + mc.dur_ns <= trace.total_ns,
            "the MC span sits inside the root window"
        );

        match client.call(&Request::Shutdown).expect("shutdown answer") {
            Response::ShuttingDown => {}
            other => panic!("unexpected shutdown answer: {other:?}"),
        }
        handle.join().expect("server thread").expect("clean exit");
    });
}
