//! Fault injection: a handler that panics on a marker request costs
//! exactly that request — one structured `internal error` answer. The
//! same connection keeps answering in order, and the pool keeps its
//! full width.
//!
//! Lives in its own test binary: it asserts the process-global
//! `serve.panics` counter.

use hft_serve::api::{Request, Response};
use hft_serve::{Client, Handler, Proto, ServeConfig, ServeStats, Server, Service};
use hft_uls::UlsDatabase;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

const WORKERS: usize = 2;

fn site_search(service: &str) -> Request {
    Request::SiteSearch {
        service: service.into(),
        class: "FXO".into(),
    }
}

/// A [`Service`] wrapper that panics on `SiteSearch { service: "PANIC" }`
/// and holds each `SiteSearch { service: "MEET" }` until `WORKERS` of
/// them are in flight at once — which only a full-width pool can do.
struct Faulty<'a> {
    inner: Service<'a>,
    arrived: Mutex<usize>,
    all_in: Condvar,
}

impl Faulty<'_> {
    fn meet(&self) -> Response {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_in.notify_all();
        let (arrived, _) = self
            .all_in
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < WORKERS)
            .unwrap();
        if *arrived < WORKERS {
            Response::Error {
                message: "pool lost width".into(),
            }
        } else {
            Response::Licenses { ids: vec![] }
        }
    }
}

impl Handler for Faulty<'_> {
    fn handle(&self, req: &Request) -> Response {
        match req {
            Request::SiteSearch { service, .. } if service == "PANIC" => panic!("injected fault"),
            Request::SiteSearch { service, .. } if service == "MEET" => self.meet(),
            _ => self.inner.handle(req),
        }
    }

    fn serve_stats(&self) -> &ServeStats {
        self.inner.stats()
    }
}

fn assert_internal_error(response: Response) {
    match response {
        Response::Error { message } => {
            assert_eq!(message, "internal error: injected fault");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
}

#[test]
fn a_panicking_request_answers_one_error_and_the_server_keeps_going() {
    let db = UlsDatabase::new();
    let handler = Faulty {
        inner: Service::new(&db),
        arrived: Mutex::new(0),
        all_in: Condvar::new(),
    };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let healthy = Response::Licenses { ids: vec![] };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run_with(&handler));
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect");

        // One panic per worker: a pool that lost its panicking workers
        // would have none left for the calls after.
        for _ in 0..WORKERS {
            assert_internal_error(client.call(&site_search("PANIC")).expect("answer"));
            assert_eq!(client.call(&site_search("MG")).expect("answer"), healthy);
        }

        // Pipelined behind a panic, the next answer still arrives in order.
        client.send(&site_search("PANIC")).expect("send");
        client.send(&site_search("MG")).expect("send");
        client.flush().expect("flush");
        assert_internal_error(client.recv().expect("answer"));
        assert_eq!(client.recv().expect("answer"), healthy);

        // Full width: WORKERS requests in flight at once on WORKERS workers.
        let met: Vec<Response> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect_with(&addr, Proto::Binary).expect("connect");
                    c.call(&site_search("MEET")).expect("answer")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert!(met.iter().all(|r| *r == healthy), "{met:?}");

        let panics = hft_obs::global().snapshot().counter("serve.panics");
        assert_eq!(panics, Some(WORKERS as u64 + 1));
        let snap = handler.serve_stats().snapshot();
        assert_eq!(snap.errors, WORKERS as u64 + 1);

        assert_eq!(
            client.call(&Request::Shutdown).expect("answer"),
            Response::ShuttingDown
        );
        serving.join().expect("server thread").expect("clean exit");
    });
}
