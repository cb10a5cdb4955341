//! Verification must be able to fail: a handler that corrupts one
//! answer inside the timed window has to show up as a failure.

use hft_e2e_bench::phase::{self, Book, Ctx, Mode};
use hft_e2e_bench::system;
use hft_e2e_bench::workload::{self, Inputs};
use hft_serve::api::{Request, Response};
use hft_serve::{Handler, ServeStats, Service};
use std::sync::atomic::{AtomicU64, Ordering};

/// Answers through `inner`, but adds a tower to the `target`-th
/// Network answer.
struct CorruptOne<'a> {
    inner: &'a dyn Handler,
    networks: AtomicU64,
    target: u64,
}

impl Handler for CorruptOne<'_> {
    fn handle(&self, req: &Request) -> Response {
        match self.inner.handle(req) {
            Response::Network {
                licensee,
                as_of,
                towers,
                links,
                active_licenses,
            } => {
                let n = self.networks.fetch_add(1, Ordering::SeqCst);
                Response::Network {
                    licensee,
                    as_of,
                    towers: towers + u64::from(n == self.target),
                    links,
                    active_licenses,
                }
            }
            other => other,
        }
    }

    fn serve_stats(&self) -> &ServeStats {
        self.inner.serve_stats()
    }
}

fn failed_share(t: &phase::Tally) -> f64 {
    t.failed() as f64 / t.sent as f64
}

#[test]
fn one_corrupted_answer_raises_failed_share() {
    let spec = workload::spec("lookup").expect("lookup exists");
    let corpus = system::corpus();
    let inputs = Inputs::new(spec, workload::lookup_mix(&corpus.connected), 7, 0.5);
    let book = Book::new(&inputs.mix, Some(&Service::new(&corpus.db))).expect("valid mix");
    let ctx = Ctx {
        spec,
        inputs: &inputs,
        book: &book,
    };

    let service = Service::new(&corpus.db);
    let clean = phase::run(&ctx, &service, Mode::Closed, 0.3, None, None).expect("clean phase");
    assert!(clean.tally.sent > 0);
    assert_eq!(clean.tally.failed(), 0, "{:?}", clean.tally.first_failure);

    // The warm pass (every mix entry once per connection) and the
    // first timed request are not verified; corrupt a later answer.
    let networks = inputs
        .mix
        .iter()
        .filter(|r| matches!(r, Request::Network { .. }))
        .count() as u64;
    let warmup = networks * spec.conns.len() as u64 + 1;
    for mode in [Mode::Closed, Mode::Open] {
        let service = Service::new(&corpus.db);
        let corrupt = CorruptOne {
            inner: &service,
            networks: AtomicU64::new(0),
            target: warmup + 3,
        };
        let out = phase::run(&ctx, &corrupt, mode, 0.3, None, None).expect("corrupted phase");
        assert_eq!(out.tally.wrong, 1, "{mode:?}");
        assert!(failed_share(&out.tally) > 0.0, "{mode:?}");
    }
}

#[test]
fn inputs_follow_the_seed() {
    let spec = workload::spec("weather").expect("weather exists");
    let names = vec!["A".to_string(), "B".to_string()];
    let a = Inputs::new(spec, workload::weather_mix(&names), 1, 2.0);
    let b = Inputs::new(spec, workload::weather_mix(&names), 1, 2.0);
    let c = Inputs::new(spec, workload::weather_mix(&names), 2, 2.0);
    assert_eq!(a.digest(2), b.digest(2));
    assert_ne!(a.digest(2), c.digest(2));
    let fresh = a.schedule.iter().filter(|x| x.seed.is_some()).count();
    let weather = a
        .schedule
        .iter()
        .filter(|x| matches!(a.mix[x.idx], Request::Weather { .. }))
        .count();
    assert_eq!(fresh, weather / 4);
}
