//! Golden wire vectors: the exact JSON text and 0xB7 binary bytes of
//! every request and response variant, and the exact error text that a
//! malformed request frame is answered with.
//!
//! The round-trip proptests (`prop_wire`, `prop_binwire`) cannot see a
//! field that is reordered, renamed or re-encoded consistently in both
//! an encoder and its decoder; these literals can. Every sample's
//! golden bytes come from a `match` with no wildcard arm, so a new
//! variant does not compile until it has golden bytes here.
//!
//! Binary bodies are written as lowercase hex, JSON bodies as text.

use hft_core::session::StatsSnapshot;
use hft_serve::api::{Request, Response, SweepEntry, WireSpan, WireTrace};
use hft_serve::binwire::{self, Proto};
use hft_serve::json::Json;
use hft_serve::ServeSnapshot;
use hft_time::Date;

/// The pinned bytes of one sample.
struct Golden {
    /// The canonical JSON body.
    json: &'static str,
    /// The binary body, lowercase hex.
    bin: &'static str,
}

const fn golden(json: &'static str, bin: &'static str) -> Golden {
    Golden { json, bin }
}

fn date(y: i32, m: u32, d: u32) -> Date {
    Date::new(y, m, d).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const TRACE_ID: u128 = 0xdead_beef_0123_4567_89ab_cdef_f00d_cafe;

fn request_samples() -> Vec<Request> {
    vec![
        Request::Geographic {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
        },
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Shortlist {
            lat_deg: 41.0,
            lon_deg: -88.0,
            radius_km: 25.5,
            min_filings: 11,
        },
        Request::Network {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
        },
        Request::Route {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Apa {
            licensee: "β \"Networks\" — 世界\n".into(),
            date: date(2019, 12, 31),
            from: "CME".into(),
            to: "NASDAQ".into(),
        },
        Request::Weather {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
            samples: 60_000,
            seed: (1 << 53) - 1,
        },
        Request::Race {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
            constellation: "starlink".into(),
            samples: 5_000,
            seed: 7,
        },
        Request::StretchSweep {
            licensee: "Alpha Networks".into(),
            date: date(2016, 6, 1),
            constellation: "starlink".into(),
        },
        Request::Stats,
        Request::Metrics,
        Request::Traces {
            limit: 16,
            trace_id: None,
        },
        Request::Traces {
            limit: 1,
            trace_id: Some(TRACE_ID),
        },
        Request::Shutdown,
    ]
}

/// The golden bytes of a request sample. No wildcard arm: a new variant
/// must be given golden bytes before this file compiles.
fn request_golden(req: &Request) -> Golden {
    match req {
        Request::Geographic { .. } => golden(
            r#"{"type":"geographic","lat_deg":41.7625,"lon_deg":-88.1712,"radius_km":10}"#,
            "b702019a99999999e14440d044d8f0f40a56c00000000000002440",
        ),
        Request::SiteSearch { .. } => golden(
            r#"{"type":"site_search","service":"MG","class":"FXO"}"#,
            "b70202024d470346584f",
        ),
        Request::Shortlist { .. } => golden(
            r#"{"type":"shortlist","lat_deg":41,"lon_deg":-88,"radius_km":25.5,"min_filings":11}"#,
            "b70203000000000080444000000000000056c000000000008039400b",
        ),
        Request::Network { .. } => golden(
            r#"{"type":"network","licensee":"Alpha Networks","date":"2020-04-01"}"#,
            "b702040e416c706861204e6574776f726b73e40f0401",
        ),
        Request::Route { .. } => golden(
            r#"{"type":"route","licensee":"Alpha Networks","date":"2020-04-01","from":"CME","to":"NY4"}"#,
            "b702050e416c706861204e6574776f726b73e40f040103434d45034e5934",
        ),
        Request::Apa { .. } => golden(
            r#"{"type":"apa","licensee":"β \"Networks\" — 世界\n","date":"2019-12-31","from":"CME","to":"NASDAQ"}"#,
            "b7020619ceb220224e6574776f726b732220e2809420e4b896e7958c0ae30f0c1f03434d45064e4153444151",
        ),
        Request::Weather { .. } => golden(
            r#"{"type":"weather","licensee":"Alpha Networks","date":"2020-04-01","from":"CME","to":"NY4","samples":60000,"seed":9007199254740991}"#,
            "b702070e416c706861204e6574776f726b73e40f040103434d45034e5934e0d403ffffffffffffff0f",
        ),
        Request::Race { .. } => golden(
            r#"{"type":"race","licensee":"Alpha Networks","date":"2020-04-01","from":"CME","to":"NY4","constellation":"starlink","samples":5000,"seed":7}"#,
            "b7020b0e416c706861204e6574776f726b73e40f040103434d45034e593408737461726c696e6b882707",
        ),
        Request::StretchSweep { .. } => golden(
            r#"{"type":"stretch_sweep","licensee":"Alpha Networks","date":"2016-06-01","constellation":"starlink"}"#,
            "b7020c0e416c706861204e6574776f726b73e00f060108737461726c696e6b",
        ),
        Request::Stats => golden(
            r#"{"type":"stats"}"#,
            "b70208",
        ),
        Request::Metrics => golden(
            r#"{"type":"metrics"}"#,
            "b70209",
        ),
        Request::Traces { trace_id: None, .. } => golden(
            r#"{"type":"traces","limit":16,"trace_id":null}"#,
            "b7020d1000",
        ),
        Request::Traces {
            trace_id: Some(_), ..
        } => golden(
            r#"{"type":"traces","limit":1,"trace_id":"deadbeef0123456789abcdeff00dcafe"}"#,
            "b7020d0101feca0df0efcdab8967452301efbeadde",
        ),
        Request::Shutdown => golden(
            r#"{"type":"shutdown"}"#,
            "b7020a",
        ),
    }
}

fn sweep_entries() -> Vec<SweepEntry> {
    vec![
        SweepEntry {
            pair: "CME-NY4".into(),
            geodesic_km: 1186.0,
            mw_stretch: Some(1.0066),
            fiber_stretch: 1.8,
            leo_stretch: Some(2.38),
        },
        SweepEntry {
            pair: "Tokyo-NewYork".into(),
            geodesic_km: 10_850.0,
            mw_stretch: None,
            fiber_stretch: 1.8,
            leo_stretch: Some(1.42),
        },
    ]
}

fn unroutable_race() -> Response {
    Response::Race {
        from: "CME".into(),
        to: "NASDAQ".into(),
        constellation: "starlink".into(),
        geodesic_km: 1176.0,
        c_bound_ms: 3.92,
        microwave_ms: None,
        fiber_ms: 7.06,
        leo_ms: None,
        leo_isl_hops: None,
        mw_stretch: None,
        fiber_stretch: 1.8,
        leo_stretch: None,
        winner: "fiber".into(),
        wx_clear_ms: f64::INFINITY,
        wx_p50_ms: f64::INFINITY,
        wx_p95_ms: f64::INFINITY,
        wx_p99_ms: f64::INFINITY,
        wx_availability: 0.0,
        wx_samples: 0,
    }
}

fn response_samples() -> Vec<Response> {
    vec![
        Response::Licenses {
            ids: vec![0, 1, 127, 128, 300, (1 << 53) - 1],
        },
        Response::Shortlist {
            geographic_candidates: 57,
            service_filtered: 40,
            shortlisted: 29,
            names: vec!["Alpha".into(), "β — 世界".into(), String::new()],
        },
        Response::Network {
            licensee: "Alpha Networks".into(),
            as_of: date(2020, 4, 1),
            towers: 20,
            links: 19,
            active_licenses: 47,
        },
        Response::Route {
            latency_ms: Some(4.25),
            towers: Some(20),
            length_m: Some(1_180_000.0),
        },
        Response::Route {
            latency_ms: None,
            towers: None,
            length_m: None,
        },
        Response::Apa { apa: Some(0.75) },
        Response::Apa { apa: None },
        Response::Weather {
            clear_ms: 4.2,
            p50_ms: 4.3,
            p95_ms: f64::INFINITY,
            p99_ms: f64::INFINITY,
            availability: 0.97,
            samples: 60_000,
        },
        Response::Race {
            from: "CME".into(),
            to: "NY4".into(),
            constellation: "starlink".into(),
            geodesic_km: 1186.0,
            c_bound_ms: 3.956,
            microwave_ms: Some(3.982),
            fiber_ms: 7.12,
            leo_ms: Some(9.4),
            leo_isl_hops: Some(3),
            mw_stretch: Some(1.0066),
            fiber_stretch: 1.8,
            leo_stretch: Some(2.38),
            winner: "microwave".into(),
            wx_clear_ms: 3.982,
            wx_p50_ms: 3.982,
            wx_p95_ms: 4.2,
            wx_p99_ms: f64::INFINITY,
            wx_availability: 0.985,
            wx_samples: 5_000,
        },
        unroutable_race(),
        Response::StretchSweep { entries: vec![] },
        Response::StretchSweep {
            entries: sweep_entries(),
        },
        Response::Stats {
            serve: ServeSnapshot {
                received: 10,
                accepted: 9,
                rejected_overloaded: 1,
                completed: 9,
                errors: 2,
                flights_led: 5,
                flights_coalesced: 3,
                queue_wait_ns_total: 123_456,
                queue_wait_ns_max: 45_678,
                service_ns_total: 999_999,
                service_ns_max: 888_888,
                queue_high_water: 7,
                generation_swaps: 3,
            },
            session: StatsSnapshot {
                network_hits: 1,
                reconstructions: 2,
                route_hits: 3,
                route_misses: 4,
                apa_hits: 5,
                apa_misses: 6,
                graph_hits: 7,
                graph_misses: 300,
            },
        },
        Response::Metrics {
            registry: Json::Obj(vec![
                (
                    "counters".into(),
                    Json::Obj(vec![("serve.received".into(), Json::Num(12.0))]),
                ),
                ("gauges".into(), Json::Obj(vec![])),
                (
                    "histograms".into(),
                    Json::Obj(vec![(
                        "serve.service_ns".into(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(3.0)),
                            ("p50".into(), Json::Num(1500.5)),
                            ("tags".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
                            ("label".into(), Json::Str("a\"b".into())),
                            ("ok".into(), Json::Bool(false)),
                        ]),
                    )]),
                ),
            ]),
        },
        Response::Traces { traces: vec![] },
        Response::Traces {
            traces: vec![WireTrace {
                trace_id: TRACE_ID,
                label: "shortlist".into(),
                sampled: true,
                slow: false,
                total_ns: 61_000_000,
                spans: vec![
                    WireSpan {
                        name: "serve.request".into(),
                        parent: None,
                        start_ns: 0,
                        dur_ns: 61_000_000,
                        shard: None,
                    },
                    WireSpan {
                        name: "queue.wait".into(),
                        parent: Some(0),
                        start_ns: 0,
                        dur_ns: 1_000_000,
                        shard: None,
                    },
                    WireSpan {
                        name: "shard.call".into(),
                        parent: Some(0),
                        start_ns: 1_000_000,
                        dur_ns: 59_000_000,
                        shard: Some(3),
                    },
                ],
            }],
        },
        Response::Error {
            message: "unknown data center \"LD4\"".into(),
        },
        Response::Overloaded,
        Response::ShuttingDown,
    ]
}

/// The golden bytes of a response sample. No wildcard arm: a new variant
/// must be given golden bytes before this file compiles.
fn response_golden(resp: &Response) -> Golden {
    match resp {
        Response::Licenses { .. } => golden(
            r#"{"type":"licenses","ids":[0,1,127,128,300,9007199254740991]}"#,
            "b703010600017f8001ac02ffffffffffffff0f",
        ),
        Response::Shortlist { .. } => golden(
            r#"{"type":"shortlist","geographic_candidates":57,"service_filtered":40,"shortlisted":29,"names":["Alpha","β — 世界",""]}"#,
            "b7030239281d0305416c7068610dceb220e2809420e4b896e7958c00",
        ),
        Response::Network { .. } => golden(
            r#"{"type":"network","licensee":"Alpha Networks","as_of":"2020-04-01","towers":20,"links":19,"active_licenses":47}"#,
            "b703030e416c706861204e6574776f726b73e40f040114132f",
        ),
        Response::Route {
            latency_ms: Some(_),
            ..
        } => golden(
            r#"{"type":"route","latency_ms":4.25,"towers":20,"length_m":1180000}"#,
            "b703040100000000000011400114010000000060013241",
        ),
        Response::Route {
            latency_ms: None, ..
        } => golden(
            r#"{"type":"route","latency_ms":null,"towers":null,"length_m":null}"#,
            "b70304000000",
        ),
        Response::Apa { apa: Some(_) } => golden(
            r#"{"type":"apa","apa":0.75}"#,
            "b7030501000000000000e83f",
        ),
        Response::Apa { apa: None } => golden(
            r#"{"type":"apa","apa":null}"#,
            "b7030500",
        ),
        Response::Weather { .. } => golden(
            r#"{"type":"weather","clear_ms":4.2,"p50_ms":4.3,"p95_ms":null,"p99_ms":null,"availability":0.97,"samples":60000}"#,
            "b70306cdcccccccccc10403333333333331140000000000000f07f000000000000f07f0ad7a3703d0aef3fe0d403",
        ),
        Response::Race {
            microwave_ms: Some(_),
            ..
        } => golden(
            r#"{"type":"race","from":"CME","to":"NY4","constellation":"starlink","geodesic_km":1186,"c_bound_ms":3.956,"microwave_ms":3.982,"fiber_ms":7.12,"leo_ms":9.4,"leo_isl_hops":3,"mw_stretch":1.0066,"fiber_stretch":1.8,"leo_stretch":2.38,"winner":"microwave","wx_clear_ms":3.982,"wx_p50_ms":3.982,"wx_p95_ms":4.2,"wx_p99_ms":null,"wx_availability":0.985,"wx_samples":5000}"#,
            "b7030c03434d45034e593408737461726c696e6b0000000000889240d9cef753e3a50f40014260e5d022db0f407b14ae47e17a1c4001cdcccccccccc22400103012575029a081bf03fcdccccccccccfc3f010ad7a3703d0a0340096d6963726f776176654260e5d022db0f404260e5d022db0f40cdcccccccccc1040000000000000f07f85eb51b81e85ef3f8827",
        ),
        Response::Race {
            microwave_ms: None, ..
        } => golden(
            r#"{"type":"race","from":"CME","to":"NASDAQ","constellation":"starlink","geodesic_km":1176,"c_bound_ms":3.92,"microwave_ms":null,"fiber_ms":7.06,"leo_ms":null,"leo_isl_hops":null,"mw_stretch":null,"fiber_stretch":1.8,"leo_stretch":null,"winner":"fiber","wx_clear_ms":null,"wx_p50_ms":null,"wx_p95_ms":null,"wx_p99_ms":null,"wx_availability":0,"wx_samples":0}"#,
            "b7030c03434d45064e415344415108737461726c696e6b00000000006092405c8fc2f5285c0f40003d0ad7a3703d1c40000000cdccccccccccfc3f00056669626572000000000000f07f000000000000f07f000000000000f07f000000000000f07f000000000000000000",
        ),
        Response::StretchSweep { entries } if entries.is_empty() => golden(
            r#"{"type":"stretch_sweep","entries":[]}"#,
            "b7030d00",
        ),
        Response::StretchSweep { .. } => golden(
            r#"{"type":"stretch_sweep","entries":[{"pair":"CME-NY4","geodesic_km":1186,"mw_stretch":1.0066,"fiber_stretch":1.8,"leo_stretch":2.38},{"pair":"Tokyo-NewYork","geodesic_km":10850,"mw_stretch":null,"fiber_stretch":1.8,"leo_stretch":1.42}]}"#,
            "b7030d0207434d452d4e59340000000000889240012575029a081bf03fcdccccccccccfc3f010ad7a3703d0a03400d546f6b796f2d4e6577596f726b000000000031c54000cdccccccccccfc3f01b81e85eb51b8f63f",
        ),
        Response::Stats { .. } => golden(
            r#"{"type":"stats","serve":{"received":10,"accepted":9,"rejected_overloaded":1,"completed":9,"errors":2,"flights_led":5,"flights_coalesced":3,"queue_wait_ns_total":123456,"queue_wait_ns_max":45678,"service_ns_total":999999,"service_ns_max":888888,"queue_high_water":7,"generation_swaps":3},"session":{"network_hits":1,"reconstructions":2,"route_hits":3,"route_misses":4,"apa_hits":5,"apa_misses":6,"graph_hits":7,"graph_misses":300}}"#,
            "b703070a090109020503c0c407eee402bf843db8a036070301020304050607ac02",
        ),
        Response::Metrics { .. } => golden(
            r#"{"type":"metrics","registry":{"counters":{"serve.received":12},"gauges":{},"histograms":{"serve.service_ns":{"count":3,"p50":1500.5,"tags":[null,true],"label":"a\"b","ok":false}}}}"#,
            "b70308060308636f756e7465727306010e73657276652e72656365697665640300000000000028400667617567657306000a686973746f6772616d7306011073657276652e736572766963655f6e73060505636f756e7403000000000000084003703530030000000000729740047461677305020002056c6162656c0403612262026f6b01",
        ),
        Response::Traces { traces } if traces.is_empty() => golden(
            r#"{"type":"traces","traces":[]}"#,
            "b7030e00",
        ),
        Response::Traces { .. } => golden(
            r#"{"type":"traces","traces":[{"trace_id":"deadbeef0123456789abcdeff00dcafe","label":"shortlist","sampled":true,"slow":false,"total_ns":61000000,"spans":[{"name":"serve.request","parent":null,"start_ns":0,"dur_ns":61000000,"shard":null},{"name":"queue.wait","parent":0,"start_ns":0,"dur_ns":1000000,"shard":null},{"name":"shard.call","parent":0,"start_ns":1000000,"dur_ns":59000000,"shard":3}]}]}"#,
            "b7030e01feca0df0efcdab8967452301efbeadde0973686f72746c69737401c0928b1d030d73657276652e726571756573740000c0928b1d000a71756575652e77616974010000c0843d000a73686172642e63616c6c0100c0843dc089911c0103",
        ),
        Response::Error { .. } => golden(
            r#"{"type":"error","message":"unknown data center \"LD4\""}"#,
            "b7030919756e6b6e6f776e20646174612063656e74657220224c443422",
        ),
        Response::Overloaded => golden(
            r#"{"type":"overloaded"}"#,
            "b7030a",
        ),
        Response::ShuttingDown => golden(
            r#"{"type":"shutting_down"}"#,
            "b7030b",
        ),
    }
}

/// Non-canonical inputs paired with the canonical sample they encode
/// as: a non-finite optional becomes absent, a non-finite latency
/// becomes `+∞` (JSON `null`).
fn canonicalized_responses() -> Vec<(Response, Response)> {
    let mut nan_sweep = sweep_entries();
    nan_sweep[1].mw_stretch = Some(f64::NAN);
    vec![
        (
            Response::Route {
                latency_ms: Some(f64::INFINITY),
                towers: None,
                length_m: Some(f64::NAN),
            },
            Response::Route {
                latency_ms: None,
                towers: None,
                length_m: None,
            },
        ),
        (
            Response::Apa {
                apa: Some(f64::NEG_INFINITY),
            },
            Response::Apa { apa: None },
        ),
        (
            Response::Weather {
                clear_ms: 4.2,
                p50_ms: 4.3,
                p95_ms: f64::NAN,
                p99_ms: f64::NEG_INFINITY,
                availability: 0.97,
                samples: 60_000,
            },
            Response::Weather {
                clear_ms: 4.2,
                p50_ms: 4.3,
                p95_ms: f64::INFINITY,
                p99_ms: f64::INFINITY,
                availability: 0.97,
                samples: 60_000,
            },
        ),
        (
            Response::Race {
                from: "CME".into(),
                to: "NASDAQ".into(),
                constellation: "starlink".into(),
                geodesic_km: 1176.0,
                c_bound_ms: 3.92,
                microwave_ms: Some(f64::NAN),
                fiber_ms: 7.06,
                leo_ms: Some(f64::INFINITY),
                leo_isl_hops: None,
                mw_stretch: Some(f64::NAN),
                fiber_stretch: 1.8,
                leo_stretch: Some(f64::NEG_INFINITY),
                winner: "fiber".into(),
                wx_clear_ms: f64::NAN,
                wx_p50_ms: f64::NEG_INFINITY,
                wx_p95_ms: f64::INFINITY,
                wx_p99_ms: f64::NAN,
                wx_availability: 0.0,
                wx_samples: 0,
            },
            unroutable_race(),
        ),
        (
            Response::StretchSweep { entries: nan_sweep },
            Response::StretchSweep {
                entries: sweep_entries(),
            },
        ),
    ]
}

/// `(request frame, exact error text)`: what `sniff_request` reports
/// for a malformed frame. The server answers with this text (behind a
/// `bad request: ` prefix) as a `Response::Error`, so it is wire bytes.
fn request_errors() -> Vec<(Vec<u8>, &'static str)> {
    let json = |s: &str| s.as_bytes().to_vec();
    let mut trailing = binwire::encode_request(&Request::Stats);
    trailing.push(0);
    vec![
        // JSON: missing field, wrong types, bad date.
        (
            json(r#"{"type":"site_search","service":"MG"}"#),
            r#"missing or non-string field "class""#,
        ),
        (
            json(r#"{"type":"network","licensee":7,"date":"2020-04-01"}"#),
            r#"missing or non-string field "licensee""#,
        ),
        (
            json(r#"{"type":"geographic","lat_deg":"41","lon_deg":-88,"radius_km":1}"#),
            r#"missing or non-numeric field "lat_deg""#,
        ),
        (
            json(
                r#"{"type":"shortlist","lat_deg":41,"lon_deg":-88,"radius_km":1,"min_filings":1.5}"#,
            ),
            r#"missing or non-integer field "min_filings""#,
        ),
        (
            json(
                r#"{"type":"weather","licensee":"X","date":"2020-04-01","from":"CME","to":"NY4","samples":-1,"seed":1}"#,
            ),
            r#"missing or non-integer field "samples""#,
        ),
        (
            json(r#"{"type":"network","licensee":"X","date":"2020-13-01"}"#),
            r#"bad date: impossible calendar date "2020-13-01""#,
        ),
        (
            json(r#"{"type":"route","licensee":"X","date":"April","from":"CME","to":"NY4"}"#),
            r#"bad date: malformed date string "April""#,
        ),
        (
            json(r#"{"type":"route","licensee":"X","date":20200401,"from":"CME","to":"NY4"}"#),
            r#"missing or non-string field "date""#,
        ),
        (
            json(r#"{"type":"race"}"#),
            r#"missing or non-string field "licensee""#,
        ),
        // JSON: the traces request's optional fields.
        (json(r#"{"type":"traces","limit":-1}"#), "traces: bad limit"),
        (
            json(r#"{"type":"traces","limit":"all"}"#),
            "traces: bad limit",
        ),
        (
            json(r#"{"type":"traces","trace_id":"xyz"}"#),
            "traces: bad trace_id",
        ),
        (
            json(r#"{"type":"traces","trace_id":7}"#),
            "traces: bad trace_id",
        ),
        (
            json(r#"{"type":"traces","limit":2,"trace_id":"123456789012345678901234567890123"}"#),
            "traces: bad trace_id",
        ),
        // JSON: framing-level failures.
        (json(r#"{"type":"warp"}"#), r#"unknown request type "warp""#),
        (
            json(r#"{"kind":"stats"}"#),
            r#"missing or non-string field "type""#,
        ),
        (json("[1,2,3]"), r#"missing or non-string field "type""#),
        (
            json(r#"{"type": "#),
            "JSON parse error at byte 9: unexpected end of input",
        ),
        (
            vec![0xff, 0xfe, 0x00],
            "frame is not UTF-8: invalid utf-8 sequence of 1 bytes from index 0",
        ),
        // Binary.
        // A network request whose date stops before its day byte.
        (
            vec![0xb7, 0x02, 0x04, 0x01, b'X', 0xe4, 0x0f, 4],
            "binary frame truncated",
        ),
        (vec![0xb7, 0x02], "binary frame truncated"),
        (vec![0xb7, 0x02, 0xee], "unknown binary request tag 0xee"),
        (vec![0xb7, 0x7f], "bad binary frame kind 0x7f"),
        (vec![0xb7, 0x03, 0x0a], "bad binary frame kind 0x03"),
        (trailing, "binary frame has 1 trailing bytes"),
        (
            vec![0xb7, 0x02, 0x02, 0xff, 0xff, 0xff, 0xff, 0x7f],
            "declared length 34359738367 exceeds frame",
        ),
        (
            vec![0xb7, 0x02, 0x02, 0x01, 0xff, 0x00],
            "binary string is not UTF-8",
        ),
        (
            vec![0xb7, 0x02, 0x04, 0x01, b'X', 0xe4, 0x0f, 13, 1],
            "binary date is not a real date",
        ),
        (
            vec![0xb7, 0x02, 0x0d, 0x10, 0x02],
            "bad option presence byte 0x02",
        ),
        (
            [
                vec![0xb7, 0x02, 0x03],
                vec![0; 24],
                vec![0xff; 10],
                vec![0x01],
            ]
            .concat(),
            "malformed varint",
        ),
    ]
}

#[test]
fn requests_match_golden_bytes() {
    let samples = request_samples();
    let kinds: std::collections::BTreeSet<&str> = samples.iter().map(Request::kind).collect();
    assert_eq!(kinds.len(), 13, "one sample per request variant at least");
    for req in samples {
        let g = request_golden(&req);
        let json = req.encode();
        assert_eq!(std::str::from_utf8(&json).unwrap(), g.json, "{req:?}");
        assert_eq!(binwire::request_bytes(Proto::Json, &req), json);
        let bin = binwire::encode_request(&req);
        assert_eq!(hex(&bin), g.bin, "{req:?}");
        assert_eq!(binwire::request_bytes(Proto::Binary, &req), bin);
        let mut into = vec![];
        binwire::encode_request_into(&req, &mut into);
        assert_eq!(into, bin);
        // The golden bytes decode back to the sample, both directly
        // and through the server's sniffing entry point.
        assert_eq!(Request::decode(g.json.as_bytes()).unwrap(), req);
        assert_eq!(binwire::decode_request(&unhex(g.bin)).unwrap(), req);
        assert_eq!(binwire::sniff_request(g.json.as_bytes()).unwrap(), req);
        assert_eq!(binwire::sniff_request(&unhex(g.bin)).unwrap(), req);
    }
}

#[test]
fn responses_match_golden_bytes() {
    let samples = response_samples();
    let kinds: std::collections::BTreeSet<String> = samples
        .iter()
        .map(|r| match r.to_json().get("type") {
            Some(Json::Str(t)) => t.clone(),
            other => panic!("no type tag: {other:?}"),
        })
        .collect();
    assert_eq!(kinds.len(), 14, "one sample per response variant at least");
    for resp in samples {
        let g = response_golden(&resp);
        let json = resp.encode();
        assert_eq!(std::str::from_utf8(&json).unwrap(), g.json, "{resp:?}");
        let mut via_proto = vec![];
        binwire::response_bytes_into(Proto::Json, &resp, &mut via_proto);
        assert_eq!(via_proto, json);
        let bin = binwire::encode_response(&resp);
        assert_eq!(hex(&bin), g.bin, "{resp:?}");
        let mut via_proto = vec![];
        binwire::response_bytes_into(Proto::Binary, &resp, &mut via_proto);
        assert_eq!(via_proto, bin);
        assert_eq!(Response::decode(g.json.as_bytes()).unwrap(), resp);
        assert_eq!(binwire::decode_response(&unhex(g.bin)).unwrap(), resp);
        assert_eq!(
            binwire::response_from(Proto::Json, g.json.as_bytes()).unwrap(),
            resp
        );
        assert_eq!(
            binwire::response_from(Proto::Binary, &unhex(g.bin)).unwrap(),
            resp
        );
    }
}

#[test]
fn non_finite_values_encode_as_their_canonical_form() {
    for (input, canonical) in canonicalized_responses() {
        let g = response_golden(&canonical);
        assert_eq!(
            std::str::from_utf8(&input.encode()).unwrap(),
            g.json,
            "{input:?}"
        );
        assert_eq!(hex(&binwire::encode_response(&input)), g.bin, "{input:?}");
        assert_eq!(Response::decode(&input.encode()).unwrap(), canonical);
        assert_eq!(
            binwire::decode_response(&binwire::encode_response(&input)).unwrap(),
            canonical
        );
    }
    // Non-finite latency bits on the binary wire read back as +∞, the
    // only non-finite value the JSON codec can produce.
    let weather = response_samples()
        .into_iter()
        .find(|r| matches!(r, Response::Weather { .. }))
        .unwrap();
    let mut nan_bits = unhex(response_golden(&weather).bin);
    nan_bits[3..11].copy_from_slice(&f64::NAN.to_le_bytes());
    match binwire::decode_response(&nan_bits).unwrap() {
        Response::Weather { clear_ms, .. } => assert_eq!(clear_ms, f64::INFINITY),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn optional_request_fields_default_when_absent() {
    // `traces` without `limit` or `trace_id` (or with explicit nulls)
    // asks for the 16 slowest.
    for body in [
        r#"{"type":"traces"}"#,
        r#"{"type":"traces","limit":null,"trace_id":null}"#,
    ] {
        assert_eq!(
            binwire::sniff_request(body.as_bytes()).unwrap(),
            Request::Traces {
                limit: 16,
                trace_id: None
            }
        );
    }
    // Short trace ids may omit leading zeros.
    assert_eq!(
        binwire::sniff_request(br#"{"type":"traces","limit":2,"trace_id":"ff"}"#).unwrap(),
        Request::Traces {
            limit: 2,
            trace_id: Some(0xff)
        }
    );
    // Key order on input is free; output order is canonical.
    let shuffled = r#"{"to":"NY4","from":"CME","date":"2020-04-01","licensee":"Alpha Networks","type":"route"}"#;
    let req = binwire::sniff_request(shuffled.as_bytes()).unwrap();
    assert_eq!(req, request_samples()[4]);
}

#[test]
fn stats_from_servers_without_generation_swaps_decode_as_zero() {
    let stats = response_samples()
        .into_iter()
        .find(|r| matches!(r, Response::Stats { .. }))
        .unwrap();
    let old = response_golden(&stats)
        .json
        .replace(r#","generation_swaps":3"#, "");
    match Response::decode(old.as_bytes()).unwrap() {
        Response::Stats { serve, session } => {
            assert_eq!(serve.generation_swaps, 0);
            assert_eq!(serve.service_ns_max, 888_888);
            assert_eq!(session.graph_misses, 300);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn malformed_request_frames_report_exact_errors() {
    for (frame, want) in request_errors() {
        let got = binwire::sniff_request(&frame).unwrap_err();
        assert_eq!(got, want, "frame {}", hex(&frame));
    }
}
