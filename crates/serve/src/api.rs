//! The typed query surface: every request the service answers and every
//! response it produces, each described once in a wire table.
//!
//! The variants cover the paper's query mix end to end — the §2.1 portal
//! searches, the §2.2 shortlist funnel, snapshot reconstruction
//! ([`Request::Network`]), per-pair route/APA (Tables 1–3), the §5
//! weather Monte Carlo and the §6 cross-substrate race — plus `stats`,
//! `metrics` and `traces` (observability) and `shutdown` (graceful
//! drain).
//!
//! Each table row gives a variant's JSON `type` name, its 0xB7 tag byte
//! and its fields in wire order; `schema.rs` generates the enums, their
//! JSON codec (here, as `to_json`/`from_json`/`encode`/`decode`) and
//! their binary body codec (framed by [`crate::binwire`]) from it.
//! Encoding is deterministic: one canonical key order per variant, so
//! two encodings of equal values are byte-identical and the load harness
//! can diff served bytes against locally computed ones.
//!
//! Adding a variant takes one table row (with an unused tag byte), one
//! golden vector in `tests/golden_wire.rs` (whose exhaustive match will
//! not compile until it exists) and one generator in
//! `tests/codec_strategies` for the round-trip proptests.

use crate::json::Json;
use crate::schema::{wire_enum, wire_struct, At, Codec, Latency};
use crate::stats::ServeSnapshot;
use hft_core::session::StatsSnapshot;
use hft_time::Date;

wire_enum! {
    /// A query, as submitted by a client (wire) or caller (in-process).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request ("request") {
        /// §2.1 "Geographic Search": license ids with any site within
        /// `radius_km` of a point.
        Geographic = "geographic", REQ_GEOGRAPHIC = 0x01 {
            /// Search-center latitude, degrees.
            lat_deg: f64,
            /// Search-center longitude, degrees.
            lon_deg: f64,
            /// Search radius, km.
            radius_km: f64,
        },
        /// §2.1 "Site License Search": license ids by service + class code.
        SiteSearch = "site_search", REQ_SITE_SEARCH = 0x02 {
            /// Radio service code (e.g. `MG`).
            service: String,
            /// Station class code (e.g. `FXO`).
            class: String,
        },
        /// §2.2 scrape funnel: the shortlist around a reference point.
        Shortlist = "shortlist", REQ_SHORTLIST = 0x03 {
            /// Reference latitude, degrees.
            lat_deg: f64,
            /// Reference longitude, degrees.
            lon_deg: f64,
            /// Geographic-search radius, km.
            radius_km: f64,
            /// Minimum filings to stay shortlisted.
            min_filings: usize,
        },
        /// A licensee's reconstructed network summary as of a date.
        Network = "network", REQ_NETWORK = 0x04 {
            /// Licensee name (exact).
            licensee: String,
            /// As-of date.
            date: Date,
        },
        /// Lowest-latency route between two data centers as of a date.
        Route = "route", REQ_ROUTE = 0x05 {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code (`CME`, `NY4`, `NYSE`, `NASDAQ`).
            from: String,
            /// Destination data-center code.
            to: String,
        },
        /// Alternate path availability between two data centers.
        Apa = "apa", REQ_APA = 0x06 {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
        },
        /// The §5 weather Monte Carlo (stormy-season sampler).
        Weather = "weather", REQ_WEATHER = 0x07 {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// Weather states to sample.
            samples: usize,
            /// RNG seed (deterministic outcomes per seed).
            seed: u64,
        },
        /// A cross-substrate latency race between two data centers: the
        /// licensee's corpus-reconstructed microwave route vs fiber vs a
        /// LEO constellation vs the vacuum geodesic limit, with
        /// weather-adjusted availability windows on the microwave leg.
        Race = "race", REQ_RACE = 0x0b {
            /// Licensee whose corpus network runs the microwave leg.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// LEO constellation name (`starlink`).
            constellation: String,
            /// Weather states to sample on the microwave leg.
            samples: usize,
            /// RNG seed (deterministic outcomes per seed).
            seed: u64,
        },
        /// Sweep the standard segment set (corridor pairs + the §6
        /// transoceanic segments) and reduce each race to stretch factors
        /// vs the vacuum bound — the input of the stretch-CDF figure.
        StretchSweep = "stretch_sweep", REQ_STRETCH_SWEEP = 0x0c {
            /// Licensee whose corpus network runs the corridor microwave legs.
            licensee: String,
            /// As-of date.
            date: Date,
            /// LEO constellation name (`starlink`).
            constellation: String,
        },
        /// Server + session counters.
        Stats = "stats", REQ_STATS = 0x08,
        /// The full process-wide telemetry registry (counters, gauges,
        /// latency histograms) in its deterministic JSON form.
        Metrics = "metrics", REQ_METRICS = 0x09,
        /// Captured request traces from the flight recorder: the slowest
        /// `limit` records, or one exact trace by id.
        Traces = "traces", REQ_TRACES = 0x0d {
            /// Maximum records to return (slowest first); JSON may omit
            /// it for 16.
            limit: usize = 16,
            /// Fetch one specific trace instead of the slowest set.
            trace_id: Option<u128>,
        },
        /// Graceful shutdown: stop accepting, drain, dump stats.
        Shutdown = "shutdown", REQ_SHUTDOWN = 0x0a,
    }
}

wire_enum! {
    /// An answer. `Error` carries a human-readable reason; `Overloaded` is
    /// the admission-queue backpressure rejection (never an error in the
    /// protocol sense — the client may retry).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response ("response") {
        /// License ids, in portal result order.
        Licenses = "licenses", RESP_LICENSES = 0x01 {
            /// Matching license ids.
            ids: Vec<u64>,
        },
        /// The §2.2 funnel outcome.
        Shortlist = "shortlist", RESP_SHORTLIST = 0x02 {
            /// Licensees with any license in the search region.
            geographic_candidates: u64,
            /// Licensees surviving the MG/FXO filter.
            service_filtered: u64,
            /// Licensees surviving the volume filter.
            shortlisted: u64,
            /// The shortlisted names, sorted.
            names: Vec<String>,
        },
        /// Network summary (counts, not the full graph — use the CLI's YAML
        /// dump for geometry).
        Network = "network", RESP_NETWORK = 0x03 {
            /// Licensee name.
            licensee: String,
            /// The exact requested as-of date.
            as_of: Date,
            /// Towers in the reconstructed network.
            towers: u64,
            /// Microwave links.
            links: u64,
            /// Licenses active on the as-of date.
            active_licenses: u64,
        },
        /// Route answer; all fields `None` when not connected.
        Route = "route", RESP_ROUTE = 0x04 {
            /// One-way latency, ms.
            latency_ms: Option<f64>,
            /// Towers traversed.
            towers: Option<u64>,
            /// Total path length, m.
            length_m: Option<f64>,
        },
        /// APA answer; `None` when not connected.
        Apa = "apa", RESP_APA = 0x05 {
            /// Alternate-path availability, fraction.
            apa: Option<f64>,
        },
        /// Weather Monte Carlo outcome. Percentiles can be `+∞` (encoded as
        /// JSON `null`) when the network is down in that tail.
        Weather = "weather", RESP_WEATHER = 0x06 {
            /// Clear-sky latency, ms.
            clear_ms: f64 as Latency,
            /// Median conditional latency, ms.
            p50_ms: f64 as Latency,
            /// 95th-percentile conditional latency, ms.
            p95_ms: f64 as Latency,
            /// 99th-percentile conditional latency, ms.
            p99_ms: f64 as Latency,
            /// Fraction of states with the network connected.
            availability: f64,
            /// States sampled.
            samples: u64,
        },
        /// One cross-substrate race. All latencies are one-way ms; the
        /// `wx_*` fields are the §5 weather Monte Carlo on the microwave
        /// leg — when no corpus route exists (`microwave_ms` is `null`) the
        /// weather block degrades to `wx_samples == 0`, availability `0`,
        /// and `+∞` percentiles (encoded as JSON `null`).
        Race = "race", RESP_RACE = 0x0c {
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// Constellation raced on the LEO leg.
            constellation: String,
            /// Geodesic distance, km.
            geodesic_km: f64,
            /// Vacuum geodesic limit, ms.
            c_bound_ms: f64,
            /// Corpus microwave leg, ms (`None` when unroutable).
            microwave_ms: Option<f64>,
            /// Fiber leg, ms.
            fiber_ms: f64,
            /// LEO leg, ms (`None` when the constellation cannot route it).
            leo_ms: Option<f64>,
            /// Inter-satellite hops on the LEO leg.
            leo_isl_hops: Option<u64>,
            /// Microwave stretch factor vs the vacuum bound.
            mw_stretch: Option<f64>,
            /// Fiber stretch factor.
            fiber_stretch: f64,
            /// LEO stretch factor.
            leo_stretch: Option<f64>,
            /// The winning substrate (`microwave`, `LEO` or `fiber`).
            winner: String,
            /// Clear-sky microwave latency, ms (`+∞` when no weather run).
            wx_clear_ms: f64 as Latency,
            /// Median weather-conditional latency, ms.
            wx_p50_ms: f64 as Latency,
            /// 95th-percentile weather-conditional latency, ms.
            wx_p95_ms: f64 as Latency,
            /// 99th-percentile weather-conditional latency, ms.
            wx_p99_ms: f64 as Latency,
            /// Fraction of weather states with the microwave leg connected.
            wx_availability: f64,
            /// Weather states sampled (`0` when no weather run).
            wx_samples: u64,
        },
        /// The stretch-factor sweep, one entry per swept segment.
        StretchSweep = "stretch_sweep", RESP_STRETCH_SWEEP = 0x0d {
            /// Swept segments in deterministic order.
            entries: Vec<SweepEntry>,
        },
        /// Serve + session counters.
        Stats = "stats", RESP_STATS = 0x07 {
            /// The serving layer's counters.
            serve: ServeSnapshot,
            /// The analysis session's cache counters.
            session: StatsSnapshot,
        },
        /// The telemetry registry snapshot, as the deterministic JSON object
        /// `{"counters":{...},"gauges":{...},"histograms":{...}}` rendered
        /// by `hft_obs::expo::render_json`.
        Metrics = "metrics", RESP_METRICS = 0x08 {
            /// The registry object (sorted names, fixed summary key order).
            registry: Json,
        },
        /// Flight-recorder traces, slowest first.
        Traces = "traces", RESP_TRACES = 0x0e {
            /// The captured traces.
            traces: Vec<WireTrace>,
        },
        /// The request could not be served (unknown licensee field values,
        /// malformed frame, bad date, ...).
        Error = "error", RESP_ERROR = 0x09 {
            /// Why.
            message: String,
        },
        /// Admission queue full — backpressure, retry later.
        Overloaded = "overloaded", RESP_OVERLOADED = 0x0a,
        /// Acknowledgement of [`Request::Shutdown`].
        ShuttingDown = "shutting_down", RESP_SHUTTING_DOWN = 0x0b,
    }
}

wire_struct! {
    /// One [`Response::StretchSweep`] segment, reduced to stretch factors
    /// vs the vacuum geodesic bound.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepEntry ("sweep entry") {
        /// Segment name, `FROM-TO`.
        pub pair: String,
        /// Geodesic distance, km.
        pub geodesic_km: f64,
        /// Microwave stretch (`None` when unroutable/infeasible).
        pub mw_stretch: Option<f64>,
        /// Fiber stretch.
        pub fiber_stretch: f64,
        /// LEO stretch (`None` when unroutable).
        pub leo_stretch: Option<f64>,
    }
}

wire_struct! {
    /// One span of a [`WireTrace`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireSpan ("span") {
        /// Span name (dotted taxonomy).
        pub name: String,
        /// Parent index within the trace; `None` for the root.
        pub parent: Option<u32>,
        /// Start offset from the root, ns.
        pub start_ns: u64,
        /// Duration, ns.
        pub dur_ns: u64,
        /// Shard the span ran against, when shard-addressed.
        pub shard: Option<u32>,
    }
}

wire_struct! {
    impl StatsSnapshot ("session stats") {
        network_hits: u64,
        reconstructions: u64,
        route_hits: u64,
        route_misses: u64,
        apa_hits: u64,
        apa_misses: u64,
        graph_hits: u64,
        graph_misses: u64,
    }
}

/// One captured trace in its wire form: a [`Response::Traces`] entry.
/// Mirrors `hft_obs::TraceRecord` with owned strings so it survives
/// decoding on the client side.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// 128-bit trace id.
    pub trace_id: u128,
    /// Request kind that produced the trace (e.g. `shortlist`).
    pub label: String,
    /// Kept by head sampling.
    pub sampled: bool,
    /// Kept by tail capture (over the slow threshold).
    pub slow: bool,
    /// Root duration, ns.
    pub total_ns: u64,
    /// The span tree, preorder, root first.
    pub spans: Vec<WireSpan>,
}

impl WireTrace {
    /// Build the wire form of a flight-recorder record.
    pub fn of(rec: &hft_obs::TraceRecord) -> WireTrace {
        WireTrace {
            trace_id: rec.trace_id,
            label: rec.label.to_string(),
            sampled: rec.sampled,
            slow: rec.slow,
            total_ns: rec.total_ns,
            spans: rec
                .tree
                .spans
                .iter()
                .map(|s| WireSpan {
                    name: s.name.to_string(),
                    parent: s.parent,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    shard: s.shard,
                })
                .collect(),
        }
    }

    /// A text waterfall for terminals: header line, then one indented
    /// line per span with offset, duration and shard tag.
    pub fn render(&self) -> String {
        use hft_obs::span::format_ns;
        let mut out = format!(
            "trace {} {} {}{}{}\n",
            hft_obs::format_trace_id(self.trace_id),
            self.label,
            format_ns(self.total_ns),
            if self.slow { " SLOW" } else { "" },
            if self.sampled { " sampled" } else { "" },
        );
        let mut depth = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(d) = depth.get(p as usize).copied() {
                    depth[i] = d + 1;
                }
            }
            out.push_str("  ");
            for _ in 0..depth[i] {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} +{} {}",
                s.name,
                format_ns(s.start_ns),
                format_ns(s.dur_ns)
            ));
            if let Some(shard) = s.shard {
                out.push_str(&format!(" [shard {shard}]"));
            }
            out.push('\n');
        }
        out
    }
}

/// Trace flag bits (byte-packed on the binary wire).
const TRACE_FLAG_SAMPLED: u8 = 0b01;
const TRACE_FLAG_SLOW: u8 = 0b10;

/// The one hand-written composite codec: fields in declaration order,
/// except that binary packs `sampled` and `slow` into one flag byte.
impl Codec for WireTrace {
    type Value = WireTrace;

    fn to_json(t: &WireTrace) -> Json {
        Json::Obj(vec![
            ("trace_id".into(), u128::to_json(&t.trace_id)),
            ("label".into(), String::to_json(&t.label)),
            ("sampled".into(), Json::Bool(t.sampled)),
            ("slow".into(), Json::Bool(t.slow)),
            ("total_ns".into(), u64::to_json(&t.total_ns)),
            ("spans".into(), <Vec<WireSpan>>::to_json(&t.spans)),
        ])
    }

    fn from_json(v: Option<&Json>, at: At) -> Result<WireTrace, String> {
        let v = v.ok_or_else(|| at.missing())?;
        let at = |key| At {
            owner: "trace",
            key,
        };
        let flag = |key| match v.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing or non-boolean field {key:?}")),
        };
        Ok(WireTrace {
            trace_id: u128::from_json(v.get("trace_id"), at("trace_id"))?,
            label: String::from_json(v.get("label"), at("label"))?,
            sampled: flag("sampled")?,
            slow: flag("slow")?,
            total_ns: u64::from_json(v.get("total_ns"), at("total_ns"))?,
            spans: <Vec<WireSpan>>::from_json(v.get("spans"), at("spans"))?,
        })
    }

    fn put(t: &WireTrace, buf: &mut Vec<u8>) {
        u128::put(&t.trace_id, buf);
        String::put(&t.label, buf);
        let mut flags = 0u8;
        if t.sampled {
            flags |= TRACE_FLAG_SAMPLED;
        }
        if t.slow {
            flags |= TRACE_FLAG_SLOW;
        }
        buf.push(flags);
        u64::put(&t.total_ns, buf);
        <Vec<WireSpan>>::put(&t.spans, buf);
    }

    fn get(cur: &mut crate::binwire::Cur<'_>) -> Result<WireTrace, crate::binwire::DecodeError> {
        let trace_id = u128::get(cur)?;
        let label = String::get(cur)?;
        let flags = cur.u8()?;
        Ok(WireTrace {
            trace_id,
            label,
            sampled: flags & TRACE_FLAG_SAMPLED != 0,
            slow: flags & TRACE_FLAG_SLOW != 0,
            total_ns: u64::get(cur)?,
            spans: <Vec<WireSpan>>::get(cur)?,
        })
    }
}

impl Request {
    /// The single-flight identity of this request, or `None` for
    /// control requests (`stats`, `metrics`, `shutdown`) that are never
    /// coalesced.
    ///
    /// Date-bearing requests key on the licensee's **epoch** under the
    /// session's corpus, not the raw date: two requests for dates inside
    /// the same lifecycle epoch are provably the same computation (see
    /// `hft_core::session`), so they coalesce too. `epoch_of` is the
    /// session's resolver.
    pub fn flight_key(&self, epoch_of: &dyn Fn(&str, Date) -> usize) -> Option<String> {
        let b = |x: f64| x.to_bits();
        match self {
            Request::Geographic {
                lat_deg,
                lon_deg,
                radius_km,
            } => Some(format!(
                "geo|{:016x}|{:016x}|{:016x}",
                b(*lat_deg),
                b(*lon_deg),
                b(*radius_km)
            )),
            Request::SiteSearch { service, class } => Some(format!("site|{service}|{class}")),
            Request::Shortlist {
                lat_deg,
                lon_deg,
                radius_km,
                min_filings,
            } => Some(format!(
                "short|{:016x}|{:016x}|{:016x}|{min_filings}",
                b(*lat_deg),
                b(*lon_deg),
                b(*radius_km)
            )),
            Request::Network { licensee, date } => {
                // The exact as-of date is restamped on the response, so
                // the key carries the date itself, not just the epoch.
                Some(format!(
                    "net|{licensee}|e{}|{}",
                    epoch_of(licensee, *date),
                    date.to_iso()
                ))
            }
            Request::Route {
                licensee,
                date,
                from,
                to,
            } => Some(format!(
                "route|{licensee}|e{}|{from}|{to}",
                epoch_of(licensee, *date)
            )),
            Request::Apa {
                licensee,
                date,
                from,
                to,
            } => Some(format!(
                "apa|{licensee}|e{}|{from}|{to}",
                epoch_of(licensee, *date)
            )),
            Request::Weather {
                licensee,
                date,
                from,
                to,
                samples,
                seed,
            } => Some(format!(
                "wx|{licensee}|e{}|{from}|{to}|{samples}|{seed}",
                epoch_of(licensee, *date)
            )),
            Request::Race {
                licensee,
                date,
                from,
                to,
                constellation,
                samples,
                seed,
            } => Some(format!(
                "race|{licensee}|e{}|{from}|{to}|{constellation}|{samples}|{seed}",
                epoch_of(licensee, *date)
            )),
            Request::StretchSweep {
                licensee,
                date,
                constellation,
            } => Some(format!(
                "sweep|{licensee}|e{}|{constellation}",
                epoch_of(licensee, *date)
            )),
            Request::Stats | Request::Metrics | Request::Traces { .. } | Request::Shutdown => None,
        }
    }
}
