//! The compact binary wire codec and the protocol-negotiation hello
//! frames.
//!
//! Framing is unchanged (4-byte big-endian length prefix, see
//! [`crate::wire`]); this module defines an alternative *body* encoding
//! next to the deterministic JSON one:
//!
//! ```text
//! [0xB7] [kind] [payload…]
//!   kind 0x00  hello      (client → server: version, requested proto)
//!   kind 0x01  hello-ack  (server → client: version, granted proto)
//!   kind 0x02  request    (tag byte, then the variant's fields)
//!   kind 0x03  response   (tag byte, then the variant's fields)
//! ```
//!
//! The magic byte `0xB7` is a UTF-8 continuation byte, so no binary
//! body can ever be confused with a JSON one (JSON bodies start with
//! `{`) and vice versa.
//!
//! Tag bytes and field orders are not written here: each variant's row
//! in the [`crate::api`] tables names its tag, and its fields encode in
//! table order through the per-type codecs of `schema.rs`. This module
//! owns the frame header, the hello negotiation and the primitives
//! those codecs share:
//!
//! * unsigned integers — LEB128 varints (≤ 10 bytes, exact over `u64`,
//!   unlike the JSON codec's 2⁵³ double limit),
//! * `f64` — 8 bytes, little-endian IEEE-754 bits,
//! * strings — varint byte length + UTF-8 bytes,
//! * `Option<T>` — presence byte `0`/`1` then `T`,
//! * dates — varint year, month byte, day byte (validated on decode),
//! * vectors — varint element count + elements,
//! * trace ids — 16 little-endian bytes.
//!
//! Decoding is total: every length is bounds-checked against the bytes
//! actually present before any allocation (`Cur`), recursion (the
//! `metrics` registry value) is depth-capped, and every failure is a
//! structured [`DecodeError`] — truncated, bit-flipped or hostile frames
//! can never panic the decoder. Values that the JSON codec canonicalizes
//! (e.g. non-finite latencies encode as `null` and decode as `+∞`/`None`)
//! are normalized identically here, so `decode(encode(x))` equals the
//! JSON round trip of `x` on every variant — the fixed point the
//! byte-level verification harness relies on.

use crate::api::{Request, Response};
use crate::json::Json;
use hft_time::Date;

// Names the unit tests below build samples and hand-made frames from.
#[cfg(test)]
use crate::api::{SweepEntry, WireSpan, WireTrace, REQ_SITE_SEARCH, RESP_LICENSES, RESP_METRICS};
#[cfg(test)]
use crate::stats::ServeSnapshot;
#[cfg(test)]
use hft_core::session::StatsSnapshot;

/// First byte of every binary-protocol frame body.
pub const MAGIC: u8 = 0xB7;
/// Binary-protocol version carried in hello frames.
pub const VERSION: u8 = 1;

/// Frame kinds (second byte of a binary body).
const KIND_HELLO: u8 = 0x00;
const KIND_HELLO_ACK: u8 = 0x01;
const KIND_REQUEST: u8 = 0x02;
const KIND_RESPONSE: u8 = 0x03;

/// Maximum nesting depth accepted when decoding a [`Json`] value (the
/// `metrics` registry payload is 3 levels deep; hostile frames must not
/// be able to recurse the decoder off the stack).
const MAX_JSON_DEPTH: usize = 32;

/// The per-connection wire encoding, as negotiated by the hello frame.
/// Connections start in [`Proto::Json`]; a hello frame switches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Deterministic JSON bodies (the debuggable default).
    #[default]
    Json,
    /// Compact binary bodies (this module's encoding).
    Binary,
}

impl Proto {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Proto> {
        match s {
            "json" => Some(Proto::Json),
            "bin" | "binary" => Some(Proto::Binary),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Json => "json",
            Proto::Binary => "bin",
        }
    }

    fn code(&self) -> u8 {
        match self {
            Proto::Json => 0,
            Proto::Binary => 1,
        }
    }

    fn from_code(code: u8) -> Option<Proto> {
        match code {
            0 => Some(Proto::Json),
            1 => Some(Proto::Binary),
            _ => None,
        }
    }
}

/// Why a binary frame failed to decode. Every variant is a protocol
/// error the server answers with a structured `Error` response — never
/// a panic, never a misparse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame ended before the declared structure did.
    Truncated,
    /// Bytes remained after the structure was fully decoded.
    Trailing(usize),
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The kind byte did not name the expected frame kind.
    BadKind(u8),
    /// An unknown variant tag for the given frame kind.
    BadTag(&'static str, u8),
    /// A varint ran past 10 bytes or overflowed `u64`.
    BadVarint,
    /// A declared length exceeds the bytes present in the frame.
    BadLength(u64),
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// A date's year/month/day did not form a real calendar date.
    BadDate,
    /// An option's presence byte was neither 0 nor 1.
    BadPresence(u8),
    /// A JSON-value payload nested deeper than the decoder allows.
    TooDeep,
    /// A hello frame named an unknown protocol code.
    BadProto(u8),
    /// A hello frame named an unsupported protocol version.
    BadVersion(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "binary frame truncated"),
            DecodeError::Trailing(n) => write!(f, "binary frame has {n} trailing bytes"),
            DecodeError::BadMagic(b) => write!(f, "bad binary magic byte {b:#04x}"),
            DecodeError::BadKind(b) => write!(f, "bad binary frame kind {b:#04x}"),
            DecodeError::BadTag(kind, t) => write!(f, "unknown binary {kind} tag {t:#04x}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::BadLength(n) => write!(f, "declared length {n} exceeds frame"),
            DecodeError::BadUtf8 => write!(f, "binary string is not UTF-8"),
            DecodeError::BadDate => write!(f, "binary date is not a real date"),
            DecodeError::BadPresence(b) => write!(f, "bad option presence byte {b:#04x}"),
            DecodeError::TooDeep => write!(f, "binary JSON value nested too deep"),
            DecodeError::BadProto(b) => write!(f, "unknown protocol code {b:#04x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Whether a frame body is binary-protocol (vs JSON).
pub fn is_binary(body: &[u8]) -> bool {
    body.first() == Some(&MAGIC)
}

/// The client hello frame requesting `proto`.
pub fn hello(proto: Proto) -> Vec<u8> {
    vec![MAGIC, KIND_HELLO, VERSION, proto.code()]
}

/// The server's hello acknowledgement granting `proto`.
pub fn hello_ack(proto: Proto) -> Vec<u8> {
    vec![MAGIC, KIND_HELLO_ACK, VERSION, proto.code()]
}

/// Classify a frame body as a hello (`Some`) or not (`None`); a `Some`
/// carries the requested protocol or the structured reason the hello is
/// unusable.
pub fn parse_hello(body: &[u8]) -> Option<Result<Proto, DecodeError>> {
    if body.len() < 2 || body[0] != MAGIC || body[1] != KIND_HELLO {
        return None;
    }
    Some(decode_hello_payload(body))
}

/// Decode a hello-ack frame body.
pub fn parse_hello_ack(body: &[u8]) -> Result<Proto, DecodeError> {
    if body.first() != Some(&MAGIC) {
        return Err(DecodeError::BadMagic(body.first().copied().unwrap_or(0)));
    }
    if body.get(1) != Some(&KIND_HELLO_ACK) {
        return Err(DecodeError::BadKind(body.get(1).copied().unwrap_or(0)));
    }
    decode_hello_payload(body)
}

fn decode_hello_payload(body: &[u8]) -> Result<Proto, DecodeError> {
    let version = *body.get(2).ok_or(DecodeError::Truncated)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let code = *body.get(3).ok_or(DecodeError::Truncated)?;
    if body.len() > 4 {
        return Err(DecodeError::Trailing(body.len() - 4));
    }
    Proto::from_code(code).ok_or(DecodeError::BadProto(code))
}

// ---- Primitive writers. ----

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_date(buf: &mut Vec<u8>, d: &Date) {
    put_varint(buf, d.year() as u64);
    buf.push(d.month() as u8);
    buf.push(d.day() as u8);
}

pub(crate) fn put_json(buf: &mut Vec<u8>, v: &Json) {
    match v {
        Json::Null => buf.push(0),
        Json::Bool(false) => buf.push(1),
        Json::Bool(true) => buf.push(2),
        Json::Num(x) => {
            buf.push(3);
            put_f64(buf, *x);
        }
        Json::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Json::Arr(items) => {
            buf.push(5);
            put_varint(buf, items.len() as u64);
            for item in items {
                put_json(buf, item);
            }
        }
        Json::Obj(pairs) => {
            buf.push(6);
            put_varint(buf, pairs.len() as u64);
            for (k, item) in pairs {
                put_str(buf, k);
                put_json(buf, item);
            }
        }
    }
}

// ---- Primitive readers. ----

/// A bounds-checked cursor over one frame body.
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8().map_err(|_| DecodeError::Truncated)?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(DecodeError::BadVarint);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// A varint that must also fit the bytes still present — used for
    /// every length so hostile frames cannot force large allocations.
    pub(crate) fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::BadLength(n));
        }
        Ok(n as usize)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        let raw = self.take(8)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()?;
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| DecodeError::BadUtf8)
    }

    pub(crate) fn date(&mut self) -> Result<Date, DecodeError> {
        let y = self.varint()?;
        let m = self.u8()?;
        let d = self.u8()?;
        if y > 9999 {
            return Err(DecodeError::BadDate);
        }
        Date::new(y as i32, m as u32, d as u32).map_err(|_| DecodeError::BadDate)
    }

    pub(crate) fn presence(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadPresence(b)),
        }
    }

    pub(crate) fn json(&mut self, depth: usize) -> Result<Json, DecodeError> {
        if depth >= MAX_JSON_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Json::Null),
            1 => Ok(Json::Bool(false)),
            2 => Ok(Json::Bool(true)),
            3 => Ok(Json::Num(self.f64()?)),
            4 => Ok(Json::Str(self.str()?)),
            5 => {
                let n = self.len_prefix()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.json(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            6 => {
                let n = self.len_prefix()?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.str()?;
                    pairs.push((k, self.json(depth + 1)?));
                }
                Ok(Json::Obj(pairs))
            }
            t => Err(DecodeError::BadTag("json value", t)),
        }
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::Trailing(self.bytes.len() - self.pos))
        }
    }
}

// ---- Frame codecs. ----

/// Append `req`'s binary body to `buf` (which is not cleared — pooled
/// buffers arrive already reset).
pub fn encode_request_into(req: &Request, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&[MAGIC, KIND_REQUEST]);
    req.put_bin(buf);
}

/// Encode one request as a fresh binary body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_request_into(req, &mut buf);
    buf
}

/// Decode a binary request body.
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    decode_frame(body, KIND_REQUEST, Request::get_bin)
}

/// Append `resp`'s binary body to `buf` (not cleared — pooled buffers
/// arrive already reset).
pub fn encode_response_into(resp: &Response, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&[MAGIC, KIND_RESPONSE]);
    resp.put_bin(buf);
}

/// Encode one response as a fresh binary body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    encode_response_into(resp, &mut buf);
    buf
}

/// Decode a binary response body.
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    decode_frame(body, KIND_RESPONSE, Response::get_bin)
}

/// Check the frame header, read the body with `get`, and reject
/// trailing bytes.
fn decode_frame<T>(
    body: &[u8],
    kind: u8,
    get: fn(&mut Cur<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut cur = Cur::new(body);
    let magic = cur.u8()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let found = cur.u8()?;
    if found != kind {
        return Err(DecodeError::BadKind(found));
    }
    let value = get(&mut cur)?;
    cur.finish()?;
    Ok(value)
}

// ---- Proto-dispatching conveniences. ----

/// Encode a request under `proto`.
pub fn request_bytes(proto: Proto, req: &Request) -> Vec<u8> {
    match proto {
        Proto::Json => req.encode(),
        Proto::Binary => encode_request(req),
    }
}

/// Append a response body under `proto` to `buf`.
pub fn response_bytes_into(proto: Proto, resp: &Response, buf: &mut Vec<u8>) {
    match proto {
        Proto::Json => buf.extend_from_slice(resp.encode().as_slice()),
        Proto::Binary => encode_response_into(resp, buf),
    }
}

/// Decode a request body by sniffing the magic byte: binary frames can
/// never start like JSON and vice versa, so the server accepts either
/// encoding on any connection (responses still follow the *negotiated*
/// protocol).
pub fn sniff_request(body: &[u8]) -> Result<Request, String> {
    if is_binary(body) {
        decode_request(body).map_err(|e| e.to_string())
    } else {
        Request::decode(body)
    }
}

/// Decode a response body under `proto`.
pub fn response_from(proto: Proto, body: &[u8]) -> Result<Response, String> {
    match proto {
        Proto::Json => Response::decode(body),
        Proto::Binary => decode_response(body).map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn date(y: i32, m: u32, d: u32) -> Date {
        Date::new(y, m, d).unwrap()
    }

    fn sample_requests() -> Vec<Request> {
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
                radius_km: 25.0,
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
                licensee: "β Networks — 世界".into(),
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
                seed: u64::MAX,
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
                licensee: "β Networks — 世界".into(),
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
                trace_id: Some(0xdead_beef_0123_4567_89ab_cdef_f00d_cafe),
            },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Licenses {
                ids: vec![0, 1, 127, 128, 300, u64::MAX],
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
            },
            Response::StretchSweep {
                entries: vec![
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
                ],
            },
            Response::StretchSweep { entries: vec![] },
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
                    graph_misses: 8,
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
                                ("p50".into(), Json::Num(1500.0)),
                            ]),
                        )]),
                    ),
                ]),
            },
            Response::Traces {
                traces: vec![WireTrace {
                    trace_id: u128::MAX,
                    label: "shortlist".into(),
                    sampled: true,
                    slow: true,
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
            Response::Traces { traces: vec![] },
            Response::Error {
                message: "unknown data center \"LD4\"".into(),
            },
            Response::Overloaded,
            Response::ShuttingDown,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert!(is_binary(&bytes));
            let back = decode_request(&bytes).unwrap();
            assert_eq!(back, req);
            // Deterministic: re-encoding is byte-identical.
            assert_eq!(encode_request(&back), bytes);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert!(is_binary(&bytes));
            let back = decode_response(&bytes).unwrap();
            assert_eq!(back, resp);
            assert_eq!(encode_response(&back), bytes);
        }
    }

    #[test]
    fn binary_fixed_point_matches_json_fixed_point() {
        // The acceptance property: decoding the binary encoding lands on
        // exactly the value the JSON round trip lands on, variant by
        // variant — including the null/+∞/None canonicalizations. The
        // comparison stays inside the JSON codec's 2⁵³ integer domain
        // (the binary codec is exact over all of u64; JSON is not).
        let json_safe = |r: Response| match r {
            Response::Licenses { ids } => Response::Licenses {
                ids: ids.into_iter().map(|id| id.min((1 << 53) - 1)).collect(),
            },
            other => other,
        };
        let mut weird: Vec<Response> = sample_responses().into_iter().map(json_safe).collect();
        weird.push(Response::Route {
            latency_ms: Some(f64::INFINITY), // JSON writes null, reads None
            towers: Some(3),
            length_m: Some(f64::NAN), // likewise
        });
        weird.push(Response::Weather {
            clear_ms: f64::NAN, // JSON writes null, reads +∞
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: f64::NEG_INFINITY,
            availability: 1.0,
            samples: 10,
        });
        for resp in weird {
            let via_bin = decode_response(&encode_response(&resp)).unwrap();
            let via_json = Response::decode(&resp.encode()).unwrap();
            assert_eq!(via_bin, via_json, "fixed points diverge for {resp:?}");
        }
        let json_safe_req = |r: Request| match r {
            Request::Weather { seed, .. } if seed >= (1 << 53) => Request::Weather {
                licensee: "Alpha Networks".into(),
                date: date(2020, 4, 1),
                from: "CME".into(),
                to: "NY4".into(),
                samples: 60_000,
                seed: (1 << 53) - 1,
            },
            other => other,
        };
        for req in sample_requests().into_iter().map(json_safe_req) {
            let via_bin = decode_request(&encode_request(&req)).unwrap();
            let via_json = Request::decode(&req.encode()).unwrap();
            assert_eq!(via_bin, via_json);
        }
    }

    #[test]
    fn binary_is_smaller_than_json_on_the_wire() {
        for resp in sample_responses() {
            let bin = encode_response(&resp).len();
            let json = resp.encode().len();
            assert!(
                bin <= json,
                "binary ({bin} B) larger than JSON ({json} B) for {resp:?}"
            );
        }
    }

    #[test]
    fn hello_frames_round_trip_and_classify() {
        for proto in [Proto::Json, Proto::Binary] {
            let h = hello(proto);
            assert!(is_binary(&h));
            assert_eq!(parse_hello(&h), Some(Ok(proto)));
            let ack = hello_ack(proto);
            assert_eq!(parse_hello_ack(&ack), Ok(proto));
            // An ack is not a hello and a hello is not an ack.
            assert_eq!(parse_hello(&ack), None);
            assert!(parse_hello_ack(&h).is_err());
        }
        // Requests and JSON are not hellos.
        assert_eq!(parse_hello(&encode_request(&Request::Stats)), None);
        assert_eq!(parse_hello(b"{\"type\":\"stats\"}"), None);
        // Version and proto validation.
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO, 9, 0]),
            Some(Err(DecodeError::BadVersion(9)))
        );
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO, VERSION, 7]),
            Some(Err(DecodeError::BadProto(7)))
        );
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO]),
            Some(Err(DecodeError::Truncated))
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_structured_errors() {
        let bytes = encode_response(&sample_responses()[1]);
        for cut in 0..bytes.len() {
            let err = decode_response(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated
                        | DecodeError::BadLength(_)
                        | DecodeError::BadMagic(_)
                        | DecodeError::BadKind(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_response(&padded).unwrap_err(),
            DecodeError::Trailing(1)
        );
    }

    #[test]
    fn hostile_lengths_never_allocate() {
        // Declares a 2^41-byte string in a 16-byte frame.
        let mut frame = vec![MAGIC, KIND_REQUEST, REQ_SITE_SEARCH];
        frame.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
        frame.extend_from_slice(b"xxxxxxx");
        match decode_request(&frame).unwrap_err() {
            DecodeError::BadLength(n) => assert_eq!(n, 1 << 41),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deep_json_nesting_is_rejected() {
        let mut frame = vec![MAGIC, KIND_RESPONSE, RESP_METRICS];
        for _ in 0..200 {
            frame.push(5); // array…
            frame.push(1); // …of one element
        }
        frame.push(0); // null at the bottom
        assert_eq!(decode_response(&frame).unwrap_err(), DecodeError::TooDeep);
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes.
        let mut frame = vec![MAGIC, KIND_RESPONSE, RESP_LICENSES, 1];
        frame.extend_from_slice(&[0xff; 10]);
        frame.push(0x7f);
        assert!(matches!(
            decode_response(&frame).unwrap_err(),
            DecodeError::BadVarint | DecodeError::BadLength(_)
        ));
    }

    #[test]
    fn proto_names_round_trip() {
        for proto in [Proto::Json, Proto::Binary] {
            assert_eq!(Proto::parse(proto.name()), Some(proto));
        }
        assert_eq!(Proto::parse("binary"), Some(Proto::Binary));
        assert_eq!(Proto::parse("msgpack"), None);
    }
}
