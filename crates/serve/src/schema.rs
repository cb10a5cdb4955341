//! One wire schema, two encodings.
//!
//! Every [`Request`](crate::api::Request) and
//! [`Response`](crate::api::Response) variant, and every struct nested
//! in one, is described exactly once, as a row of a [`wire_enum!`] or
//! [`wire_struct!`] table: its JSON `type` name, its 0xB7 tag byte and
//! its fields in wire order. From that row the macros generate the Rust
//! type (with its doc comments) and both codecs; the bytes of each field
//! come from its type's [`Codec`] impl, written once per leaf type in
//! this module. Both encodings emit fields in table order, so the JSON
//! key order and the binary field order cannot drift apart.
//!
//! A field row is `name: Type`, optionally followed by `as Marker` (a
//! codec other than the type's own, e.g. [`Latency`]) and `= default`
//! (the value a JSON member decodes to when absent or `null` — for
//! fields added after peers shipped without them).
//!
//! JSON decode errors keep one wording per leaf type (`missing or
//! non-string field "licensee"`, `bad date: …`) and name the owning
//! type for optional and composite members (`traces: bad limit`,
//! `stats: missing serve`). Request-side texts are served back to
//! clients as `Error` responses; `tests/golden_wire.rs` pins them.

use crate::binwire::{put_date, put_f64, put_json, put_str, put_varint, Cur, DecodeError};
use crate::json::Json;
use hft_time::Date;

/// Where a JSON member sits, for decode-error text: the wire name of the
/// type that owns it, and its key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub(crate) owner: &'static str,
    pub(crate) key: &'static str,
}

impl At {
    pub(crate) fn missing(self) -> String {
        format!("{}: missing {}", self.owner, self.key)
    }

    fn bad(self) -> String {
        format!("{}: bad {}", self.owner, self.key)
    }
}

/// One field encoding in both wire formats. Leaf types implement it for
/// themselves (`Value = Self`); marker types such as [`Latency`] encode
/// a plain type under other rules.
pub(crate) trait Codec {
    /// The Rust type of a field encoded this way.
    type Value;
    /// The field's JSON value.
    fn to_json(v: &Self::Value) -> Json;
    /// Read the JSON member `v` (`None` when the key is absent).
    fn from_json(v: Option<&Json>, at: At) -> Result<Self::Value, String>;
    /// Append the field's binary bytes.
    fn put(v: &Self::Value, buf: &mut Vec<u8>);
    /// Read the field's binary bytes.
    fn get(cur: &mut Cur<'_>) -> Result<Self::Value, DecodeError>;
    /// Whether `Some(v)` encodes as absent. Non-finite `f64`s do: JSON
    /// has no form for them, and the binary codec mirrors JSON's `null`.
    fn absent(_v: &Self::Value) -> bool {
        false
    }
}

/// A required JSON member read by `read`, with the per-type wording.
fn need<'a, T>(
    v: Option<&'a Json>,
    at: At,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    v.and_then(read)
        .ok_or_else(|| format!("missing or non-{what} field {:?}", at.key))
}

/// The `type` member that selects an enum variant.
pub(crate) fn type_of(v: &Json) -> Result<&str, String> {
    let at = At {
        owner: "",
        key: "type",
    };
    need(v.get("type"), at, "string", Json::as_str)
}

/// `Codec::from_json` for a member with a table default: absent or
/// `null` reads as `default`, anything else must decode.
pub(crate) fn defaulted<C: Codec>(
    v: Option<&Json>,
    at: At,
    default: C::Value,
) -> Result<C::Value, String> {
    Ok(<Option<C> as Codec>::from_json(v, at)?.unwrap_or(default))
}

impl Codec for f64 {
    type Value = f64;
    fn to_json(v: &f64) -> Json {
        Json::Num(*v)
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<f64, String> {
        need(v, at, "numeric", Json::as_num)
    }
    fn put(v: &f64, buf: &mut Vec<u8>) {
        put_f64(buf, *v);
    }
    fn get(cur: &mut Cur<'_>) -> Result<f64, DecodeError> {
        cur.f64()
    }
    fn absent(v: &f64) -> bool {
        !v.is_finite()
    }
}

/// A latency `f64` whose non-finite values mean "network down in that
/// tail": JSON writes them as `null`, binary as `+∞`, and both read any
/// of them back as `+∞` (so hostile NaN bits cannot smuggle in a value
/// the JSON codec could never produce).
pub(crate) enum Latency {}

impl Codec for Latency {
    type Value = f64;
    fn to_json(v: &f64) -> Json {
        Json::num_or_null(*v)
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<f64, String> {
        defaulted::<f64>(v, at, f64::INFINITY)
    }
    fn put(v: &f64, buf: &mut Vec<u8>) {
        put_f64(buf, if v.is_finite() { *v } else { f64::INFINITY });
    }
    fn get(cur: &mut Cur<'_>) -> Result<f64, DecodeError> {
        let v = cur.f64()?;
        Ok(if v.is_finite() { v } else { f64::INFINITY })
    }
}

/// Counters and sizes: JSON numbers (exact below 2⁵³), binary LEB128
/// varints (exact over all of `u64`).
impl Codec for u64 {
    type Value = u64;
    fn to_json(v: &u64) -> Json {
        Json::Num(*v as f64)
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<u64, String> {
        need(v, at, "integer", Json::as_u64)
    }
    fn put(v: &u64, buf: &mut Vec<u8>) {
        put_varint(buf, *v);
    }
    fn get(cur: &mut Cur<'_>) -> Result<u64, DecodeError> {
        cur.varint()
    }
}

impl Codec for usize {
    type Value = usize;
    fn to_json(v: &usize) -> Json {
        Json::Num(*v as f64)
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<usize, String> {
        Ok(u64::from_json(v, at)? as usize)
    }
    fn put(v: &usize, buf: &mut Vec<u8>) {
        put_varint(buf, *v as u64);
    }
    fn get(cur: &mut Cur<'_>) -> Result<usize, DecodeError> {
        Ok(cur.varint()? as usize)
    }
}

impl Codec for u32 {
    type Value = u32;
    fn to_json(v: &u32) -> Json {
        Json::Num(f64::from(*v))
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<u32, String> {
        need(v, at, "integer", |x| u32::try_from(x.as_u64()?).ok())
    }
    fn put(v: &u32, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*v));
    }
    fn get(cur: &mut Cur<'_>) -> Result<u32, DecodeError> {
        u32::try_from(cur.varint()?).map_err(|_| DecodeError::BadVarint)
    }
}

impl Codec for String {
    type Value = String;
    fn to_json(v: &String) -> Json {
        Json::Str(v.clone())
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<String, String> {
        need(v, at, "string", Json::as_str).map(str::to_string)
    }
    fn put(v: &String, buf: &mut Vec<u8>) {
        put_str(buf, v);
    }
    fn get(cur: &mut Cur<'_>) -> Result<String, DecodeError> {
        cur.str()
    }
}

/// Dates: ISO `YYYY-MM-DD` strings in JSON; varint year, month byte and
/// day byte in binary (validated on decode).
impl Codec for Date {
    type Value = Date;
    fn to_json(v: &Date) -> Json {
        Json::Str(v.to_iso())
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<Date, String> {
        Date::parse_iso(need(v, at, "string", Json::as_str)?).map_err(|e| format!("bad date: {e}"))
    }
    fn put(v: &Date, buf: &mut Vec<u8>) {
        put_date(buf, v);
    }
    fn get(cur: &mut Cur<'_>) -> Result<Date, DecodeError> {
        cur.date()
    }
}

/// 128-bit trace ids: 32 hex digits in JSON (plain JSON numbers are not
/// exact past 2⁵³), 16 little-endian bytes in binary.
impl Codec for u128 {
    type Value = u128;
    fn to_json(v: &u128) -> Json {
        Json::Str(hft_obs::format_trace_id(*v))
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<u128, String> {
        hft_obs::parse_trace_id(need(v, at, "string", Json::as_str)?).ok_or_else(|| at.bad())
    }
    fn put(v: &u128, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    fn get(cur: &mut Cur<'_>) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(
            cur.take(16)?.try_into().expect("16 bytes"),
        ))
    }
}

/// A JSON tree carried verbatim (the `metrics` registry). Binary: a
/// type byte per node, depth-capped on decode.
impl Codec for Json {
    type Value = Json;
    fn to_json(v: &Json) -> Json {
        v.clone()
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<Json, String> {
        v.cloned().ok_or_else(|| at.missing())
    }
    fn put(v: &Json, buf: &mut Vec<u8>) {
        put_json(buf, v);
    }
    fn get(cur: &mut Cur<'_>) -> Result<Json, DecodeError> {
        cur.json(0)
    }
}

/// Optional values: JSON `null` (or an absent key), binary presence
/// byte `0`/`1` then the value. `Some` of an [`Codec::absent`] value
/// encodes as `None`.
impl<T: Codec> Codec for Option<T> {
    type Value = Option<T::Value>;
    fn to_json(v: &Option<T::Value>) -> Json {
        match v {
            Some(x) if !T::absent(x) => T::to_json(x),
            _ => Json::Null,
        }
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<Option<T::Value>, String> {
        match v {
            None | Some(Json::Null) => Ok(None),
            Some(_) => T::from_json(v, at).map(Some).map_err(|_| at.bad()),
        }
    }
    fn put(v: &Option<T::Value>, buf: &mut Vec<u8>) {
        match v {
            Some(x) if !T::absent(x) => {
                buf.push(1);
                T::put(x, buf);
            }
            _ => buf.push(0),
        }
    }
    fn get(cur: &mut Cur<'_>) -> Result<Option<T::Value>, DecodeError> {
        Ok(if cur.presence()? {
            Some(T::get(cur)?)
        } else {
            None
        })
    }
}

/// Sequences: JSON arrays; binary varint count (checked against the
/// bytes present before allocating) then the elements.
impl<T: Codec> Codec for Vec<T> {
    type Value = Vec<T::Value>;
    fn to_json(v: &Vec<T::Value>) -> Json {
        Json::Arr(v.iter().map(T::to_json).collect())
    }
    fn from_json(v: Option<&Json>, at: At) -> Result<Vec<T::Value>, String> {
        let items = v.and_then(Json::as_arr).ok_or_else(|| at.missing())?;
        items.iter().map(|x| T::from_json(Some(x), at)).collect()
    }
    fn put(v: &Vec<T::Value>, buf: &mut Vec<u8>) {
        put_varint(buf, v.len() as u64);
        for x in v {
            T::put(x, buf);
        }
    }
    fn get(cur: &mut Cur<'_>) -> Result<Vec<T::Value>, DecodeError> {
        let n = cur.len_prefix()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(cur)?);
        }
        Ok(items)
    }
}

/// The codec of a table field: its type, or the marker after `as`.
macro_rules! codec {
    ($t:ty) => {
        $t
    };
    ($t:ty as $c:ty) => {
        $c
    };
}
pub(crate) use codec;

/// Decode one table field from the JSON object `$obj`.
macro_rules! member {
    ($obj:expr, $owner:expr, $f:ident, $t:ty $(as $c:ty)?) => {
        <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::from_json(
            $obj.get(stringify!($f)),
            $crate::schema::At { owner: $owner, key: stringify!($f) },
        )
    };
    ($obj:expr, $owner:expr, $f:ident, $t:ty $(as $c:ty)? = $d:expr) => {
        $crate::schema::defaulted::<$crate::schema::codec!($t $(as $c)?)>(
            $obj.get(stringify!($f)),
            $crate::schema::At { owner: $owner, key: stringify!($f) },
            $d,
        )
    };
}
pub(crate) use member;

/// Declare a struct that travels inside a wire variant and implement
/// [`Codec`] for it from one field table: a JSON object with the fields
/// as keys, or the fields back to back in binary. The parenthesized
/// literal names the struct in JSON decode errors. The `impl` form
/// describes an existing struct defined elsewhere (fields all public).
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident ($owner:literal) {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $t:ty $(as $c:ty)? $(= $d:expr)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $( $(#[$fmeta])* $fvis $f: $t, )*
        }
        $crate::schema::wire_struct! { impl $Name ($owner) { $( $f: $t $(as $c)? $(= $d)? ),* } }
    };
    (impl $Name:ident ($owner:literal) {
        $( $f:ident : $t:ty $(as $c:ty)? $(= $d:expr)? ),* $(,)?
    }) => {
        impl $crate::schema::Codec for $Name {
            type Value = $Name;
            fn to_json(v: &$Name) -> $crate::json::Json {
                let $Name { $($f),* } = v;
                $crate::json::Json::Obj(vec![$(
                    (
                        stringify!($f).to_string(),
                        <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::to_json($f),
                    ),
                )*])
            }
            fn from_json(
                v: Option<&$crate::json::Json>,
                at: $crate::schema::At,
            ) -> Result<$Name, String> {
                let v = v.ok_or_else(|| at.missing())?;
                Ok($Name { $( $f: $crate::schema::member!(v, $owner, $f, $t $(as $c)? $(= $d)?)?, )* })
            }
            fn put(v: &$Name, buf: &mut Vec<u8>) {
                let $Name { $($f),* } = v;
                $( <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::put($f, buf); )*
            }
            fn get(
                cur: &mut $crate::binwire::Cur<'_>,
            ) -> Result<$Name, $crate::binwire::DecodeError> {
                Ok($Name {
                    $( $f: <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::get(cur)?, )*
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declare a wire enum from its variant table and generate both codecs.
///
/// Each row is `Variant = "json_type", TAG_CONST = tag_byte`, then the
/// fields in braces (none for a unit variant). The row declares the
/// variant and the named tag constant; the enum gets `kind()`, the JSON
/// codec (`to_json`/`from_json`, `encode`/`decode`, a `type` member then
/// the fields) and the binary body codec (`put_bin`/`get_bin`, the tag
/// byte then the fields; [`crate::binwire`] adds the frame header). The
/// parenthesized literal names the enum in unknown-type errors. A tag
/// byte or type name used twice is an unreachable-pattern warning, which
/// CI's `-D warnings` turns into an error.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $V:ident = $name:literal, $TAG:ident = $tag:literal $({
                    $( $(#[$fmeta:meta])* $f:ident : $t:ty $(as $c:ty)? $(= $d:expr)? ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $( pub(crate) const $TAG: u8 = $tag; )*

        $(#[$meta])*
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $V $({ $( $(#[$fmeta])* $f: $t, )* })?,
            )*
        }

        impl $Name {
            /// The variant's wire type name (the JSON `type` member):
            /// the label used on trace records and per-kind metrics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $Name::$V { .. } => $name, )*
                }
            }

            /// The canonical JSON form: `type`, then the fields in table
            /// order.
            pub fn to_json(&self) -> $crate::json::Json {
                use $crate::json::Json;
                match self {
                    $(
                        $Name::$V $({ $($f),* })? => Json::Obj(vec![
                            ("type".to_string(), Json::Str($name.to_string())),
                            $($(
                                (
                                    stringify!($f).to_string(),
                                    <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::to_json($f),
                                ),
                            )*)?
                        ]),
                    )*
                }
            }

            /// Decode from a parsed JSON value.
            pub fn from_json(v: &$crate::json::Json) -> Result<$Name, String> {
                match $crate::schema::type_of(v)? {
                    $(
                        $name => Ok($Name::$V $({ $(
                            $f: $crate::schema::member!(v, $name, $f, $t $(as $c)? $(= $d)?)?,
                        )* })?),
                    )*
                    other => Err(format!(concat!("unknown ", $what, " type {:?}"), other)),
                }
            }

            /// Encode to canonical JSON wire bytes.
            pub fn encode(&self) -> Vec<u8> {
                self.to_json().encode().into_bytes()
            }

            /// Decode from JSON wire bytes (UTF-8).
            pub fn decode(bytes: &[u8]) -> Result<$Name, String> {
                let text = std::str::from_utf8(bytes)
                    .map_err(|e| format!("frame is not UTF-8: {e}"))?;
                let v = $crate::json::parse(text).map_err(|e| e.to_string())?;
                $Name::from_json(&v)
            }

            /// Append the binary body: tag byte, then the fields.
            pub(crate) fn put_bin(&self, buf: &mut Vec<u8>) {
                match self {
                    $(
                        $Name::$V $({ $($f),* })? => {
                            buf.push($TAG);
                            $($(
                                <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::put($f, buf);
                            )*)?
                        }
                    )*
                }
            }

            /// Read a binary body written by [`Self::put_bin`].
            pub(crate) fn get_bin(
                cur: &mut $crate::binwire::Cur<'_>,
            ) -> Result<$Name, $crate::binwire::DecodeError> {
                Ok(match cur.u8()? {
                    $(
                        $TAG => $Name::$V $({ $(
                            $f: <$crate::schema::codec!($t $(as $c)?) as $crate::schema::Codec>::get(cur)?,
                        )* })?,
                    )*
                    t => return Err($crate::binwire::DecodeError::BadTag($what, t)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;
