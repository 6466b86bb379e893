//! Minimal JSON for the `BENCH_*.json` exports.
//!
//! The workspace is dependency-free by design (the build environment is
//! air-gapped), so the exports hand-roll their JSON. This module holds
//! both halves: the escaping and number formatting the writer
//! ([`crate::export`]) uses, and a small recursive-descent parser for
//! the readers ([`crate::metrics_io`], [`crate::diff`]).
//!
//! The parser accepts exactly the JSON the writers emit (objects,
//! arrays, strings with the standard escapes, finite numbers, booleans,
//! `null`) and rejects everything else with a position-tagged error. It
//! is not a general-purpose JSON library — no comments, no trailing
//! commas, numbers parsed as `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted) — the exports never
    /// rely on duplicate or ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object containing `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number. Non-finite values (which JSON
/// cannot represent) are clamped to `0`, keeping the output parseable;
/// no experiment produces them in normal operation.
#[must_use]
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
///
/// # Errors
/// Returns a byte-position-tagged message on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape whole.
            let run = self.text[self.pos..]
                .find(['"', '\\'])
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            let start = self.pos + run;
            if self.bytes[start] == b'"' {
                self.pos = start + 1;
                return Ok(out);
            }
            self.pos = start + 2;
            let c = match self.bytes.get(start + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    // Surrogate pairs are not emitted by the writers;
                    // reject rather than mis-decode.
                    let hex = self.text.get(self.pos..self.pos + 4);
                    self.pos += 4;
                    hex.and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {start}"))?
                }
                _ => return Err(format!("bad escape at byte {start}")),
            };
            out.push(c);
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn resolves_escapes() {
        let doc = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{e9}";
        let doc = parse(&format!("\"{}\"", escape(nasty))).unwrap();
        assert_eq!(doc.as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn every_event_of_a_traced_lossy_batch_parses() {
        use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
        use dht_core::obs::Telemetry;
        use dht_core::rng::stream;
        use dht_core::workload::random_pairs;
        use dht_sim::{build_overlay, OverlayKind};

        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let loss = FaultPlan::lossy(9, 0.4);
        net.set_net_conditions(NetConditions::new(loss, RetryPolicy::standard()));
        let telemetry = Telemetry::enabled();
        net.set_telemetry(telemetry.clone());
        let reqs = random_pairs(net.as_ref(), 100, &mut stream(2, "events"));
        let pairs: Vec<_> = reqs.iter().map(|r| (r.src, r.raw_key)).collect();
        let _ = net.lookup_batch(&pairs, 1);
        let mut tags = BTreeMap::<String, usize>::new();
        for event in telemetry.read(|r| r.events.clone()).expect("enabled") {
            let line = event.to_json_line();
            let doc = parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let tag = doc.get("ev").and_then(Json::as_str);
            *tags
                .entry(
                    tag.unwrap_or_else(|| panic!("no \"ev\" tag: {line}"))
                        .into(),
                )
                .or_default() += 1;
        }
        assert_eq!(tags.get("lookup_start"), Some(&100), "{tags:?}");
        assert_eq!(tags.get("lookup_end"), Some(&100), "{tags:?}");
        for tag in ["hop", "retry", "timeout"] {
            assert!(tags.contains_key(tag), "no {tag} event: {tags:?}");
        }
    }

    #[test]
    fn num_clamps_non_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }
}
