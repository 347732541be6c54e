//! The workspace's one JSON codec: a writer ([`Obj`], [`array`](fn@array)) and a
//! strict parser ([`parse_json`]) for every JSON document the project
//! writes or reads — trace exports, experiment appendices, benchmark
//! baselines. One layout: an object on one line (`{"k": v, "k2": v2}`)
//! unless it holds an array, one array element per line (an object holding
//! an array puts each member on its own line), integers exact, floats at
//! fixed decimals, `null` for a non-finite float.

use std::fmt::{self, Write as _};

/// Append `s` to `out` as a JSON string literal, quotes included.
fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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
    out.push('"');
}

/// A JSON object under construction; members keep insertion order.
///
/// Each member is rendered into `text` as it is added, `"key": value`, one
/// member per `\n`-separated piece (a rendered member holds no raw line
/// break: strings are escaped and nested objects are one-line). An array
/// member's piece is just `"key": `; its items wait in `arrays` until the
/// object renders and their indent is known.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    text: String,
    /// Members added so far.
    len: usize,
    /// `(piece index, items)` of each array member, in order.
    arrays: Vec<(usize, Vec<Obj>)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj {
            text: String::with_capacity(64),
            ..Obj::default()
        }
    }

    /// Start a member: its separator and key. Returns the piece index.
    fn key(&mut self, key: &str) -> usize {
        if self.len > 0 {
            self.text.push('\n');
        }
        quote_into(&mut self.text, key);
        self.text.push_str(": ");
        self.len += 1;
        self.len - 1
    }

    fn scalar(mut self, key: &'static str, value: impl fmt::Display) -> Self {
        self.key(key);
        let _ = write!(self.text, "{value}");
        self
    }

    /// A string member (escaped).
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.key(key);
        quote_into(&mut self.text, value);
        self
    }

    /// An unsigned integer member.
    pub fn uint(self, key: &'static str, value: impl Into<u64>) -> Self {
        self.scalar(key, value.into())
    }

    /// A signed integer member.
    pub fn int(self, key: &'static str, value: i64) -> Self {
        self.scalar(key, value)
    }

    /// An unsigned integer member, or `null`.
    pub fn opt_uint(self, key: &'static str, value: Option<impl Into<u64>>) -> Self {
        match value {
            Some(v) => self.uint(key, v),
            None => self.scalar(key, "null"),
        }
    }

    /// A float member with `decimals` fixed decimals; `null` if non-finite.
    pub fn float(self, key: &'static str, value: f64, decimals: usize) -> Self {
        if value.is_finite() {
            self.scalar(key, format_args!("{value:.decimals$}"))
        } else {
            self.scalar(key, "null")
        }
    }

    /// A boolean member.
    pub fn bool(self, key: &'static str, value: bool) -> Self {
        self.scalar(key, value)
    }

    /// A nested object member, on one line.
    ///
    /// # Panics
    ///
    /// Panics if `value` holds an array, which would need lines of its own.
    pub fn obj(mut self, key: &'static str, value: Obj) -> Self {
        assert!(
            value.arrays.is_empty(),
            "a nested object cannot hold an array"
        );
        self.key(key);
        let _ = value.render(&mut self.text, 0);
        self
    }

    /// An array-of-objects member.
    pub fn arr(mut self, key: &'static str, items: Vec<Obj>) -> Self {
        let index = self.key(key);
        self.arrays.push((index, items));
        self
    }

    /// Render into `out`, continuing a line indented by `indent` spaces: on
    /// that line if no member is an array, else one member per line.
    fn render(&self, out: &mut impl fmt::Write, indent: usize) -> fmt::Result {
        out.write_char('{')?;
        if self.arrays.is_empty() {
            for (i, piece) in self.text.split('\n').enumerate() {
                out.write_str(if i == 0 { "" } else { ", " })?;
                out.write_str(piece)?;
            }
            return out.write_char('}');
        }
        let mut arrays = self.arrays.iter().peekable();
        for (i, piece) in self.text.split('\n').enumerate() {
            out.write_str(if i == 0 { "\n" } else { ",\n" })?;
            write!(out, "{:w$}{piece}", "", w = indent + 2)?;
            if let Some((_, items)) = arrays.next_if(|(at, _)| *at == i) {
                render_array(out, items, indent + 2)?;
            }
        }
        write!(out, "\n{:indent$}}}", "")
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

fn render_array(out: &mut impl fmt::Write, items: &[Obj], indent: usize) -> fmt::Result {
    if items.is_empty() {
        return out.write_str("[]");
    }
    for (i, item) in items.iter().enumerate() {
        out.write_str(if i == 0 { "[\n" } else { ",\n" })?;
        write!(out, "{:w$}", "", w = indent + 2)?;
        item.render(out, indent + 2)?;
    }
    write!(out, "\n{:indent$}]", "")
}

/// Render `items` as a top-level JSON array, one object per line.
pub fn array(items: impl IntoIterator<Item = Obj>) -> String {
    let items: Vec<Obj> = items.into_iter().collect();
    let mut out = String::new();
    let _ = render_array(&mut out, &items, 0);
    out
}

/// A parsed JSON value (objects keep insertion order; numbers are `f64`,
/// which is exact for every integer below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number at `key` of this object, or an error naming the key.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing number {key:?}")),
        }
    }

    /// The string at `key` of this object, or an error naming the key.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string {key:?}")),
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one complete JSON document. Strict: trailing garbage, trailing
/// commas, unquoted keys, and nesting beyond 128 levels are errors.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 128 {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or("bad \\u escape")?;
                            // The writer never emits surrogates; map them
                            // to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (`pos` is on a char boundary:
                    // every other step advances over ASCII).
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
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
    fn parser_accepts_the_usual_shapes() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(v.text("b"), Ok("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1}x",
            "\"unterminated",
            "nul",
            "01a",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writer_layout_is_one_line_per_object_and_array_element() {
        let row = |n: u64| Obj::new().str("name", "a").uint("n", n).float("x", 0.5, 4);
        assert_eq!(row(1).to_string(), r#"{"name": "a", "n": 1, "x": 0.5000}"#);
        assert_eq!(
            array([row(1), row(2)]),
            "[\n  {\"name\": \"a\", \"n\": 1, \"x\": 0.5000},\n  \
             {\"name\": \"a\", \"n\": 2, \"x\": 0.5000}\n]"
        );
        let doc = Obj::new()
            .str("schema", "s")
            .arr("cells", vec![row(1), row(2)])
            .obj("meta", Obj::new().int("k", -3));
        assert_eq!(
            doc.to_string(),
            "{\n  \"schema\": \"s\",\n  \"cells\": [\n    \
             {\"name\": \"a\", \"n\": 1, \"x\": 0.5000},\n    \
             {\"name\": \"a\", \"n\": 2, \"x\": 0.5000}\n  ],\n  \
             \"meta\": {\"k\": -3}\n}"
        );
        assert_eq!(array([]), "[]");
    }

    #[test]
    #[should_panic(expected = "cannot hold an array")]
    fn a_nested_object_stays_on_one_line() {
        let _ = Obj::new().obj("o", Obj::new().arr("a", vec![Obj::new()]));
    }

    #[test]
    fn non_finite_floats_and_missing_values_are_null() {
        let o = Obj::new()
            .float("nan", f64::NAN, 2)
            .float("inf", f64::INFINITY, 2)
            .opt_uint("none", None::<u64>)
            .bool("b", false);
        assert_eq!(
            o.to_string(),
            r#"{"nan": null, "inf": null, "none": null, "b": false}"#
        );
        let back = parse_json(&o.to_string()).unwrap();
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn strings_round_trip_through_writer_and_parser() {
        let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7} unit \u{1f} é";
        let text = Obj::new().str("s", nasty).to_string();
        assert!(!text.contains('\n'), "control characters must be escaped");
        let back = parse_json(&text).unwrap();
        assert_eq!(back.text("s"), Ok(nasty));
        let escaped = parse_json(r#"{"s": "\u00e9\u0007\/"}"#).unwrap();
        assert_eq!(escaped.text("s"), Ok("é\u{7}/"));
        assert!(parse_json(r#""\u00z9""#).is_err());
        let parsed = parse_json(&array([Obj::new().str("s", nasty)])).unwrap();
        assert_eq!(parsed.as_array().unwrap()[0].text("s"), Ok(nasty));
    }
}
