//! The workspace's JSON codec: one small [`Value`] with a strict parser and
//! a renderer. It reads and writes the `BENCH_sssp.json` baseline document
//! ([`crate::baseline`]).
//!
//! Numbers keep their source text, so a parse → render round trip changes
//! no byte of a recorded figure: fixed decimals stay fixed, and a count
//! above 2^53 reads back exactly (`num::<u64>`) instead of through an `f64`.
//!
//! Layout: the top-level container and the containers directly inside it
//! put one entry per line (two-space indent); containers nested two or more
//! levels deep render on one line. That is the committed baseline's layout,
//! one field per line in a block.

/// Deepest nesting [`Value::parse`] accepts: deeper input is an error, not
/// a stack overflow.
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text (from the parser, [`Value::int`] or
    /// [`Value::fixed`]).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: unique keys, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An exact unsigned count.
    pub fn int(n: u64) -> Value {
        Value::Num(n.to_string())
    }

    /// `x` with exactly `decimals` places; `null` when `x` is not finite.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Num(format!("{x:.decimals$}"))
        } else {
            Value::Null
        }
    }

    /// A string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        let own = |(k, v): (&str, Value)| (k.to_string(), v);
        Value::Obj(fields.into_iter().map(own).collect())
    }

    /// An object's fields in order; empty for any other value.
    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value at `path`, one object key per step.
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// A number's text parsed as a `T`: `num::<u64>()` takes only a plain
    /// non-negative integer in range, `num::<f64>()` any number.
    pub fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Parse one JSON document. Anything outside RFC 8259 — trailing bytes,
    /// a bad escape, a duplicate key, nesting deeper than 64 — is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.i < text.len() {
            return p.err("trailing bytes");
        }
        Ok(v)
    }

    /// Render as a document in the layout of the module doc, ending with a
    /// newline.
    pub fn render(&self) -> String {
        self.write(0) + "\n"
    }

    fn write(&self, depth: usize) -> String {
        let (open, close, entries): (_, _, Vec<String>) = match self {
            Value::Null => return "null".to_string(),
            Value::Bool(b) => return b.to_string(),
            Value::Num(text) => return text.clone(),
            Value::Str(s) => return quote(s),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| v.write(depth + 1)).collect()),
            Value::Obj(fields) => {
                let entry =
                    |(k, v): &(String, Value)| format!("{}: {}", quote(k), v.write(depth + 1));
                ('{', '}', fields.iter().map(entry).collect())
            }
        };
        if depth >= 2 || entries.is_empty() {
            return format!("{open}{}{close}", entries.join(", "));
        }
        let pad = "  ".repeat(depth);
        format!(
            "{open}\n{pad}  {}\n{pad}{close}",
            entries.join(&format!(",\n{pad}  "))
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Recursive-descent reader; `i` is the byte offset of the next token.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consume `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        let hit = self
            .s
            .get(self.i..)
            .is_some_and(|rest| rest.starts_with(token));
        self.i += if hit { token.len() } else { 0 };
        hit
    }

    /// Before each entry of a container: true once its `close` comes,
    /// otherwise consume the `,` that must follow every entry but the last.
    fn done(&mut self, close: &str, first: bool) -> Result<bool, String> {
        self.ws();
        if self.eat(close) {
            Ok(true)
        } else if first || self.eat(",") {
            Ok(false)
        } else {
            self.err(&format!("expected ',' or '{close}'"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.ws();
        if self.eat("{") {
            let mut fields: Vec<(String, Value)> = Vec::new();
            while !self.done("}", fields.is_empty())? {
                self.ws();
                let key = self.string()?;
                self.ws();
                if fields.iter().any(|(k, _)| *k == key) || !self.eat(":") {
                    return self.err("duplicate key or missing ':'");
                }
                fields.push((key, self.value(depth + 1)?));
            }
            return Ok(Value::Obj(fields));
        }
        if self.eat("[") {
            let mut items = Vec::new();
            while !self.done("]", items.is_empty())? {
                items.push(self.value(depth + 1)?);
            }
            return Ok(Value::Arr(items));
        }
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("null") => Ok(Value::Null),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ => self.err("expected a value"),
        }
    }

    /// Consume ASCII digits; how many.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat("-");
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        let fraction = !self.eat(".") || self.digits() > 0;
        let exponent = !(self.eat("e") || self.eat("E")) || {
            let _ = self.eat("+") || self.eat("-");
            self.digits() > 0
        };
        let ok = int > 0 && !(leading_zero && int > 1) && fraction && exponent;
        match self.s.get(start..self.i).filter(|_| ok) {
            Some(text) => Ok(Value::Num(text.to_string())),
            None => self.err("malformed number"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = Vec::new();
        loop {
            let b = self.peek();
            self.i += 1;
            match b {
                Some(b'"') => return String::from_utf8(out).map_err(|e| e.to_string()),
                Some(b'\\') => out.extend(self.escape()?.encode_utf8(&mut [0; 4]).bytes()),
                Some(b @ 0x20..) => out.push(b),
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let b = self.peek();
        self.i += 1;
        let code = match b {
            Some(b'u') => self.hex4()?,
            Some(b'b') => 0x8,
            Some(b'f') => 0xc,
            Some(b'n') => 0xa,
            Some(b'r') => 0xd,
            Some(b't') => 0x9,
            Some(c @ (b'"' | b'\\' | b'/')) => c.into(),
            _ => return self.err("invalid escape"),
        };
        let code = match code {
            0xD800..=0xDBFF if self.eat("\\u") => match self.hex4()? {
                lo @ 0xDC00..=0xDFFF => 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00),
                _ => return self.err("unpaired surrogate"),
            },
            _ => code,
        };
        char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.i..self.i + 4);
        self.i += 4;
        match hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(h) => u32::from_str_radix(h, 16).map_err(|e| e.to_string()),
            None => self.err("expected four hex digits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_baseline_renders_back_byte_for_byte() {
        let text = include_str!("../../../BENCH_sssp.json");
        assert_eq!(
            Value::parse(text).expect("committed baseline").render(),
            text
        );
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = Value::parse(r#"{"a": 0.250, "b": 18446744073709551615, "c": -1.5e-3}"#)
            .expect("numbers");
        assert_eq!(v.get("b").and_then(Value::num::<u64>), Some(u64::MAX));
        assert_eq!(v.get("a").and_then(Value::num::<u64>), None);
        assert_eq!(v.get("a").and_then(Value::num::<f64>), Some(0.25));
        assert_eq!(v.get("c").and_then(Value::num::<f64>), Some(-0.0015));
        assert_eq!(
            v.render(),
            "{\n  \"a\": 0.250,\n  \"b\": 18446744073709551615,\n  \"c\": -1.5e-3\n}\n"
        );
        assert_eq!(
            Value::fixed(2.0 / 3.0, 3),
            Value::parse("0.667").expect("num")
        );
        assert_eq!(Value::fixed(f64::NAN, 3), Value::Null);
        // 2^53 + 1 is the first count an f64 cannot hold.
        let big = (1u64 << 53) + 1;
        assert_eq!(Value::int(big).num::<u64>(), Some(big));
    }

    #[test]
    fn layout_is_independent_of_the_input_layout() {
        let one_line = r#"{"a": {"b": [1, 2], "c": {}}, "d": [[], [true, null]], "e": "x"}"#;
        let v = Value::parse(one_line).expect("one line");
        let rendered = v.render();
        assert_eq!(
            rendered,
            "{\n  \"a\": {\n    \"b\": [1, 2],\n    \"c\": {}\n  },\n  \
             \"d\": [\n    [],\n    [true, null]\n  ],\n  \"e\": \"x\"\n}\n"
        );
        let tabbed = rendered.replace("  ", "\t").replace(": ", ":");
        assert_eq!(Value::parse(&tabbed), Ok(v));
    }

    #[test]
    fn strings_round_trip_their_escapes() {
        let v = Value::parse(r#""a\"b\\c\/d\n\u00e9\ud83d\ude00\u0001""#).expect("escapes");
        assert_eq!(v, Value::str("a\"b\\c/d\né😀\u{1}"));
        assert_eq!(v.render(), "\"a\\\"b\\\\c/d\\u000aé😀\\u0001\"\n");
        assert_eq!(Value::parse(&v.render()), Ok(v));
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        let bad = [
            "",
            "{",
            "{\"a\": 1",
            "{\"a\": 1,}",
            "[1, 2",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": 1} x",
            "{} {}",
            "\"abc",
            "\"a\\qb\"",
            "\"a\\u12\"",
            "\"a\\u12g4\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"tab\there\"",
            "01",
            "1.",
            "1e",
            "-",
            "+1",
            ".5",
            "nul",
            "tru",
            "{\"a\": 1, \"a\": 2}",
            "\"é\\",
        ];
        for text in bad {
            assert!(Value::parse(text).is_err(), "{text:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Value::parse(&ok).is_ok());
        // Every prefix of a real document is an error, not a panic.
        let text = include_str!("../tests/data/baseline_sample.json").trim_end();
        for (end, _) in text.char_indices().skip(1) {
            assert!(Value::parse(&text[..end]).is_err(), "prefix {end} parsed");
        }
    }

    #[test]
    fn paths_reach_nested_fields() {
        let v = Value::obj([
            ("a", Value::obj([("b", Value::int(7))])),
            ("s", Value::str("x")),
        ]);
        assert_eq!(v.at(&["a", "b"]).and_then(Value::num::<u64>), Some(7));
        assert_eq!(v.at(&["a", "c"]), None);
        assert_eq!(v.at(&["s", "b"]), None);
        assert_eq!(v.at(&[]), Some(&v));
    }
}
