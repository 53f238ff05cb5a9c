//! Offline stand-in for the `serde_json` crate.
//!
//! Formats the [`serde`] shim's JSON tree ([`Value`], [`Map`]) and provides
//! the [`json!`] macro subset the workspace uses: object literals with
//! string keys and plain expression values, plus bare expressions.

pub use serde::json::{Map, Value};

/// Error type for the (infallible) serializers, kept for API parity.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json shim error")
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.to_value().render(&mut out, None);
    Ok(out)
}

/// Renders `value` as two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.to_value().render(&mut out, Some(0));
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parses a JSON document into a [`Value`] tree (recursive descent over
/// the full JSON grammar: objects, arrays, strings with escapes, numbers,
/// booleans, null). Numbers parse to `UInt`/`Int` when integral and
/// `Float` otherwise.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error);
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error)
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error)
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek().ok_or(Error)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.eat_lit("true").map(|_| Value::Bool(true)),
            b'f' => self.eat_lit("false").map(|_| Value::Bool(false)),
            b'n' => self.eat_lit("null").map(|_| Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(Error),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            m.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => return Err(Error),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or(Error)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(Error)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4).ok_or(Error)?;
                            let hex = std::str::from_utf8(hex).map_err(|_| Error)?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| Error)?;
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than
                            // combined — the workspace never emits them.
                            out.push(char::from_u32(code).ok_or(Error)?);
                        }
                        _ => return Err(Error),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| Error)?;
                    let c = rest.chars().next().ok_or(Error)?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error)?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| Error)
    }
}

/// Builds a [`Value`] from an object literal with string keys, or from any
/// serializable expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($key.to_string(), $crate::json!($val)); )*
        $crate::Value::Object(m)
    }};
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::json!($item)),* ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("infallible")
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn json_macro_objects_and_arrays() {
        let v = json!({
            "name": "x",
            "values": vec![1.5f64, 2.0],
            "n": 3usize,
        });
        assert_eq!(
            crate::to_string(&v).unwrap(),
            r#"{"name":"x","values":[1.5,2.0],"n":3}"#
        );
    }

    #[test]
    fn pretty_output_indents() {
        let v = json!({"a": 1u32});
        let s = crate::to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"a\": 1\n}");
    }

    #[test]
    fn parser_roundtrips_serializer_output() {
        let v = json!({
            "name": "x\"y\\z",
            "values": vec![1.5f64, 2.0],
            "n": 3usize,
            "neg": -4i64,
            "ok": true,
            "none": json!(null),
        });
        let text = crate::to_string(&v).unwrap();
        let back = crate::from_str(&text).unwrap();
        assert_eq!(back, v);
        // Pretty output parses back to the same tree too.
        let back2 = crate::from_str(&crate::to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_nesting() {
        let v =
            crate::from_str(" { \"a\" : [ 1 , {\"b\": \"q\\nr\\u0041\"} , [] ] , \"c\" : 2.5e2 } ")
                .unwrap();
        assert_eq!(v.get("c").unwrap().as_f64(), Some(250.0));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("q\nrA"));
        assert!(arr[2].as_array().unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(crate::from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nested_maps_via_inserts() {
        let mut m = crate::Map::new();
        m.insert(
            "rows".to_string(),
            json!(vec![json!({"l": "a"}), json!({"l": "b"})]),
        );
        let s = crate::to_string(&crate::Value::Object(m)).unwrap();
        assert_eq!(s, r#"{"rows":[{"l":"a"},{"l":"b"}]}"#);
    }
}
