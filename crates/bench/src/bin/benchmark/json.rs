//! The result line the driver reads, emitted by hand (the workspace has
//! no JSON dependency), and a minimal parser the tests use to read it back
//! and to check `BENCHMARK.json` against the metric table.

use std::fmt::Write;

fn push_string(out: &mut String, s: &str) {
    out.push('"');
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

/// One measured value with the unit the table gives its metric.
pub struct Reported<'a> {
    pub name: &'a str,
    pub value: f64,
    pub unit: &'a str,
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
/// on one line. Values print with every digit `f64` holds; a non-finite
/// value prints as `null` so a reader rejects the line instead of
/// mistaking it for a measurement.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_string(&mut out, m.name);
        out.push_str(": {\"value\": ");
        if m.value.is_finite() {
            let _ = write!(out, "{}", m.value);
        } else {
            out.push_str("null");
        }
        out.push_str(", \"unit\": ");
        push_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

#[cfg(test)]
impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse one JSON document (objects, arrays, strings with the escapes
/// `push_string` writes plus `\/ \b \f`, numbers, `true/false/null`).
#[cfg(test)]
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at {}", self.i));
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Value::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at {}", self.i));
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Reported {
                name: "call_wall_ms",
                value: 261.437_219_3,
                unit: "ms",
            },
            Reported {
                name: "odd \"name\"\n\\",
                value: 1e-9,
                unit: "1/s",
            },
        ];
        let line = result_line(true, 1234, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("parses");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1234.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        let m = doc.get("metrics").expect("metrics");
        for r in &metrics {
            let entry = m.get(r.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(r.value));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(r.unit));
        }
    }

    #[test]
    fn non_finite_values_are_not_numbers() {
        let line = result_line(
            false,
            1,
            1,
            &[Reported {
                name: "x",
                value: f64::NAN,
                unit: "ms",
            }],
        );
        let doc = parse(&line).expect("parses");
        let x = doc.get("metrics").and_then(|m| m.get("x")).expect("x");
        assert_eq!(x.get("value"), Some(&Value::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
        assert_eq!(
            parse(" [1, -2.5e3, \"\\u0041\"] "),
            Ok(Value::Array(vec![
                Value::Num(1.0),
                Value::Num(-2500.0),
                Value::Str("A".to_string())
            ]))
        );
    }
}
