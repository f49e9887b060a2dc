//! Just enough JSON for the result line: a writer for the one object the
//! benchmark prints last, and a reader the all-workloads mode uses to
//! check each child's verdict. Hand-rolled because the benchmark takes no
//! dependencies beyond the repository's own crates.

use crate::metrics::Metric;
use std::collections::BTreeMap;

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`,
/// metrics in the order given. Every value must be finite; the caller
/// checks that before a run counts as correct.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parses one JSON document. Strings may not contain escapes other than
/// `\"` and `\\`, which is all the benchmark's own output and manifest use.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse().map(Value::Num).map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    match self.s.get(self.i + 1) {
                        Some(&c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
        self.i += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if out.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
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
            Metric { name: "run_s", unit: "s", value: 1.203_456_789 },
            Metric { name: "served_jobs_per_s", unit: "jobs/s", value: 22_500.0 },
            Metric { name: "telemetry.hub_s", unit: "s", value: -0.000_125 },
        ];
        let line = result_line(true, 36_180, 0, &metrics);
        let v = parse(&line).expect("own output parses");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(36_180.0)));
        assert_eq!(v.get("failed"), Some(&Value::Num(0.0)));
        let m = v.get("metrics").expect("metrics object");
        for want in &metrics {
            let got = m.get(want.name).expect("metric present");
            assert_eq!(got.get("value"), Some(&Value::Num(want.value)), "{}", want.name);
            assert_eq!(got.get("unit"), Some(&Value::Str(want.unit.into())));
        }
        match v {
            Value::Obj(o) => assert_eq!(o.len(), 4, "exactly the four result keys"),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in
            ["", "{", "{\"a\": }", "{\"a\": 1,}", "[1 2]", "{\"a\": 1} x", "{\"a\":1,\"a\":2}"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(
            parse("[true, null, \"x\\\"y\", -2.5e3]"),
            Ok(Value::Arr(vec![
                Value::Bool(true),
                Value::Null,
                Value::Str("x\"y".into()),
                Value::Num(-2500.0)
            ]))
        );
    }
}
