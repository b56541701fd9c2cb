//! A JSON value and its writer — the benchmark's only output format, kept
//! dependency-free like the rest of the workspace.

use crate::adapter::json_escape_into as escape_into;
use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, `", "` and `": "` separated (the layout of Python's
    /// `json.dumps`).
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        let sep = if indent.is_some() { "," } else { ", " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // the reader should see, not a parse error.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    escape_into(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_layout_and_number_forms() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ]);
        assert_eq!(
            j.line(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
        // Floats keep a decimal point and all their digits; whole numbers
        // stay whole.
        assert_eq!(Json::Num(2.0).line(), "2.0");
        assert_eq!(Json::Num(0.1 + 0.2).line(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).line(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a \"b\" \\ \n\t\u{1}é");
        assert_eq!(j.line(), r#""a \"b\" \\ \n\t\u0001é""#);
    }

    #[test]
    fn pretty_indents_and_handles_empties() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("e", Json::Arr(vec![])),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            j.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"e\": [],\n  \"o\": {}\n}\n"
        );
    }
}
