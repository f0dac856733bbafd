//! Small helpers over `ls3df::obs::Json` (the repository's own JSON
//! value): array builders, typed getters, and a one-line renderer for
//! the result line the driver reads.

use ls3df::obs::Json;
use std::fmt::Write as _;

pub fn arr_f64(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::num).collect())
}

pub fn arr_of(values: impl Iterator<Item = Json>) -> Json {
    Json::Arr(values.collect())
}

/// `doc[key]` as a number.
pub fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key)?.as_f64()
}

/// `doc[key]` as a list of numbers (empty if absent).
pub fn nums(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `doc[key]` as a list of strings (empty if absent).
pub fn strs(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Renders `value` on one line. Numbers print with every digit `f64`
/// needs to round-trip; non-finite numbers cannot occur (`Json::num`
/// turns them into `null`).
pub fn one_line(value: &Json) -> String {
    let mut out = String::new();
    write_one_line(value, &mut out);
    out
}

fn write_one_line(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_one_line(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(key, out);
                out.push_str(": ");
                write_one_line(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_round_trips_through_the_parser() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(1000.0)),
            ("x", Json::num(1.2034e-7)),
            ("s", Json::str("a \"quoted\" \\ line\nbreak")),
            ("list", arr_f64([1.5, 2.0].into_iter())),
            ("nothing", Json::Null),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, "));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn getters_tolerate_missing_keys() {
        let doc = Json::obj(vec![("a", arr_f64([1.0, 2.0].into_iter()))]);
        assert_eq!(nums(&doc, "a"), vec![1.0, 2.0]);
        assert!(nums(&doc, "b").is_empty());
        assert!(strs(&doc, "a").is_empty());
        assert_eq!(num(&doc, "a"), None);
    }
}
