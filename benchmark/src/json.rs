//! JSON emission. Reading goes through the repository's parser
//! (`adapter::parse_json`); writing is a handful of format strings.

/// `s` as a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with every digit it was measured with (Rust prints the shortest
/// text that reads back to the same `f64`). JSON has no NaN or infinity;
/// a measurement that produced one is a harness bug, reported as such.
pub fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite measurement {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};

    #[test]
    fn strings_round_trip_through_the_parser() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "line\nbreak\ttab",
            "\u{1}ctl",
            "µs",
        ] {
            assert_eq!(parse_json(&string(s)), Ok(Json::Str(s.to_owned())), "{s:?}");
        }
    }

    #[test]
    fn numbers_keep_all_digits_and_reject_non_finite() {
        for v in [0.1 + 0.2, 1.2034e-7, 237_412.908_113_5, -3.0, 1e300] {
            let text = number(v).unwrap();
            assert_eq!(parse_json(&text), Ok(Json::Num(v)), "{text}");
        }
        assert!(number(f64::NAN).is_err());
        assert!(number(f64::INFINITY).is_err());
    }
}
