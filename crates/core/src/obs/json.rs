//! Std-only JSON helpers: the one string escaper and a well-formedness
//! checker.
//!
//! The observability layer emits JSON by hand (reports, explain trees,
//! Chrome trace files, the `/healthz` and `/slow` bodies) because the
//! workspace takes no third-party dependencies. Every emitter escapes
//! strings through [`escape`]; [`validate_json`] is the safety net, a
//! recursive-descent validator that tests run over every emitted
//! document, so a missed comma or an unescaped quote fails CI instead
//! of breaking Perfetto.
//!
//! The validator checks *well-formedness* per RFC 8259 (grammar, string
//! escapes, number syntax, nesting depth), not schemas.
//!
//! ```
//! use gql_core::obs::json::{escape, validate_json};
//!
//! assert!(validate_json("{\"a\": [1, 2.5, null, \"x\\n\"]}").is_ok());
//! assert!(validate_json("{\"a\": }").is_err());
//! assert!(validate_json(&format!("\"{}\"", escape("q\"\n"))).is_ok());
//! ```

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Maximum nesting depth accepted before bailing out (guards the
/// validator's own recursion; our emitters never approach it).
const MAX_DEPTH: usize = 256;

/// Checks that `s` is a single well-formed JSON value (with nothing but
/// whitespace after it). Returns a human-readable description of the
/// first problem found, with its byte offset.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => object(b, pos, depth),
        Some(b'[') => array(b, pos, depth),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(b'-') | Some(b'0'..=b'9') => number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte {:?} at byte {pos}",
            char::from(*c)
        )),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key string at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    loop {
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {pos}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(c) if c.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {pos}")),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("unescaped control byte {c:#04x} at byte {pos}"))
            }
            Some(_) => *pos += 1,
        }
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(format!("malformed number at byte {pos}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("digit required after '.' at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("digit required in exponent at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::validate_json;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "-0.5e+10",
            "\"\"",
            "\"a\\u00e9\\n\"",
            "[]",
            "{}",
            "[1, [2, {\"k\": [3]}], \"s\"]",
            "  {\"a\": {\"b\": [true, false, null]}}  ",
            "{\"nested\": {\"deep\": {\"ok\": 1.25}}}",
        ] {
            validate_json(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"ctrl \u{0}\"",
            "01",
            "1.",
            "1e",
            "nul",
            "[1] trailing",
            "NaN",
        ] {
            assert!(validate_json(doc).is_err(), "should reject: {doc:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(validate_json(&deep).is_err());
    }
}
