//! The one JSON reader and escaper behind the harness's flat JSON:
//! `repro serve` requests and responses, the `repro chaos` client, and
//! the `BENCH_engine.json` history rows. Every object in that
//! vocabulary is flat — string values and scalars, no nesting — so a
//! flat-object parser is the whole grammar, with no external
//! dependencies.

use std::collections::HashMap;

/// Escape `s` for use inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parse a flat JSON object of string (or scalar, kept as raw text)
/// values, with full string-escape handling.
pub(crate) fn parse_object(text: &str) -> Result<HashMap<String, String>, String> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i:?}"));
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*i) else {
                return Err("unterminated string".into());
            };
            *i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*i) else {
                        return Err("unterminated escape".into());
                    };
                    *i += 1;
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
                            let hex = text.get(*i..*i + 4).ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Recover the full UTF-8 character starting here.
                    let start = *i - 1;
                    let mut end = *i;
                    while end < bytes.len() && (bytes[end] & 0b1100_0000) == 0b1000_0000 {
                        end += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&bytes[start..end]));
                    *i = end;
                }
            }
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("body must be a JSON object".into());
    }
    i += 1;
    let mut map = HashMap::new();
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = match bytes.get(i) {
            Some(&b'"') => parse_string(&mut i)?,
            Some(_) => {
                let start = i;
                while i < bytes.len() && !b",}".contains(&bytes[i]) {
                    i += 1;
                }
                let scalar = text[start..i].trim();
                if scalar.is_empty() {
                    return Err(format!("missing value for key {key:?}"));
                }
                scalar.to_string()
            }
            None => return Err("truncated object".into()),
        };
        map.insert(key, value);
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => return Ok(map),
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_parses_escapes_and_scalars() {
        let m = parse_object(
            "{\"cmd\": \"fig9\", \"config\": \"ases = 64\\ntheta = 0.05\\n\", \"n\": 3, \"ok\": true}",
        )
        .unwrap();
        assert_eq!(m["cmd"], "fig9");
        assert_eq!(m["config"], "ases = 64\ntheta = 0.05\n");
        assert_eq!(m["n"], "3");
        assert_eq!(m["ok"], "true");
        let m = parse_object("{\"a\": \"q\\\"\\\\\\u0041\"}").unwrap();
        assert_eq!(m["a"], "q\"\\A");
        assert!(parse_object("[1]").is_err());
        assert!(parse_object("{\"a\": }").is_err());
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let body = format!("{{\"v\":\"{}\"}}", escape(nasty));
        let m = parse_object(&body).unwrap();
        assert_eq!(m["v"], nasty);
    }
}
