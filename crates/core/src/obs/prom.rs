//! Prometheus text exposition (version 0.0.4): sanitized rendering of
//! an [`ObsReport`] plus a std-only validity checker.
//!
//! Registry metric names are dotted pipeline paths (`search.steps`,
//! `engine.index_cache.hits`) and may carry an indexed span suffix
//! (`search.chunk[0]`). Neither form is legal in the exposition
//! grammar, whose metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
//! [`render`] therefore maps each registry name to its own metric
//! family: dots (and any other illegal character) become underscores,
//! and a trailing `[N]` suffix becomes an `index="N"` label so indexed
//! spans of one metric share a family instead of exploding the
//! namespace. Counters get a `gql_<name>_total` counter family, phases
//! a `gql_<name>_seconds` summary (`_count`/`_sum`) with `_min`/`_max`
//! gauges, and gauges a plain `gql_<name>` gauge family.
//!
//! [`validate_prometheus`] is the `validate_json`-style safety net:
//! tests (and the verify script, through the bench binary) run it over
//! every exposition we emit, so an illegal name or malformed sample
//! fails CI instead of breaking a scrape.

use super::ObsReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A registry metric name mapped onto the exposition grammar: the
/// sanitized family name plus the `index` label value extracted from a
/// trailing `[N]` suffix, if the name carried one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromName {
    /// Exposition-legal family name (without the `gql_` prefix or any
    /// `_total`/`_seconds` suffix).
    pub family: String,
    /// Value of the `index` label (`search.chunk[3]` → `"3"`).
    pub index: Option<String>,
}

/// Maps one registry name onto the exposition grammar (see the module
/// docs). The result always matches `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn sanitize_metric_name(name: &str) -> PromName {
    let (base, index) = match name.strip_suffix(']').and_then(|s| s.rsplit_once('[')) {
        Some((base, idx)) if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) => {
            (base, Some(idx.to_string()))
        }
        _ => (name, None),
    };
    let mut family = String::with_capacity(base.len());
    for c in base.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            family.push(c);
        } else {
            family.push('_');
        }
    }
    if family.is_empty() || family.as_bytes()[0].is_ascii_digit() {
        family.insert(0, '_');
    }
    PromName { family, index }
}

fn label_suffix(index: &Option<String>) -> String {
    match index {
        Some(i) => format!("{{index=\"{i}\"}}"),
        None => String::new(),
    }
}

/// Groups `(registry name, payload)` pairs by sanitized family,
/// preserving the report's sort order inside each family.
fn by_family<T: Clone>(pairs: &[(String, T)]) -> BTreeMap<String, Vec<(Option<String>, T)>> {
    let mut map: BTreeMap<String, Vec<(Option<String>, T)>> = BTreeMap::new();
    for (name, v) in pairs {
        let p = sanitize_metric_name(name);
        map.entry(p.family).or_default().push((p.index, v.clone()));
    }
    map
}

/// Renders `report` in Prometheus text exposition format 0.0.4. Every
/// emitted metric name is exposition-legal by construction; tests pin
/// this with [`validate_prometheus`].
pub fn render(report: &ObsReport) -> String {
    let mut s = String::new();
    for (values, suffix, help, kind) in [
        (
            &report.counters,
            "_total",
            "Deterministic pipeline counter.",
            "counter",
        ),
        (&report.gauges, "", "Last observed value.", "gauge"),
    ] {
        for (family, samples) in by_family(values) {
            let name = format!("gql_{family}{suffix}");
            let _ = writeln!(s, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for (index, v) in samples {
                let _ = writeln!(s, "{name}{} {v}", label_suffix(&index));
            }
        }
    }
    for (family, samples) in by_family(&report.phases) {
        let _ = writeln!(
            s,
            "# HELP gql_{family}_seconds Wall-clock spans of this phase.\n# TYPE gql_{family}_seconds summary"
        );
        for (index, p) in &samples {
            let l = label_suffix(index);
            let _ = writeln!(s, "gql_{family}_seconds_count{l} {}", p.count);
            let _ = writeln!(s, "gql_{family}_seconds_sum{l} {}", p.total.as_secs_f64());
        }
        for (stat, help) in [("min", "Shortest"), ("max", "Longest")] {
            let _ = writeln!(
                s,
                "# HELP gql_{family}_seconds_{stat} {help} recorded span.\n# TYPE gql_{family}_seconds_{stat} gauge"
            );
            for (index, p) in &samples {
                let d = if stat == "min" { p.min } else { p.max };
                let l = label_suffix(index);
                let _ = writeln!(s, "gql_{family}_seconds_{stat}{l} {}", d.as_secs_f64());
            }
        }
    }
    s
}

fn is_metric_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && (b[0].is_ascii_alphabetic() || b[0] == b'_' || b[0] == b':')
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b':')
}

fn is_label_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && (b[0].is_ascii_alphabetic() || b[0] == b'_')
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || c == b'_')
}

fn is_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Consumes one `label="value"` pair starting at `rest`; returns the
/// remainder after the pair (with a trailing `,` consumed) or an error.
fn take_label(rest: &str, line_no: usize) -> Result<&str, String> {
    let eq = rest
        .find('=')
        .ok_or(format!("line {line_no}: label without '='"))?;
    if !is_label_name(&rest[..eq]) {
        return Err(format!("line {line_no}: bad label name {:?}", &rest[..eq]));
    }
    let rest = rest[eq + 1..]
        .strip_prefix('"')
        .ok_or(format!("line {line_no}: label value must be quoted"))?;
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                let rest = &rest[i + 1..];
                return Ok(rest.strip_prefix(',').unwrap_or(rest));
            }
            '\\' => match chars.next() {
                Some((_, '\\' | '"' | 'n')) => {}
                _ => return Err(format!("line {line_no}: bad escape in label value")),
            },
            '\n' => return Err(format!("line {line_no}: raw newline in label value")),
            _ => {}
        }
    }
    Err(format!("line {line_no}: unterminated label value"))
}

/// Checks that `s` is well-formed Prometheus text exposition (format
/// 0.0.4): every metric name matches `[a-zA-Z_:][a-zA-Z0-9_:]*`, label
/// names and escapes are legal, sample values parse, `# TYPE` lines
/// name a known type and appear at most once per family, and nothing
/// else masquerades as a comment. Returns the first problem found.
pub fn validate_prometheus(s: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (i, line) in s.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.strip_prefix(' ').unwrap_or(comment);
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !is_metric_name(name) {
                    return Err(format!("line {line_no}: bad TYPE metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {line_no}: unknown metric type {kind:?}"));
                }
                if typed.iter().any(|t| t == name) {
                    return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                }
                typed.push(name.to_string());
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !is_metric_name(name) {
                    return Err(format!("line {line_no}: bad HELP metric name {name:?}"));
                }
            }
            // Any other '#' line is a free-form comment.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(['{', ' '])
            .ok_or(format!("line {line_no}: sample without a value"))?;
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return Err(format!("line {line_no}: illegal metric name {name:?}"));
        }
        let mut rest = &line[name_end..];
        if let Some(body) = rest.strip_prefix('{') {
            let close = body
                .rfind('}')
                .ok_or(format!("line {line_no}: unterminated label set"))?;
            let mut labels = &body[..close];
            while !labels.is_empty() {
                labels = take_label(labels, line_no)?;
            }
            rest = &body[close + 1..];
        }
        let rest = rest
            .strip_prefix(' ')
            .ok_or(format!("line {line_no}: expected space before value"))?;
        let mut parts = rest.split(' ');
        let value = parts.next().unwrap_or("");
        if !is_sample_value(value) {
            return Err(format!("line {line_no}: bad sample value {value:?}"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {line_no}: bad timestamp {ts:?}"));
            }
        }
        if parts.next().is_some() {
            return Err(format!("line {line_no}: trailing content after sample"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;
    use std::time::Duration;

    #[test]
    fn sanitizes_names_and_extracts_indexed_spans() {
        let p = sanitize_metric_name("engine.index_cache.hits");
        assert_eq!(p.family, "engine_index_cache_hits");
        assert_eq!(p.index, None);
        let p = sanitize_metric_name("search.chunk[12]");
        assert_eq!(p.family, "search_chunk");
        assert_eq!(p.index.as_deref(), Some("12"));
        // A non-numeric bracket suffix is not an indexed span; the
        // brackets are just illegal characters.
        let p = sanitize_metric_name("weird[x]");
        assert_eq!(p.family, "weird_x_");
        assert_eq!(p.index, None);
        assert_eq!(sanitize_metric_name("0start").family, "_0start");
        assert_eq!(sanitize_metric_name("a-b c").family, "a_b_c");
    }

    #[test]
    fn rendered_exposition_is_valid_and_names_are_legal() {
        let obs = Obs::new();
        obs.add("engine.index_cache.hits", 3);
        obs.add("search.chunk[0]", 7);
        obs.add("search.chunk[1]", 9);
        obs.set_gauge("storage.wal_size", 4096);
        obs.record("match.search", Duration::from_millis(5));
        let text = obs.report().render_prometheus();
        validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(
            text.contains("gql_engine_index_cache_hits_total 3"),
            "{text}"
        );
        assert!(
            text.contains("gql_search_chunk_total{index=\"0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("gql_search_chunk_total{index=\"1\"} 9"),
            "{text}"
        );
        assert!(text.contains("gql_storage_wal_size 4096"), "{text}");
        assert!(
            text.contains("# TYPE gql_match_search_seconds summary"),
            "{text}"
        );
        assert!(text.contains("gql_match_search_seconds_count 1"), "{text}");
        // One TYPE line per family even with several indexed samples.
        assert_eq!(text.matches("# TYPE gql_search_chunk_total").count(), 1);
        // The regression the satellite asks for: every emitted metric
        // name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let end = line.find(['{', ' ']).unwrap();
            assert!(is_metric_name(&line[..end]), "illegal name in {line:?}");
        }
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (tag, doc) in [
            ("dotted name", "a.b 1\n"),
            ("bracket name", "chunk[0] 1\n"),
            ("bad value", "a_b one\n"),
            ("bad label name", "a{0x=\"v\"} 1\n"),
            ("unquoted label", "a{x=v} 1\n"),
            ("unterminated labels", "a{x=\"v\" 1\n"),
            ("bad escape", "a{x=\"\\q\"} 1\n"),
            ("no value", "lonely_name\n"),
            ("bad type", "# TYPE a frobnometer\n"),
            ("dup type", "# TYPE a counter\n# TYPE a counter\n"),
            ("bad help name", "# HELP a.b text\n"),
            ("trailing", "a 1 2 3\n"),
        ] {
            assert!(validate_prometheus(doc).is_err(), "should reject {tag}");
        }
        validate_prometheus("# arbitrary comment\nup 1\nrate{x=\"a,b\"} 2.5 123\nnan_val NaN\n")
            .unwrap();
    }
}
