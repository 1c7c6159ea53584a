//! Recorded benchmark artifacts (`BENCH_*.json`).
//!
//! The workspace's serde is a build-shim marker, so the artifact format is
//! rendered and re-parsed by hand here. The format is deliberately small:
//! a `baseline` section (the numbers recorded when the file was first
//! created — i.e. *before* the optimization under test) and a `current`
//! section (refreshed on every `make bench-record`). `scripts/bench_compare`
//! re-measures and fails when `events_per_sec` regresses beyond a
//! tolerance against the committed `current` numbers.

use std::fmt::Write as _;

/// One benchmark scenario's measured numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioStats {
    /// Checked events (wire items for the threaded/sharded runners).
    pub events: u64,
    /// Instructions committed by the DUT.
    pub instructions: u64,
    /// DUT cycles simulated.
    pub cycles: u64,
    /// Host wall-clock nanoseconds for the whole run.
    pub wall_ns: u64,
    /// Checked events per host wall-clock second.
    pub events_per_sec: f64,
    /// Simulated cycles per host wall-clock second.
    pub cycles_per_sec: f64,
    /// Host nanoseconds attributed to the pack phase (producer-side
    /// encode; gated so push-encode regressions fail CI like consumer
    /// ones).
    pub pack_ns: u64,
    /// Host nanoseconds attributed to the unpack phase.
    pub unpack_ns: u64,
    /// Host nanoseconds attributed to the check phase.
    pub check_ns: u64,
    /// Events per second through the combined unpack+check phases alone —
    /// the figure of merit for the host hot-path overhaul.
    pub uc_events_per_sec: f64,
    /// All seven phases, `(name, ns)` in fixed phase order.
    pub phases: Vec<(&'static str, u64)>,
    /// REF execution-cache counters (`block.*` trace-cache and
    /// `decode.*` per-insn tiers), `(name, value)` in export order.
    pub caches: Vec<(&'static str, u64)>,
}

impl ScenarioStats {
    /// Derives the rate fields from the raw counters.
    pub fn finish(mut self) -> Self {
        let wall_s = (self.wall_ns as f64 / 1e9).max(1e-9);
        self.events_per_sec = self.events as f64 / wall_s;
        self.cycles_per_sec = self.cycles as f64 / wall_s;
        let uc_s = ((self.unpack_ns + self.check_ns) as f64 / 1e9).max(1e-9);
        self.uc_events_per_sec = self.events as f64 / uc_s;
        self
    }
}

fn render_scenario(out: &mut String, indent: &str, s: &ScenarioStats) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "{indent}  \"events\": {},", s.events);
    let _ = writeln!(out, "{indent}  \"instructions\": {},", s.instructions);
    let _ = writeln!(out, "{indent}  \"cycles\": {},", s.cycles);
    let _ = writeln!(out, "{indent}  \"wall_ns\": {},", s.wall_ns);
    let _ = writeln!(
        out,
        "{indent}  \"events_per_sec\": {:.1},",
        s.events_per_sec
    );
    let _ = writeln!(
        out,
        "{indent}  \"cycles_per_sec\": {:.1},",
        s.cycles_per_sec
    );
    let _ = writeln!(out, "{indent}  \"pack_ns\": {},", s.pack_ns);
    let _ = writeln!(out, "{indent}  \"unpack_ns\": {},", s.unpack_ns);
    let _ = writeln!(out, "{indent}  \"check_ns\": {},", s.check_ns);
    let _ = writeln!(
        out,
        "{indent}  \"uc_events_per_sec\": {:.1},",
        s.uc_events_per_sec
    );
    let _ = writeln!(out, "{indent}  \"phases\": {{");
    for (i, (name, ns)) in s.phases.iter().enumerate() {
        let comma = if i + 1 == s.phases.len() { "" } else { "," };
        let _ = writeln!(out, "{indent}    \"{name}\": {ns}{comma}");
    }
    let _ = writeln!(out, "{indent}  }},");
    let _ = writeln!(out, "{indent}  \"caches\": {{");
    for (i, (name, v)) in s.caches.iter().enumerate() {
        let comma = if i + 1 == s.caches.len() { "" } else { "," };
        let _ = writeln!(out, "{indent}    \"{name}\": {v}{comma}");
    }
    let _ = writeln!(out, "{indent}  }}");
    let _ = write!(out, "{indent}}}");
}

/// Renders one `{ "scenario": {...}, ... }` section body.
pub fn render_section(scenarios: &[(String, ScenarioStats)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    for (i, (name, s)) in scenarios.iter().enumerate() {
        let _ = write!(out, "    \"{name}\": ");
        render_scenario(&mut out, "    ", s);
        out.push_str(if i + 1 == scenarios.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  }");
    out
}

/// Renders the full artifact. `baseline_section` is a pre-rendered section
/// body (either carried over from the committed artifact, or — on first
/// recording — the same numbers as `current`).
pub fn render_artifact(
    meta: &[(&str, String)],
    baseline_section: &str,
    current_section: &str,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"difftest-hotpath/v1\",\n");
    for (k, v) in meta {
        let _ = writeln!(out, "  \"{k}\": \"{v}\",");
    }
    let _ = writeln!(out, "  \"baseline\": {baseline_section},");
    let _ = writeln!(out, "  \"current\": {current_section}");
    out.push_str("}\n");
    out
}

/// Extracts the brace-balanced object following `"key":` — e.g. the
/// `baseline` section, or one scenario inside a section. Returns the
/// object text including both braces. The artifact never nests braces
/// inside strings, so plain depth counting is exact.
pub fn extract_object<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)?;
    let rest = &text[at + pat.len()..];
    let open = rest.find('{')?;
    let body = &rest[open..];
    let mut depth = 0usize;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a numeric field (`"key": 123.4`) from an object's text.
pub fn extract_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)?;
    let rest = obj[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Lists the scenario names of a section body, in file order.
pub fn scenario_names(section: &str) -> Vec<String> {
    let mut names = Vec::new();
    // Scenario keys are the only quoted strings directly followed by
    // `: {` at depth 1 of the section object.
    let mut depth = 0usize;
    let bytes = section.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b'"' if depth == 1 => {
                if let Some(len) = section[i + 1..].find('"') {
                    let name = &section[i + 1..i + 1 + len];
                    let after = section[i + 1 + len + 1..].trim_start();
                    if after.starts_with(':') && after[1..].trim_start().starts_with('{') {
                        names.push(name.to_owned());
                    }
                    i += len + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioStats {
        ScenarioStats {
            events: 1000,
            instructions: 900,
            cycles: 500,
            wall_ns: 2_000_000_000,
            pack_ns: 100_000_000,
            unpack_ns: 250_000_000,
            check_ns: 250_000_000,
            phases: vec![("tick", 1), ("check", 250_000_000)],
            caches: vec![("block.hits", 800), ("decode.misses", 3)],
            ..Default::default()
        }
        .finish()
    }

    #[test]
    fn rates_derive_from_counters() {
        let s = sample();
        assert!((s.events_per_sec - 500.0).abs() < 1e-6);
        assert!((s.cycles_per_sec - 250.0).abs() < 1e-6);
        assert!((s.uc_events_per_sec - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn artifact_roundtrips_through_extractors() {
        let sec = render_section(&[
            ("engine/squash/clean".to_owned(), sample()),
            ("engine/batch/clean".to_owned(), sample()),
        ]);
        let doc = render_artifact(&[("dut", "xs".to_owned())], &sec, &sec);
        let cur = extract_object(&doc, "current").expect("current section");
        assert_eq!(
            scenario_names(cur),
            vec!["engine/squash/clean", "engine/batch/clean"]
        );
        let sc = extract_object(cur, "engine/squash/clean").expect("scenario");
        assert_eq!(extract_num(sc, "events"), Some(1000.0));
        assert_eq!(extract_num(sc, "events_per_sec"), Some(500.0));
        assert_eq!(extract_num(sc, "uc_events_per_sec"), Some(2000.0));
        assert_eq!(extract_num(sc, "pack_ns"), Some(100_000_000.0));
        assert_eq!(extract_num(sc, "block.hits"), Some(800.0));
        assert_eq!(extract_num(sc, "decode.misses"), Some(3.0));
        // The baseline section survives re-rendering untouched.
        let base = extract_object(&doc, "baseline").expect("baseline section");
        let doc2 = render_artifact(&[], base, cur);
        assert_eq!(extract_object(&doc2, "baseline"), Some(base));
    }

    #[test]
    fn extract_num_handles_negatives_and_floats() {
        assert_eq!(extract_num("{\"x\": -3.5}", "x"), Some(-3.5));
        assert_eq!(extract_num("{\"x\": 7,", "x"), Some(7.0));
        assert_eq!(extract_num("{}", "x"), None);
    }
}
