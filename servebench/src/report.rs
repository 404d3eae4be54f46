//! Result and provenance output.
//!
//! The last line a run prints is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it is the run's
//! provenance: machine, tree, seed, per-phase request counts, generator
//! lateness and the figures the quality metrics were derived from.

use std::collections::BTreeMap;
use std::path::Path;

/// A JSON value, written by hand (no serialisation crate is available).
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Null,
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn write(&self, out: &mut String) {
        match self {
            // Rust's shortest round-trip form: every digit, never exponent
            // notation, so the text is valid JSON. Non-finite values have
            // no JSON form and are never produced by a metric.
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            Json::Num(_) | Json::Null => out.push_str("null"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Requests of one phase.
#[derive(Clone)]
pub struct PhaseCount {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl PhaseCount {
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("sent", Json::Int(self.sent)),
            ("succeeded", Json::Int(self.succeeded)),
            ("failed", Json::Int(self.failed)),
        ])
    }
}

/// Everything a run prints.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub provenance: Vec<(&'static str, Json)>,
}

impl RunResult {
    pub fn print(self) {
        let provenance = Json::obj(vec![("provenance", Json::obj(self.provenance))]);
        println!("{}", provenance.render());
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", result.render());
    }
}

/// The commit the working directory is checked out at, read from `.git`
/// directly (no subprocess). `None` outside a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, r) = line.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// FNV-1a digest of the measured tree's sources (paths and contents of
/// the workspace manifests, the library crates and this benchmark), so a
/// result identifies the code it measured even outside a git checkout.
pub fn source_digest(root: &Path) -> String {
    let mut files = BTreeMap::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "servebench/Cargo.toml",
        "servebench/src",
    ] {
        collect(&root.join(top), root, &mut files);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (path, contents) in &files {
        feed(path.as_bytes());
        feed(&[0]);
        feed(contents);
        feed(&[0]);
    }
    format!("{h:016x}:{}", files.len())
}

fn collect(path: &Path, root: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), root, files);
            }
        }
    } else if meta.is_file() {
        if let Ok(contents) = std::fs::read(path) {
            let rel = path.strip_prefix(root).unwrap_or(path);
            files.insert(rel.display().to_string(), contents);
        }
    }
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(Json::Num(1.2034).render(), "1.2034");
        assert_eq!(
            Json::Num(0.000_000_123_456_789).render(),
            "0.000000123456789"
        );
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn json_strings_are_escaped() {
        let s = Json::obj(vec![("a\"b", Json::Str("x\ny\\".into()))]).render();
        assert_eq!(s, r#"{"a\"b": "x\u000ay\\"}"#);
    }
}
