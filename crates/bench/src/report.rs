//! The one JSON writer and gate mechanism of the `sbq-bench` binaries.
//!
//! A [`Report`] collects a bench's results and its gates. Each gate
//! records a value, a bound, how the two compare, whether the gate is
//! enforced or advisory in this run, and its verdict (`pass`, `fail` or
//! `skipped`). [`Report::finish`] writes the file only after every gate
//! has been evaluated, and exits 1 exactly when an enforced gate failed.
//! Every file starts with the same header: `bench`, `git_rev`, `nproc`,
//! `simd` (`detected` and `enabled` tiers) and `short`, followed by the
//! bench's own fields and `gates`.

use sbq_runtime::simd;
use sbq_telemetry::{expo, HistogramSnapshot};
use std::fmt::Display;

/// Whether the run asked for the reduced CI matrix: `--short` on the
/// command line or `BENCH_SHORT` in the environment.
pub fn short_mode() -> bool {
    std::env::args().any(|a| a == "--short") || std::env::var("BENCH_SHORT").is_ok()
}

/// A value that renders as JSON text.
pub trait Json {
    fn json(&self) -> String;
}

impl<T: Json + ?Sized> Json for &T {
    fn json(&self) -> String {
        (**self).json()
    }
}

/// Integral values print without a fraction, others with two decimals;
/// NaN and infinities (not JSON numbers) print as `null`.
impl Json for f64 {
    fn json(&self) -> String {
        match *self {
            v if !v.is_finite() => "null".into(),
            v if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
            v => format!("{v:.2}"),
        }
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
display_json!(u64, usize, bool);

impl Json for str {
    fn json(&self) -> String {
        format!("\"{}\"", expo::json_escape(self))
    }
}

impl Json for HistogramSnapshot {
    fn json(&self) -> String {
        expo::histogram_json(self)
    }
}

/// One item per line, indented for a top-level field.
impl<T: Json> Json for Vec<T> {
    fn json(&self) -> String {
        let items: Vec<String> = self.iter().map(Json::json).collect();
        format!("[\n    {}\n  ]", items.join(",\n    "))
    }
}

/// A JSON object that keeps its keys in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds `key` and returns the object, for building nested values.
    pub fn put(mut self, key: &str, value: impl Json) -> Obj {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: &str, value: impl Json) {
        self.0.push((key.json(), value.json()));
    }
}

impl Json for Obj {
    fn json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The bound a gate's value must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Ge(f64),
    Le(f64),
    Lt(f64),
    Eq(f64),
}

impl Bound {
    /// The comparison's symbol, its bound, and whether `value` meets it.
    fn eval(self, value: f64) -> (&'static str, f64, bool) {
        match self {
            Bound::Ge(b) => (">=", b, value >= b),
            Bound::Le(b) => ("<=", b, value <= b),
            Bound::Lt(b) => ("<", b, value < b),
            Bound::Eq(b) => ("==", b, value == b),
        }
    }
}

/// One bench run's results and gates, written as `file` by
/// [`Report::finish`].
#[derive(Debug)]
pub struct Report {
    file: String,
    head: Obj,
    body: Obj,
    gates: Vec<Obj>,
    failed: bool,
}

impl Report {
    pub fn new(bench: &str, file: &str, short: bool) -> Report {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".into(), |s| s.trim().to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let simd = Obj::new()
            .put("detected", simd::detected_level().name())
            .put("enabled", simd::level().name());
        let head = Obj::new()
            .put("bench", bench)
            .put("git_rev", git_rev.as_str())
            .put("nproc", nproc)
            .put("simd", simd)
            .put("short", short);
        Report {
            file: file.to_string(),
            head,
            body: Obj::new(),
            gates: Vec::new(),
            failed: false,
        }
    }

    /// Adds a result field after the header.
    pub fn set(&mut self, key: &str, value: impl Json) {
        self.body.set(key, value);
    }

    /// Records the gate `value` against `bound` and returns whether it
    /// held. A failed advisory gate is recorded as `fail` and printed as a
    /// note, but leaves the exit status alone. A NaN value, which this run
    /// could not measure, is recorded as `skipped`.
    pub fn gate(&mut self, name: &str, value: f64, bound: Bound, enforced: bool) -> bool {
        let (cmp, b, ok) = bound.eval(value);
        let verdict = match (value.is_nan(), ok) {
            (true, _) => "skipped",
            (false, true) => "pass",
            (false, false) => "fail",
        };
        if verdict != "pass" {
            let what = match (verdict, enforced) {
                ("skipped", _) => "gate skipped",
                (_, true) => "self-check failed",
                (_, false) => "note (advisory)",
            };
            eprintln!("{what}: {name} = {}, need {cmp} {}", value.json(), b.json());
        }
        self.failed |= enforced && verdict == "fail";
        let gate = Obj::new()
            .put("name", name)
            .put("value", value)
            .put("cmp", cmp)
            .put("bound", b)
            .put("enforced", enforced)
            .put("verdict", verdict);
        self.gates.push(gate);
        ok
    }

    /// Records an enforced yes/no self-check (value 1 when it holds).
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.gate(name, f64::from(u8::from(ok)), Bound::Eq(1.0), true)
    }

    /// Unwraps a step the rest of the run depends on. On error the failed
    /// check is recorded, the report written and the process exits 1.
    pub fn require<T, E: Display>(&mut self, name: &str, step: Result<T, E>) -> T {
        step.unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            self.check(name, false);
            self.write();
            std::process::exit(1)
        })
    }

    /// The exit status the run ends with: 1 when an enforced gate failed.
    fn status(&self) -> i32 {
        i32::from(self.failed)
    }

    /// The whole document, one top-level key and one gate per line.
    fn to_json(&self) -> String {
        let fields: Vec<String> = (self.head.0.iter().chain(&self.body.0))
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        format!(
            "{{\n  {},\n  \"gates\": {}\n}}\n",
            fields.join(",\n  "),
            self.gates.json()
        )
    }

    fn write(&self) {
        let json = self.to_json();
        if let Err(e) = std::fs::write(&self.file, &json) {
            eprintln!("cannot write {}: {e}", self.file);
            std::process::exit(1);
        }
        let gates = &json[json.find("  \"gates\"").unwrap_or(0)..];
        println!("\nwrote {}\n{gates}", self.file);
    }

    /// Writes the report and exits 1 if an enforced gate failed.
    pub fn finish(self) {
        self.write();
        if self.status() != 0 {
            std::process::exit(self.status());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: [&str; 5] = [
        "\"bench\"",
        "\"git_rev\"",
        "\"nproc\"",
        "\"simd\"",
        "\"short\"",
    ];

    /// The `"verdict"` of each line of a report's `gates` array.
    fn verdicts(json: &str) -> Vec<&str> {
        let gates = &json[json.find("\"gates\": [").expect("gates array")..];
        gates
            .lines()
            .skip(1)
            .take_while(|l| l.trim_start().starts_with('{'))
            .map(|l| {
                let at = l.find("\"verdict\":\"").expect("every gate has a verdict") + 11;
                &l[at..at + l[at..].find('"').unwrap()]
            })
            .collect()
    }

    #[test]
    fn report_is_valid_json_with_the_common_header() {
        let mut r = Report::new("unit", "BENCH_unit.json", true);
        r.set("rows", vec![Obj::new().put("op", "a\"b").put("mbps", 1.5)]);
        r.set("inf", f64::INFINITY);
        r.gate("fast", 2.0, Bound::Ge(1.0), true);
        r.gate("simd", f64::NAN, Bound::Ge(1.5), true);
        let json = r.to_json();
        expo::validate_json(&json).unwrap();
        for field in HEADER {
            assert!(json.contains(field), "missing {field}: {json}");
        }
        assert!(json.contains("\"bench\": \"unit\""));
        assert_eq!(verdicts(&json), ["pass", "skipped"]);
        assert_eq!(r.status(), 0);
    }

    #[test]
    fn failed_enforced_gate_sets_nonzero_status() {
        let mut r = Report::new("unit", "BENCH_unit.json", false);
        assert!(!r.gate("tail", 88.08, Bound::Lt(88.08), true));
        assert_eq!(verdicts(&r.to_json()), ["fail"]);
        assert_eq!(r.status(), 1);
    }

    #[test]
    fn failed_advisory_gate_is_recorded_but_keeps_status_zero() {
        let mut r = Report::new("unit", "BENCH_unit.json", true);
        assert!(!r.gate("xml_encode_mbps", 334.7, Bound::Ge(400.0), false));
        let json = r.to_json();
        assert_eq!(verdicts(&json), ["fail"]);
        assert!(json.contains("\"enforced\":false"));
        assert_eq!(r.status(), 0);
    }

    #[test]
    fn committed_marshal_report_has_header_and_verdicts() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_marshal.json");
        let json = std::fs::read_to_string(path).expect("BENCH_marshal.json is committed");
        expo::validate_json(&json).unwrap();
        for field in HEADER {
            assert!(json.contains(field), "BENCH_marshal.json lacks {field}");
        }
        let verdicts = verdicts(&json);
        assert!(!verdicts.is_empty(), "BENCH_marshal.json records no gates");
        for v in verdicts {
            assert!(["pass", "fail", "skipped"].contains(&v), "bad verdict {v}");
        }
    }
}
