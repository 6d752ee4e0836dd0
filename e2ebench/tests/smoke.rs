//! The benchmark's own smoke test: every workload, very briefly.
//!
//! Checks that each run prints every metric `BENCHMARK.json` names, with
//! its unit, in the result object on its last line, and that a deliberately
//! corrupted shadow fails the run.
//!
//! ```text
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for the benchmark's output).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    Parser::parse(&text)
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    Parser::parse(&text)
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// Runs the benchmark briefly; returns its exit success and the parsed
/// last line of its standard output.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_blockrep-e2ebench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "0.6"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), Parser::parse(last))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in workloads() {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, result) = run(&workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed: {result:?}");
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{workload}: failed ops"
            );
            let Json::Num(attempted) = result.get("attempted") else {
                panic!("{workload}: no attempted count")
            };
            assert!(*attempted >= 1.0);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let expected = catalogue(section);
            assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
            for (name, unit) in expected {
                let m = result.get("metrics").get(&name);
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{workload} --trace {trace}: {name} has no numeric value: {m:?}"
                );
                assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
            }
        }
    }
}

#[test]
fn a_corrupted_shadow_fails_the_run() {
    for workload in workloads() {
        let (ok, result) = run(&workload, 0, &["--corrupt-shadow"]);
        assert!(!ok, "{workload}: a corrupted shadow must fail the run");
        assert_eq!(result.get("correct"), &Json::Bool(false), "{workload}");
    }
}

#[test]
fn the_parser_reads_what_the_benchmark_writes() {
    let v = Parser::parse(r#"{"a":[1,-2.5e3,true,null],"b":{"c":"x\"y"},"d":{}}"#);
    assert_eq!(v.get("a").items()[1], Json::Num(-2500.0));
    assert_eq!(v.get("b").get("c").str(), "x\"y");
    assert_eq!(v.get("d"), &Json::Obj(BTreeMap::new()));
}
