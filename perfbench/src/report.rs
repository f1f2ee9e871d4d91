//! What one run reports, and the single JSON line it ends with.

use spmv_bench::json::Json;

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued (requests, SpMV calls, solves).
    pub attempted: u64,
    /// Operations that returned an error, were shed, or were never answered.
    pub failed: u64,
    /// Output checks that did not match their reference.
    pub mismatches: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Why a per-layer metric reads zero or what it was measured on.
    pub notes: Vec<String>,
}

impl Report {
    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Add a note printed before the result line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record an output check; a mismatch also fails the operation's run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            if self.mismatches <= 5 {
                eprintln!("output mismatch: {}", what());
            }
        }
    }

    /// Whether every output matched its reference.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The result object: `correct`, `attempted`, `failed` and the metrics
    /// of the requested kind, on one line.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let json = Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        compact(&json)
    }
}

/// One-line rendering of a JSON value. The pretty printer escapes newlines
/// inside strings, so joining its lines without their indentation is exact.
pub fn compact(json: &Json) -> String {
    json.pretty().lines().map(str::trim_start).collect()
}
