//! Operation accounting, metric samples, and the one-line JSON result.

use crate::measure::median;
use std::collections::BTreeMap;

/// Counts attempted and failed operations. An operation fails when any of
/// its output checks fails; the first few failure messages go to stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

/// The checks of one operation.
pub struct Op<'a> {
    name: &'a str,
    ok: bool,
    failed_before: u64,
}

impl Op<'_> {
    /// Records one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.ok && self.failed_before < 20 {
                eprintln!("check failed in {}: {}", self.name, what());
            }
            self.ok = false;
        }
    }
}

impl Checks {
    /// Runs the checks of one operation and counts it.
    pub fn op(&mut self, name: &str, f: impl FnOnce(&mut Op)) {
        let mut op = Op { name, ok: true, failed_before: self.failed };
        f(&mut op);
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
    }
}

/// Named metric samples; each is reported as the median of its samples.
#[derive(Debug, Default)]
pub struct Metrics {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Metrics {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_string()).or_default().push(value);
    }

    /// The median of `name`'s samples, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}` for the `(name,
    /// unit)` pairs given, in order. A name without samples renders as
    /// `absent` when that is given (a layer the workload never enters) and
    /// is an error otherwise.
    pub fn to_json(&self, defs: &[(&str, &str)], absent: Option<f64>) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let value = match (self.get(name), absent) {
                (Some(v), _) | (None, Some(v)) => v,
                (None, None) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(checks: &Checks, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_fails_only_its_operation() {
        let mut c = Checks::default();
        c.op("a", |op| op.check(true, || unreachable!()));
        assert_eq!((c.attempted, c.failed), (1, 0));
        c.op("b", |op| {
            op.check(false, || "first".into());
            op.check(false, || "second".into());
        });
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn metrics_render_medians_in_the_requested_order() {
        let mut m = Metrics::default();
        m.add("b_s", 3.0);
        m.add("b_s", 1.0);
        m.add("b_s", 2.0);
        m.add("a_ms", 0.5);
        assert_eq!(
            m.to_json(&[("b_s", "s"), ("a_ms", "ms")], None).unwrap(),
            r#"{"b_s": {"value": 2.0, "unit": "s"}, "a_ms": {"value": 0.5, "unit": "ms"}}"#
        );
        assert!(m.to_json(&[("c", "s")], None).is_err());
        assert_eq!(
            m.to_json(&[("c", "s")], Some(0.0)).unwrap(),
            r#"{"c": {"value": 0.0, "unit": "s"}}"#
        );
        let c = Checks { attempted: 4, failed: 0 };
        assert_eq!(
            result_line(&c, "{}"),
            r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}"#
        );
    }
}
