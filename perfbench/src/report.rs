//! The metric tables `BENCHMARK.json` names, and the one-line JSON
//! result every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload when untraced. The
/// two latency classes are named by role; `METRICS.md` says what each
/// workload's primary and secondary ops are.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload when traced. A layer a
/// workload does not exercise reads 0 and is listed on stderr.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.compile_ms", "ms"),
    ("frontend.bytes_per_ms", "B/ms"),
    ("ir.extract_ms", "ms"),
    ("ir.blocks", "count"),
    ("core.restrict_ms", "ms"),
    ("core.allocate_ms", "ms"),
    ("pace.key_ms", "ms"),
    ("pace.prepare_ms", "ms"),
    ("pace.comm_fill_ms", "ms"),
    ("pace.store_hit_ratio", "ratio"),
    ("pace.incremental_ratio", "ratio"),
    ("pace.blocks_reused_ratio", "ratio"),
    ("pace.search_ms", "ms"),
    ("pace.search_share_pct", "%"),
    ("pace.evaluated", "count"),
    ("pace.bounded", "count"),
    ("pace.unvisited", "count"),
    ("pace.prune_ratio", "ratio"),
    ("pace.us_per_eval", "us"),
    ("pace.cache_hit_ratio", "ratio"),
    ("pace.steals", "count"),
    ("pace.dp_us", "us"),
    ("pace.stop_overshoot_ms", "ms"),
    ("explore.table1_self_ms", "ms"),
    ("serve.fresh_ping_ms", "ms"),
    ("serve.keepalive_ping_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cancel_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.store_hits", "count"),
    ("serve.store_misses", "count"),
    ("serve.incremental", "count"),
    ("serve.panics", "count"),
    ("load.lateness_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines for stderr: the workload's own names for
    /// its classes, tail percentiles, sample counts, failure detail.
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one failed op with its reason.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {}", what.into()));
        }
    }

    /// Sets every metric of `table` the workload left unset to 0 and
    /// notes which ones those were.
    pub fn zero_unexercised(&mut self, table: &[(&'static str, &str)]) {
        let missing: Vec<&str> = table
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.values.contains_key(name))
            .collect();
        if !missing.is_empty() {
            self.note(format!("not exercised here (0): {}", missing.join(", ")));
        }
        for name in missing {
            self.values.insert(name, 0.0);
        }
    }

    /// The notes plus every recorded value, for stderr.
    pub fn human(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(&format!("  {line}\n"));
        }
        for &(name, unit) in table {
            if let Some(v) = self.values.get(name) {
                out.push_str(&format!("  {name:<26} {v:>14.4} {unit}\n"));
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<26} {ratio:>14.4} ratio ({} of {} ops failed)\n",
            "fail_ratio", self.failed, self.attempted
        ));
        out
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit. Fails if any is missing or not a finite number.
    pub fn json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one array of `BENCHMARK.json`, read with
    /// a plain scan (the file's layout is fixed by its contract).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("field present");
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn every_metric_is_printed_and_none_may_be_missing() {
        for t in [END_TO_END, PER_LAYER] {
            let mut r = Report {
                attempted: 3,
                ..Report::default()
            };
            for (i, &(name, _)) in t.iter().enumerate() {
                r.set(name, 1.5 + i as f64);
            }
            let line = r.json(t).expect("complete");
            for &(name, unit) in t {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));

            let mut partial = Report {
                attempted: 1,
                ..Report::default()
            };
            partial.set(t[0].0, 1.0);
            let err = partial.json(t).expect_err("a metric is missing");
            assert!(err.contains(t[1].0), "{err}");
        }
    }

    #[test]
    fn failures_make_the_run_incorrect_and_nan_is_refused() {
        let mut r = Report {
            attempted: 2,
            ..Report::default()
        };
        r.fail("wrong answer");
        r.set("setup_s", 1.0);
        let line = r.json(&[("setup_s", "s")]).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        r.set("setup_s", f64::NAN);
        assert!(r.json(&[("setup_s", "s")]).is_err());
    }
}
