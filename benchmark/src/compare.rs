//! `--compare BASE.json NEW.json`: the relative difference of every
//! (metric, workload) of two `--all` documents, end-to-end metrics against
//! the bounds `BENCHMARK.json` fixes. Every ratio is given with its base.

use std::path::Path;

use crate::json::Value;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Returns `Ok(false)` when some end-to-end metric got worse than its
/// bound allows, or the new document records a failure.
pub fn run(definition: &Value, base: &Path, new: &Path) -> Result<bool, String> {
    let (base_doc, new_doc) = (load(base)?, load(new)?);
    let mut within = true;
    println!("base = {}, new = {}", base.display(), new.display());
    println!("worse = (new - base) / base, signed so that positive is worse");
    let base_workloads = base_doc
        .get("workloads")
        .map(Value::fields)
        .unwrap_or_default();
    for (workload, base_w) in base_workloads {
        let Some(new_w) = new_doc.get("workloads").and_then(|w| w.get(workload)) else {
            return Err(format!("{}: no workload {workload}", new.display()));
        };
        println!("\n{workload}");
        let failed = new_w.get("failed").and_then(Value::num).unwrap_or(0.0);
        if failed > 0.0 {
            println!("  {failed} wrong answers in the new document");
            within = false;
        }
        for metric in definition
            .get("end_to_end")
            .map(Value::items)
            .unwrap_or_default()
        {
            let name = metric.get("name").and_then(Value::str).unwrap_or("");
            let bound = metric.get("bound").and_then(Value::num).unwrap_or(0.0);
            let lower_is_better = metric.get("better").and_then(Value::str) == Some("lower");
            let row = |doc: &Value, field: &str| {
                doc.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get(field))
                    .and_then(Value::num)
            };
            let (Some(b), Some(n)) = (row(base_w, "median"), row(new_w, "median")) else {
                return Err(format!("{workload}: {name} is missing from a document"));
            };
            let worse = if lower_is_better {
                (n - b) / b
            } else {
                (b - n) / b
            };
            // The base's own run-to-run spread, where it recorded runs.
            let spread = match (row(base_w, "q1"), row(base_w, "q3")) {
                (Some(q1), Some(q3)) => (q3 - q1) / b,
                _ => 0.0,
            };
            let verdict = if worse > bound {
                within = false;
                "REGRESSED"
            } else if spread > bound {
                "unresolved (spread wider than bound)"
            } else {
                "ok"
            };
            println!(
                "  {name:<16} base {b:>14.4} new {n:>14.4} worse {worse:>+8.4} \
                 bound {bound:.2} spread {spread:.4}  {verdict}"
            );
        }
        let layers = |doc: &Value| {
            doc.get("per_layer")
                .map(Value::fields)
                .unwrap_or_default()
                .to_vec()
        };
        let new_layers = layers(new_w);
        for (name, base_m) in layers(base_w) {
            let value = |m: &Value| m.get("value").and_then(Value::num);
            let new_m = new_layers.iter().find(|(n, _)| *n == name).map(|(_, m)| m);
            let (Some(b), Some(n)) = (value(&base_m), new_m.and_then(value)) else {
                println!("  {name:<34} missing from a document");
                continue;
            };
            // A count must repeat exactly for a fixed seed.
            let is_count = base_m.get("unit").and_then(Value::str) == Some("count");
            let note = if is_count && b != n {
                "  count differs"
            } else {
                ""
            };
            let change = if b != 0.0 { (n - b) / b } else { 0.0 };
            println!("  {name:<34} base {b:>16.4} new {n:>16.4} change {change:>+8.4}{note}");
        }
    }
    println!(
        "\n{}",
        if within {
            "within bounds"
        } else {
            "NOT within bounds"
        }
    );
    Ok(within)
}
