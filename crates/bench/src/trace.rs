//! The `RunTrace` export: a run's telemetry trace as a JSON document,
//! written by the engine-facing tools and read back by `trace_diff`.
//!
//! Schema: an object tagged `"trace": "sssp-run-trace"` holding the
//! global counters, `hybrid_switch_at` (`null` when the switch never
//! fired), the wall-clock phase timings and per-sub-phase spreads
//! (`short_ns` … and `<name>_ns_{min,median,max}`, each group omitted when
//! all zero), then the `phases` and `buckets` record arrays and the hybrid
//! tail's record (`null` when absent). Any JSON layout of it parses.

use sssp_core::config::LongPhaseMode;
use sssp_core::instrument::{
    BucketRecord, PhaseKind, PhaseRecord, PhaseTimings, SpanSpread, SubPhaseSpread,
};
use sssp_core::{RunTrace, SubPhase};

use crate::json::Value;

/// The marker that tells a trace from any other JSON document.
const TAG: &str = "sssp-run-trace";

/// `trace` as a JSON document.
pub fn to_json(trace: &RunTrace) -> Value {
    let field = |key: &str, v: Value| (key.to_string(), v);
    let count = |key: &str, n: u64| field(key, Value::int(n));
    let mut fields = vec![
        field("trace", Value::str(TAG)),
        field("backend", Value::str(&trace.backend)),
        count("ranks", trace.ranks as u64),
        count("supersteps", trace.supersteps),
        count("local_msgs", trace.local_msgs),
        count("remote_msgs", trace.remote_msgs),
        count("remote_bytes", trace.remote_bytes),
        count("coalesced_msgs", trace.coalesced_msgs),
        count("max_step_send_bytes", trace.max_step_send_bytes),
        count("max_step_recv_bytes", trace.max_step_recv_bytes),
        field(
            "hybrid_switch_at",
            trace.hybrid_switch_at.map_or(Value::Null, Value::int),
        ),
    ];
    let t = &trace.timings;
    if !t.is_zero() {
        fields.extend([
            count("short_ns", t.short_ns),
            count("long_push_ns", t.long_push_ns),
            count("long_pull_ns", t.long_pull_ns),
            count("bf_ns", t.bf_ns),
        ]);
    }
    if !trace.spans.is_zero() {
        for sub in SubPhase::ALL {
            let (s, name) = (trace.spans.get(sub), sub.name());
            fields.push(count(&format!("{name}_ns_min"), s.min_ns));
            fields.push(count(&format!("{name}_ns_median"), s.median_ns));
            fields.push(count(&format!("{name}_ns_max"), s.max_ns));
        }
    }
    fields.extend([
        field(
            "phases",
            Value::Arr(trace.phases.iter().map(phase_json).collect()),
        ),
        field(
            "buckets",
            Value::Arr(trace.buckets.iter().map(bucket_json).collect()),
        ),
        field("tail", trace.tail.as_ref().map_or(Value::Null, bucket_json)),
    ]);
    Value::Obj(fields)
}

/// Read a trace document back.
pub fn from_json(text: &str) -> Result<RunTrace, String> {
    let doc = Value::parse(text)?;
    if doc.get("trace").and_then(Value::as_str) != Some(TAG) {
        return Err("not an sssp run trace".to_string());
    }
    let mut spans = SubPhaseSpread::default();
    for sub in SubPhase::ALL {
        let ns = |stat: &str| optional(&doc, &format!("{}_ns_{stat}", sub.name()));
        let (min_ns, median_ns, max_ns) = (ns("min")?, ns("median")?, ns("max")?);
        spans.set(
            sub,
            SpanSpread {
                min_ns,
                median_ns,
                max_ns,
            },
        );
    }
    Ok(RunTrace {
        backend: text_field(&doc, "backend")?.to_string(),
        ranks: usize::try_from(count(&doc, "ranks")?).map_err(|e| format!("\"ranks\": {e}"))?,
        supersteps: count(&doc, "supersteps")?,
        local_msgs: count(&doc, "local_msgs")?,
        remote_msgs: count(&doc, "remote_msgs")?,
        remote_bytes: count(&doc, "remote_bytes")?,
        coalesced_msgs: count(&doc, "coalesced_msgs")?,
        max_step_send_bytes: count(&doc, "max_step_send_bytes")?,
        max_step_recv_bytes: count(&doc, "max_step_recv_bytes")?,
        hybrid_switch_at: nullable(&doc, "hybrid_switch_at", |_| {
            count(&doc, "hybrid_switch_at")
        })?,
        timings: PhaseTimings {
            short_ns: optional(&doc, "short_ns")?,
            long_push_ns: optional(&doc, "long_push_ns")?,
            long_pull_ns: optional(&doc, "long_pull_ns")?,
            bf_ns: optional(&doc, "bf_ns")?,
        },
        spans,
        phases: records(&doc, "phases", phase)?,
        buckets: records(&doc, "buckets", bucket)?,
        tail: nullable(&doc, "tail", bucket)?,
    })
}

fn phase_json(p: &PhaseRecord) -> Value {
    Value::obj([
        ("bucket", Value::int(p.bucket)),
        ("kind", Value::str(&format!("{:?}", p.kind))),
        ("relaxations", Value::int(p.relaxations)),
        ("remote_msgs", Value::int(p.remote_msgs)),
    ])
}

fn bucket_json(b: &BucketRecord) -> Value {
    Value::obj([
        ("bucket", Value::int(b.bucket)),
        ("mode", Value::str(&format!("{:?}", b.mode))),
        ("settled", Value::int(b.settled)),
        ("est_push", Value::int(b.est_push)),
        ("est_pull", Value::int(b.est_pull)),
        ("self_edges", Value::int(b.self_edges)),
        ("backward_edges", Value::int(b.backward_edges)),
        ("forward_edges", Value::int(b.forward_edges)),
        ("requests", Value::int(b.requests)),
        ("responses", Value::int(b.responses)),
        ("supersteps", Value::int(b.supersteps)),
        ("local_msgs", Value::int(b.local_msgs)),
        ("remote_msgs", Value::int(b.remote_msgs)),
        ("coalesced_msgs", Value::int(b.coalesced_msgs)),
    ])
}

fn phase(v: &Value) -> Result<PhaseRecord, String> {
    let kind = match text_field(v, "kind")? {
        "Short" => PhaseKind::Short,
        "LongPush" => PhaseKind::LongPush,
        "LongPull" => PhaseKind::LongPull,
        other => return Err(format!("unknown phase kind {other:?}")),
    };
    Ok(PhaseRecord {
        bucket: count(v, "bucket")?,
        kind,
        relaxations: count(v, "relaxations")?,
        remote_msgs: count(v, "remote_msgs")?,
    })
}

fn bucket(v: &Value) -> Result<BucketRecord, String> {
    let mode = match text_field(v, "mode")? {
        "Push" => LongPhaseMode::Push,
        "Pull" => LongPhaseMode::Pull,
        other => return Err(format!("unknown long-phase mode {other:?}")),
    };
    Ok(BucketRecord {
        bucket: count(v, "bucket")?,
        settled: count(v, "settled")?,
        mode,
        est_push: count(v, "est_push")?,
        est_pull: count(v, "est_pull")?,
        self_edges: count(v, "self_edges")?,
        backward_edges: count(v, "backward_edges")?,
        forward_edges: count(v, "forward_edges")?,
        requests: count(v, "requests")?,
        responses: count(v, "responses")?,
        supersteps: count(v, "supersteps")?,
        local_msgs: count(v, "local_msgs")?,
        remote_msgs: count(v, "remote_msgs")?,
        coalesced_msgs: count(v, "coalesced_msgs")?,
    })
}

fn count(obj: &Value, key: &str) -> Result<u64, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing \"{key}\""))?;
    v.num()
        .ok_or_else(|| format!("\"{key}\": expected a count"))
}

/// A count the exporter omits when zero.
fn optional(obj: &Value, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(0),
        Some(_) => count(obj, key),
    }
}

/// A field that must be present: `null`, or read by `read`.
fn nullable<T>(
    obj: &Value,
    key: &str,
    read: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match obj.get(key) {
        None => Err(format!("missing \"{key}\"")),
        Some(Value::Null) => Ok(None),
        Some(v) => read(v).map(Some),
    }
}

/// Every item of the array under `key`, read by `each`.
fn records<T>(
    obj: &Value,
    key: &str,
    each: fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = obj.get(key).and_then(Value::items);
    items
        .ok_or_else(|| format!("missing \"{key}\" array"))?
        .iter()
        .map(each)
        .collect()
}

fn text_field<'a>(obj: &'a Value, key: &str) -> Result<&'a str, String> {
    let v = obj.get(key).and_then(Value::as_str);
    v.ok_or_else(|| format!("\"{key}\": expected a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bucket() -> BucketRecord {
        BucketRecord {
            bucket: 2,
            settled: 10,
            mode: LongPhaseMode::Pull,
            est_push: 100,
            est_pull: 40,
            self_edges: 0,
            backward_edges: 0,
            forward_edges: 0,
            requests: 20,
            responses: 15,
            supersteps: 4,
            local_msgs: 9,
            remote_msgs: 31,
            coalesced_msgs: 6,
        }
    }

    fn sample_trace() -> RunTrace {
        let mut tail = sample_bucket();
        tail.bucket = u64::MAX;
        tail.mode = LongPhaseMode::Push;
        RunTrace {
            backend: "simulated".to_string(),
            ranks: 4,
            supersteps: 12,
            local_msgs: 30,
            remote_msgs: 70,
            remote_bytes: 1120,
            coalesced_msgs: 8,
            max_step_send_bytes: 96,
            max_step_recv_bytes: 80,
            hybrid_switch_at: Some(3),
            timings: PhaseTimings::default(),
            spans: SubPhaseSpread::default(),
            phases: vec![
                PhaseRecord {
                    bucket: 0,
                    kind: PhaseKind::Short,
                    relaxations: 5,
                    remote_msgs: 3,
                },
                PhaseRecord {
                    bucket: u64::MAX,
                    kind: PhaseKind::LongPull,
                    relaxations: 9,
                    remote_msgs: 7,
                },
            ],
            buckets: vec![sample_bucket()],
            tail: Some(tail),
        }
    }

    fn roundtrip(t: &RunTrace) -> RunTrace {
        from_json(&to_json(t).render()).expect("roundtrip parse")
    }

    #[test]
    fn trace_json_roundtrips() {
        let t = sample_trace();
        let parsed = roundtrip(&t);
        assert_eq!(parsed, t);
        assert!(t.diff(&parsed).is_empty());
    }

    #[test]
    fn trace_json_roundtrips_timings_and_diff_ignores_them() {
        let mut t = sample_trace();
        t.timings = PhaseTimings {
            short_ns: 120,
            long_push_ns: 0,
            long_pull_ns: 44,
            bf_ns: 7,
        };
        assert_eq!(roundtrip(&t), t);
        // Traces differing only in wall-clock timings still compare equal.
        let zeroed = sample_trace();
        assert!(t.diff(&zeroed).is_empty());
        // All-zero timings are omitted from the serialized form entirely.
        assert_eq!(to_json(&zeroed).get("short_ns"), None);
    }

    #[test]
    fn sub_phase_spreads_ride_through_the_codec() {
        let mut t = sample_trace();
        let spread = |min_ns, median_ns, max_ns| SpanSpread {
            min_ns,
            median_ns,
            max_ns,
        };
        t.spans.set(SubPhase::Scan, spread(10, 30, 40));
        t.spans.set(SubPhase::CollectiveWait, spread(1, 6, 10));
        assert_eq!(roundtrip(&t), t);
        assert!(t.diff(&sample_trace()).is_empty());
        assert_eq!(to_json(&sample_trace()).get("scan_ns_min"), None);
    }

    #[test]
    fn trace_json_roundtrips_without_optionals() {
        let mut t = sample_trace();
        t.hybrid_switch_at = None;
        t.tail = None;
        t.phases.clear();
        t.buckets.clear();
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn malformed_trace_is_rejected() {
        assert!(from_json("{}").is_err());
        let t = to_json(&sample_trace()).render();
        for (from, to) in [
            ("\"supersteps\": 12", "\"supersteps\": twelve"),
            ("\"supersteps\": 12", "\"supersteps\": 12.5"),
            ("\"supersteps\": 12", "\"supersteps\": -12"),
            ("\"kind\": \"Short\"", "\"kind\": \"Sideways\""),
            ("\"mode\": \"Pull\"", "\"mode\": 1"),
            ("\"ranks\": 4,", ""),
            ("\"tail\": {", "\"tail\": [{"),
            ("\"phases\": [", "\"phases\": {"),
        ] {
            let broken = t.replacen(from, to, 1);
            assert_ne!(broken, t, "{from:?} not in the rendered trace");
            assert!(from_json(&broken).is_err(), "{to:?} parsed");
        }
    }
}
