//! Turning rounds and spans into named metrics, and printing them.

use serde::Value;

use crate::run::{Round, Traced};
use crate::stats::{median, quantile, Acct};
use crate::trace::OpKind;

/// The end-to-end metrics of `BENCHMARK.json`, with units: what a caller
/// of the service sees, measured on every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("determine_p50_us", "us"),
    ("determine_p90_us", "us"),
    ("prediction_error_pct", "%"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, with units: measured on
/// every workload by the traced run and the scrape deltas around its
/// measured phase.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("wire.ping_p50_us", "us"),
    ("wire.self_p50_us", "us"),
    ("wire.codec.encode_us", "us"),
    ("wire.codec.decode_us", "us"),
    ("wire.codec.determine_response_bytes", "B"),
    ("wire.codec.report_request_bytes", "B"),
    ("wire.busy_rejections", "count"),
    ("service.determine_p50_us", "us"),
    ("service.self_p50_us", "us"),
    ("service.register_p50_us", "us"),
    ("service.retrains_per_report", "ratio"),
    ("service.reports_per_batch", "ratio"),
    ("service.rejections_per_report", "ratio"),
    ("service.residency.rehydrations_per_determine", "ratio"),
    ("service.residency.evictions", "count"),
    ("service.residency.resident_peak", "count"),
    ("core.determine_p50_us", "us"),
    ("core.determine_evaluations", "count"),
    ("client.execute_p50_us", "us"),
    ("store.wal_bytes_per_report", "B"),
    ("store.wal_records_per_report", "ratio"),
    ("store.wal_records_replayed", "count"),
    ("store.snapshot_bytes", "B"),
    ("store.snapshot_encode_us", "us"),
    ("store.snapshot_decode_us", "us"),
    ("store.persist_snapshot_us", "us"),
    ("obs.scrape_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.self_sum_us", "us"),
    ("trace.self_sum_abs_gap_pct", "%"),
];

/// One named metric; `None` where the workload never performs the
/// operation it times.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value: value.filter(|v| v.is_finite()),
            unit,
        });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    }
}

fn pooled(rounds: &[Round], f: impl Fn(&Round) -> Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(f).collect()
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> Option<f64> {
    median(&rounds.iter().filter_map(f).collect::<Vec<_>>())
}

fn delta_sum(rounds: &[Round], name: &str) -> Option<f64> {
    let v: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.delta.get(name).copied())
        .collect();
    (!v.is_empty()).then(|| v.iter().sum())
}

/// Steps per second of the closed loop: per connection, the median of
/// its block rates over every round (robust to a transient stall), summed
/// over connections.
pub fn throughput(rounds: &[Round]) -> Option<f64> {
    let mut per_conn: Vec<Vec<f64>> = Vec::new();
    for r in rounds {
        for (c, rates) in r.phase.block_rates().into_iter().enumerate() {
            if per_conn.len() <= c {
                per_conn.resize(c + 1, Vec::new());
            }
            per_conn[c].extend(rates);
        }
    }
    per_conn.iter().map(|rates| median(rates)).sum()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Samples per block of the tail estimate: a block's p99 has ten
/// samples beyond it.
const TAIL_BLOCK: usize = 1000;

/// The 99th percentile, robust to a burst of interference: the median of
/// the p99s of consecutive blocks of `TAIL_BLOCK` samples (in the order
/// they were taken), or the plain p99 of fewer samples than two blocks.
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 * TAIL_BLOCK {
        return quantile(samples, 0.99);
    }
    let blocks = samples.len() / TAIL_BLOCK;
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * TAIL_BLOCK
            };
            quantile(&samples[b * TAIL_BLOCK..end], 0.99)
        })
        .collect();
    median(&per_block)
}

/// End-to-end metrics of the untraced rounds, plus the ones only some
/// workloads have (report latency, recovery, error rate).
pub fn end_to_end(rounds: &[Round], setup_s: &[f64], acct: &Acct, feedback: bool) -> Metrics {
    let mut m = Metrics::default();
    let determine = pooled(rounds, |r| r.phase.pooled(|c| &c.determine_us));
    let report = pooled(rounds, |r| r.phase.pooled(|c| &c.report_us));
    let rel_err = if feedback {
        pooled(rounds, |r| r.phase.pooled(|c| &c.rel_err))
    } else {
        pooled(rounds, |r| r.sample_rel_err.clone())
    };
    m.put("setup_s", median(setup_s), "s");
    m.put("throughput_ops_s", throughput(rounds), "1/s");
    m.put("determine_p50_us", quantile(&determine, 0.5), "us");
    m.put("determine_p90_us", quantile(&determine, 0.9), "us");
    m.put("determine_p99_us", p99(&determine), "us");
    m.put(
        "prediction_error_pct",
        median(&rel_err).map(|e| e * 100.0),
        "%",
    );
    m.put("rss_peak_mb", rss_peak_mb(), "MB");
    m.put("report_p50_us", quantile(&report, 0.5), "us");
    m.put("report_p99_us", p99(&report), "us");
    let flush = pooled(rounds, |r| r.phase.pooled(|c| &c.flush_us));
    m.put("flush_p50_ms", quantile(&flush, 0.5).map(|u| u / 1e3), "ms");
    m.put("recover_s", per_round(rounds, |r| r.recover_s), "s");
    m.put(
        "register_p50_us",
        median(&pooled(rounds, |r| r.register_us.clone())),
        "us",
    );
    m.put("error_rate", Some(acct.error_rate()), "ratio");
    m.put("determine_samples", Some(determine.len() as f64), "count");
    m
}

/// Per-layer metrics from the traced run and the scrape deltas of the
/// untraced round(s).
pub fn per_layer(rounds: &[Round], traced: &Traced, e2e: &Metrics) -> Metrics {
    let mut m = Metrics::default();
    let idx = traced.index();
    let p50 = |v: Vec<f64>| quantile(&v, 0.5);
    let wire_self = p50(idx.self_us("wire.determine", "service.determine_resident"));
    let service_self = p50(idx.self_us("service.determine", "core.determine"));
    let core = idx.quantile_us("core.determine", 0.5);
    let untraced = e2e.value("determine_p50_us");

    m.put("wire.ping_p50_us", idx.quantile_us("wire.ping", 0.5), "us");
    m.put("wire.self_p50_us", wire_self, "us");
    let encode = p50(idx.us_kind("wire.codec.encode", OpKind::Determine));
    let decode = p50(idx.us_kind("wire.codec.decode", OpKind::Determine));
    m.put("wire.codec.encode_us", encode, "us");
    m.put("wire.codec.decode_us", decode, "us");
    m.put(
        "wire.codec.determine_response_bytes",
        median(&traced.totals.codec.determine_response).or(Some(0.0)),
        "B",
    );
    m.put(
        "wire.codec.report_request_bytes",
        median(&traced.totals.codec.report_request).or(Some(0.0)),
        "B",
    );
    m.put(
        "wire.codec.report_encode_us",
        p50(idx.us_kind("wire.codec.encode", OpKind::Report)),
        "us",
    );
    m.put(
        "wire.codec.report_decode_us",
        p50(idx.us_kind("wire.codec.decode", OpKind::Report)),
        "us",
    );
    m.put(
        "wire.busy_rejections",
        delta_sum(rounds, "wire.busy_rejections"),
        "count",
    );

    let reports = delta_sum(rounds, "service.reports_enqueued");
    let applied = delta_sum(rounds, "service.reports_applied");
    let determines = delta_sum(rounds, "service.predictions");
    let rejections = delta_sum(rounds, "service.rejections");
    m.put(
        "service.determine_p50_us",
        idx.quantile_us("service.determine", 0.5),
        "us",
    );
    m.put("service.self_p50_us", service_self, "us");
    m.put(
        "service.register_p50_us",
        idx.quantile_us("service.register", 0.5),
        "us",
    );
    m.put(
        "service.report_run_p50_us",
        idx.quantile_us("service.report_run", 0.5),
        "us",
    );
    m.put(
        "service.flush_p50_ms",
        idx.quantile_us("service.flush", 0.5).map(|u| u / 1e3),
        "ms",
    );
    m.put(
        "service.flush_p90_ms",
        idx.quantile_us("service.flush", 0.9).map(|u| u / 1e3),
        "ms",
    );
    m.put(
        "service.retrains_per_report",
        ratio(delta_sum(rounds, "service.retrains"), applied),
        "ratio",
    );
    m.put(
        "service.reports_per_batch",
        ratio(applied, delta_sum(rounds, "service.worker.batches")),
        "ratio",
    );
    m.put(
        "service.rejections_per_report",
        ratio(rejections, reports.zip(rejections).map(|(a, r)| a + r)),
        "ratio",
    );
    m.put(
        "service.residency.rehydrations_per_determine",
        ratio(
            delta_sum(rounds, "service.residency.rehydrations"),
            determines,
        ),
        "ratio",
    );
    m.put(
        "service.residency.evictions",
        delta_sum(rounds, "service.residency.evictions"),
        "count",
    );
    m.put(
        "service.residency.resident_peak",
        rounds
            .iter()
            .map(|r| r.phase.resident_peak as f64)
            .reduce(f64::max),
        "count",
    );
    m.put(
        "service.residency.rehydrate_p50_us",
        per_round(rounds, |r| r.rehydrate_p50_us),
        "us",
    );

    m.put("core.determine_p50_us", core, "us");
    m.put(
        "core.determine_evaluations",
        ratio(
            Some(traced.totals.evaluations as f64),
            Some(traced.totals.determines as f64),
        ),
        "count",
    );
    m.put(
        "core.apply_report_p50_us",
        idx.quantile_us("core.apply_report", 0.5),
        "us",
    );
    m.put(
        "core.apply_report_mean_us",
        idx.mean_us("core.apply_report"),
        "us",
    );
    m.put(
        "core.retrain_p50_ms",
        idx.quantile_us("core.retrain", 0.5).map(|u| u / 1e3),
        "ms",
    );
    let execute = pooled(rounds, |r| {
        let mut v = r.phase.pooled(|c| &c.execute_us);
        v.extend(&r.sample_execute_us);
        v
    });
    m.put("client.execute_p50_us", median(&execute), "us");

    m.put(
        "store.wal_bytes_per_report",
        ratio(delta_sum(rounds, "store.wal_bytes_written"), reports),
        "B",
    );
    m.put(
        "store.wal_records_per_report",
        ratio(delta_sum(rounds, "store.wal_records_appended"), reports),
        "ratio",
    );
    let records = traced.store.wal_records as f64;
    m.put(
        "store.wal_scan_us_per_record",
        (records > 0.0).then(|| idx.us("store.wal_scan").iter().sum::<f64>() / records),
        "us",
    );
    m.put(
        "store.wal_decode_us_per_record",
        idx.mean_us("store.wal_decode_run"),
        "us",
    );
    m.put(
        "store.wal_records_replayed",
        per_round(rounds, |r| r.wal_records_replayed).or(Some(0.0)),
        "count",
    );
    m.put(
        "store.recovery_duration_us",
        per_round(rounds, |r| r.recovery_duration_us),
        "us",
    );
    m.put(
        "store.snapshot_bytes",
        median(&traced.store.snapshot_bytes).or(Some(0.0)),
        "B",
    );
    m.put(
        "store.snapshot_encode_us",
        idx.quantile_us("store.snapshot_encode", 0.5),
        "us",
    );
    m.put(
        "store.snapshot_decode_us",
        idx.quantile_us("store.snapshot_decode", 0.5),
        "us",
    );
    m.put(
        "store.persist_snapshot_us",
        idx.quantile_us("store.persist_snapshot", 0.5),
        "us",
    );

    m.put(
        "obs.scrape_us",
        median(&pooled(rounds, |r| r.scrape_us.clone())),
        "us",
    );

    m.put(
        "trace.wire_determine_p50_us",
        idx.quantile_us("wire.determine", 0.5),
        "us",
    );
    let self_sum = match (wire_self, service_self, core) {
        (Some(a), Some(b), Some(c)) => Some(a + b + c),
        _ => None,
    };
    m.put("trace.self_sum_us", self_sum, "us");
    m.put(
        "trace.overhead_us",
        self_sum.zip(untraced).map(|(s, u)| s - u),
        "us",
    );
    let gap = self_sum.zip(untraced).map(|(s, u)| (s - u) / u * 100.0);
    m.put("trace.self_sum_gap_pct", gap, "%");
    m.put("trace.self_sum_abs_gap_pct", gap.map(f64::abs), "%");
    m
}

/// The three open questions of the breakdown, answered from the traced
/// run as recorded fields.
pub fn breakdown(layer: &Metrics, e2e: &Metrics) -> Value {
    let v = |name: &str| num(layer.value(name));
    let sub = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a - b);
    let codec = layer
        .value("wire.codec.encode_us")
        .zip(layer.value("wire.codec.decode_us"))
        .map(|(a, b)| a + b);
    let wire_self = layer.value("wire.self_p50_us");
    let ping = layer.value("wire.ping_p50_us");
    let encode = layer.value("store.snapshot_encode_us");
    let persist = layer.value("store.persist_snapshot_us");
    let register = layer.value("service.register_p50_us");

    obj(vec![
        (
            "determine_residual",
            obj(vec![
                ("over_wire_p50_us", num(e2e.value("determine_p50_us"))),
                ("service_p50_us", v("service.determine_p50_us")),
                ("core_p50_us", v("core.determine_p50_us")),
                ("service_self_p50_us", v("service.self_p50_us")),
                ("wire_self_p50_us", num(wire_self)),
                ("ping_p50_us", num(ping)),
                ("codec_p50_us", num(codec)),
                ("wire_self_minus_ping_and_codec_us", num(sub(sub(wire_self, ping), codec))),
            ]),
        ),
        (
            "registration_split",
            obj(vec![
                ("register_p50_us", num(register)),
                ("snapshot_encode_p50_us", num(encode)),
                ("persist_snapshot_p50_us", num(persist)),
                ("persist_write_fsync_us", num(sub(persist, encode))),
                ("rest_us", num(sub(register, persist))),
                (
                    "note",
                    Value::Str(
                        "persist_snapshot includes the encode; an in-memory registration persists nothing".into(),
                    ),
                ),
            ]),
        ),
        (
            "wal_replay_split",
            obj(vec![
                ("scan_us_per_record", v("store.wal_scan_us_per_record")),
                ("decode_us_per_record", v("store.wal_decode_us_per_record")),
                ("apply_report_p50_us", v("core.apply_report_p50_us")),
                ("apply_report_mean_us", v("core.apply_report_mean_us")),
                ("wal_records_replayed", v("store.wal_records_replayed")),
                ("recovery_duration_us", v("store.recovery_duration_us")),
            ]),
        ),
    ])
}

pub fn num(v: Option<f64>) -> Value {
    v.filter(|x| x.is_finite()).map_or(Value::Null, Value::Num)
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `name value unit` lines, `n/a` where the workload lacks the operation.
pub fn print_table(workload: &str, title: &str, metrics: &Metrics) {
    println!("# {workload}: {title}");
    for m in &metrics.0 {
        match m.value {
            Some(v) => println!("{workload} {} {v} {}", m.name, m.unit),
            None => println!("{workload} {} n/a {}", m.name, m.unit),
        }
    }
}

/// The metrics map of the final line: exactly the listed names.
pub fn result_metrics(list: &[(&str, &str)], metrics: &Metrics) -> Result<Value, String> {
    list.iter()
        .map(|&(name, unit)| {
            let value = metrics
                .value(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok((
                name.to_owned(),
                obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_owned())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Value::Obj)
}
