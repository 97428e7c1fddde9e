//! Closed-loop end-to-end benchmark of smartpickd.
//!
//! An in-process `WireServer` over a `SmartpickService` (both with the
//! program's default configs), driven from this process through two
//! `WireClient` connections, each with one request in flight. See
//! `e2ebench/README.md` for the workloads, metrics and traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <read-hot|feedback-mix|churn-cold|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`); the lines before it
//! list every metric by name with its unit, and the run record.

mod closed_loop;
mod env;
mod passes;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;
use smartpick_core::training::TrainOptions;

use crate::report::{num, obj, Metrics, END_TO_END, PER_LAYER};
use crate::stats::Acct;
use crate::workload::{Catalog, Spec, CONNECTIONS, TEMPLATE_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    other => return Err(format!("--scale takes tiny or full, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        tiny,
    })
}

/// Store directories of one run: a temporary directory inside the working
/// directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let dir = cwd
            .join(".e2ebench-tmp")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn host() -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(rustc)),
    ])
}

fn config_record(spec: &Spec) -> Value {
    let mut non_default = Vec::new();
    if spec.durable {
        non_default.push(Value::Str(
            "ServiceConfig.persistence = PersistenceConfig::at(<run store dir>) (PerBatch fsync, snapshot_every 256, compact at 1 MiB)".into(),
        ));
    }
    if let Some(cap) = spec.max_resident {
        non_default.push(Value::Str(format!(
            "ServiceConfig.max_resident_tenants = {cap}"
        )));
    }
    let train = TrainOptions::default();
    obj(vec![
        ("tenants", Value::Num(spec.tenants as f64)),
        (
            "max_resident_tenants",
            num(spec.max_resident.map(|c| c as f64)),
        ),
        ("connections", Value::Num(CONNECTIONS as f64)),
        ("codec", Value::Str(spec.codec.name().into())),
        ("durable", Value::Bool(spec.durable)),
        ("alien_share", Value::Num(spec.alien_share)),
        ("tenant_zipf", num(spec.zipf)),
        (
            "flush_every_reports",
            num(spec.flush_every.map(|f| f as f64)),
        ),
        ("non_default_config", Value::Arr(non_default)),
        (
            "template",
            obj(vec![
                ("trees", Value::Num(train.forest.n_trees as f64)),
                (
                    "grid",
                    Value::Str(format!("{}x{}", train.max_vm, train.max_sl)),
                ),
                (
                    "training_queries",
                    Value::Arr(
                        smartpick_workloads::tpcds::TRAINING_QUERIES
                            .iter()
                            .map(|q| Value::Str(format!("tpcds-q{q}")))
                            .collect(),
                    ),
                ),
                ("seed", Value::Num(TEMPLATE_SEED as f64)),
            ]),
        ),
    ])
}

fn counts_record(acct: &Acct) -> Value {
    Value::Arr(
        acct.ops
            .iter()
            .map(|((phase, op), c)| {
                obj(vec![
                    ("phase", Value::Str(phase.clone())),
                    ("op", Value::Str((*op).to_owned())),
                    ("attempted", Value::Num(c.attempted as f64)),
                    ("succeeded", Value::Num(c.succeeded as f64)),
                    ("failed", Value::Num(c.failed as f64)),
                ])
            })
            .collect(),
    )
}

/// One workload's result.
struct Outcome {
    acct: Acct,
    e2e: Metrics,
    layer: Option<Metrics>,
}

fn run_workload(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let work = WorkDir::new(spec.name)?;
    let catalog = Catalog::new();
    let mut acct = Acct::default();
    let rounds_n = if trace { 1 } else { run::ROUNDS };
    let total = seconds as usize * spec.steps_per_second;
    let steps = total.div_ceil(run::ROUNDS as usize * CONNECTIONS).max(1);
    let mut rounds = Vec::new();
    let mut setup_s = Vec::new();
    // Set-ups without a phase are spread between the rounds, so the
    // `setup_s` median spans the whole run rather than one stretch of it.
    let extra = if trace {
        0
    } else {
        spec.setups.saturating_sub(rounds_n as usize)
    };
    for r in 0..rounds_n {
        let round = run::round(spec, &catalog, seed, r, steps, &work.0, &mut acct)?;
        setup_s.push(round.setup_s);
        rounds.push(round);
        let due = extra * (r as usize + 1) / rounds_n as usize;
        while setup_s.len() < rounds.len() + due {
            let n = setup_s.len();
            setup_s.push(run::setup_only(spec, seed, &work.0, n, &mut acct)?);
        }
    }
    let e2e = report::end_to_end(&rounds, &setup_s, &acct, spec.feedback);
    let mut traced = None;
    let mut layer = None;
    if trace {
        let reference = env::train_template()?;
        let t = run::traced(
            spec,
            &catalog,
            seed,
            spec.traced_steps,
            &work.0,
            &reference,
            &mut acct,
        )?;
        layer = Some(report::per_layer(&rounds, &t, &e2e));
        traced = Some(t);
    }
    report::print_table(spec.name, "end to end (untraced)", &e2e);
    if let Some(layer) = &layer {
        report::print_table(spec.name, "per layer (traced run and scrape deltas)", layer);
    }
    let mut record = vec![
        ("workload", Value::Str(spec.name.into())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("trace", Value::Bool(trace)),
        ("host", host()),
        ("config", config_record(spec)),
        ("rounds", Value::Num(rounds.len() as f64)),
        ("steps_per_connection_per_round", Value::Num(steps as f64)),
        (
            "setup_s_samples",
            Value::Arr(setup_s.iter().map(|&s| Value::Num(s)).collect()),
        ),
        (
            "per_round",
            Value::Arr(
                rounds
                    .iter()
                    .map(|r| {
                        let det = r.phase.pooled(|c| &c.determine_us);
                        obj(vec![
                            (
                                "throughput_ops_s",
                                num(report::throughput(std::slice::from_ref(r))),
                            ),
                            ("determine_p50_us", num(stats::median(&det))),
                            ("determine_p99_us", num(report::p99(&det))),
                            ("recover_s", num(r.recover_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("operations", counts_record(&acct)),
        ("mismatches", Value::Num(acct.mismatches as f64)),
        (
            "first_errors",
            Value::Arr(acct.first_errors.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let (Some(layer), Some(t)) = (&layer, &traced) {
        record.push(("traced_steps_per_connection", Value::Num(t.steps as f64)));
        record.push(("spans", Value::Num(t.spans.len() as f64)));
        record.push(("span_window_s", Value::Num(trace::window_s(&t.spans))));
        record.push(("breakdown", report::breakdown(layer, &e2e)));
    }
    println!(
        "record {}",
        serde_json::to_string(&obj(record)).map_err(|e| e.to_string())?
    );
    Ok(Outcome { acct, e2e, layer })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut acct = Acct::default();
    let mut metrics = Vec::new();
    for name in &names {
        let Some(mut spec) = workload::spec(name) else {
            eprintln!("e2ebench: unknown workload {name} (one of {WORKLOADS:?} or all)");
            return ExitCode::from(2);
        };
        if args.tiny {
            spec = spec.tiny();
        }
        // `all` prints every metric of both kinds, prefixed by workload.
        let trace = args.trace || names.len() > 1;
        let outcome = match run_workload(&spec, args.seed, args.seconds, trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let selected = if names.len() > 1 {
            vec![
                (&END_TO_END[..], &outcome.e2e),
                (&PER_LAYER[..], outcome.layer.as_ref().expect("traced")),
            ]
        } else if args.trace {
            vec![(&PER_LAYER[..], outcome.layer.as_ref().expect("traced"))]
        } else {
            vec![(&END_TO_END[..], &outcome.e2e)]
        };
        for (list, m) in selected {
            match report::result_metrics(list, m) {
                Ok(Value::Obj(pairs)) => {
                    for (k, v) in pairs {
                        let key = if names.len() > 1 {
                            format!("{name}/{k}")
                        } else {
                            k
                        };
                        metrics.push((key, v));
                    }
                }
                Ok(_) => unreachable!("result_metrics builds an object"),
                Err(e) => {
                    eprintln!("e2ebench: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        acct.merge(outcome.acct);
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(acct.mismatches == 0)),
        ("attempted".into(), Value::Num(acct.attempted() as f64)),
        ("failed".into(), Value::Num(acct.failed() as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    match serde_json::to_string(&line) {
        Ok(s) => {
            println!("{s}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
