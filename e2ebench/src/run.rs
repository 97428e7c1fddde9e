//! One benchmark run: timed set-ups and measured closed-loop phases with
//! their output checks and reopen, then — with `--trace 1` — the traced
//! passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use smartpick_core::driver::Smartpick;
use smartpick_obs::{MetricValue, ScrapeEnvelope};
use smartpick_wire::WireClient;

use crate::closed_loop::{
    check_against_service, compare, probe_in_process, probe_wire, probes, resource_manager,
    run_phase, PhaseOutcome,
};
use crate::env::{self, serve, start_service, Setup};
use crate::passes::{self, PassTotals, StoreTotals};
use crate::stats::Acct;
use crate::trace::{Span, SpanIndex};
use crate::workload::{stream, Catalog, Spec, Step, CONNECTIONS};

/// Timed set-ups (and measured phases) of an untraced run; `setup_s`
/// is their median.
pub const ROUNDS: u64 = 3;

/// Determinations per connection read-hot executes after its phase, for
/// its prediction error.
const QUALITY_SAMPLE: usize = 250;

/// Pings per connection in the traced wire pass.
const PINGS: usize = 300;

/// Counters read from the scrape, around each measured phase.
const DELTA_COUNTERS: [&str; 12] = [
    "service.predictions",
    "service.reports_enqueued",
    "service.reports_applied",
    "service.retrains",
    "service.rejections",
    "service.residency.evictions",
    "service.residency.rehydrations",
    "wire.busy_rejections",
    "store.wal_bytes_written",
    "store.wal_records_appended",
    "store.snapshot_bytes_written",
    "store.snapshots_persisted",
];

/// One scrape's counters, plus the sum of every worker's batches.
fn counters(scrape: &ScrapeEnvelope) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = DELTA_COUNTERS
        .iter()
        .map(|&n| (n.to_owned(), scrape.counter(n) as f64))
        .collect();
    let batches: u64 = scrape
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("service.worker.") && m.name.ends_with(".batches"))
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    out.insert("service.worker.batches".into(), batches as f64);
    out
}

fn scrape(
    client: &mut WireClient,
    phase: &str,
    acct: &mut Acct,
    scrape_us: &mut Vec<f64>,
) -> Option<ScrapeEnvelope> {
    let t0 = Instant::now();
    let r = client.scrape(0);
    scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
    acct.note(phase, "scrape", &r);
    r.ok()
}

/// One measured round.
#[derive(Debug)]
pub struct Round {
    pub setup_s: f64,
    pub register_us: Vec<f64>,
    pub phase: PhaseOutcome,
    /// Counter deltas across the measured phase.
    pub delta: BTreeMap<String, f64>,
    /// The program's own rehydration latency median after the phase.
    pub rehydrate_p50_us: Option<f64>,
    pub scrape_us: Vec<f64>,
    pub recover_s: Option<f64>,
    pub recovery_duration_us: Option<f64>,
    pub wal_records_replayed: Option<f64>,
    /// Read-hot: relative errors and execution times of its sample.
    pub sample_rel_err: Vec<f64>,
    pub sample_execute_us: Vec<f64>,
}

pub fn streams(
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    round: u64,
    steps: usize,
) -> Vec<Vec<Step>> {
    (0..CONNECTIONS)
        .map(|conn| stream(spec, catalog, seed, round, conn, steps))
        .collect()
}

/// Set up, run the closed loop, check the outputs, shut down, reopen
/// (durable workloads) and check again.
pub fn round(
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    round: u64,
    steps: usize,
    work: &Path,
    acct: &mut Acct,
) -> Result<Round, String> {
    let dir = spec.durable.then(|| work.join(format!("round-{round}")));
    let Setup {
        mut env,
        seconds: setup_s,
        register_us,
    } = env::setup(spec, seed, dir, acct)?;
    let streams = streams(spec, catalog, seed, round, steps);
    let mut scrape_us = Vec::new();
    let before = scrape(&mut env.clients[0], "measure", acct, &mut scrape_us);
    let mut phase = run_phase(&mut env, spec, catalog, &streams);
    let after = scrape(&mut env.clients[0], "measure", acct, &mut scrape_us);
    let mut delta = BTreeMap::new();
    let mut rehydrate_p50_us = None;
    if let (Some(before), Some(after)) = (&before, &after) {
        let (b, a) = (counters(before), counters(after));
        for (name, v) in a {
            delta.insert(name.clone(), v - b.get(&name).copied().unwrap_or(0.0));
        }
        if let Some(MetricValue::Histogram(h)) = after
            .metric("service.residency.rehydrate_latency")
            .map(|m| &m.value)
        {
            rehydrate_p50_us = (h.count > 0).then_some(h.p50_us as f64);
        }
    }
    for c in &mut phase.conns {
        acct.merge(std::mem::take(&mut c.acct));
    }

    // Output checks.
    let probes = probes(spec, catalog, seed);
    let mut before_shutdown = None;
    if spec.feedback {
        let r = env.clients[0].flush();
        acct.note("check", "flush", &r);
    } else {
        acct.merge(check_against_service(
            &env.service,
            catalog,
            &streams,
            &phase,
        ));
    }
    if spec.durable {
        let wire = probe_wire(&mut env.clients[0], catalog, &probes, "check", acct);
        let local = probe_in_process(&env.service, catalog, &probes, acct);
        compare(
            acct,
            "after the final flush, over the wire vs in process",
            &wire,
            &local,
            &probes,
        );
        before_shutdown = Some(wire);
    }
    let mut sample_rel_err = Vec::new();
    let mut sample_execute_us = Vec::new();
    if !spec.feedback {
        let rm = resource_manager();
        for (c, steps) in phase.conns.iter().zip(&streams) {
            for (k, det) in c.dets.iter().take(QUALITY_SAMPLE) {
                let step = steps[*k];
                let t0 = Instant::now();
                let r = rm.execute(
                    &catalog.queries[step.query],
                    &det.allocation,
                    step.exec_seed,
                );
                sample_execute_us.push(t0.elapsed().as_secs_f64() * 1e6);
                acct.note("check", "execute", &r);
                if let Ok(report) = r {
                    sample_rel_err
                        .push((det.predicted_seconds - report.seconds()).abs() / report.seconds());
                }
            }
        }
    }
    let dir = env.close();

    // Reopen the directory the workload left; the first determine served
    // ends `recover_s`.
    let mut recover_s = None;
    let mut recovery_duration_us = None;
    let mut wal_records_replayed = None;
    if let (Some(dir), Some(before_shutdown)) = (&dir, before_shutdown) {
        let template = env::train_template()?;
        let t0 = Instant::now();
        let service = start_service(spec, Some(dir))?;
        let mut env = serve(spec, service, template, Some(dir.clone()))?;
        let mut answers = probe_wire(&mut env.clients[0], catalog, &probes[..1], "recover", acct);
        recover_s = Some(t0.elapsed().as_secs_f64());
        answers.extend(probe_wire(
            &mut env.clients[0],
            catalog,
            &probes[1..],
            "recover",
            acct,
        ));
        compare(
            acct,
            "after the reopen vs before shutdown",
            &answers,
            &before_shutdown,
            &probes,
        );
        if let Some(s) = scrape(&mut env.clients[0], "recover", acct, &mut scrape_us) {
            recovery_duration_us = Some(s.gauge("store.recovery_duration_us") as f64);
            wal_records_replayed = Some(s.counter("store.wal_records_replayed") as f64);
        }
        env.close();
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Round {
        setup_s,
        register_us,
        phase,
        delta,
        rehydrate_p50_us,
        scrape_us,
        recover_s,
        recovery_duration_us,
        wal_records_replayed,
        sample_rel_err,
        sample_execute_us,
    })
}

/// Everything the traced run recorded.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub totals: PassTotals,
    pub store: StoreTotals,
    pub steps: usize,
}

impl Traced {
    pub fn index(&self) -> SpanIndex {
        SpanIndex::new(&self.spans)
    }
}

/// The traced run over the first `steps` steps of round 0's stream, on a
/// fresh environment and a twin service.
pub fn traced(
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    steps: usize,
    work: &Path,
    reference: &Smartpick,
    acct: &mut Acct,
) -> Result<Traced, String> {
    let streams = streams(spec, catalog, seed, 0, steps);
    let epoch = Instant::now();
    let mut out = Traced {
        steps,
        ..Traced::default()
    };
    let Setup { mut env, .. } = env::setup(
        spec,
        seed,
        spec.durable.then(|| work.join("trace-wire")),
        acct,
    )?;
    // The twin keeps every tenant hot: it only sees reports, and its
    // report spans should time the enqueue, not a rehydration.
    let twin_spec = Spec {
        max_resident: None,
        ..spec.clone()
    };
    let twin_dir = spec.durable.then(|| work.join("trace-twin"));
    if let Some(dir) = &twin_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    }
    let twin = start_service(&twin_spec, twin_dir.as_deref())?;
    out.spans.extend(passes::register_pass(
        spec, seed, &twin, reference, epoch, acct,
    ));
    out.spans
        .extend(passes::ping_pass(&mut env, PINGS, epoch, acct));
    let (spans, totals) = passes::traced_pass(
        &mut env, &twin, spec, catalog, seed, reference, &streams, epoch, acct,
    );
    out.spans.extend(spans);
    out.totals = totals;
    twin.flush();
    drop(twin);
    if let Some(dir) = env.close() {
        let _ = std::fs::remove_dir_all(dir);
    }
    let wals = match &twin_dir {
        Some(dir) => passes::read_wals(dir)?,
        None => Vec::new(),
    };
    if let Some(dir) = twin_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let store_dir = work.join("trace-store");
    let (spans, totals) =
        passes::store_pass(spec, seed, reference, &store_dir, &wals, epoch, acct)?;
    out.spans.extend(spans);
    out.store = totals;
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(out)
}

/// A set-up with nothing measured after it: more `setup_s` samples.
pub fn setup_only(
    spec: &Spec,
    seed: u64,
    work: &Path,
    n: usize,
    acct: &mut Acct,
) -> Result<f64, String> {
    let dir = spec.durable.then(|| work.join(format!("setup-{n}")));
    let Setup { env, seconds, .. } = env::setup(spec, seed, dir, acct)?;
    if let Some(dir) = env.close() {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(seconds)
}
