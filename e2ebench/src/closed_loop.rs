//! The closed loop: each connection sends its next request only after
//! the previous reply arrived. On read-hot a step is one determine; on
//! the feedback workloads it is determine → execute locally on the
//! cloudsim Resource Manager (the engine stand-in) → `report_run`, with a
//! `flush` after every `flush_every` reports. Execution is generator-side
//! work and is excluded from every latency.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::rm::ResourceManager;
use smartpick_core::wp::Determination;
use smartpick_service::{CompletedRun, SmartpickService};
use smartpick_wire::{codec, WireClient};

use crate::env::Env;
use crate::stats::Acct;
use crate::workload::{mix, tenant_id, Catalog, Spec, Step, CONNECTIONS};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A bitwise fingerprint of a determination: FNV-1a over its binary
/// encoding, in which every `f64` travels as its raw bits.
pub fn answer_hash(det: &Determination, buf: &mut Vec<u8>) -> u64 {
    codec::encode_envelope_into(det, buf);
    buf.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub determine_us: Vec<f64>,
    pub report_us: Vec<f64>,
    pub flush_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    pub rel_err: Vec<f64>,
    pub steps_done: u64,
    pub acct: Acct,
    /// `(step, answer)` of every answered determine on read-hot, for the
    /// output checks, which run after the phase: the loop itself does no
    /// client work beyond the protocol.
    pub dets: Vec<(usize, Determination)>,
    pub started: Option<Instant>,
    /// When each completed step ended.
    pub step_ends: Vec<Instant>,
}

/// Blocks per connection and phase that throughput is taken over.
const THROUGHPUT_BLOCKS: usize = 10;

pub fn resource_manager() -> ResourceManager {
    ResourceManager::new(CloudEnv::new(Provider::Aws))
}

fn run_connection(
    client: &mut WireClient,
    spec: &Spec,
    catalog: &Catalog,
    steps: &[Step],
) -> ConnOutcome {
    let mut out = ConnOutcome {
        started: Some(Instant::now()),
        ..ConnOutcome::default()
    };
    let rm = resource_manager();
    let phase = "measure";
    for (k, step) in steps.iter().enumerate() {
        let tenant = tenant_id(step.tenant);
        let query = &catalog.queries[step.query];
        let t0 = Instant::now();
        let r = client.determine(tenant.as_str(), query, step.seed);
        let dt = t0.elapsed();
        out.acct.note(phase, "determine", &r);
        let Ok(det) = r else { continue };
        out.determine_us.push(us(dt));
        if !spec.feedback {
            out.dets.push((k, det));
            out.steps_done += 1;
            out.step_ends.push(Instant::now());
            continue;
        }
        let t1 = Instant::now();
        let executed = rm.execute(query, &det.allocation, step.exec_seed);
        out.execute_us.push(us(t1.elapsed()));
        out.acct.note(phase, "execute", &executed);
        let Ok(report) = executed else { continue };
        out.rel_err
            .push((det.predicted_seconds - report.seconds()).abs() / report.seconds());
        let run = CompletedRun {
            query: query.clone(),
            determination: det,
            report,
        };
        let t2 = Instant::now();
        let r = client.report_run(tenant.as_str(), run);
        let dt = t2.elapsed();
        out.acct.note(phase, "report_run", &r);
        if r.is_ok() {
            out.report_us.push(us(dt));
        }
        if step.flush_after {
            let t3 = Instant::now();
            let r = client.flush();
            let dt = t3.elapsed();
            out.acct.note(phase, "flush", &r);
            if r.is_ok() {
                out.flush_us.push(us(dt));
            }
        }
        out.steps_done += 1;
        out.step_ends.push(Instant::now());
    }
    out
}

#[derive(Debug)]
pub struct PhaseOutcome {
    pub conns: Vec<ConnOutcome>,
    /// Most tenants resident at once, sampled every 20 ms.
    pub resident_peak: usize,
}

impl PhaseOutcome {
    /// Each connection's step rate over consecutive blocks of a tenth of
    /// its steps, steps per second.
    pub fn block_rates(&self) -> Vec<Vec<f64>> {
        self.conns
            .iter()
            .map(|c| {
                let Some(start) = c.started else {
                    return Vec::new();
                };
                let block = (c.step_ends.len() / THROUGHPUT_BLOCKS).max(1);
                let mut from = start;
                c.step_ends
                    .chunks_exact(block)
                    .filter_map(|chunk| {
                        let end = *chunk.last()?;
                        let secs = end.duration_since(from).as_secs_f64();
                        from = end;
                        (secs > 0.0).then(|| chunk.len() as f64 / secs)
                    })
                    .collect()
            })
            .collect()
    }

    pub fn pooled(&self, f: impl Fn(&ConnOutcome) -> &Vec<f64>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }
}

/// Runs every connection's steps concurrently, one thread per
/// connection, all released by one barrier.
pub fn run_phase(
    env: &mut Env,
    spec: &Spec,
    catalog: &Catalog,
    streams: &[Vec<Step>],
) -> PhaseOutcome {
    let Env {
        service, clients, ..
    } = env;
    let service: &SmartpickService = service;
    let barrier = Barrier::new(CONNECTIONS + 1);
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let conns = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(service.resident_tenants(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, steps)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run_connection(client, spec, catalog, steps)
                })
            })
            .collect();
        barrier.wait();
        let conns: Vec<ConnOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        monitor.join().expect("residency monitor panicked");
        conns
    });
    PhaseOutcome {
        conns,
        resident_peak: peak.load(Ordering::Relaxed),
    }
}

/// Read-hot's output check: every over-wire answer must equal, bit for
/// bit, the in-process answer to the same request.
pub fn check_against_service(
    service: &SmartpickService,
    catalog: &Catalog,
    streams: &[Vec<Step>],
    outcome: &PhaseOutcome,
) -> Acct {
    let per_conn: Vec<Acct> = std::thread::scope(|s| {
        let handles: Vec<_> = outcome
            .conns
            .iter()
            .zip(streams)
            .map(|(c, steps)| {
                s.spawn(move || {
                    let mut acct = Acct::default();
                    let mut buf = Vec::new();
                    for (k, wire_det) in &c.dets {
                        let (k, step) = (*k, steps[*k]);
                        let wire_hash = answer_hash(wire_det, &mut buf);
                        let r = service.determine(
                            &tenant_id(step.tenant),
                            &catalog.queries[step.query],
                            step.seed,
                        );
                        acct.note("check", "determine_in_process", &r);
                        if let Ok(det) = r {
                            if answer_hash(&det, &mut buf) != wire_hash {
                                acct.mismatch(format!(
                                    "check: over-wire answer differs from in-process ({}, step {k})",
                                    tenant_id(step.tenant)
                                ));
                            }
                        }
                    }
                    acct
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut acct = Acct::default();
    for a in per_conn {
        acct.merge(a);
    }
    acct
}

/// A sampled tenant request the durable workloads answer over the wire,
/// in process, and again after the reopen.
#[derive(Debug, Clone)]
pub struct Probe {
    pub tenant: usize,
    pub query: usize,
    pub seed: u64,
}

/// Eight tenants spread over the population, each asked one known and
/// one alien query.
pub fn probes(spec: &Spec, catalog: &Catalog, seed: u64) -> Vec<Probe> {
    let n = spec.tenants.min(8);
    (0..n)
        .flat_map(|j| {
            let tenant = j * spec.tenants / n;
            [
                (catalog.known[j % catalog.known.len()], 2 * j),
                (catalog.alien[j % catalog.alien.len()], 2 * j + 1),
            ]
            .map(|(query, k)| Probe {
                tenant,
                query,
                seed: mix(seed, 0x9B0BE, k as u64),
            })
        })
        .collect()
}

pub fn probe_wire(
    client: &mut WireClient,
    catalog: &Catalog,
    probes: &[Probe],
    phase: &'static str,
    acct: &mut Acct,
) -> Vec<Option<u64>> {
    let mut buf = Vec::new();
    probes
        .iter()
        .map(|p| {
            let r = client.determine(tenant_id(p.tenant), &catalog.queries[p.query], p.seed);
            acct.note(phase, "determine", &r);
            r.ok().map(|d| answer_hash(&d, &mut buf))
        })
        .collect()
}

pub fn probe_in_process(
    service: &SmartpickService,
    catalog: &Catalog,
    probes: &[Probe],
    acct: &mut Acct,
) -> Vec<Option<u64>> {
    let mut buf = Vec::new();
    probes
        .iter()
        .map(|p| {
            let r = service.determine(&tenant_id(p.tenant), &catalog.queries[p.query], p.seed);
            acct.note("check", "determine_in_process", &r);
            r.ok().map(|d| answer_hash(&d, &mut buf))
        })
        .collect()
}

/// Counts a mismatch for every probe answered on both sides differently.
pub fn compare(
    acct: &mut Acct,
    what: &str,
    left: &[Option<u64>],
    right: &[Option<u64>],
    probes: &[Probe],
) {
    for ((l, r), p) in left.iter().zip(right).zip(probes) {
        if let (Some(l), Some(r)) = (l, r) {
            if l != r {
                acct.mismatch(format!(
                    "{what}: {} answered differently",
                    tenant_id(p.tenant)
                ));
            }
        }
    }
}
