//! The traced run: the seeded operation stream replayed so that every
//! operation goes through each layer's public entry point in turn, one
//! span per call, all spans of the operation sharing its id:
//!
//! * wire — `WireClient` against the served environment;
//! * codec — `smartpick_wire::codec` (or the JSON codec) encoding and
//!   decoding that operation's request and response;
//! * service — `SmartpickService` in process: a determine goes to the
//!   served service itself (reads change nothing), once before the wire
//!   call (the service layer, rehydration included) and once after it
//!   (resident, as the wire call left the tenant: the wire's lower
//!   layer); a report, a flush and each registration go to a twin
//!   service with the same config, so no report is applied twice;
//! * core — the tenant snapshot's `WorkloadPredictor::determine` (the
//!   served tenant's current model) and `Smartpick::apply_report` on a
//!   twin driver forked exactly as the service forks it;
//! * store — `Snapshot::{encode, decode}` and `Store::persist_snapshot`
//!   on registration snapshots, and `wal::scan_wal` plus the report
//!   payload decode over the twin service's write-ahead logs.
//!
//! Calling the layers back to back for one operation keeps the per-op
//! differences (self times) free of drift between separate passes.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use smartpick_core::driver::Smartpick;
use smartpick_core::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
use smartpick_service::{CompletedRun, SmartpickService};
use smartpick_store::{wal::scan_wal, Snapshot, Store, WalPayload};
use smartpick_wire::{codec, Codec, Request, Response, WireClient};

use crate::closed_loop::resource_manager;
use crate::env::Env;
use crate::stats::Acct;
use crate::trace::{op_id, OpKind, Span, Tracer};
use crate::workload::{fork_seed, tenant_id, Catalog, Spec, Step, CONNECTIONS};

fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles
        .into_iter()
        .map(|h| h.join().expect("traced pass thread panicked"))
        .collect()
}

/// Registration, ping and store spans get ids of their own, apart from
/// steps.
fn other_id(conn: usize, i: usize) -> u64 {
    op_id(conn, (1 << 36) + i, OpKind::Other)
}

/// `pings` pings per connection, concurrently: the wire's floor.
pub fn ping_pass(env: &mut Env, pings: usize, epoch: Instant, acct: &mut Acct) -> Vec<Span> {
    let results = std::thread::scope(|s| {
        let handles = env
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut acct = Acct::default();
                    for i in 0..pings {
                        let r = tracer.time(other_id(conn, i), "wire.ping", || client.ping());
                        acct.note("trace", "ping", &r);
                    }
                    (tracer.spans, acct)
                })
            })
            .collect();
        join_all(handles)
    });
    let mut spans = Vec::new();
    for (s, a) in results {
        spans.extend(s);
        acct.merge(a);
    }
    spans
}

/// Registers every tenant on the twin service in process, one thread per
/// connection over the tenants it owns.
pub fn register_pass(
    spec: &Spec,
    seed: u64,
    twin: &SmartpickService,
    reference: &Smartpick,
    epoch: Instant,
    acct: &mut Acct,
) -> Vec<Span> {
    let results = std::thread::scope(|s| {
        let handles = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut acct = Acct::default();
                    for i in spec.owned_tenants(conn) {
                        let r = tracer.time(other_id(conn, i), "service.register", || {
                            twin.register_fork(tenant_id(i), reference, fork_seed(seed, i))
                        });
                        acct.note("trace", "register", &r);
                    }
                    (tracer.spans, acct)
                })
            })
            .collect();
        join_all(handles)
    });
    let mut spans = Vec::new();
    for (s, a) in results {
        spans.extend(s);
        acct.merge(a);
    }
    spans
}

/// Encoded sizes the codec spans saw, bytes.
#[derive(Debug, Default)]
pub struct CodecBytes {
    pub determine_response: Vec<f64>,
    pub report_request: Vec<f64>,
}

/// Encodes and decodes one request and its response in `kind`, inside
/// the `wire.codec.encode` / `wire.codec.decode` spans of `op`. Returns
/// the encoded request and response sizes.
fn codec_roundtrip(
    tracer: &mut Tracer,
    op: u64,
    kind: Codec,
    request: &Request,
    response: &Response,
    acct: &mut Acct,
) -> (usize, usize) {
    let (ok, sizes) = match kind {
        Codec::Binary => {
            let (mut req, mut resp) = (Vec::new(), Vec::new());
            tracer.time(op, "wire.codec.encode", || {
                codec::encode_envelope_into(request, &mut req);
                codec::encode_response_into(response, &mut resp);
            });
            let ok = tracer.time(op, "wire.codec.decode", || {
                let a = codec::decode_envelope::<Request>(&req);
                let b = codec::decode_response(&resp);
                black_box(a.is_ok() && b.is_ok())
            });
            (ok, (req.len(), resp.len()))
        }
        Codec::Json => {
            let (mut req, mut resp) = (String::new(), String::new());
            let encoded = tracer.time(op, "wire.codec.encode", || {
                let a = serde_json::to_string_into(request, &mut req);
                let b = serde_json::to_string_into(response, &mut resp);
                a.is_ok() && b.is_ok()
            });
            let ok = tracer.time(op, "wire.codec.decode", || {
                let a = serde_json::from_str::<Request>(&req);
                let b = serde_json::from_str::<Response>(&resp);
                black_box(a.is_ok() && b.is_ok())
            });
            (encoded && ok, (req.len(), resp.len()))
        }
    };
    let r: Result<(), &str> = if ok {
        Ok(())
    } else {
        Err("codec round trip failed")
    };
    acct.note("trace", "codec_roundtrip", &r);
    sizes
}

/// Totals of the traced pass besides spans.
#[derive(Debug, Default)]
pub struct PassTotals {
    pub codec: CodecBytes,
    pub determines: u64,
    pub evaluations: u64,
}

impl PassTotals {
    fn merge(&mut self, other: PassTotals) {
        self.codec
            .determine_response
            .extend(other.codec.determine_response);
        self.codec.report_request.extend(other.codec.report_request);
        self.determines += other.determines;
        self.evaluations += other.evaluations;
    }
}

/// One connection's traced replay.
#[allow(clippy::too_many_arguments)]
fn trace_connection(
    client: &mut WireClient,
    service: &SmartpickService,
    twin: &SmartpickService,
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    reference: &Smartpick,
    conn: usize,
    steps: &[Step],
    epoch: Instant,
) -> (Vec<Span>, Acct, PassTotals) {
    let mut tracer = Tracer::new(epoch);
    let mut acct = Acct::default();
    let mut totals = PassTotals::default();
    let rm = resource_manager();
    let mut drivers: HashMap<usize, Smartpick> = if spec.feedback {
        spec.owned_tenants(conn)
            .into_iter()
            .map(|i| (i, reference.fork(fork_seed(seed, i))))
            .collect()
    } else {
        HashMap::new()
    };
    for (k, step) in steps.iter().enumerate() {
        let tenant = tenant_id(step.tenant);
        let query = &catalog.queries[step.query];

        // Determine: service, wire, codec, core. The service call comes
        // first so that it, not the wire call, pays any rehydration the
        // workload's residency state implies; a second, resident call
        // after the wire call is the wire's lower layer.
        let op = op_id(conn, k, OpKind::Determine);
        let r = tracer.time(op, "service.determine", || {
            service.determine(&tenant, query, step.seed)
        });
        acct.note("trace", "determine_in_process", &r);
        let r = tracer.time(op, "wire.determine", || {
            client.determine(tenant.as_str(), query, step.seed)
        });
        acct.note("trace", "determine", &r);
        let Ok(det) = r else { continue };
        let request = Request::Determine {
            tenant: tenant.clone(),
            query: query.clone(),
            seed: step.seed,
        };
        let response = Response::Determination(det.clone());
        let (_, bytes) =
            codec_roundtrip(&mut tracer, op, spec.codec, &request, &response, &mut acct);
        totals.codec.determine_response.push(bytes as f64);
        let r = tracer.time(op, "service.determine_resident", || {
            service.determine(&tenant, query, step.seed)
        });
        acct.note("trace", "determine_in_process", &r);
        let snapshot = service.inspect_tenant(&tenant, |d| (d.snapshot(), d.properties().knob));
        acct.note("trace", "inspect_tenant", &snapshot);
        if let Ok((snapshot, knob)) = snapshot {
            let request = PredictionRequest {
                query: query.clone(),
                knob,
                constraint: ConstraintMode::Hybrid,
                seed: step.seed,
            };
            let r = tracer.time(op, "core.determine", || snapshot.determine(&request));
            acct.note("trace", "core_determine", &r);
            if let Ok(d) = r {
                totals.determines += 1;
                totals.evaluations += d.evaluations as u64;
            }
        }
        if !spec.feedback {
            continue;
        }

        // Execute locally, then report: wire, codec, service (twin),
        // core (twin driver).
        let executed = rm.execute(query, &det.allocation, step.exec_seed);
        acct.note("trace", "execute", &executed);
        let Ok(report) = executed else { continue };
        let run = CompletedRun {
            query: query.clone(),
            determination: det,
            report,
        };
        let op = op_id(conn, k, OpKind::Report);
        let sent = run.clone();
        let r = tracer.time(op, "wire.report_run", || {
            client.report_run(tenant.as_str(), sent)
        });
        acct.note("trace", "report_run", &r);
        let request = Request::ReportRun {
            tenant: tenant.clone(),
            run: Box::new(run.clone()),
        };
        let (bytes, _) = codec_roundtrip(
            &mut tracer,
            op,
            spec.codec,
            &request,
            &Response::ReportAccepted,
            &mut acct,
        );
        totals.codec.report_request.push(bytes as f64);
        let twin_run = run.clone();
        let r = tracer.time(op, "service.report_run", || {
            twin.report_run(&tenant, twin_run)
        });
        acct.note("trace", "report_run_in_process", &r);
        if let Some(driver) = drivers.get_mut(&step.tenant) {
            let start = Instant::now();
            let r = driver.apply_report(&run.query, &run.determination, &run.report);
            let dur = start.elapsed();
            tracer.record(op, "core.apply_report", start, dur);
            if let Ok(Some(_)) = r {
                tracer.record(op, "core.retrain", start, dur);
            }
            acct.note("trace", "apply_report", &r);
        }
        if step.flush_after {
            let op = op_id(conn, k, OpKind::Flush);
            let r = tracer.time(op, "wire.flush", || client.flush());
            acct.note("trace", "flush", &r);
            let flushed = tracer.time(op, "service.flush", || twin.flush());
            let r: Result<(), &str> = if flushed { Ok(()) } else { Err("flush failed") };
            acct.note("trace", "flush_in_process", &r);
        }
    }
    (tracer.spans, acct, totals)
}

/// Replays `streams` through every layer, one thread per connection.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    env: &mut Env,
    twin: &SmartpickService,
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    reference: &Smartpick,
    streams: &[Vec<Step>],
    epoch: Instant,
    acct: &mut Acct,
) -> (Vec<Span>, PassTotals) {
    let Env {
        service, clients, ..
    } = env;
    let service: &SmartpickService = service;
    let results = std::thread::scope(|s| {
        let handles = clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(conn, (client, steps))| {
                s.spawn(move || {
                    trace_connection(
                        client, service, twin, spec, catalog, seed, reference, conn, steps, epoch,
                    )
                })
            })
            .collect();
        join_all(handles)
    });
    let mut spans = Vec::new();
    let mut totals = PassTotals::default();
    for (s, a, t) in results {
        spans.extend(s);
        acct.merge(a);
        totals.merge(t);
    }
    (spans, totals)
}

/// What the store pass measured besides spans.
#[derive(Debug, Default)]
pub struct StoreTotals {
    pub snapshot_bytes: Vec<f64>,
    pub wal_records: u64,
}

/// Tenants whose registration snapshot the store pass writes.
const STORE_SAMPLE: usize = 32;

/// Reads every write-ahead log under a store root.
pub fn read_wals(dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    let Ok(entries) = std::fs::read_dir(dir.join("wal")) else {
        return Ok(Vec::new());
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("read {p:?}: {e}")))
        .collect()
}

/// The store pass: the registration snapshot of a sample of tenants (the
/// fork's state, as `register_tenant` persists it) encoded, decoded and
/// persisted with fsync into a throwaway store; then every write-ahead log
/// scanned, and each report record's payload decoded as recovery
/// decodes it.
pub fn store_pass(
    spec: &Spec,
    seed: u64,
    reference: &Smartpick,
    dir: &Path,
    wals: &[Vec<u8>],
    epoch: Instant,
    acct: &mut Acct,
) -> Result<(Vec<Span>, StoreTotals), String> {
    let store = Store::open(dir).map_err(|e| format!("open store {dir:?}: {e}"))?;
    let mut tracer = Tracer::new(epoch);
    let mut totals = StoreTotals::default();
    let n = spec.tenants.min(STORE_SAMPLE);
    for j in 0..n {
        let i = j * spec.tenants / n;
        let op = other_id(0, i);
        let snapshot = Snapshot {
            tenant: tenant_id(i),
            epoch: 1,
            generation: 0,
            watermark: 0,
            state: reference.fork(fork_seed(seed, i)).export_state(),
        };
        let bytes = tracer.time(op, "store.snapshot_encode", || snapshot.encode());
        totals.snapshot_bytes.push(bytes.len() as f64);
        let decoded = tracer.time(op, "store.snapshot_decode", || Snapshot::decode(&bytes));
        acct.note("trace", "snapshot_decode", &decoded);
        let persisted = tracer.time(op, "store.persist_snapshot", || {
            store.persist_snapshot(&snapshot)
        });
        acct.note("trace", "persist_snapshot", &persisted);
    }
    for (w, bytes) in wals.iter().enumerate() {
        let scan = tracer.time(other_id(1, w), "store.wal_scan", || scan_wal(bytes));
        acct.note("trace", "wal_scan", &scan);
        let Ok(scan) = scan else { continue };
        totals.wal_records += scan.records.len() as u64;
        for (r, record) in scan.records.iter().enumerate() {
            if let WalPayload::Report { run_json, .. } = &record.payload {
                let decoded =
                    tracer.time(other_id(2, (w << 24) + r), "store.wal_decode_run", || {
                        serde_json::from_str::<CompletedRun>(run_json)
                    });
                acct.note("trace", "wal_decode_run", &decoded);
            }
        }
    }
    Ok((tracer.spans, totals))
}
