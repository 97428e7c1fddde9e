//! Building, tearing down and reopening one serving environment: the
//! template model, a `SmartpickService` with the program's default
//! config, a `WireServer` with its default config in front of it, and
//! the closed-loop connections.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_service::{PersistenceConfig, ServiceConfig, SmartpickService};
use smartpick_wire::{Codec, WireClient, WireServer, WireServerConfig};

use crate::stats::Acct;
use crate::workload::{fork_seed, tenant_id, training_queries, Spec, CONNECTIONS, TEMPLATE_SEED};

/// A client that waits this long for any one reply is counted failed
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The program's default `Smartpick::train` on the TPC-DS training set.
pub fn train_template() -> Result<Smartpick, String> {
    Smartpick::train(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &training_queries(),
        TEMPLATE_SEED,
    )
    .map_err(|e| format!("template training failed: {e}"))
}

/// The default service config plus the only fields a workload sets.
pub fn service_config(spec: &Spec, dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        persistence: dir.map(PersistenceConfig::at),
        max_resident_tenants: spec.max_resident,
        ..ServiceConfig::default()
    }
}

/// Starts a service: in memory, or opened (and recovered) over `dir`.
pub fn start_service(spec: &Spec, dir: Option<&Path>) -> Result<SmartpickService, String> {
    let config = service_config(spec, dir);
    match dir {
        Some(dir) => SmartpickService::open(dir, config).map_err(|e| format!("open {dir:?}: {e}")),
        None => Ok(SmartpickService::new(config)),
    }
}

pub struct Env {
    pub service: Arc<SmartpickService>,
    pub server: WireServer,
    pub clients: Vec<WireClient>,
    pub dir: Option<PathBuf>,
}

/// What one timed set-up produced.
pub struct Setup {
    pub env: Env,
    pub seconds: f64,
    /// Over-wire registration round trips, µs.
    pub register_us: Vec<f64>,
}

pub fn connect(addr: SocketAddr, codec: Codec) -> Result<WireClient, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_io_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    if codec == Codec::Binary {
        let upgraded = client
            .negotiate_binary()
            .map_err(|e| format!("negotiate binary: {e}"))?;
        if !upgraded {
            return Err("server refused the binary codec".into());
        }
    }
    Ok(client)
}

/// Binds a wire server over `service` and opens the closed-loop
/// connections.
pub fn serve(
    spec: &Spec,
    service: SmartpickService,
    template: Smartpick,
    dir: Option<PathBuf>,
) -> Result<Env, String> {
    let service = Arc::new(service);
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template,
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| connect(server.local_addr(), spec.codec))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Env {
        service,
        server,
        clients,
        dir,
    })
}

/// The timed set-up: train the template, start the service and the
/// server, connect, and register every tenant over the wire (each
/// connection registers the tenants it owns).
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: Option<PathBuf>,
    acct: &mut Acct,
) -> Result<Setup, String> {
    let start = Instant::now();
    let template = train_template()?;
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    }
    let service = start_service(spec, dir.as_deref())?;
    let mut env = serve(spec, service, template, dir)?;
    let per_conn: Vec<(Acct, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || {
                    let mut acct = Acct::default();
                    let mut lat = Vec::new();
                    for i in spec.owned_tenants(conn) {
                        let t0 = Instant::now();
                        let r = client.register_tenant(tenant_id(i), fork_seed(seed, i));
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        acct.note("setup", "register", &r);
                    }
                    (acct, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("registration thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut register_us = Vec::new();
    for (a, lat) in per_conn {
        acct.merge(a);
        register_us.extend(lat);
    }
    Ok(Setup {
        env,
        seconds,
        register_us,
    })
}

impl Env {
    /// Stops the server, then the service (joining every thread both
    /// started). The store directory, if any, stays for a reopen.
    pub fn close(self) -> Option<PathBuf> {
        let Env {
            service,
            mut server,
            clients,
            dir,
        } = self;
        drop(clients);
        server.shutdown();
        drop(server);
        // The server's handler threads are joined, so this is the last
        // handle; wait out any straggler before the directory is reused.
        let mut service = service;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(service) {
                Ok(last) => {
                    drop(last);
                    break;
                }
                Err(shared) if Instant::now() < deadline => {
                    service = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        dir
    }
}
