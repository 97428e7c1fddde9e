//! The three workloads and the seeded operation streams that drive them.
//!
//! Every input the program receives is generated here from the run's
//! `--seed`: which tenant each step touches, which TPC-DS query at which
//! input size, the search seed, the local execution seed, and each
//! tenant's fork seed. The template model is not an input: it is the
//! program's default `Smartpick::train` on the five TPC-DS training
//! queries, trained with a fixed seed so every run serves the same model.

use smartpick_engine::QueryProfile;
use smartpick_wire::Codec;
use smartpick_workloads::tpcds;

/// Seed of the template model every tenant is forked from.
pub const TEMPLATE_SEED: u64 = 42;

/// Closed-loop connections: one per core of the reference box, each
/// with one request in flight (a caller sizing a query waits for it).
pub const CONNECTIONS: usize = 2;

/// The three input sizes every query is drawn at, GB.
pub const INPUT_SIZES_GB: [f64; 3] = [50.0, 100.0, 200.0];

/// Wire seeds stay below 2^52: the wire's number model is `f64`.
const SEED_MASK: u64 = (1 << 52) - 1;

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Registered tenants.
    pub tenants: usize,
    /// `ServiceConfig::max_resident_tenants`, when the workload sets it.
    pub max_resident: Option<usize>,
    /// Tenants live in a store directory (`SmartpickService::open`).
    pub durable: bool,
    /// The payload codec both connections speak.
    pub codec: Codec,
    /// Each step is determine → execute → report, not determine alone.
    pub feedback: bool,
    /// Share of steps that size an alien (similarity-matched) query.
    pub alien_share: f64,
    /// Zipf exponent of tenant popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// A connection sends `flush` after this many of its reports.
    pub flush_every: Option<usize>,
    /// Steps per second of `--seconds` in the measured phases: the run
    /// does a fixed operation count, the same on every machine.
    pub steps_per_second: usize,
    /// Steps per connection replayed by the traced run.
    pub traced_steps: usize,
    /// Timed set-ups in an untraced run (at least one per measured round);
    /// `setup_s` is their median.
    pub setups: usize,
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "read-hot" => Spec {
            name: "read-hot",
            tenants: 64,
            max_resident: None,
            durable: false,
            codec: Codec::Binary,
            feedback: false,
            alien_share: 0.5,
            zipf: Some(1.0),
            flush_every: None,
            steps_per_second: 2500,
            traced_steps: 1500,
            setups: 15,
        },
        "feedback-mix" => Spec {
            name: "feedback-mix",
            tenants: 64,
            max_resident: None,
            durable: true,
            codec: Codec::Json,
            feedback: true,
            alien_share: 0.2,
            zipf: Some(1.0),
            flush_every: Some(16),
            steps_per_second: 500,
            traced_steps: 500,
            setups: 5,
        },
        "churn-cold" => Spec {
            name: "churn-cold",
            tenants: 512,
            max_resident: Some(32),
            durable: true,
            codec: Codec::Binary,
            feedback: true,
            alien_share: 0.2,
            zipf: None,
            flush_every: Some(16),
            steps_per_second: 300,
            traced_steps: 300,
            setups: 5,
        },
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 3] = ["read-hot", "feedback-mix", "churn-cold"];

impl Spec {
    /// The tiny scale the smoke test runs: same shape, a fraction of
    /// the tenants and steps.
    pub fn tiny(mut self) -> Spec {
        self.tenants = (self.tenants / 16).max(4);
        self.max_resident = self.max_resident.map(|cap| (cap / 16).max(2));
        self.steps_per_second = (self.steps_per_second / 20).max(4);
        self.traced_steps = (self.traced_steps / 20).max(8);
        self
    }

    /// Tenants connection `conn` owns: a caller (one analytics engine)
    /// sizes queries for its own tenants, so each tenant's operations
    /// arrive in one order on one connection.
    pub fn owned_tenants(&self, conn: usize) -> Vec<usize> {
        (conn..self.tenants).step_by(CONNECTIONS).collect()
    }
}

pub fn tenant_id(i: usize) -> String {
    format!("t{i:03}")
}

/// The query catalog: known (training) and alien TPC-DS queries, each
/// at every input size.
#[derive(Debug)]
pub struct Catalog {
    pub queries: Vec<QueryProfile>,
    pub known: Vec<usize>,
    pub alien: Vec<usize>,
}

impl Catalog {
    pub fn new() -> Catalog {
        let mut queries = Vec::new();
        let mut known = Vec::new();
        let mut alien = Vec::new();
        for (ids, out) in [
            (&tpcds::TRAINING_QUERIES, &mut known),
            (&tpcds::ALIEN_QUERIES, &mut alien),
        ] {
            for &q in ids.iter() {
                for &gb in &INPUT_SIZES_GB {
                    out.push(queries.len());
                    queries.push(tpcds::query(q, gb).expect("catalog query"));
                }
            }
        }
        Catalog {
            queries,
            known,
            alien,
        }
    }
}

/// The training set of the template: the five training queries at
/// their calibration size.
pub fn training_queries() -> Vec<QueryProfile> {
    tpcds::TRAINING_QUERIES
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect()
}

/// One closed-loop step of one connection.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub tenant: usize,
    pub query: usize,
    /// Search seed of the determine.
    pub seed: u64,
    /// Seed of the local execution (feedback workloads).
    pub exec_seed: u64,
    /// Send `flush` after this step's report.
    pub flush_after: bool,
}

/// SplitMix64: small, seedable, and enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// A derived seed for `(seed, stream, index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = Rng::new(
        seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    rng.next_u64() & SEED_MASK
}

/// The fork seed of tenant `i` (sent with its registration).
pub fn fork_seed(seed: u64, i: usize) -> u64 {
    mix(seed, 0xF0F0, i as u64)
}

/// Connection `conn`'s steps for one round.
pub fn stream(
    spec: &Spec,
    catalog: &Catalog,
    seed: u64,
    round: u64,
    conn: usize,
    steps: usize,
) -> Vec<Step> {
    let owned = spec.owned_tenants(conn);
    let mut rng = Rng::new(mix(seed, 0x5EED + round, conn as u64));
    // Popularity: rank r (1-based) has weight r^-s.
    let cdf: Vec<f64> = match spec.zipf {
        Some(s) => {
            let mut acc = 0.0;
            let w: Vec<f64> = (1..=owned.len())
                .map(|r| {
                    acc += (r as f64).powf(-s);
                    acc
                })
                .collect();
            w.iter().map(|x| x / acc).collect()
        }
        None => Vec::new(),
    };
    let mut reports = 0usize;
    (0..steps)
        .map(|_| {
            let tenant = if cdf.is_empty() {
                owned[rng.below(owned.len())]
            } else {
                let u = rng.unit();
                owned[cdf.partition_point(|&c| c < u).min(owned.len() - 1)]
            };
            let pool = if rng.unit() < spec.alien_share {
                &catalog.alien
            } else {
                &catalog.known
            };
            let query = pool[rng.below(pool.len())];
            let seed = rng.next_u64() & SEED_MASK;
            let exec_seed = rng.next_u64() & SEED_MASK;
            let flush_after = match (spec.feedback, spec.flush_every) {
                (true, Some(every)) => {
                    reports += 1;
                    reports.is_multiple_of(every)
                }
                _ => false,
            };
            Step {
                tenant,
                query,
                seed,
                exec_seed,
                flush_after,
            }
        })
        .collect()
}
