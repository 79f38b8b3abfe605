//! The three named workloads and the system each one drives.
//!
//! Every workload clusters drifting Gaussian blobs from
//! `dual_data::DriftSpec`; the seed picks the stream and the system sees
//! only the generated points. Arrival `i` goes to ingest stream
//! `i % streams` and a tick follows every `tick_every`-th arrival, so
//! the sequence of `push`/`tick`/`drain` calls is a function of the
//! workload alone, never of wall time.

use crate::latency::Seen;
use crate::replay::batch_energy_pj;
use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::HdMapper;
use dual_obs::Key;
use dual_pim::CostModel;
use dual_stream::{BackpressurePolicy, FaultConfig, StreamConfig, StreamEngine};
use dual_topology::{QuotaSpec, TenantSpec, Topology};
use dual_trace::{AlertRule, Signal};

/// Tenant names of `tenants-durable`, in registration order; arrival
/// `i` goes to `TENANTS[i % 3]`.
pub const TENANTS: [&str; 3] = ["wal", "faulty", "capped"];

/// Encoder base-matrix seed, shared by every workload and tenant.
const ENCODER_SEED: u64 = 7;
/// Fault-plan seed of the `faulty` tenant.
const PLAN_SEED: u64 = 0x00F1_1647;
/// Spare rows provisioned for the `faulty` tenant.
const SPARES: usize = 4;
/// Share of its steady-state energy demand the `capped` tenant is
/// granted per tick: just below 1, so the scheduler defers some of its
/// ticks and its full ring flushes inline instead; no point is lost.
const CAPPED_SHARE: f64 = 0.98;

/// Shape and schedule of one workload. Every field is a constant of the
/// workload; nothing is derived from a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Hypervector dimension D.
    pub dim: usize,
    /// Features per point m.
    pub features: usize,
    /// Drifting blobs in the data stream.
    pub blobs: usize,
    /// Clusters k.
    pub k: usize,
    /// Sub-centroids per cluster.
    pub centroids_per_cluster: usize,
    /// Micro-batch size.
    pub batch: usize,
    /// Encode/assign worker threads, set explicitly so `DUAL_THREADS`
    /// cannot change it.
    pub threads: usize,
    /// Shards of the sub-centroid index.
    pub shards: usize,
    /// Encoder kernel bandwidth.
    pub sigma: f64,
    /// Hosted in a three-tenant `Topology` instead of one engine.
    pub tenants: bool,
    /// A tick follows every `tick_every`-th arrival.
    pub tick_every: usize,
    /// Points in one closed-loop firehose pass.
    pub firehose_points: usize,
    /// Held-out points after the firehose prefix, scored on the final
    /// centroids.
    pub heldout_points: usize,
    /// Open-loop offered rate, points per second: about half the
    /// firehose capacity measured on the reference host (2-vCPU Xeon).
    pub offered_rate: f64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "encode-d4000",
        dim: 4000,
        features: 16,
        blobs: 8,
        k: 8,
        centroids_per_cluster: 2,
        batch: 256,
        threads: 1,
        shards: 4,
        sigma: 6.0,
        tenants: false,
        tick_every: 64,
        firehose_points: 4096,
        heldout_points: 2048,
        offered_rate: 2000.0,
    },
    Workload {
        name: "search-s1024",
        dim: 1000,
        features: 4,
        blobs: 256,
        k: 256,
        centroids_per_cluster: 4,
        batch: 256,
        threads: 2,
        shards: 4,
        sigma: 6.0,
        tenants: false,
        tick_every: 64,
        firehose_points: 8192,
        heldout_points: 8192,
        offered_rate: 7000.0,
    },
    Workload {
        name: "tenants-durable",
        dim: 1000,
        features: 12,
        blobs: 8,
        k: 8,
        centroids_per_cluster: 2,
        batch: 32,
        threads: 1,
        shards: 4,
        sigma: 6.0,
        tenants: true,
        tick_every: 48,
        firehose_points: 6144,
        heldout_points: 3072,
        offered_rate: 4200.0,
    },
];

impl Workload {
    /// The workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Sub-centroid slots per engine.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.k * self.centroids_per_cluster
    }

    /// Ingest streams: one per tenant, or the single engine.
    #[must_use]
    pub fn streams(&self) -> usize {
        if self.tenants {
            TENANTS.len()
        } else {
            1
        }
    }

    /// The encoder every engine of the workload uses.
    ///
    /// # Panics
    ///
    /// Never for the constant workload shapes.
    #[must_use]
    pub fn encoder(&self) -> HdMapper {
        HdMapper::builder(self.dim, self.features)
            .seed(ENCODER_SEED)
            .sigma(self.sigma)
            .build()
            .expect("workload encoder shapes are valid")
    }

    /// The stream configuration of a plain engine (and of the `wal` /
    /// `faulty` tenants before their extras).
    #[must_use]
    pub fn stream_config(&self) -> StreamConfig {
        let mut cfg = StreamConfig::new(self.k);
        cfg.capacity = 1024;
        cfg.policy = BackpressurePolicy::Block;
        cfg.max_batch = self.batch;
        cfg.max_ticks = 4;
        cfg.centroids_per_cluster = self.centroids_per_cluster;
        cfg.decay = 0.95;
        cfg.shards = self.shards;
        cfg.threads = self.threads;
        cfg
    }

    /// The `faulty` tenant's stuck + flip + dead-row plan, fully healed.
    ///
    /// # Panics
    ///
    /// Never: the rates are constants in range.
    #[must_use]
    pub fn fault_config(&self) -> FaultConfig {
        let mut spec = FaultPlanSpec::clean(self.slots() + SPARES, self.dim);
        spec.seed = PLAN_SEED;
        spec.stuck_rate = 0.002;
        spec.dead_row_rate = 0.1;
        spec.flip_rate = 0.01;
        let plan = FaultPlan::new(spec).expect("constant fault rates are valid");
        FaultConfig::new(plan).with_policy(HealingPolicy::Full {
            spares: SPARES,
            reads: 3,
        })
    }

    /// The `capped` tenant's quota: `CAPPED_SHARE` of the chip energy
    /// its steady-state arrivals cost per tick, priced on the paper's
    /// cost model, with `Block` escalation: over budget, pushes keep the
    /// engine's lossless ring policy, so the quota defers ticks but never
    /// sheds or refuses a point.
    #[must_use]
    pub fn capped_quota(&self) -> QuotaSpec {
        let per_batch = batch_energy_pj(self, self.batch, self.slots(), self.slots(), 1);
        let arrivals_per_tick = (self.tick_every / TENANTS.len()) as f64;
        let demand = per_batch * arrivals_per_tick / self.batch as f64;
        QuotaSpec::per_tick(CAPPED_SHARE * demand).with_escalation(BackpressurePolicy::Block)
    }

    /// Per-tenant specs and fault configs of `tenants-durable`.
    #[must_use]
    pub fn tenant_specs(&self) -> Vec<(TenantSpec, Option<FaultConfig>)> {
        let mut wal = self.stream_config();
        wal.snapshot_every = 1;
        let mut capped = self.stream_config();
        // One batch of room: a deferred tick at a full batch flushes inline.
        capped.capacity = self.batch;
        vec![
            (TenantSpec::new(TENANTS[0], wal), None),
            (
                TenantSpec::new(TENANTS[1], self.stream_config()),
                Some(self.fault_config()),
            ),
            (
                TenantSpec::new(TENANTS[2], capped).with_quota(self.capped_quota()),
                None,
            ),
        ]
    }

    /// Build the system under test: the encoders, fault plans, engines
    /// or topology, and alert rules. This is what `setup_s` times.
    ///
    /// # Errors
    ///
    /// Any configuration error the engine or topology reports.
    pub fn build(&self) -> Result<System, String> {
        if !self.tenants {
            return StreamEngine::new(self.encoder(), self.stream_config())
                .map(System::Engine)
                .map_err(|e| format!("engine: {e}"));
        }
        let mut topo = Topology::new();
        for (spec, fault) in self.tenant_specs() {
            topo.add_tenant_with(spec, self.encoder(), CostModel::paper(), fault)
                .map_err(|e| format!("tenant: {e}"))?;
        }
        topo.set_alerts(service_rules())
            .map_err(|e| format!("alerts: {e}"))?;
        Ok(System::Topology(topo))
    }

    /// The first `n` points of the seeded stream with their true blob
    /// labels.
    #[must_use]
    pub fn inputs(&self, seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        DriftSpec::new(self.features, self.blobs)
            .stream(seed)
            .take(n)
            .unzip()
    }
}

/// Service-level alert rules of `tenants-durable`: rising edges on
/// scheduler deferrals and on quota shedding.
#[must_use]
pub fn service_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::edge("deferral", Signal::Delta(Key::TopoDeferred), 1.0),
        AlertRule::edge("quota-shed", Signal::Delta(Key::TopoQuotaShed), 1.0),
    ]
}

/// The system a workload drives.
// One value per run, never stored in bulk: boxing a variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum System {
    /// One streaming engine.
    Engine(StreamEngine<HdMapper>),
    /// The three-tenant service.
    Topology(Topology<HdMapper>),
}

impl System {
    /// Offer one point to ingest stream `stream`.
    ///
    /// # Errors
    ///
    /// Any error the call returns.
    pub fn push(&mut self, stream: usize, point: &[f64]) -> Result<(), String> {
        match self {
            Self::Engine(e) => e.push(point).map(drop).map_err(|e| format!("push: {e}")),
            Self::Topology(t) => t
                .push(TENANTS[stream], point)
                .map(drop)
                .map_err(|e| format!("push: {e}")),
        }
    }

    /// Advance the logical clock one tick.
    ///
    /// # Errors
    ///
    /// Any error the call returns.
    pub fn tick(&mut self) -> Result<(), String> {
        match self {
            Self::Engine(e) => e.tick().map(drop).map_err(|e| format!("tick: {e}")),
            Self::Topology(t) => t.tick().map(drop).map_err(|e| format!("tick: {e}")),
        }
    }

    /// Flush every buffered point.
    ///
    /// # Errors
    ///
    /// Any error the call returns.
    pub fn drain(&mut self) -> Result<(), String> {
        match self {
            Self::Engine(e) => e.drain().map(drop).map_err(|e| format!("drain: {e}")),
            Self::Topology(t) => t.drain_all().map(drop).map_err(|e| format!("drain: {e}")),
        }
    }

    /// The engines, one per ingest stream.
    #[must_use]
    pub fn engines(&self) -> Vec<&StreamEngine<HdMapper>> {
        match self {
            Self::Engine(e) => vec![e],
            Self::Topology(t) => TENANTS
                .iter()
                .filter_map(|name| t.engine(name).ok())
                .collect(),
        }
    }

    /// Outcome counters of ingest stream `stream`; quota rejects at the
    /// topology gate count as rejected.
    #[must_use]
    pub fn seen(&self, stream: usize) -> Seen {
        let engine = match self {
            Self::Engine(e) => e,
            Self::Topology(t) => match t.engine(TENANTS[stream]) {
                Ok(e) => e,
                Err(_) => return Seen::default(),
            },
        };
        let c = engine.counters();
        Seen {
            assigned: c.assigned,
            dropped: c.dropped,
            rejected: c.rejected + engine.obs_registry().counter(Key::TopoQuotaRejected),
        }
    }
}
