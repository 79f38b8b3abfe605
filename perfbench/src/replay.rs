//! Layer-by-layer replay of the engine's work.
//!
//! The traced run feeds every call it makes to the system under test to
//! a shadow as well. The shadow redoes the engine's work one layer at a
//! time through each layer's public functions — `Ring`, `Batcher`,
//! `HdMapper`, `dual_pool`, `ShardedIndex`, `OnlineKMeans`, the fault
//! plan and the `StreamMeter` — and records a span around each layer
//! call. At the end the shadow's centroids, accumulators,
//! `StreamCounters` and chip ledger must equal the engine's bit for
//! bit, so the per-layer times measure the same work as the end-to-end
//! times.
//!
//! The shadow does not model shard quarantine: it fails the run if a
//! sense pass would trip one, since the engine would then defer work
//! the shadow does not.

use crate::spans::Spans;
use crate::workload::{System, Workload, TENANTS};
use dual_fault::{majority_read_bit, FaultPlan, HealingPolicy, SpareRowPool};
use dual_hdc::{Encoder, HdMapper, Hypervector};
use dual_obs::Key;
use dual_pim::{CostModel, EnergyBudget, Op, StreamMeter};
use dual_stream::{
    BackpressurePolicy, Batcher, CutReason, FaultConfig, OnlineKMeans, Ring, ShardedIndex,
    StreamConfig, StreamCounters, StreamEngine,
};
use dual_topology::QuotaSpec;
use std::hint::black_box;

/// Rows per crossbar block in the chip cost model.
const BLOCK_ROWS: usize = 1024;

/// Counts the replay accumulates beside its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Points offered to the ring.
    pub offered: u64,
    /// Points that went through a cut.
    pub points: u64,
    /// Batches cut.
    pub batches: u64,
    /// 64-bit words the assign stage compared: slots × ⌈D/64⌉ per point.
    pub index_words: u64,
    /// Sub-centroids re-binarized.
    pub rebinarized: u64,
    /// Sense passes over the stored centroids.
    pub sense_passes: u64,
    /// Raw reads that came back corrupted.
    pub injected: u64,
    /// Corrupted raw reads repaired by the majority vote.
    pub healed: u64,
}

impl Work {
    /// Fold another tally into this one.
    pub fn add(&mut self, o: &Work) {
        self.offered += o.offered;
        self.points += o.points;
        self.batches += o.batches;
        self.index_words += o.index_words;
        self.rebinarized += o.rebinarized;
        self.sense_passes += o.sense_passes;
        self.injected += o.injected;
        self.healed += o.healed;
    }
}

/// What one sense pass over the stored centroids saw.
#[derive(Debug, Clone)]
pub struct Sensed {
    /// The centroid array as the match lines read it, in slot order.
    pub views: Vec<Option<Hypervector>>,
    /// Raw reads that came back corrupted.
    pub injected: u64,
    /// Corrupted raw reads the majority vote repaired.
    pub healed: u64,
    /// Largest per-shard share of bits still wrong after healing.
    pub worst_shard: f64,
}

/// Read every stored sub-centroid through `plan` at logical `epoch`,
/// remapping dead or worn rows into `pool` and majority-voting re-reads
/// as `policy` provisions — the engine's sense stage, rebuilt from
/// `FaultPlan::read_bit`, `majority_read_bit` and `SpareRowPool`.
#[must_use]
pub fn sense_pass(
    plan: &FaultPlan,
    policy: HealingPolicy,
    pool: &mut SpareRowPool,
    centroids: &[Hypervector],
    shards: usize,
    epoch: u64,
) -> Sensed {
    let remap_threshold = plan.cols() / 100 + 1;
    let reads = policy.reads();
    let remap_on = policy.spares() > 0;
    let mut views = Vec::with_capacity(centroids.len());
    let mut injected = 0u64;
    let mut healed = 0u64;
    let mut worst_shard = 0.0f64;
    for range in dual_pool::chunk_ranges(centroids.len(), shards) {
        let mut bad = 0u64;
        let cells = range.len() * centroids.first().map_or(0, Hypervector::dim);
        for slot in range {
            let stored = &centroids[slot];
            if remap_on
                && !pool.is_remapped(slot)
                && (plan.is_dead_row(slot) || plan.row_fault_count(slot) >= remap_threshold)
            {
                let _spare = pool.remap(slot, plan);
            }
            let row = pool.resolve(slot);
            let mut seen = Hypervector::zeros(stored.dim());
            for c in 0..stored.dim() {
                let stored_bit = stored.bits().get(c);
                let raw = plan.read_bit(row, c, stored_bit, epoch.wrapping_mul(u64::from(reads)));
                let bit = if reads > 1 {
                    majority_read_bit(plan, row, c, stored_bit, epoch, reads)
                } else {
                    raw
                };
                if raw != stored_bit {
                    injected += 1;
                    if bit == stored_bit {
                        healed += 1;
                    }
                }
                if bit != stored_bit {
                    bad += 1;
                }
                seen.bits_mut().set(c, bit);
            }
            views.push(Some(seen));
        }
        if cells > 0 {
            worst_shard = worst_shard.max(bad as f64 / cells as f64);
        }
    }
    Sensed {
        views,
        injected,
        healed,
        worst_shard,
    }
}

/// The chip cost model's charges for one committed batch, in the order
/// the engine records them (encode, assign, update).
fn charge(
    meter: &mut StreamMeter,
    w: &Workload,
    n: u64,
    seeded: usize,
    rebinarized: u64,
    reads: u64,
) {
    let row_blocks = w.dim.div_ceil(BLOCK_ROWS).max(1) as u64;
    let m = w.features;
    let log_m = u64::from(m.max(2).next_power_of_two().trailing_zeros());
    meter.record_grid(Op::Mul { bits: 8 }, n * m as u64, row_blocks);
    meter.record_grid(Op::Add { bits: 16 }, n * (log_m + 3), row_blocks);
    meter.record_grid(Op::Mul { bits: 16 }, n * 4, row_blocks);

    let windows = w.dim.div_ceil(7) as u64;
    let centroid_blocks = seeded.div_ceil(BLOCK_ROWS).max(1) as u64;
    let stages = u64::from(usize::BITS - w.dim.leading_zeros()).div_ceil(4);
    meter.record_grid(Op::HammingWindow, n * windows * reads, centroid_blocks);
    meter.record_grid(Op::NearestStage, n * stages, centroid_blocks);

    meter.record_grid(Op::Add { bits: 16 }, n, row_blocks);
    let bits = u32::try_from(w.dim).unwrap_or(u32::MAX);
    meter.record_serial(Op::Write { bits }, rebinarized);
}

/// Modeled chip energy of one batch of `n` points against `seeded`
/// stored sub-centroids that re-binarizes `rebinarized` of them.
#[must_use]
pub fn batch_energy_pj(
    w: &Workload,
    n: usize,
    seeded: usize,
    rebinarized: usize,
    reads: u64,
) -> f64 {
    let mut meter = StreamMeter::new(CostModel::paper());
    charge(&mut meter, w, n as u64, seeded, rebinarized as u64, reads);
    meter.commit_batch(n as u64).energy_pj
}

/// Fault state the shadow keeps for a fault-injected engine.
#[derive(Debug, Clone)]
struct ShadowFault {
    plan: FaultPlan,
    policy: HealingPolicy,
    pool: SpareRowPool,
    threshold: f64,
}

/// One engine, replayed layer by layer.
#[derive(Debug, Clone)]
pub struct ShadowEngine {
    w: Workload,
    config: StreamConfig,
    encoder: HdMapper,
    ring: Ring<Vec<f64>>,
    batcher: Batcher,
    model: OnlineKMeans,
    meter: StreamMeter,
    counters: StreamCounters,
    fault: Option<ShadowFault>,
    /// Counts of the replayed work.
    pub work: Work,
}

impl ShadowEngine {
    /// A shadow of a fresh engine built from `config` (and `fault`).
    #[must_use]
    pub fn new(w: &Workload, config: StreamConfig, fault: Option<FaultConfig>) -> Self {
        let model = OnlineKMeans::new(
            w.dim,
            config.k,
            config.centroids_per_cluster,
            config.decay,
            config.shards,
        );
        let fault = fault.map(|f| ShadowFault {
            pool: SpareRowPool::new(model.slots(), f.policy.spares()),
            plan: f.plan,
            policy: f.policy,
            threshold: f.quarantine_threshold,
        });
        Self {
            w: *w,
            encoder: w.encoder(),
            ring: Ring::with_capacity(config.capacity),
            batcher: Batcher::new(config.max_batch, config.max_ticks),
            model,
            meter: StreamMeter::new(CostModel::paper()),
            counters: StreamCounters::default(),
            fault,
            config,
            work: Work::default(),
        }
    }

    /// Chip energy spent so far, picojoules.
    #[must_use]
    pub fn spent_pj(&self) -> f64 {
        self.meter.total().energy_pj()
    }

    /// Replay `StreamEngine::push_policed`.
    ///
    /// # Errors
    ///
    /// Encode errors, or a sense pass that would trip a quarantine.
    pub fn push(
        &mut self,
        point: &[f64],
        policy: BackpressurePolicy,
        spans: &mut Spans,
    ) -> Result<(), String> {
        self.work.offered += 1;
        let ring = &mut self.ring;
        let first = spans.time("ring.push", || ring.try_push(point.to_vec()));
        let Err(point) = first else {
            self.counters.ingested += 1;
            return Ok(());
        };
        match policy {
            BackpressurePolicy::Block => {
                self.counters.inline_flushes += 1;
                self.cut(CutReason::Backpressure, spans)?;
                let ring = &mut self.ring;
                let retry = spans.time("ring.push", || ring.try_push(point));
                if let Err(point) = retry {
                    let ring = &mut self.ring;
                    spans.time("ring.push", || ring.force_push(point));
                    self.counters.dropped += 1;
                }
                self.counters.ingested += 1;
            }
            BackpressurePolicy::DropOldest => {
                let ring = &mut self.ring;
                spans.time("ring.push", || ring.force_push(point));
                self.counters.dropped += 1;
                self.counters.ingested += 1;
            }
            BackpressurePolicy::Reject => self.counters.rejected += 1,
        }
        Ok(())
    }

    /// Replay `StreamEngine::tick`: advance the clock and cut every
    /// due batch.
    ///
    /// # Errors
    ///
    /// As [`ShadowEngine::push`].
    pub fn tick(&mut self, spans: &mut Spans) -> Result<(), String> {
        self.batcher.tick();
        while let Some(reason) = self.batcher.due(self.ring.len()) {
            self.cut(reason, spans)?;
        }
        Ok(())
    }

    /// Replay `StreamEngine::drain`.
    ///
    /// # Errors
    ///
    /// As [`ShadowEngine::push`].
    pub fn drain(&mut self, spans: &mut Spans) -> Result<(), String> {
        while !self.ring.is_empty() {
            self.cut(CutReason::Drain, spans)?;
        }
        Ok(())
    }

    /// Points buffered and not yet clustered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// One micro-batch: sense → pop → encode → assign/update → charge.
    fn cut(&mut self, reason: CutReason, spans: &mut Spans) -> Result<(), String> {
        let cut_span = spans.enter("replay.cut");
        let epoch = self.batcher.now();
        let shards = self.config.shards;
        let threads = self.config.threads;
        let views = match self.fault.as_mut() {
            None => None,
            Some(f) => {
                let centroids = self.model.centroids();
                let sensed = spans.time("fault.sense", || {
                    sense_pass(&f.plan, f.policy, &mut f.pool, centroids, shards, epoch)
                });
                if sensed.worst_shard > f.threshold {
                    return Err(format!(
                        "replay: a shard would be quarantined at tick {epoch}; \
                         the workload must stay inside the healing envelope"
                    ));
                }
                self.work.sense_passes += 1;
                self.work.injected += sensed.injected;
                self.work.healed += sensed.healed;
                Some(sensed.views)
            }
        };

        let ring = &mut self.ring;
        let max = self.config.max_batch;
        let rows = spans.time("ring.pop", || {
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(max);
            while rows.len() < max {
                match ring.pop() {
                    Some(p) => rows.push(p),
                    None => break,
                }
            }
            rows
        });
        let n = rows.len() as u64;

        let encoder = &self.encoder;
        spans.time("hdc.project", || {
            for r in &rows {
                black_box(encoder.project(r).ok());
            }
        });
        let serial = spans
            .time("hdc.encode", || {
                rows.iter()
                    .map(|r| encoder.encode(r))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("encode: {e}"))?;
        let pooled = spans.time("pool.encode", || {
            dual_pool::par_map_chunks(&rows, threads, |_, chunk| {
                chunk.iter().map(|r| encoder.encode(r)).collect()
            })
        });
        let encoded = pooled
            .into_iter()
            .collect::<Result<Vec<Hypervector>, _>>()
            .map_err(|e| format!("encode: {e}"))?;
        if encoded != serial {
            return Err("replay: pooled encode differs from serial encode".to_owned());
        }

        let model = &mut self.model;
        let update = spans.time("online.observe", || match &views {
            None => model.observe_batch(&encoded, threads),
            Some(v) => model
                .observe_batch_sensed(&encoded, threads, |slot, _| v.get(slot).cloned().flatten()),
        });
        // The assign stage once more on its own, over the same number of
        // live sub-centroids, to split observe_batch into assign and
        // update.
        let index = ShardedIndex::new(self.model.centroids().to_vec(), shards);
        black_box(spans.time("index.assign", || index.assign(&encoded, threads)));

        let seeded = self.model.seeded();
        let reads = self
            .fault
            .as_ref()
            .map_or(1, |f| u64::from(f.policy.reads()));
        let rebinarized = update.rebinarized as u64;
        charge(&mut self.meter, &self.w, n, seeded, rebinarized, reads);
        self.meter.commit_batch(n);

        let c = &mut self.counters;
        c.encoded += n;
        c.assigned += update.assignments.len() as u64;
        c.seeded += update.seeded as u64;
        c.rebinarized += rebinarized;
        c.batches += 1;
        match reason {
            CutReason::Size => c.size_cuts += 1,
            CutReason::Deadline => c.deadline_cuts += 1,
            CutReason::Drain => c.drain_cuts += 1,
            // Backpressure cuts count as inline flushes at the push.
            _ => {}
        }
        self.batcher.note_cut();

        self.work.points += n;
        self.work.batches += 1;
        self.work.rebinarized += rebinarized;
        self.work.index_words += n * (seeded * self.w.dim.div_ceil(64)) as u64;
        spans.exit(cut_span);
        Ok(())
    }

    /// Check that `engine` holds exactly the shadow's state.
    ///
    /// # Errors
    ///
    /// Names the first part that differs.
    pub fn verify(&self, engine: &StreamEngine<HdMapper>) -> Result<(), String> {
        if engine.counters() != self.counters {
            return Err(format!(
                "replay: counters differ: engine {:?} vs replay {:?}",
                engine.counters(),
                self.counters
            ));
        }
        if engine.model() != &self.model {
            return Err("replay: centroids or accumulators differ".to_owned());
        }
        let (a, b) = (engine.meter().total(), self.meter.total());
        if engine.meter() != &self.meter
            || a.time_ns().to_bits() != b.time_ns().to_bits()
            || a.energy_pj().to_bits() != b.energy_pj().to_bits()
            || !a.counts().eq(b.counts())
        {
            return Err("replay: chip ledger differs".to_owned());
        }
        if let Some(status) = engine.fault_status() {
            if status.injected != self.work.injected || status.healed != self.work.healed {
                return Err("replay: fault sense counts differ".to_owned());
            }
        }
        Ok(())
    }
}

/// One tenant of the replayed topology: its engine and admission ledger.
#[derive(Debug, Clone)]
struct ShadowTenant {
    engine: ShadowEngine,
    budget: EnergyBudget,
    quota: QuotaSpec,
    policy: BackpressurePolicy,
    deferred: u64,
    shed: u64,
    quota_rejected: u64,
}

/// The replay of a workload's system.
#[derive(Debug, Clone)]
pub struct Shadow {
    tenants: Vec<ShadowTenant>,
    topology: bool,
}

impl Shadow {
    /// A shadow of a freshly built system of workload `w`.
    #[must_use]
    pub fn new(w: &Workload) -> Self {
        if !w.tenants {
            let config = w.stream_config();
            return Self {
                tenants: vec![ShadowTenant {
                    policy: config.policy,
                    engine: ShadowEngine::new(w, config, None),
                    budget: EnergyBudget::unlimited(),
                    quota: QuotaSpec::unlimited(),
                    deferred: 0,
                    shed: 0,
                    quota_rejected: 0,
                }],
                topology: false,
            };
        }
        let tenants = w
            .tenant_specs()
            .into_iter()
            .map(|(spec, fault)| ShadowTenant {
                policy: spec.stream.policy,
                engine: ShadowEngine::new(w, spec.stream, fault),
                budget: EnergyBudget::per_tick(spec.quota.budget_pj_per_tick),
                quota: spec.quota,
                deferred: 0,
                shed: 0,
                quota_rejected: 0,
            })
            .collect();
        Self {
            tenants,
            topology: true,
        }
    }

    /// Replay a push to ingest stream `stream`, through the quota gate
    /// on a topology.
    ///
    /// # Errors
    ///
    /// As [`ShadowEngine::push`].
    pub fn push(&mut self, stream: usize, point: &[f64], spans: &mut Spans) -> Result<(), String> {
        let t = &mut self.tenants[stream];
        if !t.budget.over(t.engine.spent_pj()) {
            return t.engine.push(point, t.policy, spans);
        }
        match t.quota.escalation {
            BackpressurePolicy::Reject => {
                t.engine.work.offered += 1;
                t.quota_rejected += 1;
                Ok(())
            }
            BackpressurePolicy::DropOldest => {
                let before = t.engine.counters.dropped;
                t.engine
                    .push(point, BackpressurePolicy::DropOldest, spans)?;
                t.shed += t.engine.counters.dropped - before;
                Ok(())
            }
            BackpressurePolicy::Block => t.engine.push(point, t.policy, spans),
        }
    }

    /// Replay a tick: on a topology, grant every tenant its credit and
    /// defer the ones over budget.
    ///
    /// # Errors
    ///
    /// As [`ShadowEngine::push`].
    pub fn tick(&mut self, spans: &mut Spans) -> Result<(), String> {
        if !self.topology {
            return self.tenants[0].engine.tick(spans);
        }
        for t in &mut self.tenants {
            t.budget.grant_tick();
        }
        for t in &mut self.tenants {
            if t.budget.over(t.engine.spent_pj()) {
                t.deferred += 1;
            } else {
                t.engine.tick(spans)?;
            }
        }
        Ok(())
    }

    /// Replay a drain of every engine.
    ///
    /// # Errors
    ///
    /// As [`ShadowEngine::push`].
    pub fn drain(&mut self, spans: &mut Spans) -> Result<(), String> {
        for t in &mut self.tenants {
            t.engine.drain(spans)?;
        }
        Ok(())
    }

    /// Buffered points of ingest stream `stream`.
    #[must_use]
    pub fn pending(&self, stream: usize) -> usize {
        self.tenants[stream].engine.pending()
    }

    /// Work counts summed over every engine.
    #[must_use]
    pub fn work(&self) -> Work {
        let mut total = Work::default();
        for t in &self.tenants {
            total.add(&t.engine.work);
        }
        total
    }

    /// Scheduler deferrals over tenant-ticks, 0 for a single engine.
    #[must_use]
    pub fn deferred(&self) -> u64 {
        self.tenants.iter().map(|t| t.deferred).sum()
    }

    /// Check the system holds exactly the replayed state.
    ///
    /// # Errors
    ///
    /// Names the tenant and the first part that differs.
    pub fn verify(&self, system: &System) -> Result<(), String> {
        let engines = system.engines();
        if engines.len() != self.tenants.len() {
            return Err("replay: engine count differs".to_owned());
        }
        for ((t, engine), name) in self.tenants.iter().zip(engines).zip(TENANTS) {
            let label = if self.topology { name } else { "engine" };
            t.engine
                .verify(engine)
                .map_err(|e| format!("{label}: {e}"))?;
            let reg = engine.obs_registry();
            if self.topology
                && (reg.counter(Key::TopoDeferred) != t.deferred
                    || reg.counter(Key::TopoQuotaShed) != t.shed
                    || reg.counter(Key::TopoQuotaRejected) != t.quota_rejected)
            {
                return Err(format!("{label}: replay: admission ledger differs"));
            }
        }
        Ok(())
    }
}
