//! The rack-scale fleet layer: shards the tenant space across N sockets ×
//! M DSA devices and proves the parallel run bit-identical to a
//! sequential replay.
//!
//! A [`Fleet`] is built from a validated [`FleetConfig`] and a
//! deterministic [`ShardPlan`]: each shard owns a contiguous tenant
//! range, its own [`DsaService`] (hence its own `DsaRuntime` and
//! binary-heap action queue), and its own SplitMix64 stream seeded
//! from the master seed in shard order. Shards share *nothing* — no
//! atomics, no locks, no channels; the only cross-shard effects are the
//! static platform adjustments the plan computes up front (DDIO-way
//! splits per socket, UPI bandwidth shares for crossing shards). Lint
//! rule R8 (`shard-isolation`) checks that lexically and through the
//! call graph.
//!
//! # The parallel-determinism proof
//!
//! [`Fleet::run_parallel`] forks K worker threads over contiguous shard
//! chunks with `std::thread::scope`; each worker writes finished
//! [`ShardReport`]s into its own disjoint slice of the result vector, so
//! the join is a plain scope exit — no synchronization primitives, no
//! result reordering. [`Fleet::run_sequential`] runs the identical shard
//! closure in a plain loop. Because every shard is a pure function of its
//! [`ShardAssignment`], both produce the same per-shard FNV-1a digests,
//! and [`FleetReport::digest`] merges them **in shard order** through
//! [`dsa_core::digest::merge_in_order`] — one number that must be
//! bit-identical across thread counts. The `fleet_determinism` tier-1
//! test pins exactly that for K ∈ {1, 2, 8} over three placement
//! policies.

use crate::plan::PlanSpec;
use crate::service::{DsaService, ServiceConfig, ServiceReport};
use crate::shard::{ShardAssignment, ShardPlan};
use crate::slo::SloTarget;
use crate::tenant::{QosClass, TenantSpec};
use dsa_core::backend::PoolPolicy;
use dsa_core::digest::{merge_in_order, Digestible, Fnv1a};
use dsa_core::error::DsaError;
use dsa_mem::topology::Platform;
use dsa_sim::stats::DurationHistogram;
use dsa_sim::time::{SimDuration, SimTime};

/// The uniform workload template stamped out for every tenant in the
/// fleet (tenant `i`'s spec is `profile.spec(i)`). Kept as plain data —
/// not closures — so a [`FleetConfig`] stays `Send + Sync` and the plan
/// stays a pure function of the config.
#[derive(Clone, Copy, Debug)]
pub struct TenantProfile {
    /// Bytes moved per job.
    pub xfer: u64,
    /// Jobs per tenant before the stream goes idle.
    pub jobs: u64,
    /// Open-loop arrival gap; `None` runs a closed loop with zero think.
    pub open_gap: Option<SimDuration>,
    /// Per-job deadline (misses and admission sheds feed the p999 /
    /// miss-rate curves).
    pub deadline: Option<SimDuration>,
    /// Every `latency_every`-th tenant is [`QosClass::Latency`]
    /// (0 = everyone is throughput class).
    pub latency_every: u64,
    /// In-flight window depth per tenant.
    pub outstanding: usize,
    /// Every `aggressor_every`-th tenant (0 = none) is a bulk aggressor:
    /// 8× the base transfer size, held back until [`aggressor_start`] —
    /// the mid-run churn that makes a statically-chosen plan go stale.
    ///
    /// [`aggressor_start`]: TenantProfile::aggressor_start
    pub aggressor_every: u64,
    /// When the aggressor tenants begin submitting (ignored when
    /// `aggressor_every` is 0).
    pub aggressor_start: SimDuration,
}

impl TenantProfile {
    /// A small-transfer profile suited to large tenant counts: 2 KiB
    /// jobs, closed loop, depth 4, no deadline, all throughput class.
    pub fn small() -> TenantProfile {
        TenantProfile {
            xfer: 2 << 10,
            jobs: 2,
            open_gap: None,
            deadline: None,
            latency_every: 0,
            outstanding: 4,
            aggressor_every: 0,
            aggressor_start: SimDuration::ZERO,
        }
    }

    /// The spec stamped out for global tenant id `gid`.
    pub fn spec(&self, gid: u64) -> TenantSpec {
        let mut spec = TenantSpec::new(&format!("t{gid}"), self.xfer, self.jobs)
            .with_outstanding(self.outstanding)
            .with_retry_budget(2);
        if let Some(gap) = self.open_gap {
            spec = spec.with_arrival(crate::arrival::Arrival::open(gap));
        }
        if let Some(d) = self.deadline {
            spec = spec.with_deadline(d);
        }
        if self.latency_every > 0 && gid.is_multiple_of(self.latency_every) {
            spec = spec.with_class(QosClass::Latency);
        }
        if self.aggressor_every > 0 && gid.is_multiple_of(self.aggressor_every) {
            spec.xfer = self.xfer.saturating_mul(8);
            spec = spec.with_start(self.aggressor_start);
        }
        spec
    }
}

/// Rack-shape + workload configuration for a [`Fleet`]. Built exclusively
/// through [`FleetConfig::builder`]; the fields are private so every
/// constructed config has passed validation.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    sockets: u32,
    devices_per_socket: u32,
    shards: u32,
    tenants: u64,
    placement: PoolPolicy,
    plan: PlanSpec,
    seed: u64,
    platform: Platform,
    profile: TenantProfile,
    slo: Option<SloTarget>,
}

impl FleetConfig {
    /// Starts a builder with the defaults: 2 sockets × 4 devices, 8
    /// shards, 1024 tenants, [`PoolPolicy::NumaLocal`] placement,
    /// [`PlanSpec::Shared`] inside each shard, [`Platform::spr`], no SLO,
    /// and [`TenantProfile::small`].
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            sockets: 2,
            devices_per_socket: 4,
            shards: 8,
            tenants: 1024,
            placement: PoolPolicy::NumaLocal,
            plan: PlanSpec::Shared,
            seed: 0xF1EE_7D5A,
            platform: Platform::spr(),
            profile: TenantProfile::small(),
            slo: None,
        }
    }

    /// Total tenants across the fleet.
    pub fn tenants(&self) -> u64 {
        self.tenants
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Sockets in the rack shape.
    pub fn sockets(&self) -> u32 {
        self.sockets
    }

    /// DSA devices per socket.
    pub fn devices_per_socket(&self) -> u32 {
        self.devices_per_socket
    }

    /// Shard-to-slot placement policy.
    pub fn placement(&self) -> PoolPolicy {
        self.placement
    }

    /// Intra-shard placement recipe.
    pub fn plan(&self) -> &PlanSpec {
        &self.plan
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-tenant workload template.
    pub fn profile(&self) -> TenantProfile {
        self.profile
    }

    /// The SLO target every shard's service carries, when one is set.
    pub fn slo(&self) -> Option<&SloTarget> {
        self.slo.as_ref()
    }
}

/// By-value builder for [`FleetConfig`]. See [`FleetConfig::builder`].
#[derive(Clone, Debug)]
pub struct FleetBuilder {
    sockets: u32,
    devices_per_socket: u32,
    shards: u32,
    tenants: u64,
    placement: PoolPolicy,
    plan: PlanSpec,
    seed: u64,
    platform: Platform,
    profile: TenantProfile,
    slo: Option<SloTarget>,
}

impl FleetBuilder {
    /// Sets the socket count of the rack shape.
    pub fn sockets(mut self, sockets: u32) -> FleetBuilder {
        self.sockets = sockets;
        self
    }

    /// Sets the DSA device count per socket.
    pub fn devices_per_socket(mut self, devices: u32) -> FleetBuilder {
        self.devices_per_socket = devices;
        self
    }

    /// Sets the shard count.
    pub fn shards(mut self, shards: u32) -> FleetBuilder {
        self.shards = shards;
        self
    }

    /// Sets the total tenant count partitioned across shards.
    pub fn tenants(mut self, tenants: u64) -> FleetBuilder {
        self.tenants = tenants;
        self
    }

    /// Sets the shard-to-slot placement policy.
    pub fn placement(mut self, placement: PoolPolicy) -> FleetBuilder {
        self.placement = placement;
        self
    }

    /// Sets the placement recipe every shard's service uses internally.
    /// Accepts a [`PlanSpec`] or a concrete [`Plan`](crate::plan::Plan)
    /// (via `Into`).
    pub fn plan(mut self, plan: impl Into<PlanSpec>) -> FleetBuilder {
        self.plan = plan.into();
        self
    }

    /// Sets the typed SLO target every shard's service is judged against
    /// (and that the `dsa-ctl` control plane re-plans toward).
    pub fn slo(mut self, slo: SloTarget) -> FleetBuilder {
        self.slo = Some(slo);
        self
    }

    /// Sets the master seed (shard seeds derive from it in shard order).
    pub fn seed(mut self, seed: u64) -> FleetBuilder {
        self.seed = seed;
        self
    }

    /// Sets the base platform every shard's runtime derives from.
    pub fn platform(mut self, platform: Platform) -> FleetBuilder {
        self.platform = platform;
        self
    }

    /// Sets the per-tenant workload template.
    pub fn profile(mut self, profile: TenantProfile) -> FleetBuilder {
        self.profile = profile;
        self
    }

    /// Validates the fleet shape and **every** shard's derived service
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] for a degenerate shape (zero sockets,
    /// devices, shards, or tenants; a cross-socket placement on a
    /// single-socket platform), and for any shard whose roster fails
    /// [`ServiceConfig::builder`] validation — zero-byte transfers, WQ
    /// envelope violations, etc. — with the offending shard and its
    /// socket/device slot named in the reason. Shard rosters are not all
    /// identical (class mix and aggressor marks vary with the tenant
    /// range), so shard 0 passing does not prove the rest would.
    pub fn build(self) -> Result<FleetConfig, DsaError> {
        if self.sockets == 0 || self.devices_per_socket == 0 {
            return Err(DsaError::InvalidService {
                reason: "fleet needs at least one device".into(),
            });
        }
        if self.shards == 0 {
            return Err(DsaError::InvalidService {
                reason: "fleet needs at least one shard".into(),
            });
        }
        if self.tenants == 0 {
            return Err(DsaError::InvalidService {
                reason: "fleet needs at least one tenant".into(),
            });
        }
        if self.profile.jobs == 0 {
            return Err(DsaError::InvalidService {
                reason: "tenant profile offers zero jobs".into(),
            });
        }
        let cfg = FleetConfig {
            sockets: self.sockets,
            devices_per_socket: self.devices_per_socket,
            shards: self.shards,
            tenants: self.tenants,
            placement: self.placement,
            plan: self.plan,
            seed: self.seed,
            platform: self.platform,
            profile: self.profile,
            slo: self.slo,
        };
        let plan = cfg.shard_plan();
        if plan.upi_crossers() > 0 && cfg.platform.sockets < 2 {
            return Err(DsaError::InvalidService {
                reason: "cross-socket placement on a single-socket platform".into(),
            });
        }
        // Validate every shard's roster through the service builder so
        // plan-vs-envelope and profile errors surface here — naming the
        // shard — not on a worker thread mid-run.
        for i in 0..plan.shards().len() {
            if let Err(e) = cfg.shard_service_config(&plan, i) {
                let a = plan.shards()[i];
                return Err(DsaError::InvalidService {
                    reason: format!(
                        "shard {} (socket {} device {}): {e}",
                        a.shard, a.socket, a.device
                    ),
                });
            }
        }
        Ok(cfg)
    }
}

impl FleetConfig {
    /// The deterministic partition this config implies.
    pub fn shard_plan(&self) -> ShardPlan {
        ShardPlan::new(
            self.tenants,
            self.shards,
            self.sockets,
            self.devices_per_socket,
            self.placement,
            self.seed,
        )
    }

    /// The fully-derived [`ServiceConfig`] of shard `i` under `plan`.
    fn shard_service_config(&self, plan: &ShardPlan, i: usize) -> Result<ServiceConfig, DsaError> {
        let a = plan.shards()[i];
        let mut b = ServiceConfig::builder()
            .plan(self.plan.clone())
            .seed(a.seed)
            .platform(plan.platform_for(i, &self.platform))
            .location(plan.location_for(i))
            .tenants((a.tenant_lo..a.tenant_hi).map(|gid| self.profile.spec(gid)));
        if let Some(slo) = self.slo {
            b = b.slo(slo);
        }
        b.build()
    }
}

/// One shard's aggregated outcome: compact (no per-tenant rows), so a
/// 100k-tenant sweep's live memory is K shards' runtimes, not the whole
/// fleet's reports.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (digest-merge position).
    pub shard: u32,
    /// Execution socket.
    pub socket: u32,
    /// Device within the socket.
    pub device: u32,
    /// True when the shard crossed the UPI link.
    pub remote: bool,
    /// Tenants the shard owned.
    pub tenants: u64,
    /// Jobs generated.
    pub offered: u64,
    /// Jobs completed on the accelerator.
    pub dsa_completed: u64,
    /// Jobs completed by the CPU fallback.
    pub cpu_completed: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Jobs failed outright.
    pub failed: u64,
    /// Completed jobs that finished past their deadline.
    pub deadline_misses: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Bytes the accelerator served.
    pub dsa_bytes: u64,
    /// Σ share over the shard's tenants (for the fleet-wide Jain index).
    pub share_sum: f64,
    /// Σ share² over the shard's tenants.
    pub share_sumsq: f64,
    /// Intra-shard Jain fairness.
    pub fairness: f64,
    /// Latest completion on the shard's timeline.
    pub makespan: SimTime,
    /// Merged arrival-to-completion latency distribution.
    pub latency: DurationHistogram,
    /// The shard service's replay digest.
    pub digest: u64,
    /// Address translations the shard device's ATC served from cache.
    pub atc_hits: u64,
    /// Address translations that missed the shard device's ATC (IOMMU
    /// walks) — a deterministic work counter, gated exactly in CI.
    pub atc_misses: u64,
}

impl ShardReport {
    /// Aggregates a finished shard service into its compact report row.
    /// Public so custom drivers (the `dsa-ctl` governed fleet) can run a
    /// shard's service their own way and still produce the same row the
    /// stock [`Fleet::run_parallel`] loop would.
    pub fn from_service(a: ShardAssignment, svc: &DsaService, rep: &ServiceReport) -> ShardReport {
        let device = svc.runtime().device(0).telemetry();
        let mut out = ShardReport {
            shard: a.shard,
            socket: a.socket,
            device: a.device,
            remote: a.remote(),
            tenants: a.tenants(),
            offered: 0,
            dsa_completed: 0,
            cpu_completed: 0,
            shed: 0,
            failed: 0,
            deadline_misses: 0,
            offered_bytes: 0,
            dsa_bytes: 0,
            share_sum: 0.0,
            share_sumsq: 0.0,
            fairness: rep.fairness,
            makespan: rep.makespan,
            latency: DurationHistogram::new(),
            digest: rep.digest(),
            atc_hits: device.atc_hits,
            atc_misses: device.atc_misses,
        };
        for t in 0..svc.tenant_count() {
            let st = svc.stats(t);
            out.offered += st.offered;
            out.dsa_completed += st.dsa_completed;
            out.cpu_completed += st.cpu_completed;
            out.shed += st.shed;
            out.failed += st.failed;
            out.deadline_misses += st.deadline_misses;
            out.offered_bytes += st.offered_bytes;
            out.dsa_bytes += st.dsa_bytes;
            let share = st.dsa_share();
            out.share_sum += share;
            out.share_sumsq += share * share;
            out.latency.merge(&st.latency);
        }
        out
    }
}

impl Digestible for ShardReport {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(u64::from(self.shard));
        h.write_u64(self.digest);
    }
}

/// The fleet-wide outcome: per-shard rows plus cross-shard aggregates and
/// the order-merged replay digest.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Placement policy the run used.
    pub placement: PoolPolicy,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-shard digests merged in shard order — THE number the
    /// parallel-determinism proof compares across thread counts.
    pub digest: u64,
    /// Jain fairness over every tenant's accelerator-served share.
    pub fairness: f64,
    /// Latest completion across all shards' timelines.
    pub makespan: SimTime,
    /// Fleet-wide latency distribution (all shards merged).
    pub latency: DurationHistogram,
}

impl FleetReport {
    /// Merges per-shard rows (in shard order) into the fleet-wide report,
    /// order-merging the digests. Public for custom drivers that produce
    /// their own [`ShardReport`]s via [`ShardReport::from_service`].
    pub fn from_shards(placement: PoolPolicy, shards: Vec<ShardReport>) -> FleetReport {
        let digests: Vec<u64> = shards.iter().map(|s| s.digest).collect();
        let mut latency = DurationHistogram::new();
        let (mut n, mut sum, mut sumsq) = (0u64, 0.0f64, 0.0f64);
        let mut makespan = SimTime::ZERO;
        for s in &shards {
            latency.merge(&s.latency);
            n += s.tenants;
            sum += s.share_sum;
            sumsq += s.share_sumsq;
            makespan = makespan.max(s.makespan);
        }
        let fairness = if n == 0 || sumsq == 0.0 { 1.0 } else { (sum * sum) / (n as f64 * sumsq) };
        FleetReport {
            placement,
            digest: merge_in_order(&digests),
            fairness,
            makespan,
            latency,
            shards,
        }
    }

    /// Jobs generated across the fleet.
    pub fn offered(&self) -> u64 {
        self.shards.iter().map(|s| s.offered).sum()
    }

    /// ATC hits across every shard device.
    pub fn atc_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.atc_hits).sum()
    }

    /// ATC misses (IOMMU walks) across every shard device.
    pub fn atc_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.atc_misses).sum()
    }

    /// Jobs completed on either path across the fleet.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.dsa_completed + s.cpu_completed).sum()
    }

    /// Jobs that failed their deadline — completed too late or shed at
    /// admission because queueing alone had already blown it.
    pub fn deadline_failures(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_misses + s.shed).sum()
    }

    /// Deadline failures as a fraction of offered jobs (0.0 when nothing
    /// was offered).
    pub fn deadline_miss_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.deadline_failures() as f64 / offered as f64
        }
    }

    /// Fleet-wide p999 arrival-to-completion latency, when any job
    /// completed.
    pub fn p999(&self) -> Option<SimDuration> {
        self.latency.percentile(99.9)
    }
}

impl Digestible for FleetReport {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.digest);
    }
}

/// The sharded multi-socket fleet. See the module docs for the isolation
/// and determinism story.
pub struct Fleet {
    cfg: FleetConfig,
    plan: ShardPlan,
}

impl Fleet {
    /// Builds the fleet's shard plan from a validated config.
    pub fn new(cfg: FleetConfig) -> Fleet {
        let plan = cfg.shard_plan();
        Fleet { cfg, plan }
    }

    /// The deterministic partition in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.plan.shards().len()
    }

    /// Shard `i`'s deterministic assignment (tenant range, slot, seed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_assignment(&self, i: usize) -> ShardAssignment {
        self.plan.shards()[i]
    }

    /// Builds shard `i`'s private [`DsaService`], primed at time zero and
    /// not yet run — the entry point for custom drivers (epoch loops,
    /// governed runs) that need more than [`run_parallel`]'s
    /// start-to-finish semantics.
    ///
    /// [`run_parallel`]: Fleet::run_parallel
    ///
    /// # Errors
    ///
    /// Propagates the shard's service-construction error (a config from
    /// [`FleetConfig::builder`] has already validated every shard).
    pub fn shard_service(&self, i: usize) -> Result<DsaService, DsaError> {
        let cfg = self.cfg.shard_service_config(&self.plan, i)?;
        DsaService::from_config(cfg)
    }

    /// Runs one shard start-to-finish: build its private service, drive
    /// every tenant stream, aggregate, drop the runtime. Pure function of
    /// the shard assignment — the core of the determinism argument.
    fn run_shard(&self, i: usize, mut svc: DsaService) -> ShardReport {
        let rep = svc.run();
        ShardReport::from_service(self.plan.shards()[i], &svc, &rep)
    }

    /// Runs every shard on the calling thread, in shard order — the
    /// reference replay the parallel run is compared against.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's service-construction error (a config
    /// from [`FleetConfig::builder`] has already validated every shard).
    pub fn run_sequential(&self) -> Result<FleetReport, DsaError> {
        self.run_parallel(1)
    }

    /// Runs the shards on up to `threads` worker threads (clamped to
    /// `[1, shards]`) and merges the reports in shard order. The merged
    /// digest is bit-identical to [`run_sequential`](Self::run_sequential)'s
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error, in shard order.
    pub fn run_parallel(&self, threads: usize) -> Result<FleetReport, DsaError> {
        let shards = self.map_shards(threads, |i, svc| Ok(self.run_shard(i, svc)))?;
        Ok(FleetReport::from_shards(self.cfg.placement, shards))
    }

    /// Drives every shard's freshly-built service through `f` — on the
    /// calling thread in shard order when `threads <= 1`, else on up to
    /// `threads` workers over contiguous shard chunks — and returns the
    /// per-shard results **in shard order** regardless of thread count.
    ///
    /// This is the generalized core under [`run_parallel`]: `f` takes
    /// ownership of the shard's service and may drive it however it
    /// likes (the stock loop calls [`DsaService::run`]; the `dsa-ctl`
    /// governed fleet runs an epoch/re-plan loop). Workers own contiguous
    /// chunks and write into disjoint slices of one result vector — the
    /// scoped fork-join needs no locks, no atomics, and no channels, so
    /// the shard-isolation lint (R8) holds here too. Because each shard's
    /// service is a pure function of its assignment and `f` is applied
    /// per-shard, any deterministic `f` yields thread-count-independent
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's construction or `f` error, in
    /// shard order.
    pub fn map_shards<T, F>(&self, threads: usize, f: F) -> Result<Vec<T>, DsaError>
    where
        T: Send,
        F: Fn(usize, DsaService) -> Result<T, DsaError> + Sync,
    {
        let n = self.plan.shards().len();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(f(i, self.shard_service(i)?)?);
            }
            return Ok(out);
        }
        let mut results: Vec<Option<Result<T, DsaError>>> = Vec::new();
        results.resize_with(n, || None);
        let chunk = n.div_ceil(threads);
        // Scoped fork-join: `scope` joins every worker before returning
        // and propagates panics, so no JoinHandle bookkeeping is needed.
        // Each worker's slice is disjoint by construction (`chunks_mut`).
        std::thread::scope(|scope| {
            for (ci, out) in results.chunks_mut(chunk).enumerate() {
                let lo = ci * chunk;
                let f = &f;
                scope.spawn(move || {
                    for (k, slot) in out.iter_mut().enumerate() {
                        let i = lo + k;
                        *slot = Some(self.shard_service(i).and_then(|svc| f(i, svc)));
                    }
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for r in results {
            match r {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                // Unreachable: every slot is covered by exactly one chunk.
                None => return Err(DsaError::InvalidService { reason: "shard never ran".into() }),
            }
        }
        Ok(out)
    }

    /// The fleet's merged replay digest from a sequential run — the
    /// reference value any parallel run must reproduce bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates shard construction errors like
    /// [`run_sequential`](Self::run_sequential).
    pub fn digest(&self) -> Result<u64, DsaError> {
        Ok(self.run_sequential()?.digest)
    }
}

/// Short lowercase label for a placement policy, used by bench tables and
/// `BENCH_fleet_scale.json` lane names.
pub fn placement_label(p: PoolPolicy) -> &'static str {
    match p {
        PoolPolicy::RoundRobin => "round-robin",
        PoolPolicy::LeastLoaded => "least-loaded",
        PoolPolicy::NumaLocal => "numa-local",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(placement: PoolPolicy) -> Fleet {
        let cfg = FleetConfig::builder()
            .sockets(2)
            .devices_per_socket(2)
            .shards(4)
            .tenants(32)
            .placement(placement)
            .build()
            .unwrap();
        Fleet::new(cfg)
    }

    #[test]
    fn parallel_matches_sequential_digest() {
        let fleet = tiny(PoolPolicy::NumaLocal);
        let seq = fleet.run_sequential().unwrap();
        let par = fleet.run_parallel(4).unwrap();
        assert_eq!(seq.digest, par.digest, "2-thread run must replay bit-identically");
        assert_eq!(seq.offered(), par.offered());
        assert_eq!((seq.atc_hits(), seq.atc_misses()), (par.atc_hits(), par.atc_misses()));
    }

    #[test]
    fn report_aggregates_every_tenant() {
        let fleet = tiny(PoolPolicy::RoundRobin);
        let rep = fleet.run_sequential().unwrap();
        assert_eq!(rep.shards.len(), 4);
        assert_eq!(rep.offered(), 32 * TenantProfile::small().jobs);
        assert_eq!(
            rep.completed() + rep.shards.iter().map(|s| s.shed + s.failed).sum::<u64>(),
            rep.offered()
        );
        assert!(rep.fairness > 0.0 && rep.fairness <= 1.0 + 1e-9);
        assert!(rep.makespan > SimTime::ZERO);
        assert!(rep.latency.count() > 0);
        // Every accelerator-served job translated its source and
        // destination once each.
        let dsa_jobs: u64 = rep.shards.iter().map(|s| s.dsa_completed).sum();
        assert!(rep.atc_misses() > 0);
        assert_eq!(rep.atc_hits() + rep.atc_misses(), 2 * dsa_jobs);
    }

    #[test]
    fn digest_is_sensitive_to_placement() {
        // Two shards over 2×2 slots: round-robin sends shard 1 (homed on
        // socket 1) to socket 0's device 1 — a UPI crosser — while
        // NUMA-local keeps it home. The changed platform must show up in
        // the merged digest.
        let mk = |p| {
            let cfg = FleetConfig::builder()
                .sockets(2)
                .devices_per_socket(2)
                .shards(2)
                .tenants(32)
                .placement(p)
                .build()
                .unwrap();
            Fleet::new(cfg).digest().unwrap()
        };
        let numa = mk(PoolPolicy::NumaLocal);
        let rr = mk(PoolPolicy::RoundRobin);
        assert_ne!(numa, rr, "placement must be visible in the fleet digest");
    }

    #[test]
    fn builder_rejects_degenerate_shapes() {
        for (s, d, k, t) in [(0, 4, 8, 100), (2, 0, 8, 100), (2, 4, 0, 100), (2, 4, 8, 0)] {
            let err = FleetConfig::builder()
                .sockets(s)
                .devices_per_socket(d)
                .shards(k)
                .tenants(t)
                .build();
            assert!(
                matches!(err, Err(DsaError::InvalidService { .. })),
                "shape ({s},{d},{k},{t}) must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn builder_surfaces_shard_envelope_violations_naming_the_shard() {
        // A dedicated plan inside a 100-tenant shard blows the 8-WQ
        // envelope; the FLEET builder must say so — naming the shard and
        // its slot — not a worker thread mid-run.
        let err = FleetConfig::builder().shards(1).tenants(100).plan(PlanSpec::Dedicated).build();
        match err {
            Err(DsaError::InvalidService { reason }) => {
                assert!(reason.contains("shard 0"), "reason must name the shard: {reason}");
                assert!(reason.contains("socket"), "reason must name the slot: {reason}");
            }
            other => panic!("expected InvalidService naming the shard, got {other:?}"),
        }
    }

    #[test]
    fn builder_validates_every_shard_not_just_shard_zero() {
        // Four shards of 10 tenants each — every dedicated roster blows
        // the 8-WQ envelope, and the loop reports the first offender in
        // shard order; a valid multi-shard dedicated config still builds.
        let err = FleetConfig::builder().shards(4).tenants(40).plan(PlanSpec::Dedicated).build();
        assert!(
            matches!(err, Err(DsaError::InvalidService { ref reason }) if reason.contains("shard 0")),
            "got {err:?}"
        );
        let ok = FleetConfig::builder().shards(4).tenants(16).plan(PlanSpec::Dedicated).build();
        assert!(ok.is_ok(), "4 tenants per shard fits the dedicated envelope: {ok:?}");
    }

    #[test]
    fn aggressor_profile_marks_late_heavy_tenants() {
        let mut p = TenantProfile::small();
        p.aggressor_every = 4;
        p.aggressor_start = SimDuration::from_us(5);
        let agg = p.spec(8);
        assert_eq!(agg.xfer, p.xfer * 8);
        assert_eq!(agg.start, SimDuration::from_us(5));
        let plain = p.spec(3);
        assert_eq!(plain.xfer, p.xfer);
        assert_eq!(plain.start, SimDuration::ZERO);
    }

    #[test]
    fn map_shards_matches_stock_run_in_any_thread_count() {
        let fleet = tiny(PoolPolicy::NumaLocal);
        let stock = fleet.run_sequential().unwrap();
        for threads in [1usize, 3] {
            let shards = fleet
                .map_shards(threads, |i, mut svc| {
                    let rep = svc.run();
                    Ok(ShardReport::from_service(fleet.shard_assignment(i), &svc, &rep))
                })
                .unwrap();
            let rep = FleetReport::from_shards(fleet.config().placement(), shards);
            assert_eq!(rep.digest, stock.digest, "threads={threads}");
        }
    }

    #[test]
    fn remote_placement_slows_the_fleet() {
        // Same tenants, same devices; forcing every shard off-socket
        // must cost makespan vs NUMA-local placement (guideline G4).
        let mk = |p| tiny(p).run_sequential().unwrap().makespan;
        let local = mk(PoolPolicy::NumaLocal);
        let rr = mk(PoolPolicy::RoundRobin);
        assert!(
            rr >= local,
            "round-robin (with UPI crossers) cannot beat NUMA-local: {rr:?} vs {local:?}"
        );
    }

    #[test]
    fn deadline_profile_feeds_miss_curves() {
        let mut profile = TenantProfile::small();
        profile.xfer = 64 << 10;
        profile.deadline = Some(SimDuration::from_ns(500)); // unmeetable
        let cfg = FleetConfig::builder().shards(2).tenants(16).profile(profile).build().unwrap();
        let rep = Fleet::new(cfg).run_sequential().unwrap();
        assert!(rep.deadline_miss_rate() > 0.0, "unmeetable deadlines must show up");
        assert!(rep.deadline_miss_rate() <= 1.0);
    }
}
