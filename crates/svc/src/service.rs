//! The multi-tenant service: WQ placement plans, the deterministic
//! scheduling loop, sessions, and the fairness report.
//!
//! # Determinism
//!
//! N tenants share one [`DsaRuntime`] without threads: each tenant keeps a
//! local clock cursor, and the service always processes the tenant whose
//! next admissible action is earliest on the simulated timeline (ties
//! break by scheduling order in the [`ActionQueue`], itself deterministic).
//! A tenant's next-action instant depends only on its own state, so the
//! service keeps it in a binary-heap action queue instead of rescanning
//! all tenants per job — O(log T) per step, which is what lets one shard
//! of the fleet layer carry thousands of tenants.
//! Per-tenant randomness comes from [`SplitMix64`] streams split off one
//! master seed. Two services built from the same config therefore replay
//! bit-identically — [`ServiceReport::digest`] makes that checkable in one
//! comparison.

use crate::actionq::ActionQueue;
use crate::admission::TokenBucket;
use crate::plan::{Plan, PlanDelta, PlanSpec, TransitionCosts};
use crate::slo::{SloTarget, SloViolation};
use crate::tenant::{QosClass, TenantReport, TenantSpec, TenantStats};
use dsa_core::digest::{Digestible, Fnv1a};
use dsa_core::error::DsaError;
use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_core::submit::InflightWindow;
use dsa_device::device::SubmitError;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_mem::topology::Platform;
use dsa_sim::rng::SplitMix64;
use dsa_sim::stats::jain_fairness;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::{Hub, StepContext};
use std::fmt;

/// Exponential-backoff cap: base backoff never grows beyond 64×.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Service-wide configuration: plan, seed, platform, tenant placement,
/// and the tenant roster itself.
///
/// Built exclusively through [`ServiceConfig::builder`], which validates
/// the whole configuration (plan vs the DSA 1.0 envelope, buffer location
/// vs the platform's memory devices) before any runtime is constructed —
/// the same by-value builder idiom as
/// [`AccelConfig::builder`](dsa_core::config::AccelConfig::builder).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The materialized placement plan (recipes from the builder are
    /// resolved against the roster at `build()`).
    pub plan: Plan,
    /// Master seed for all per-tenant randomness.
    pub seed: u64,
    /// Platform the service's runtime simulates.
    pub platform: Platform,
    /// Where tenant buffers live. The fleet layer places remote shards'
    /// buffers in remote DRAM so every transfer pays the UPI crossing.
    pub location: Location,
    /// Service-level objectives, if any (feeds
    /// [`ServiceReport::slo_violations`] and the control plane).
    pub slo: Option<SloTarget>,
    /// The tenant roster, in tenant-index order.
    pub tenants: Vec<TenantSpec>,
}

impl ServiceConfig {
    /// Starts a builder with the defaults: [`PlanSpec::Dedicated`],
    /// the stock seed, [`Platform::spr`], local-DRAM buffers, no SLO, no
    /// tenants.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            plan: PlanSpec::Dedicated,
            seed: 0xD5A_5E1F_0CA5,
            platform: Platform::spr(),
            location: Location::local_dram(),
            slo: None,
            tenants: Vec::new(),
        }
    }
}

/// By-value builder for [`ServiceConfig`]. See [`ServiceConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    plan: PlanSpec,
    seed: u64,
    platform: Platform,
    location: Location,
    slo: Option<SloTarget>,
    tenants: Vec<TenantSpec>,
}

impl ServiceBuilder {
    /// Sets the placement plan: a [`PlanSpec`] recipe or a concrete
    /// [`Plan`] (via `Plan -> PlanSpec`).
    pub fn plan(mut self, plan: impl Into<PlanSpec>) -> ServiceBuilder {
        self.plan = plan.into();
        self
    }

    /// Sets the service-level objectives the run is held to.
    pub fn slo(mut self, slo: SloTarget) -> ServiceBuilder {
        self.slo = Some(slo);
        self
    }

    /// Sets the master seed for all per-tenant randomness.
    pub fn seed(mut self, seed: u64) -> ServiceBuilder {
        self.seed = seed;
        self
    }

    /// Sets the simulated platform (default [`Platform::spr`]).
    pub fn platform(mut self, platform: Platform) -> ServiceBuilder {
        self.platform = platform;
        self
    }

    /// Sets where tenant buffers are allocated (default local DRAM).
    pub fn location(mut self, location: Location) -> ServiceBuilder {
        self.location = location;
        self
    }

    /// Appends one tenant to the roster.
    pub fn tenant(mut self, spec: TenantSpec) -> ServiceBuilder {
        self.tenants.push(spec);
        self
    }

    /// Appends a batch of tenants to the roster.
    pub fn tenants(mut self, specs: impl IntoIterator<Item = TenantSpec>) -> ServiceBuilder {
        self.tenants.extend(specs);
        self
    }

    /// Validates the full configuration.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] when a tenant moves zero bytes per job
    /// or the buffer location names a memory device the platform lacks;
    /// [`DsaError::InvalidConfig`] when the plan violates the device
    /// envelope for this roster (e.g. more dedicated tenants than the
    /// 8-WQ envelope allows).
    pub fn build(self) -> Result<ServiceConfig, DsaError> {
        if self.tenants.iter().any(|t| t.xfer == 0) {
            return Err(DsaError::InvalidService { reason: "tenant transfer size is zero".into() });
        }
        match self.location {
            Location::Cxl if self.platform.cxl.is_none() => {
                return Err(DsaError::InvalidService {
                    reason: "tenant buffers placed in CXL memory on a platform without CXL".into(),
                });
            }
            Location::Dram { socket } if u32::from(socket) >= u32::from(self.platform.sockets) => {
                return Err(DsaError::InvalidService {
                    reason: "tenant buffer socket beyond the platform's socket count".into(),
                });
            }
            _ => {}
        }
        // Materializing the plan surfaces plan-vs-envelope violations at
        // build time, not first use.
        let plan = self.plan.materialize(&self.tenants)?;
        Ok(ServiceConfig {
            plan,
            seed: self.seed,
            platform: self.platform,
            location: self.location,
            slo: self.slo,
            tenants: self.tenants,
        })
    }
}

/// How one job submission ended, from [`Session::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed (or will complete) on the accelerator.
    Dsa {
        /// Device completion instant.
        completion: SimTime,
        /// Arrival-to-completion latency.
        latency: SimDuration,
    },
    /// Degraded to the synchronous CPU fallback.
    Cpu {
        /// CPU completion instant.
        completion: SimTime,
        /// Arrival-to-completion latency.
        latency: SimDuration,
    },
}

struct TenantState {
    spec: TenantSpec,
    wq: usize,
    rng: SplitMix64,
    bucket: TokenBucket,
    window: InflightWindow<u64>,
    src: BufferHandle,
    dst: BufferHandle,
    /// Tenant-local core clock: the submitting context is busy until here.
    cursor: SimTime,
    /// Arrival instant of the next job in the stream.
    next_arrival: SimTime,
    issued: u64,
    stats: TenantStats,
}

impl TenantState {
    fn active(&self) -> bool {
        self.issued < self.spec.jobs
    }

    /// Advances the arrival process past a job that finished (or was shed)
    /// at `completion`.
    fn schedule_next(&mut self, completion: SimTime) {
        let gap = self.spec.arrival.gap(&mut self.rng);
        self.next_arrival = if self.spec.arrival.is_open() {
            // Open loop: the schedule marches on regardless of completions.
            self.next_arrival + gap
        } else {
            completion + gap
        };
    }

    /// Serves the job's copy on the cores.
    fn cpu_copy(&self, rt: &mut DsaRuntime) {
        let (record, _) = rt.cpu_op(&Job::memcpy(&self.src, &self.dst));
        assert!(record.status.is_ok(), "tenant buffers are mapped: {:?}", record.status);
    }

    fn note_completion(&mut self, arrival: SimTime, completion: SimTime) -> SimDuration {
        let latency = completion.duration_since(arrival);
        self.stats.latency.record(latency);
        self.stats.last_completion = self.stats.last_completion.max(completion);
        if let Some(d) = self.spec.deadline {
            if latency > d {
                self.stats.deadline_misses += 1;
            }
        }
        latency
    }
}

/// The multi-tenant service layer: owns the runtime and drives every
/// tenant's stream through admission control, placement, bounded retry,
/// and fallback. See the crate docs for the full policy tour.
pub struct DsaService {
    rt: DsaRuntime,
    plan: Plan,
    seed: u64,
    location: Location,
    slo: Option<SloTarget>,
    tenants: Vec<TenantState>,
    /// Earliest-next-action queue; one live entry per active tenant.
    queue: ActionQueue,
    /// Plan transitions applied so far (see [`transition`]).
    ///
    /// [`transition`]: DsaService::transition
    transitions: u32,
}

/// What one [`DsaService::transition`] call did: the quiesce barrier,
/// the instant tenants resume, and the priced delta.
#[derive(Clone, Copy, Debug)]
pub struct PlanTransition {
    /// The quiesce instant: every in-flight job had completed and every
    /// tenant cursor had been reached by here.
    pub barrier: SimTime,
    /// When tenants resume: `barrier` plus the transition cost.
    pub ready: SimTime,
    /// What changed between the plans.
    pub delta: PlanDelta,
    /// Tenants whose WQ wiring moved.
    pub moved: u64,
}

impl DsaService {
    /// Builds the device per `cfg.plan`, allocates per-tenant buffers at
    /// `cfg.location` on `cfg.platform`, and seeds per-tenant RNG streams.
    /// The runtime is timing-only: buffers are placed and timed exactly,
    /// but hold no bytes, and no job moves any, since nothing reads them.
    ///
    /// # Errors
    ///
    /// Returns [`DsaError::InvalidConfig`] with the device-configuration
    /// constraint a plan violates (e.g. more dedicated tenants than the
    /// 8-WQ envelope allows). A config from
    /// [`ServiceConfig::builder`] has already passed this validation.
    pub fn from_config(cfg: ServiceConfig) -> Result<DsaService, DsaError> {
        let ServiceConfig { plan, seed, platform, location, slo, tenants: specs } = cfg;
        let device = plan.device_config()?;
        let wqs = plan.assign(&specs);
        let mut rt = DsaRuntime::builder(platform).device(device).timing_only().build();
        let mut master = SplitMix64::new(seed);
        let mut tenants = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            let src = rt.alloc(spec.xfer, location);
            let dst = rt.alloc(spec.xfer, location);
            let mut rng = master.split();
            let base = SimTime::ZERO + spec.start;
            let first =
                if spec.arrival.is_open() { base + spec.arrival.gap(&mut rng) } else { base };
            tenants.push(TenantState {
                wq: wqs[i],
                bucket: TokenBucket::new(spec.rate, spec.burst),
                window: InflightWindow::new(spec.max_outstanding.max(1)),
                src,
                dst,
                rng,
                cursor: SimTime::ZERO,
                next_arrival: first,
                issued: 0,
                stats: TenantStats::new(),
                spec,
            });
        }
        let queue = ActionQueue::with_tenants(tenants.len());
        let mut svc = DsaService { rt, plan, seed, location, slo, tenants, queue, transitions: 0 };
        // Prime the action queue in tenant-index order, so simultaneous
        // first actions keep the historical index tie-break.
        for i in 0..svc.tenants.len() {
            if svc.tenants[i].active() {
                let at = svc.next_action(i);
                svc.queue.schedule(i, at);
            }
        }
        Ok(svc)
    }

    /// Forks a digital twin of this service: a fresh service running
    /// `roster` under `plan` from `seed`, on this service's platform and
    /// buffer location, built by [`from_config`](Self::from_config).
    ///
    /// # Errors
    ///
    /// The builder validation of [`ServiceBuilder::build`] on the twin's
    /// configuration.
    pub fn fork_twin(
        &self,
        plan: &Plan,
        roster: Vec<TenantSpec>,
        seed: u64,
    ) -> Result<DsaService, DsaError> {
        let cfg = ServiceConfig::builder()
            .plan(PlanSpec::Fixed(plan.clone()))
            .seed(seed)
            .platform(self.rt.platform().clone())
            .location(self.location)
            .tenants(roster)
            .build()?;
        DsaService::from_config(cfg)
    }

    /// The placement plan in force.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The master seed the service was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Where tenant buffers live.
    pub fn location(&self) -> Location {
        self.location
    }

    /// The service-level objectives, if any.
    pub fn slo(&self) -> Option<&SloTarget> {
        self.slo.as_ref()
    }

    /// Plan transitions applied so far.
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// The spec of tenant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tenant_spec(&self, i: usize) -> &TenantSpec {
        &self.tenants[i].spec
    }

    /// Jobs tenant `i` has yet to issue.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remaining_jobs(&self, i: usize) -> u64 {
        let t = &self.tenants[i];
        t.spec.jobs - t.issued
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Live accounting for tenant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stats(&self, i: usize) -> &TenantStats {
        &self.tenants[i].stats
    }

    /// Deadline failures so far across all tenants: completions past
    /// their deadline plus jobs shed at admission. Never decreases while
    /// the service runs; once it drains, it equals
    /// [`ServiceReport::deadline_failures`] of its [`report`](Self::report).
    pub fn deadline_failures(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.deadline_misses + t.stats.shed).sum()
    }

    /// The underlying runtime (read-only).
    pub fn runtime(&self) -> &DsaRuntime {
        &self.rt
    }

    /// Attaches a fresh telemetry hub and returns a clone, mirroring
    /// [`DsaRuntime::trace`]. Job traces recorded while a tenant steps are
    /// attributed to that tenant; per-tenant counts stay in
    /// [`stats`](Self::stats).
    pub fn trace(&mut self) -> Hub {
        self.rt.trace()
    }

    /// A handle for driving tenant `i`'s stream by hand (tests, custom
    /// loops). [`run`](Self::run) drives all tenants to completion instead.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn session(&mut self, i: usize) -> Session<'_> {
        assert!(i < self.tenants.len(), "no tenant {i}");
        Session { svc: self, tenant: i }
    }

    /// Drives every tenant's stream to completion in deterministic merged
    /// timeline order and returns the final report.
    pub fn run(&mut self) -> ServiceReport {
        while let Some((_, i)) = self.queue.pop() {
            let _ = self.step(i);
        }
        self.report()
    }

    /// Drives the merged timeline up to (and including) every action at
    /// or before `until`, then stops — the epoch primitive the control
    /// plane's governed loop is built on. Returns the number of steps
    /// taken. The queue stays exact: [`run`](Self::run) (or another
    /// `run_until`) picks up where this left off.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut steps = 0;
        while let Some((at, _)) = self.queue.peek() {
            if at > until {
                break;
            }
            if let Some((_, i)) = self.queue.pop() {
                let _ = self.step(i);
                steps += 1;
            }
        }
        steps
    }

    /// The instant of the earliest pending action, if any.
    pub fn next_ready(&mut self) -> Option<SimTime> {
        self.queue.peek().map(|(at, _)| at)
    }

    /// Transitions the live service to plan `to`: quiesces to a barrier
    /// (all in-flight completions and tenant cursors), rebuilds the
    /// device under the new layout, re-wires every tenant, and charges
    /// the priced transition stall before tenants resume. Open-loop
    /// arrival schedules march on through the stall, so a transition
    /// under pressure genuinely costs queueing — the control plane's
    /// digital twin weighs exactly that.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when `to` violates the device
    /// envelope; the service is left untouched on error.
    pub fn transition(
        &mut self,
        to: Plan,
        costs: &TransitionCosts,
    ) -> Result<PlanTransition, DsaError> {
        let device = to.device_config()?;
        let classes: Vec<QosClass> = self.tenants.iter().map(|t| t.spec.class).collect();
        let assign = to.assign_classes(&classes);
        let delta = self.plan.diff(&to);
        let moved =
            self.tenants.iter().enumerate().filter(|(i, t)| assign[*i] != t.wq).count() as u64;
        // Quiesce: the barrier is past every completion the old device
        // has promised and every tenant's core cursor, so dropping the
        // old device loses no in-flight accounting.
        let mut barrier = self.rt.now();
        for t in &self.tenants {
            barrier = barrier.max(t.cursor).max(t.stats.last_completion);
        }
        let ready = barrier + delta.cost(costs, moved);
        if delta.is_empty() && moved == 0 {
            return Ok(PlanTransition { barrier, ready: barrier, delta, moved });
        }
        self.rt.replace_device(0, device);
        self.rt.set_now(ready);
        for (i, t) in self.tenants.iter_mut().enumerate() {
            if assign[i] != t.wq {
                t.stats.migrations += 1;
                t.wq = assign[i];
            }
            t.cursor = t.cursor.max(ready);
            while t.window.pop_completed(ready).is_some() {}
        }
        // Re-prime in tenant-index order, as from_config does, so
        // simultaneous resumes keep the index tie-break.
        for i in 0..self.tenants.len() {
            if self.tenants[i].active() {
                let at = self.next_action(i);
                self.queue.schedule(i, at);
            } else {
                self.queue.cancel(i);
            }
        }
        self.plan = to;
        self.transitions += 1;
        Ok(PlanTransition { barrier, ready, delta, moved })
    }

    /// Earliest instant tenant `i` could start its next job: its arrival,
    /// its core cursor, a free in-flight slot, and an admission token must
    /// all line up.
    fn next_action(&self, i: usize) -> SimTime {
        let t = &self.tenants[i];
        let at = t.next_arrival.max(t.cursor);
        let at = t.window.admission_at(at);
        t.bucket.ready_at(at)
    }

    /// Processes tenant `i`'s next job, then re-queues the tenant's new
    /// next-action instant (or retires it when the stream is exhausted).
    /// Keeps the action queue exact whether the step came from [`run`]
    /// (queue-driven) or a [`Session`] (caller-driven): the stale entry
    /// the queue may still hold is invalidated by the re-schedule.
    ///
    /// [`run`]: Self::run
    fn step(&mut self, i: usize) -> Result<JobOutcome, DsaError> {
        let out = self.advance(i);
        if self.tenants[i].active() {
            let at = self.next_action(i);
            self.queue.schedule(i, at);
        } else {
            self.queue.cancel(i);
        }
        out
    }

    /// Processes tenant `i`'s next job end-to-end: admission, bounded-retry
    /// submission, fallback, accounting, and arrival-process advance.
    fn advance(&mut self, i: usize) -> Result<JobOutcome, DsaError> {
        let rt = &mut self.rt;
        let t = &mut self.tenants[i];

        let arrival = t.next_arrival;
        let start = t.bucket.ready_at(t.window.admission_at(arrival.max(t.cursor)));
        while t.window.pop_completed(start).is_some() {}

        t.issued += 1;
        t.stats.offered += 1;
        t.stats.offered_bytes += t.spec.xfer;

        // Shed at admission: if queueing delay alone blows the deadline,
        // reject before occupying a WQ slot or burning a token.
        if let Some(d) = t.spec.deadline {
            if start.duration_since(arrival) > d {
                t.stats.shed += 1;
                t.schedule_next(start);
                return Err(DsaError::DeadlineExceeded { deadline: arrival + d });
            }
        }
        let _ = t.bucket.try_acquire(start); // a token is banked at `start` by construction

        rt.set_now(start);
        // Step context for causal tracing: the job recorded below the
        // service layer lands in this tenant's profile cell, and its
        // critical path starts at `start`, so rejected attempts and their
        // backoff count as software prep.
        if let Some(hub) = rt.hub() {
            hub.set_step(Some(StepContext { tenant: i as u16, start }));
        }
        let mut attempts: u32 = 0;
        let submitted = loop {
            // A `Job` holds no heap data, so building one per attempt
            // allocates nothing.
            match Job::memcpy(&t.src, &t.dst).on_wq(t.wq).try_submit(rt) {
                Ok(h) => break Ok(h),
                Err(DsaError::Submit(SubmitError::WqFull { .. })) => {
                    attempts += 1;
                    t.stats.retries += 1;
                    if attempts > t.spec.retry_budget {
                        break Err(DsaError::RetryExhausted { attempts });
                    }
                    // Blind exponential backoff: real ENQCMD/MOVDIR64B get
                    // no slot-free hint, so the portal may well still be
                    // full at the next attempt — that is what makes the
                    // retry budget a genuine bound under saturation.
                    let shift = (attempts - 1).min(MAX_BACKOFF_SHIFT);
                    let backoff = t.spec.backoff.saturating_mul(1u64 << shift);
                    rt.advance(backoff);
                }
                Err(e) => break Err(e),
            }
        };
        if let Some(hub) = rt.hub() {
            hub.set_step(None);
        }

        match submitted {
            Ok(h) => {
                let mut completion = h.completion_time();
                if !h.record().status.is_ok() {
                    // Page-faulted partial completion: the caller touches
                    // the pages and finishes the move on the cores.
                    t.stats.faults += 1;
                    rt.advance_to(completion);
                    t.cpu_copy(rt);
                    completion = rt.now();
                }
                let latency = t.note_completion(arrival, completion);
                t.stats.dsa_completed += 1;
                t.stats.dsa_bytes += t.spec.xfer;
                t.cursor = rt.now();
                if completion > rt.now() {
                    t.window.push(completion, t.spec.xfer);
                }
                t.schedule_next(completion);
                Ok(JobOutcome::Dsa { completion, latency })
            }
            Err(DsaError::RetryExhausted { .. }) if t.spec.degrade_to_cpu => {
                // Graceful degradation: the device is saturated, so serve
                // this job synchronously on the cores.
                t.stats.exhausted += 1;
                t.cpu_copy(rt);
                let completion = rt.now();
                let latency = t.note_completion(arrival, completion);
                t.stats.cpu_completed += 1;
                t.stats.cpu_bytes += t.spec.xfer;
                t.cursor = completion;
                t.schedule_next(completion);
                Ok(JobOutcome::Cpu { completion, latency })
            }
            Err(e) => {
                if matches!(e, DsaError::RetryExhausted { .. }) {
                    t.stats.exhausted += 1;
                }
                t.stats.failed += 1;
                t.cursor = rt.now();
                t.schedule_next(rt.now());
                Err(e)
            }
        }
    }

    /// Snapshot of all tenants plus the Jain fairness index over their
    /// accelerator-served shares.
    pub fn report(&self) -> ServiceReport {
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| {
                let h = &t.stats.latency;
                let pct = |p: f64| h.percentile(p).unwrap_or(SimDuration::ZERO);
                TenantReport {
                    name: t.spec.name.clone(),
                    class: t.spec.class,
                    wq: t.wq,
                    offered: t.stats.offered,
                    dsa_completed: t.stats.dsa_completed,
                    cpu_completed: t.stats.cpu_completed,
                    shed: t.stats.shed,
                    failed: t.stats.failed,
                    retries: t.stats.retries,
                    deadline_misses: t.stats.deadline_misses,
                    dsa_share: t.stats.dsa_share(),
                    p50: pct(50.0),
                    p99: pct(99.0),
                    p999: pct(99.9),
                    mean: if h.count() == 0 { SimDuration::ZERO } else { h.mean() },
                }
            })
            .collect();
        let shares: Vec<f64> = tenants.iter().map(|t| t.dsa_share).collect();
        let makespan =
            self.tenants.iter().map(|t| t.stats.last_completion).max().unwrap_or(SimTime::ZERO);
        ServiceReport {
            plan: self.plan.label().to_string(),
            fairness: jain_fairness(&shares),
            makespan,
            slo: self.slo,
            transitions: self.transitions,
            tenants,
        }
    }
}

/// A per-tenant handle for driving one stream by hand. Obtained from
/// [`DsaService::session`]; each [`submit`](Session::submit) call processes
/// exactly one job of the stream under the tenant's full policy.
pub struct Session<'a> {
    svc: &'a mut DsaService,
    tenant: usize,
}

impl Session<'_> {
    /// The tenant index this session drives.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Submits the stream's next job under admission control, bounded
    /// retry, and fallback policy.
    ///
    /// # Errors
    ///
    /// [`DsaError::DeadlineExceeded`] when the job is shed at admission,
    /// [`DsaError::RetryExhausted`] when the retry budget runs out and CPU
    /// fallback is disabled.
    pub fn submit(&mut self) -> Result<JobOutcome, DsaError> {
        self.svc.step(self.tenant)
    }

    /// Live accounting for this tenant.
    pub fn stats(&self) -> &TenantStats {
        self.svc.stats(self.tenant)
    }
}

/// Final report: per-tenant rows plus cross-tenant fairness.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Label of the placement plan the run ended under.
    pub plan: String,
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Jain fairness index over per-tenant accelerator-served shares
    /// (1.0 = perfectly even service relative to demand).
    pub fairness: f64,
    /// Latest completion across all tenants.
    pub makespan: SimTime,
    /// The objectives the run was held to, if any.
    pub slo: Option<SloTarget>,
    /// Plan transitions applied during the run.
    pub transitions: u32,
}

impl ServiceReport {
    /// Jobs generated across all tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Jobs that failed their deadline — completed too late or shed at
    /// admission because queueing alone had already blown it.
    pub fn deadline_failures(&self) -> u64 {
        self.tenants.iter().map(|t| t.deadline_misses + t.shed).sum()
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

    /// Every objective of the report's [`SloTarget`] the run failed,
    /// derived from the same per-tenant histograms the control plane
    /// reads. Empty when no SLO was set or everything held.
    pub fn slo_violations(&self) -> Vec<SloViolation> {
        let mut out = Vec::new();
        let Some(slo) = &self.slo else { return out };
        if let Some(target) = slo.p99 {
            for (i, t) in self.tenants.iter().enumerate() {
                if t.p99 > target {
                    out.push(SloViolation::P99 { tenant: i, observed: t.p99, target });
                }
            }
        }
        if let Some(target) = slo.deadline_miss_frac {
            let observed = self.deadline_miss_rate();
            if observed > target {
                out.push(SloViolation::MissRate { observed, target });
            }
        }
        if let Some(target) = slo.min_jain {
            if self.fairness < target {
                out.push(SloViolation::Fairness { observed: self.fairness, target });
            }
        }
        out
    }

    /// Canonical multi-line rendering — integer picosecond timings, so the
    /// string (and [`digest`](Self::digest)) is bit-identical across
    /// replays of the same configuration.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        // Writing into a String cannot fail.
        let _ = self.write_summary(&mut out);
        out
    }

    /// Streams [`summary`](Self::summary)'s text into `out`.
    fn write_summary(&self, out: &mut impl fmt::Write) -> fmt::Result {
        writeln!(
            out,
            "plan={} fairness={:.4} makespan_ps={}",
            self.plan,
            self.fairness,
            self.makespan.as_ps()
        )?;
        for t in &self.tenants {
            writeln!(
                out,
                "{} class={:?} wq={} offered={} dsa={} cpu={} shed={} failed={} \
                 retries={} misses={} share={:.4} p50_ps={} p99_ps={} p999_ps={} mean_ps={}",
                t.name,
                t.class,
                t.wq,
                t.offered,
                t.dsa_completed,
                t.cpu_completed,
                t.shed,
                t.failed,
                t.retries,
                t.deadline_misses,
                t.dsa_share,
                t.p50.as_ps(),
                t.p99.as_ps(),
                t.p999.as_ps(),
                t.mean.as_ps()
            )?;
        }
        Ok(())
    }

    /// FNV-1a hash of [`summary`](Self::summary)'s bytes — one number to
    /// compare for bit-identical replay, hashed as it is formatted, with
    /// no string built. Equivalent to
    /// [`Digestible::digest64`]; kept as the idiomatic name report
    /// consumers already use.
    pub fn digest(&self) -> u64 {
        self.digest64()
    }
}

impl Digestible for ServiceReport {
    fn fold(&self, h: &mut Fnv1a) {
        // Writing into the hasher cannot fail.
        let _ = self.write_summary(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Arrival;

    fn svc(plan: PlanSpec, specs: Vec<TenantSpec>) -> DsaService {
        let cfg = ServiceConfig::builder().plan(plan).tenants(specs).build().unwrap();
        DsaService::from_config(cfg).unwrap()
    }

    /// Tenant `i`'s source pattern in a [`backed`] service.
    fn pattern(i: usize) -> u8 {
        (i as u8).wrapping_mul(37).wrapping_add(1)
    }

    /// The service [`DsaService::from_config`] builds, re-homed onto a
    /// backed runtime: the same device, and tenant buffers allocated in
    /// the same order (so at the same addresses), each source filled with
    /// [`pattern`]. The only service that holds bytes, kept as the oracle
    /// timing-only services are checked against.
    fn backed(cfg: ServiceConfig) -> DsaService {
        let device = cfg.plan.device_config().unwrap();
        let mut rt = DsaRuntime::builder(cfg.platform.clone()).device(device).build();
        let mut svc = DsaService::from_config(cfg).unwrap();
        for (i, t) in svc.tenants.iter_mut().enumerate() {
            let src = rt.alloc(t.spec.xfer, svc.location);
            let dst = rt.alloc(t.spec.xfer, svc.location);
            assert_eq!((src.addr(), dst.addr()), (t.src.addr(), t.dst.addr()));
            rt.fill_pattern(&src, pattern(i));
            (t.src, t.dst) = (src, dst);
        }
        svc.rt = rt;
        svc
    }

    fn small_churn_roster() -> Vec<TenantSpec> {
        let mut specs = Vec::new();
        for i in 0..4 {
            specs.push(
                TenantSpec::new(&format!("lat{i}"), 4 << 10, 60)
                    .with_class(QosClass::Latency)
                    .with_deadline(SimDuration::from_us(60))
                    .with_arrival(Arrival::open(SimDuration::from_ns(3_500)))
                    .with_retry_budget(2),
            );
        }
        for i in 0..2 {
            specs.push(
                TenantSpec::new(&format!("bulk{i}"), 64 << 10, 30)
                    .with_arrival(Arrival::open(SimDuration::from_us(12)))
                    .with_retry_budget(2),
            );
        }
        for i in 0..2 {
            specs.push(
                TenantSpec::new(&format!("agg{i}"), 512 << 10, 6)
                    .with_start(SimDuration::from_us(60))
                    .with_outstanding(8)
                    .with_retry_budget(1),
            );
        }
        specs
    }

    /// A timing-only service, built by `from_config` or forked as a twin
    /// from a live service, replays bit-identically to a backed service
    /// built from the same configuration: same digest, same makespan,
    /// across seeds, plans and buffer locations. The backed service really
    /// moves its bytes: every tenant that served a job ends with its
    /// source pattern in its destination.
    #[test]
    fn timing_only_twin_replays_a_backed_service_bit_identically() {
        let (mut retries, mut cpu) = (0, 0);
        for seed in 0..8u64 {
            let location =
                if seed % 2 == 0 { Location::local_dram() } else { Location::remote_dram() };
            for spec in [PlanSpec::Shared, PlanSpec::Dedicated, PlanSpec::ByClass] {
                let roster = small_churn_roster();
                let cfg = ServiceConfig::builder()
                    .plan(spec.clone())
                    .seed(seed)
                    .location(location)
                    .tenants(roster.clone())
                    .build()
                    .unwrap();
                let plan = cfg.plan.clone();
                let mut live = DsaService::from_config(cfg.clone()).unwrap();
                let twin = live.fork_twin(&plan, roster, seed).unwrap().run();
                let mut backed_svc = backed(cfg);
                let backed = backed_svc.run();
                for (label, rep) in [("from_config", live.run()), ("fork_twin", twin)] {
                    assert_eq!(
                        rep.digest(),
                        backed.digest(),
                        "seed {seed}, {}, {label}:\n--- timing-only ---\n{}\n--- backed ---\n{}",
                        spec.label(),
                        rep.summary(),
                        backed.summary()
                    );
                    assert_eq!(rep.makespan, backed.makespan, "seed {seed}, {}", spec.label());
                }
                let mem = backed_svc.runtime().memory();
                for (i, t) in backed_svc.tenants.iter().enumerate() {
                    if t.stats.dsa_completed + t.stats.cpu_completed > 0 {
                        let dst = mem.read(t.dst.addr(), t.dst.len()).unwrap();
                        assert!(dst.iter().all(|&b| b == pattern(i)), "tenant {i} copied");
                    }
                }
                retries += backed.tenants.iter().map(|t| t.retries).sum::<u64>();
                cpu += backed.tenants.iter().map(|t| t.cpu_completed).sum::<u64>();
            }
        }
        assert!(
            retries > 0 && cpu > 0,
            "no contention exercised: {retries} retries, {cpu} on the CPU"
        );
    }

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("a", 4 << 10, 20).with_arrival(Arrival::closed(SimDuration::ZERO)),
            TenantSpec::new("b", 4 << 10, 20).with_arrival(Arrival::open(SimDuration::from_us(2))),
        ]
    }

    #[test]
    fn dedicated_plan_runs_all_jobs_on_dsa() {
        let mut svc = svc(PlanSpec::Dedicated, two_tenants());
        let rep = svc.run();
        for t in &rep.tenants {
            assert_eq!(t.offered, 20);
            assert_eq!(t.dsa_completed, 20);
            assert_eq!(t.cpu_completed + t.shed + t.failed, 0);
        }
        assert!((rep.fairness - 1.0).abs() < 1e-9, "uncontended run is perfectly fair");
        assert!(rep.makespan > SimTime::ZERO);
    }

    #[test]
    fn shared_plan_maps_everyone_to_wq0() {
        let mut svc = svc(PlanSpec::Shared, two_tenants());
        let rep = svc.run();
        assert!(rep.tenants.iter().all(|t| t.wq == 0));
        assert_eq!(rep.tenants[0].dsa_completed, 20);
    }

    #[test]
    fn by_class_places_latency_on_dedicated_wq() {
        let specs = vec![
            TenantSpec::new("lat", 4 << 10, 10).with_class(QosClass::Latency),
            TenantSpec::new("bulk", 16 << 10, 10),
        ];
        let mut svc = svc(PlanSpec::ByClass, specs);
        let rep = svc.run();
        assert_eq!(rep.tenants[0].wq, 0, "latency tenant on the dedicated WQ");
        assert_eq!(rep.tenants[1].wq, 1, "throughput tenant on the shared WQ");
        assert_eq!(rep.tenants[0].dsa_completed, 10);
        assert_eq!(rep.tenants[1].dsa_completed, 10);
    }

    #[test]
    fn admission_rate_paces_an_eager_tenant() {
        // Closed loop with zero think, but metered to 100k jobs/s: 50 jobs
        // need ≥ 49 token intervals of 10 µs.
        let specs = vec![TenantSpec::new("paced", 1 << 10, 50).with_admission(100_000, 1)];
        let mut svc = svc(PlanSpec::Dedicated, specs);
        let rep = svc.run();
        assert_eq!(rep.tenants[0].dsa_completed, 50);
        assert!(
            rep.makespan >= SimTime::ZERO + SimDuration::from_us(490),
            "metering must stretch the run to ≥ 49 × 10 µs, got {:?}",
            rep.makespan
        );
    }

    #[test]
    fn deadline_sheds_when_queueing_exceeds_it() {
        // One in-flight slot and a deadline far below the per-job service
        // time: job 0 is admitted, later arrivals find the slot busy past
        // their deadline and are shed.
        let specs = vec![TenantSpec::new("dl", 1 << 20, 8)
            .with_outstanding(1)
            .with_arrival(Arrival::open(SimDuration::from_ns(200)))
            .with_deadline(SimDuration::from_us(1))];
        let mut svc = svc(PlanSpec::Dedicated, specs);
        let rep = svc.run();
        let t = &rep.tenants[0];
        assert_eq!(t.offered, 8);
        assert!(t.shed > 0, "expected admission shedding, got {t:?}");
        assert_eq!(t.dsa_completed + t.shed, 8);
    }

    #[test]
    fn session_drives_one_job_per_submit() {
        let mut svc = svc(PlanSpec::Dedicated, two_tenants());
        let mut sess = svc.session(0);
        for k in 1..=5u64 {
            let out = sess.submit().unwrap();
            assert!(matches!(out, JobOutcome::Dsa { .. }));
            assert_eq!(sess.stats().dsa_completed, k);
        }
        assert_eq!(svc.stats(1).offered, 0, "other tenants untouched");
    }

    #[test]
    fn session_then_run_finishes_every_stream() {
        // Hand-driving a tenant must leave the action queue exact: the
        // remaining jobs of BOTH tenants still complete under run().
        let mut svc = svc(PlanSpec::Dedicated, two_tenants());
        svc.session(0).submit().unwrap();
        svc.session(0).submit().unwrap();
        let rep = svc.run();
        assert_eq!(rep.tenants[0].dsa_completed, 20);
        assert_eq!(rep.tenants[1].dsa_completed, 20);
    }

    #[test]
    fn builder_rejects_zero_transfer() {
        let err = ServiceConfig::builder().tenant(TenantSpec::new("z", 0, 1)).build().unwrap_err();
        assert!(matches!(err, DsaError::InvalidService { .. }), "got {err}");
    }

    #[test]
    fn builder_rejects_cxl_buffers_without_cxl() {
        let err = ServiceConfig::builder()
            .platform(Platform::icx())
            .location(Location::Cxl)
            .tenant(TenantSpec::new("t", 4 << 10, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, DsaError::InvalidService { .. }), "got {err}");
    }

    #[test]
    fn builder_rejects_out_of_range_socket() {
        let err = ServiceConfig::builder()
            .location(Location::Dram { socket: 7 })
            .tenant(TenantSpec::new("t", 4 << 10, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, DsaError::InvalidService { .. }), "got {err}");
    }

    #[test]
    fn builder_surfaces_plan_envelope_violations() {
        // 9 dedicated tenants cannot fit the 8-WQ envelope.
        let specs: Vec<TenantSpec> =
            (0..9).map(|i| TenantSpec::new(&format!("t{i}"), 1 << 10, 1)).collect();
        let err =
            ServiceConfig::builder().plan(PlanSpec::Dedicated).tenants(specs).build().unwrap_err();
        assert!(matches!(err, DsaError::InvalidConfig(_)), "got {err}");
    }

    #[test]
    fn remote_dram_buffers_pay_the_upi_hop() {
        let run_at = |loc: Location| {
            let cfg = ServiceConfig::builder()
                .location(loc)
                .tenant(TenantSpec::new("t", 64 << 10, 10).with_outstanding(1))
                .build()
                .unwrap();
            DsaService::from_config(cfg).unwrap().run().makespan
        };
        let local = run_at(Location::local_dram());
        let remote = run_at(Location::remote_dram());
        assert!(
            remote > local,
            "remote-DRAM tenants must be slower than local ({remote:?} vs {local:?})"
        );
    }

    #[test]
    fn report_digest_matches_unified_digestible() {
        // A run's report, plus a hand-built one in which every summarised
        // field is non-zero: shares, percentiles, misses and retries.
        let mut s = svc(PlanSpec::Dedicated, two_tenants());
        let busy = ServiceReport {
            plan: "by-class".to_string(),
            tenants: (0..3u64)
                .map(|i| TenantReport {
                    name: format!("tenant-{i}"),
                    class: if i == 0 { QosClass::Latency } else { QosClass::Throughput },
                    wq: 1 + i as usize,
                    offered: 100 + i,
                    dsa_completed: 70 + i,
                    cpu_completed: 20 + i,
                    shed: 5 + i,
                    failed: 3 + i,
                    retries: 40 + i,
                    deadline_misses: 7 + i,
                    dsa_share: 0.7 + 0.01 * i as f64,
                    p50: SimDuration::from_ns(1_500 + i),
                    p99: SimDuration::from_ns(9_000 + i),
                    p999: SimDuration::from_ns(12_345 + i),
                    mean: SimDuration::from_ns(2_000 + i),
                })
                .collect(),
            fairness: 0.9876,
            makespan: SimTime::from_ns(987_654),
            slo: Some(SloTarget::new().with_p99(SimDuration::from_us(10))),
            transitions: 2,
        };
        for rep in [s.run(), busy] {
            assert_eq!(rep.digest(), rep.digest64());
            assert_eq!(rep.digest(), Fnv1a::digest(rep.summary().as_bytes()));
        }
    }
}
