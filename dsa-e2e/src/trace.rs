//! The traced run (`--trace 1`): per-layer numbers, every one taken from
//! outside the program by timing the benchmark's own calls into the
//! public APIs of each crate, plus the counters those APIs expose.
//!
//! Each workload's host time is split into parts that sum exactly, by
//! construction, to the traced total:
//! - `svc_churn` and `fig02_grid`: build + run;
//! - `ctl_governed`: the governed run = plain run + Hub/epoch loop +
//!   re-planning, from three runs of one roster (plain `DsaService::run`,
//!   a governor without an SLO, the governor with it);
//! - `fleet_100k`: a sequential replay = shard builds + shard runs +
//!   merge (`ShardReport::from_service` and `FleetReport::from_shards`).
//!
//! The `*_us` probes are isolated per-call estimates on their own inputs,
//! not part of any partition: they say what one call costs when the
//! structure it walks is empty (`cold`) or full, not how often a workload
//! makes that call.

use crate::stats::{median, tail_ok, timed};
use crate::workloads::{
    check_conservation, churn_service, fig02_outcome, fig02_points, fleet, fold_point, governor,
    run_point, Res, Tally, Workload, CHURN_SEED, CTL_SCALE, SVC_SCALE, THREADS,
};
use dsa_core::digest::{merge_in_order, Fnv1a};
use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_device::device::DsaDevice;
use dsa_mem::buffer::Location;
use dsa_mem::memsys::{AgentId, MemSystem, WritePolicy};
use dsa_mem::topology::Platform;
use dsa_ops::crc32::Crc32c;
use dsa_ops::memops;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_sim::timeline::BwResource;
use dsa_svc::prelude::*;
use dsa_telemetry::{CritPathProfile, Hub, SegmentKind};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Submissions (or chunk/pipe reservations) before a warm probe starts
/// timing: enough to fill a bandwidth pipe's 4096-entry gap list.
const WARM_OPS: u32 = 5_000;
/// The memory model's transfer chunk.
const CHUNK: u64 = 16 << 10;
/// Idle time a warm probe leaves between reservations, so each one adds
/// a backfill gap.
const PROBE_GAP: SimDuration = SimDuration::from_ns(100);

/// Per-layer values of one traced run, medians over its traced reps.
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    /// Jobs (descriptors on `fig02_grid`) the traced reps ran.
    pub offered: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Runs a checked warm-up rep of `w`, then traced reps until `seconds` of
/// wall time, the warm-up included, have passed (at least one traced rep),
/// then the probes. Without the warm-up the first run in the process pays
/// first-touch allocation and reads up to 60% slower, which would swamp
/// the Hub's share of the split.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Res<Traced> {
    let (warm, mut spent) = timed(|| traced_rep(w, seed));
    warm?;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut offered, mut failed, mut notes) = (0, 0, Vec::new());
    while spent < seconds || samples.is_empty() {
        let (layers, s) = timed(|| traced_rep(w, seed));
        let layers = layers?;
        spent += s;
        offered += layers.offered;
        failed += layers.failed;
        notes = layers.notes;
        for (k, v) in layers.values {
            samples.entry(k).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&'static str, f64> =
        samples.into_iter().map(|(k, v)| (k, median(&v))).collect();
    values.extend(probes()?);
    Ok(Traced { values, offered, failed, notes })
}

fn traced_rep(w: Workload, seed: u64) -> Res<Layers> {
    match w {
        Workload::SvcChurn => svc_churn(seed),
        Workload::CtlGoverned => ctl_governed(),
        Workload::Fleet100k => fleet_100k(seed),
        Workload::Fig02Grid => fig02_grid(),
    }
}

#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    offered: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// The build/run split every workload has, and the Hub's extra time.
    fn host(&mut self, build_s: f64, run_s: f64, jobs: u64, hub_s: f64) {
        self.set("trace.build_s", build_s);
        self.set("trace.run_s", run_s);
        self.set("trace.us_per_job", run_s * 1e6 / jobs.max(1) as f64);
        self.set("telemetry.hub_s", hub_s);
        self.set("telemetry.hub_overhead", hub_s / run_s);
    }

    /// Hub counts and the critical-path split of every traced job. Fails
    /// when too few jobs were traced for a p99, rather than report one.
    fn hub(&mut self, events: usize, traces: usize, profile: &CritPathProfile) -> Res<()> {
        self.set("telemetry.hub_events", events as f64);
        self.set("telemetry.hub_traces", traces as f64);
        let b = profile.overall().ok_or("the Hub-on run traced no jobs")?;
        if !tail_ok(b.count, 990) {
            return Err(format!("{} traced jobs are too few for a segment p99", b.count));
        }
        let seg = |k: SegmentKind| b.segments[k.index()];
        let p99 = |k: SegmentKind| {
            seg(k).p99.map(|d| d.as_us_f64()).ok_or(format!("no {k:?} p99 over {} jobs", b.count))
        };
        self.set("core.sim_prep_share", seg(SegmentKind::SoftwarePrep).share);
        self.set("device.sim_wq_wait_share", seg(SegmentKind::WqWait).share);
        self.set("device.sim_wq_wait_p99_us", p99(SegmentKind::WqWait)?);
        self.set("device.sim_pe_service_share", seg(SegmentKind::PeService).share);
        self.set("mem.sim_memory_hop_share", seg(SegmentKind::MemoryHop).share);
        self.set("mem.sim_memory_hop_p99_us", p99(SegmentKind::MemoryHop)?);
        self.set("device.sim_completion_share", seg(SegmentKind::CompletionWrite).share);
        Ok(())
    }

    fn svc(&mut self, t: &Tally) {
        let served = t.served();
        self.set("svc.offered", t.offered as f64);
        self.set("svc.served", served as f64);
        self.set("svc.shed", t.shed as f64);
        self.set("svc.failed", t.failed as f64);
        self.set("svc.late", t.late as f64);
        self.set("svc.retries", t.retries as f64);
        self.set("svc.retry_ratio", t.retries as f64 / t.offered.max(1) as f64);
        self.set("svc.cpu_fallback_frac", t.cpu as f64 / served.max(1) as f64);
        self.set("svc.latency_samples", t.latency.count() as f64);
    }

    fn device(&mut self, d: &DevTally) {
        self.set("device.descriptors", d.descriptors as f64);
        self.set("device.bytes_read", d.bytes_read as f64);
        self.set("device.bytes_written", d.bytes_written as f64);
        let lookups = d.atc_hits + d.atc_misses;
        self.set("device.atc_miss_ratio", d.atc_misses as f64 / lookups.max(1) as f64);
        self.set("device.page_faults", d.page_faults as f64);
        self.set("device.wq_rejections", d.wq_rejections as f64);
        self.set("device.pe_utilization", d.busy_ps as f64 / d.capacity_ps.max(1) as f64);
    }
}

/// Device counters summed over every device a workload ran.
#[derive(Default)]
struct DevTally {
    descriptors: u64,
    bytes_read: u64,
    bytes_written: u64,
    page_faults: u64,
    wq_rejections: u64,
    atc_hits: u64,
    atc_misses: u64,
    busy_ps: u128,
    /// Engine count x makespan: the busy time the engines could have had.
    capacity_ps: u128,
}

impl DevTally {
    fn add(&mut self, d: &DsaDevice, makespan_ps: u64) {
        let t = d.telemetry();
        self.descriptors += t.descriptors;
        self.bytes_read += t.bytes_read;
        self.bytes_written += t.bytes_written;
        self.page_faults += t.page_faults;
        self.wq_rejections += t.wq_rejections;
        self.atc_hits += t.atc_hits;
        self.atc_misses += t.atc_misses;
        self.busy_ps += u128::from(d.engines_busy_time().as_ps());
        self.capacity_ps += d.engine_count() as u128 * u128::from(makespan_ps);
    }
}

/// A service's job traces folded into `profile`.
fn record_traces(profile: &mut CritPathProfile, hub: &Hub) {
    for t in hub.job_traces() {
        profile.record(&t);
    }
}

fn svc_churn(seed: u64) -> Res<Layers> {
    let mut l = Layers::default();
    let (svc, build) = timed(|| churn_service(SVC_SCALE, seed, false));
    let mut svc = svc?;
    let (rep, run) = timed(|| svc.run());
    check_conservation(&rep)?;
    let mut tally = Tally::default();
    tally.add_service(&svc);
    let mut dev = DevTally::default();
    dev.add(svc.runtime().device(0), tally.makespan_ps);

    let mut hubbed = churn_service(SVC_SCALE, seed, false)?;
    let hub = hubbed.trace();
    let (hub_rep, hub_run) = timed(|| hubbed.run());
    if hub_rep.digest() != rep.digest() {
        return Err("Hub-on digest differs from the Hub-off run".into());
    }
    let mut profile = CritPathProfile::new();
    record_traces(&mut profile, &hub);

    l.host(build, run, tally.offered, hub_run - run);
    l.hub(hub.event_count(), hub.trace_count(), &profile)?;
    l.svc(&tally);
    l.device(&dev);
    l.offered = 2 * tally.offered;
    l.failed = 2 * tally.failed;
    l.notes
        .push(format!("partition: build {build} s + run {run} s = traced total {} s", build + run));
    Ok(l)
}

fn ctl_governed() -> Res<Layers> {
    let mut l = Layers::default();
    let svc = |governed| churn_service(CTL_SCALE, CHURN_SEED, governed);
    let (plain, build) = timed(|| svc(false));
    let mut plain = plain?;
    let (plain_rep, run) = timed(|| plain.run());
    check_conservation(&plain_rep)?;
    let mut dev = DevTally::default();
    dev.add(plain.runtime().device(0), plain_rep.makespan.as_ps());

    // The same roster under a governor with no SLO: the epoch loop and
    // its Hub, never a re-plan, so the digest must equal the plain run's.
    let mut inert = svc(false)?;
    let (inert_ctl, epoch_loop) = timed(|| governor().govern(&mut inert));
    if inert_ctl.digest() != plain_rep.digest() {
        return Err("inert-governor digest differs from the plain run".into());
    }

    let mut gov = svc(true)?;
    let (ctl, govern) = timed(|| governor().govern(&mut gov));
    check_conservation(&ctl.report)?;
    let mut tally = Tally::default();
    tally.add_service(&gov);
    let mut profile = CritPathProfile::new();
    let (mut events, mut traces) = (0, 0);
    if let Some(hub) = gov.runtime().hub() {
        record_traces(&mut profile, hub);
        events = hub.event_count();
        traces = hub.trace_count();
    }

    let (hub_s, replan_s) = (epoch_loop - run, govern - epoch_loop);
    l.host(build, run, tally.offered, hub_s);
    l.hub(events, traces, &profile)?;
    l.svc(&tally);
    l.device(&dev);
    let decisions = ctl.decisions.len() as f64;
    l.set("ctl.replan_overhead", replan_s / run);
    l.set("ctl.decisions", decisions);
    l.set("ctl.transitions", ctl.transitions() as f64);
    l.set("ctl.epochs", f64::from(ctl.epochs));
    l.set("ctl.adopt_ratio", ctl.transitions() as f64 / decisions.max(1.0));
    l.offered = 3 * tally.offered;
    // The inert run replays the plain one (same digest), failures included.
    l.failed = tally.failed + 2 * plain_rep.tenants.iter().map(|t| t.failed).sum::<u64>();
    l.notes.push(format!(
        "partition: plain run {run} s + hub {hub_s} s + replan {replan_s} s = governed {} s",
        run + hub_s + replan_s
    ));
    l.notes.push(format!("replan: {} ms per decision", replan_s * 1e3 / decisions.max(1.0)));
    Ok(l)
}

fn fleet_100k(seed: u64) -> Res<Layers> {
    let mut l = Layers::default();
    let f = fleet(seed)?;
    let n = f.shard_count();
    let (mut build, mut run, mut merge) = (0.0, 0.0, 0.0);
    let (mut per_shard, mut served) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut tally, mut dev, mut rows) =
        (Tally::default(), DevTally::default(), Vec::with_capacity(n));
    for i in 0..n {
        let (svc, b) = timed(|| f.shard_service(i));
        let mut svc = svc.map_err(|e| e.to_string())?;
        let (rep, r) = timed(|| svc.run());
        check_conservation(&rep)?;
        let (row, m) = timed(|| ShardReport::from_service(f.shard_assignment(i), &svc, &rep));
        tally.add_service(&svc);
        dev.add(svc.runtime().device(0), rep.makespan.as_ps());
        per_shard.push(b + r);
        served.push((row.dsa_completed + row.cpu_completed) as f64);
        rows.push(row);
        (build, run, merge) = (build + b, run + r, merge + m);
    }
    let (seq, m) = timed(|| FleetReport::from_shards(f.config().placement(), rows));
    merge += m;
    let (par, par_s) = timed(|| f.run_parallel(THREADS));
    if par.map_err(|e| e.to_string())?.digest != seq.digest {
        return Err(format!("sequential shard replay digest differs from run_parallel({THREADS})"));
    }

    // Hub on every shard, shard by shard: what always-on fleet telemetry
    // would cost, and the critical-path split of every job.
    let (mut hub_run, mut events, mut traces) = (0.0, 0, 0);
    let mut digests = Vec::with_capacity(n);
    let mut profile = CritPathProfile::new();
    for i in 0..n {
        let mut svc = f.shard_service(i).map_err(|e| e.to_string())?;
        let hub = svc.trace();
        let (rep, r) = timed(|| svc.run());
        hub_run += r;
        digests.push(rep.digest());
        events += hub.event_count();
        traces += hub.trace_count();
        record_traces(&mut profile, &hub);
    }
    if merge_in_order(&digests) != seq.digest {
        return Err("Hub-on shard digests differ from the Hub-off replay".into());
    }

    l.host(build, run, tally.offered, hub_run - run);
    l.hub(events, traces, &profile)?;
    l.svc(&tally);
    l.device(&dev);
    let mean = per_shard.iter().sum::<f64>() / n as f64;
    l.set("fleet.merge_share", merge / (build + run + merge));
    l.set("fleet.shard_imbalance", per_shard.iter().copied().fold(0.0, f64::max) / mean);
    l.set("fleet.parallel_efficiency", (build + run) / (THREADS as f64 * par_s));
    l.set(
        "fleet.shard_served_spread",
        served.iter().copied().fold(0.0, f64::max)
            / served.iter().copied().fold(f64::MAX, f64::min).max(1.0),
    );
    l.set("fleet.upi_crossers", f64::from(f.plan().upi_crossers()));
    l.offered = 3 * tally.offered;
    l.failed = 3 * tally.failed;
    l.notes.push(format!(
        "partition: shard builds {build} s + shard runs {run} s + merge {merge} s = sequential total {} s",
        build + run + merge
    ));
    Ok(l)
}

fn fig02_grid() -> Res<Layers> {
    let mut l = Layers::default();
    let (mut build, mut run, mut hub_run, mut events, mut traces) = (0.0, 0.0, 0.0, 0, 0);
    let (mut dev, mut profile, mut results) =
        (DevTally::default(), CritPathProfile::new(), Vec::new());
    for p in fig02_points() {
        let (mut rt, b) = timed(DsaRuntime::spr_default);
        let (r, t) = run_point(p, &mut rt)?;
        dev.add(rt.device(0), rt.now().as_ps());
        (build, run) = (build + b, run + t);

        let mut hubbed = DsaRuntime::spr_default();
        let hub = hubbed.trace();
        let (h, t) = run_point(p, &mut hubbed)?;
        let (mut a, mut z) = (Fnv1a::new(), Fnv1a::new());
        fold_point(&mut a, &r.result);
        fold_point(&mut z, &h.result);
        if a.finish() != z.finish() {
            return Err(format!("{p:?}: Hub-on result differs from the Hub-off run"));
        }
        hub_run += t;
        events += hub.event_count();
        traces += hub.trace_count();
        record_traces(&mut profile, &hub);
        results.push(r);
    }
    let outcome = fig02_outcome(&results);
    l.host(build, run, outcome.tally.offered, hub_run - run);
    l.hub(events, traces, &profile)?;
    l.device(&dev);
    l.set("figures.breakeven_err_log2", outcome.breakeven_err_log2);
    l.offered = 2 * outcome.tally.offered;
    l.notes.push(format!(
        "partition: runtime builds {build} s + measure runs {run} s = traced total {} s",
        build + run
    ));
    Ok(l)
}

/// Median per-call microseconds of `f` over 21 batches of `calls`.
fn per_call_us(calls: u32, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..21)
        .map(|_| {
            let ((), s) = timed(|| (0..calls).for_each(|_| f()));
            s * 1e6 / f64::from(calls)
        })
        .collect();
    median(&us)
}

/// `Job::memcpy(..).try_submit` on a fresh runtime after `warm`
/// back-to-back submissions, each waited for before the next.
fn submit_us(size: u64, warm: u32) -> Res<f64> {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(size, Location::local_dram());
    let dst = rt.alloc(size, Location::local_dram());
    let one = |rt: &mut DsaRuntime| -> Res<()> {
        let h = Job::memcpy(&src, &dst).try_submit(rt).map_err(|e| e.to_string())?;
        rt.advance_to(h.completion_time());
        Ok(())
    };
    for _ in 0..warm {
        one(&mut rt)?;
    }
    let mut us = Vec::new();
    for _ in 0..100 {
        let (r, s) = timed(|| one(&mut rt));
        r?;
        us.push(s * 1e6);
    }
    Ok(median(&us))
}

/// One 16 KiB read + write pair on the memory model, after `WARM_OPS`
/// pairs that each leave an idle gap.
fn chunk_us() -> f64 {
    let mut ms = MemSystem::new(Platform::spr());
    let (agent, loc, mut ready) = (AgentId::dsa(0), Location::local_dram(), SimTime::ZERO);
    let mut pair = || {
        let r = ms.read(agent, loc, ready, CHUNK);
        let w = ms.write_at(agent, loc, r.end, 0, CHUNK, WritePolicy::Memory);
        ready = w.interval.end + PROBE_GAP;
    };
    (0..WARM_OPS).for_each(|_| pair());
    per_call_us(10, pair)
}

/// One 16 KiB `BwResource::transfer`: with a full gap list (each transfer
/// ready a gap after the last) or with none (each ready at the tail).
fn bw_transfer_us(full: bool) -> f64 {
    let mut bw = BwResource::new(30_000);
    let gap = if full { PROBE_GAP } else { SimDuration::ZERO };
    let mut ready = SimTime::ZERO;
    let mut one = || ready = bw.transfer(ready, CHUNK).end + gap;
    if full {
        (0..WARM_OPS).for_each(|_| one());
    }
    per_call_us(if full { 10 } else { 1_000 }, one)
}

fn copy_us(size: usize) -> f64 {
    let src = vec![0xA5u8; size];
    let mut dst = vec![0u8; size];
    let calls = (1 << 20) / size as u32;
    per_call_us(calls.max(1), || memops::copy(black_box(&src), black_box(&mut dst)))
}

fn probes() -> Res<Vec<(&'static str, f64)>> {
    let buf = vec![0x5Au8; 64 << 10];
    Ok(vec![
        ("core.submit_us_2k", submit_us(2 << 10, WARM_OPS)?),
        ("core.submit_us_4k", submit_us(4 << 10, WARM_OPS)?),
        ("core.submit_us_64k", submit_us(64 << 10, WARM_OPS)?),
        ("core.submit_us_512k", submit_us(512 << 10, WARM_OPS)?),
        ("core.submit_cold_us_4k", submit_us(4 << 10, 0)?),
        ("mem.chunk_us", chunk_us()),
        ("sim.bw_transfer_us", bw_transfer_us(true)),
        ("sim.bw_transfer_cold_us", bw_transfer_us(false)),
        ("ops.copy_us_2k", copy_us(2 << 10)),
        ("ops.copy_us_4k", copy_us(4 << 10)),
        ("ops.copy_us_64k", copy_us(64 << 10)),
        ("ops.copy_us_512k", copy_us(512 << 10)),
        (
            "ops.crc32_us_64k",
            per_call_us(16, || {
                black_box(Crc32c::checksum(black_box(&buf)));
            }),
        ),
    ])
}
