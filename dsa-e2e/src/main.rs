//! # dsa-e2e — the end-to-end benchmark of the DSA reproduction
//!
//! One command measures the four paths the repository's results come
//! from (figures, service, fleet, governor) on the code those paths run,
//! checks the outputs, and prints every metric with its unit:
//!
//! ```text
//! cargo run --release --manifest-path dsa-e2e/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! These four flags are the interface `BENCHMARK.json` describes: a
//! harness reading it passes its `run_seconds` as `--seconds`, the wall
//! time one run measures, on every run. Without `--seconds` a run measures
//! that same default.
//!
//! Each metric prints as `workload metric value unit`; lines starting
//! with `#` are notes (seed, reps, digest, quartiles, sample counts). The
//! last line is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `attempted` counts jobs (descriptors on `fig02_grid`) in
//! the measured reps; `failed` counts jobs that ended in an error. Shed
//! jobs are a policy outcome, not a failure: they count against
//! `sim_ontime_frac`. Any failed check prints `"correct": false` and
//! exits 1. Without `--workload` the binary re-runs itself once per
//! workload, each in its own process, so every workload's peak RSS is its
//! own.
//!
//! ## Workloads
//!
//! Simulated latency is timed from each job's scheduled arrival, so a
//! stall counts against the jobs queued behind it. Host time is the
//! simulator's wall time on the machine running the benchmark; simulated
//! time is what the modelled hardware would take. Every workload is
//! single-threaded except `fleet_100k`.
//!
//! | name | per rep | why |
//! |---|---|---|
//! | `svc_churn` | one `DsaService`, shared plan, no Hub; the `ctl_churn` roster at 30x: 4 latency tenants (4 KiB x 7,200 jobs, open loop, 3.5 us mean gap, 60 us deadline), 2 bulk (64 KiB x 3,600, open loop, 12 us gap), 2 aggressors (512 KiB x 90, closed loop, depth 8, from 6.75 ms); 36,180 jobs | the service path on a long-lived runtime: admission, the action queue, job submit, the device timeline and the memory model's bandwidth pipes do the work; no governor, fleet or telemetry |
//! | `ctl_governed` | the `ctl_churn` governed lane: the roster at 4x (4,824 jobs), SLO p99 60 us and miss fraction 0.02, 10 us epochs, `Governor::govern` | twin scoring, the Hub and its windows dominate; the only workload whose QoS depends on a control decision |
//! | `fleet_100k` | `Fleet`: 2 sockets x 4 devices, 32 shards, NUMA-local, 100,000 `TenantProfile::small()` tenants (2 KiB, 2 jobs, closed loop, depth 4), 100 us deadline, every 4th latency class, `run_parallel(2)`; 200,000 jobs | ~3.1k tenants per service: per-tenant set-up, the action queue and the fork-join dominate, with tiny transfers; the only multi-threaded workload |
//! | `fig02_grid` | the Fig. 2 sweep: 8 operations x 8 sizes x {sync, async QD 32}, each point on a fresh `DsaRuntime::spr_default()` driven by `Measure` (40 ops, 10 at >= 1 MiB); 128 points, 4,160 descriptors | the figure path: no service, governor, fleet or telemetry; short-lived runtimes; the byte-reading operations (CRC, compare, DIF, dualcast). A service-path change should leave it unchanged |
//!
//! Seeds: `--seed` feeds `ServiceConfig::seed` (`svc_churn`) and
//! `FleetConfig::seed` (`fleet_100k`) of the timed reps; the reference
//! seeds, used when `--seed` is absent, are the legacy bench seeds
//! (`0xC10C0DE5`, `0xF1EE75CA1E`). `fleet_100k` draws no random numbers
//! (closed loop, zero think time); `fig02_grid` has no RNG.
//! `ctl_governed` times the legacy seed only: its governor's plan choices
//! flip on small input changes (of 20 seeds tried, 7 settle in a plan that
//! misses ~45% of deadlines, and host time ranges 0.56-1.81 s), so no
//! spread bound could hold across seeds. There `--seed` drives one
//! governed replay that is checked (conservation, at least one plan
//! transition) but not timed; at the legacy seed the reference rep is that
//! check.
//!
//! Each run first does one reference rep at the reference seed. It warms
//! the process up and gives the simulated metrics, which are therefore
//! exact: the same on every run of the same code, whatever `--seed` says.
//! Timed reps at `--seed` follow until `--seconds` of wall time, the
//! reference rep included, have passed and at least five ran; they give
//! the host-time metrics, as medians, with the quartiles printed as notes.
//! `BASELINE.md` beside this crate's manifest records two full sets of
//! runs, their spreads and each run's wall time.
//!
//! ## End-to-end metrics (untraced run)
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `run_s` | s (host) | lower | median run phase: `DsaService::run`, `Governor::govern`, `Fleet::run_parallel(2)` (which also builds the shard services), or the 128 `Measure` runs |
//! | `setup_s` | s (host) | lower | median build phase: config + `DsaService::from_config`, `FleetConfig` + `Fleet::new`, or the 128 runtime builds |
//! | `served_jobs_per_s` | jobs/s (host) | higher | DSA + CPU-fallback completions per `run_s`; sheds and failures excluded; descriptors on `fig02_grid` |
//! | `peak_rss_mib` | MiB | lower | the process's VmHWM |
//! | `sim_p50_us`, `sim_p99_us` | us (sim) | lower | merged per-tenant latency histograms; a run with fewer than 10 samples beyond p99 fails; on `fig02_grid`, the median over the 64 sync points of each point's p50 and p99 |
//! | `sim_ontime_frac` | fraction | higher | (served - late) / offered: shed and failed jobs count as late; 1 on `fig02_grid`, which has no deadlines |
//! | `sim_gbps` | GB/s (sim) | higher | bytes the accelerator served / simulated makespan; on `fig02_grid`, the geometric mean of the 128 points |
//! | `jain` | index | higher | Jain fairness over accelerator-served shares; 1 on `fig02_grid` (one submitter) |
//!
//! The service workloads also print the reference rep's p99.9 as a note,
//! `sim_p999_us`, with its sample count; it is refused (the note says so)
//! with fewer than 10 samples beyond it, as on `ctl_governed`'s 4,824
//! jobs. The model has one numeric validation, the Fig. 2 break-even
//! sizes (`figures.breakeven_err_log2`, 0 today); nothing else in it is
//! checked against hardware.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! One traced process per workload runs a checked warm-up rep, then traced
//! reps until `--seconds` of wall time, the warm-up included, have passed
//! (at least one; medians reported), then the probes. Every number is
//! taken from outside: the benchmark times its own calls into `svc`, `ctl`,
//! `svc::fleet`, `core`, `device`, `mem`, `sim`, `ops` and `telemetry`;
//! tracing inside the program is not yet built. Host-time and
//! critical-path metrics are measured on every workload (a critical-path
//! p99 over fewer than 1,000 traced jobs fails the run); a count or ratio
//! of a layer a workload does not cross reads 0. See [`trace`] for the
//! exact partitions.
//!
//! | metric | unit | should move |
//! |---|---|---|
//! | `trace.build_s`, `trace.run_s`, `trace.us_per_job` | s, us | `setup_s`, `run_s`, `served_jobs_per_s` on the same workload |
//! | `telemetry.hub_s`, `telemetry.hub_overhead` | s, ratio | extra run time with a Hub attached (on `ctl_governed`, the inert-governor epoch loop minus the plain run); `run_s` on `ctl_governed` |
//! | `telemetry.hub_events`, `telemetry.hub_traces` | count | `peak_rss_mib` |
//! | `ctl.replan_overhead`, `ctl.decisions`, `ctl.transitions`, `ctl.epochs`, `ctl.adopt_ratio` | ratio, count | `run_s` and `sim_ontime_frac` on `ctl_governed`; governed/plain = 1 + hub_overhead + replan_overhead |
//! | `fleet.merge_share`, `fleet.shard_imbalance`, `fleet.parallel_efficiency`, `fleet.shard_served_spread`, `fleet.upi_crossers` | fraction, ratio, count | `run_s` and `served_jobs_per_s` on `fleet_100k` |
//! | `svc.offered` .. `svc.retries`, `svc.retry_ratio`, `svc.cpu_fallback_frac`, `svc.latency_samples` | count, ratio | `sim_ontime_frac`, `sim_gbps`, `sim_p99_us` |
//! | `core.sim_prep_share`, `device.sim_*`, `mem.sim_memory_hop_*` | fraction, us (sim) | `sim_p50_us`, `sim_p99_us` (critical-path segments of every job, from the Hub-on run) |
//! | `device.descriptors`, `device.bytes_*`, `device.atc_miss_ratio`, `device.page_faults`, `device.wq_rejections`, `device.pe_utilization` | count, bytes, fraction | `sim_gbps`, `svc.retries` |
//! | `core.submit_us_{2k,4k,64k,512k}`, `core.submit_cold_us_4k`, `mem.chunk_us`, `sim.bw_transfer_us`, `sim.bw_transfer_cold_us` | us | `run_s` on the service, governor and fleet workloads; no change on `fig02_grid` |
//! | `ops.copy_us_{2k,4k,64k,512k}`, `ops.crc32_us_64k` | us | `run_s` on `fig02_grid` |
//! | `figures.breakeven_err_log2` | log2 | the model's error against Fig. 2 |
//!
//! The probes are isolated per-call estimates on inputs of their own; they
//! are not part of any partition and do not say how often a workload makes
//! the call.
//!
//! Retiring the older perf records (`simperf`, `scripts/perfgate` and the
//! `BENCH_*.json` files) in favour of this benchmark is left to a later
//! change.

mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{assemble, Metric, END_TO_END, PER_LAYER};
use stats::{quartiles, timed};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Rep, Res, Workload};

/// Timed reps every untraced run makes, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Seconds of wall time a run measures when `--seconds` is absent: the
/// `run_seconds` of `BENCHMARK.json`, which a unit test keeps in step.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage: dsa-e2e [--workload svc_churn|ctl_governed|fleet_100k|fig02_grid] \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: None, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--workload" => {
                out.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                out.seed = Some(parse_u64(value).ok_or_else(|| format!("bad seed {value}"))?)
            }
            "--seconds" => {
                out.seconds = parse_u64(value)
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// What one workload's run prints: metric and note lines, the metrics
/// themselves, and the job counts for the result line.
struct Output {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn metric_lines(w: Workload, metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| format!("{} {} {} {}", w.name(), m.name, m.value, m.unit)).collect()
}

/// The untraced run. The first rep runs the reference seed: it warms the
/// process up and gives the simulated metrics, so they do not move with
/// `--seed`. Timed reps at the caller's seed follow until `seconds` of
/// wall time, the reference rep included, have passed and at least
/// `MIN_REPS` ran.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Res<Output> {
    let mut notes = Vec::new();
    let (reference, mut spent) = timed(|| w.rep(w.default_seed()));
    let reference = reference?.outcome;
    if w == Workload::CtlGoverned {
        let (note, s) = timed(|| workloads::ctl_seed_check(seed, &reference));
        notes.push(note?);
        spent += s;
    }
    let timed_seed = w.timed_seed(seed);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || spent < seconds {
        let (r, s) = timed(|| w.rep(timed_seed));
        let r = r?;
        spent += s;
        if let Some(first) = reps.first() {
            if r.outcome.digest != first.outcome.digest {
                return Err(format!(
                    "rep {} digest {:#018x} differs from rep 1's {:#018x}",
                    reps.len() + 1,
                    r.outcome.digest,
                    first.outcome.digest
                ));
            }
        }
        reps.push(r);
    }
    let digest = reps[0].outcome.digest;
    if timed_seed == w.default_seed() && digest != reference.digest {
        return Err(format!(
            "timed digest {digest:#018x} differs from the reference rep's {:#018x}",
            reference.digest
        ));
    }
    let run = quartiles(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let setup = quartiles(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let tally = &reps[0].outcome.tally;
    let o = &reference;
    let values = BTreeMap::from([
        ("run_s", run[1]),
        ("setup_s", setup[1]),
        ("served_jobs_per_s", tally.served() as f64 / run[1]),
        ("peak_rss_mib", peak_rss_mib()?),
        ("sim_p50_us", o.p50_us),
        ("sim_p99_us", o.p99_us),
        ("sim_ontime_frac", o.ontime_frac()),
        ("sim_gbps", o.sim_gbps),
        ("jain", o.jain),
    ]);
    let metrics = assemble(END_TO_END, &values)?;
    notes.push(format!(
        "timed seed {timed_seed:#x}: {} reps after the reference rep at seed {:#x}, digest {digest:#018x}",
        reps.len(),
        w.default_seed()
    ));
    notes.push(format!("run_s q1 {} median {} q3 {}", run[0], run[1], run[2]));
    notes.push(format!("setup_s q1 {} median {} q3 {}", setup[0], setup[1], setup[2]));
    notes.push(format!(
        "per timed rep: {} offered, {} served, {} shed, {} late",
        tally.offered,
        tally.served(),
        tally.shed,
        tally.late
    ));
    let samples = o.tally.latency.count();
    match o.p999_us {
        Some(p999) => notes.push(format!("sim_p999_us {p999} sim_us over {samples} samples")),
        None if samples > 0 => notes.push(format!(
            "sim_p999_us refused: {samples} samples leave fewer than 10 beyond p99.9"
        )),
        None => {}
    }
    if w == Workload::CtlGoverned {
        notes.push(format!(
            "reference rep: {} decisions, {} transitions over {} epochs",
            o.decisions, o.transitions, o.epochs
        ));
    }
    let mut lines = metric_lines(w, &metrics);
    lines.extend(notes.iter().map(|n| format!("# {} {n}", w.name())));
    Ok(Output {
        lines,
        metrics,
        attempted: reps.iter().map(|r| r.outcome.tally.offered).sum(),
        failed: reps.iter().map(|r| r.outcome.tally.failed).sum(),
    })
}

fn traced(w: Workload, seed: u64, seconds: f64) -> Res<Output> {
    let t = trace::run(w, seed, seconds)?;
    let metrics = assemble(PER_LAYER, &t.values)?;
    let mut lines = metric_lines(w, &metrics);
    lines.extend(t.notes.iter().map(|n| format!("# {} {n}", w.name())));
    Ok(Output { lines, metrics, attempted: t.offered, failed: t.failed })
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(w.default_seed());
    let seconds = args.seconds as f64;
    let out = if args.trace { traced(w, seed, seconds) } else { untraced(w, seed, seconds) };
    match out {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", json::result_line(true, out.attempted.max(1), out.failed, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsa-e2e: {}: {e}", w.name());
            println!("{}", json::result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own and succeeds only
/// if each child exits 0 with a correct result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dsa-e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        ok &= match cmd.output() {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let verdict = stdout.lines().last().map(json::parse);
                out.status.success()
                    && matches!(verdict, Some(Ok(v)) if v.get("correct") == Some(&json::Value::Bool(true)))
            }
            Err(e) => {
                eprintln!("dsa-e2e: cannot run {}: {e}", w.name());
                false
            }
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsa-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse() {
        let a = parse("--workload fleet_100k --seed 7 --seconds 10 --trace 0").expect("full form");
        let want =
            Args { workload: Some(Workload::Fleet100k), seed: Some(7), seconds: 10, trace: false };
        assert_eq!(a, want);
        let on = parse("--trace 1 --seed 0xC10C_0DE5").expect("trace on, hex seed");
        assert!(on.trace);
        assert_eq!(on.seed, Some(0xC10C_0DE5));
        assert_eq!(parse("").expect("all defaults").seconds, DEFAULT_SECONDS);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--frob 1",
            "--trace",
            "--trace 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
