//! A `dsa-perf-micros`-style command-line microbenchmark driver — the tool
//! the paper uses for its §4 characterization (`intel/dsa-perf-micros`),
//! rebuilt against the simulated platform.
//!
//! ```text
//! cargo run --release --bin dsa-perf-micros -- \
//!     --op memcpy --size 65536 --qd 32 --iters 200 --engines 4
//! ```
//!
//! Run with `--help` for all options.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dsa_bench::measure::{Measure, Mode};
use dsa_core::config::AccelConfig;
use dsa_core::runtime::DsaRuntime;
use dsa_mem::buffer::{Location, PageSize};
use dsa_mem::topology::Platform;
use dsa_ops::OpKind;

#[derive(Debug)]
struct Options {
    op: OpKind,
    size: u64,
    batch: u32,
    qd: usize,
    iters: u64,
    src: Location,
    dst: Location,
    cache_control: bool,
    devices: usize,
    engines: u32,
    wq_size: u32,
    shared_wq: bool,
    huge_pages: bool,
    platform: &'static str,
    compare_cpu: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    critpath: bool,
    folded_out: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            op: OpKind::Memcpy,
            size: 4096,
            batch: 1,
            qd: 0,
            iters: 100,
            src: Location::local_dram(),
            dst: Location::local_dram(),
            cache_control: false,
            devices: 1,
            engines: 1,
            wq_size: 32,
            shared_wq: false,
            huge_pages: false,
            platform: "spr",
            compare_cpu: true,
            trace_out: None,
            metrics_out: None,
            critpath: false,
            folded_out: None,
        }
    }
}

const HELP: &str = "\
dsa-perf-micros (simulated) — microbenchmark driver for the DSA model

OPTIONS:
    --op <name>        memcpy|dualcast|fill|nt-fill|compare|compare-pattern|
                       crc32|copy-crc|dif-insert|dif-check (default memcpy)
    --size <bytes>     transfer size per descriptor (default 4096)
    --batch <n>        descriptors per batch descriptor (default 1)
    --qd <n>           async queue depth; 0 = synchronous (default 0)
    --iters <n>        iterations (default 100)
    --src <loc>        d=local DRAM, r=remote DRAM, c=CXL, l=LLC (default d)
    --dst <loc>        as --src
    --cache-control    steer destination writes to the LLC (CC=1)
    --devices <n>      DSA instances, round-robin (default 1)
    --engines <n>      engines in the group (default 1)
    --wq-size <n>      WQ entries (default 32)
    --swq              use a shared WQ (ENQCMD) instead of dedicated
    --huge-pages       map buffers with 2 MiB pages
    --platform <p>     spr|icx (default spr)
    --no-cpu           skip the software-baseline comparison
    --trace <file>     write a Chrome trace-event JSON (Perfetto /
                       chrome://tracing) of descriptor lifecycle spans
    --metrics <file>   write the metrics registry as CSV (counters,
                       histogram percentiles, time series)
    --critpath         print the attributed critical-path latency table
                       (per-segment sums, shares, p50/p99/p999, dominant
                       bottleneck; segments sum exactly to end-to-end)
    --folded <file>    write flamegraph folded stacks of the attributed
                       critical paths (feed to flamegraph.pl)
    --help             this text
";

fn parse_loc(s: &str) -> Result<Location, String> {
    match s {
        "d" | "dram" => Ok(Location::local_dram()),
        "r" | "remote" => Ok(Location::remote_dram()),
        "c" | "cxl" => Ok(Location::Cxl),
        "l" | "llc" => Ok(Location::Llc),
        other => Err(format!("unknown location '{other}' (use d|r|c|l)")),
    }
}

fn parse_op(s: &str) -> Result<OpKind, String> {
    Ok(match s {
        "memcpy" | "copy" => OpKind::Memcpy,
        "dualcast" => OpKind::Dualcast,
        "fill" => OpKind::Fill,
        "nt-fill" => OpKind::NtFill,
        "compare" => OpKind::Compare,
        "compare-pattern" => OpKind::ComparePattern,
        "crc32" => OpKind::Crc32,
        "copy-crc" => OpKind::CopyCrc,
        "dif-insert" => OpKind::DifInsert,
        "dif-check" => OpKind::DifCheck,
        other => return Err(format!("unknown op '{other}'")),
    })
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--op" => o.op = parse_op(val("--op")?)?,
            "--size" => o.size = val("--size")?.parse().map_err(|e| format!("--size: {e}"))?,
            "--batch" => o.batch = val("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?,
            "--qd" => o.qd = val("--qd")?.parse().map_err(|e| format!("--qd: {e}"))?,
            "--iters" => o.iters = val("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--src" => o.src = parse_loc(val("--src")?)?,
            "--dst" => o.dst = parse_loc(val("--dst")?)?,
            "--cache-control" => o.cache_control = true,
            "--devices" => {
                o.devices = val("--devices")?.parse().map_err(|e| format!("--devices: {e}"))?
            }
            "--engines" => {
                o.engines = val("--engines")?.parse().map_err(|e| format!("--engines: {e}"))?
            }
            "--wq-size" => {
                o.wq_size = val("--wq-size")?.parse().map_err(|e| format!("--wq-size: {e}"))?
            }
            "--swq" => o.shared_wq = true,
            "--huge-pages" => o.huge_pages = true,
            "--platform" => {
                o.platform = match val("--platform")?.as_str() {
                    "spr" => "spr",
                    "icx" => "icx",
                    other => return Err(format!("unknown platform '{other}'")),
                }
            }
            "--no-cpu" => o.compare_cpu = false,
            "--trace" => o.trace_out = Some(val("--trace")?.clone()),
            "--metrics" => o.metrics_out = Some(val("--metrics")?.clone()),
            "--critpath" => o.critpath = true,
            "--folded" => o.folded_out = Some(val("--folded")?.clone()),
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    if o.engines == 0 || o.engines > 4 {
        return Err("--engines must be 1..=4".into());
    }
    if o.batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    Ok(o)
}

fn build_runtime(o: &Options) -> Result<DsaRuntime, String> {
    let platform = if o.platform == "icx" { Platform::icx() } else { Platform::spr() };
    let mut builder = DsaRuntime::builder(platform);
    for _ in 0..o.devices.max(1) {
        let cfg = AccelConfig::builder().group(o.engines);
        let cfg = if o.shared_wq { cfg.shared_wq(o.wq_size) } else { cfg.dedicated_wq(o.wq_size) };
        builder = builder.device(cfg.build().map_err(|e| e.to_string())?);
    }
    if o.huge_pages {
        builder = builder.page_size(PageSize::Huge2M);
    }
    Ok(builder.build())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };

    let mode = match (o.qd, o.batch) {
        (0, 1) => Mode::Sync,
        (0, bs) => Mode::SyncBatch { bs },
        (qd, 1) => Mode::Async { qd },
        (qd, bs) => Mode::AsyncBatch { bs, window: (qd / bs as usize).max(1) },
    };
    let mut rt = match build_runtime(&o) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let hub =
        if o.trace_out.is_some() || o.metrics_out.is_some() || o.critpath || o.folded_out.is_some()
        {
            Some(rt.trace())
        } else {
            None
        };
    let m = Measure::new(o.op, o.size)
        .iters(o.iters)
        .mode(mode)
        .locations(o.src, o.dst)
        .cache_control(o.cache_control)
        .devices(o.devices);
    let result = match m.try_run(&mut rt) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    };

    println!("platform:        {}", rt.platform().name);
    println!(
        "configuration:   {} device(s) x {} engine(s), {} {}-entry WQ, {:?}",
        o.devices,
        o.engines,
        if o.shared_wq { "shared" } else { "dedicated" },
        o.wq_size,
        mode,
    );
    println!(
        "workload:        {:?} x {} bytes [{} -> {}]{}",
        o.op,
        o.size,
        o.src,
        o.dst,
        if o.cache_control { " (CC=1)" } else { "" }
    );
    println!("throughput:      {:.2} GB/s", result.gbps);
    println!("avg latency:     {:.3} us", result.avg_latency.as_us_f64());
    if o.compare_cpu {
        let cpu = m.cpu_gbps(&rt);
        println!("software:        {:.2} GB/s on one core", cpu);
        println!("speedup:         {:.2}x", result.gbps / cpu);
    }
    let t = rt.device(0).telemetry();
    println!(
        "telemetry[0]:    {} descriptors, {} batches, {} faults, {:.1} MiB in, {:.1} MiB out",
        t.descriptors,
        t.batches,
        t.page_faults,
        t.bytes_read as f64 / (1 << 20) as f64,
        t.bytes_written as f64 / (1 << 20) as f64,
    );
    if let Some(hub) = &hub {
        if let Some(path) = &o.trace_out {
            if let Err(e) = std::fs::write(path, dsa_telemetry::chrome_trace_json(hub)) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("trace:           {path} ({} events)", hub.event_count());
        }
        if let Some(path) = &o.metrics_out {
            if let Err(e) = std::fs::write(path, dsa_telemetry::metrics_csv(hub)) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("metrics:         {path}");
        }
        if let Some(path) = &o.folded_out {
            if let Err(e) = std::fs::write(path, dsa_telemetry::folded_stacks(hub)) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("folded stacks:   {path} ({} traces)", hub.trace_count());
        }
        if o.critpath {
            print!("{}", critpath_report(hub));
        }
        if o.trace_out.is_some() || o.metrics_out.is_some() {
            print!("{}", dsa_telemetry::pcm_dashboard(hub));
        }
    }
}

/// Renders the attributed critical-path table from the hub's job traces.
fn critpath_report(hub: &dsa_telemetry::Hub) -> String {
    use std::fmt::Write as _;

    let us = |ps: u128| ps as f64 / 1e6;
    let pct_us = |p: Option<dsa_sim::time::SimDuration>| match p {
        Some(d) => format!("{:.3}", d.as_us_f64()),
        None => "-".to_string(),
    };
    let profile = hub.critpath_profile();
    let mut out = String::new();
    let Some(b) = profile.overall() else {
        out.push_str("critical path:   no completed jobs traced\n");
        return out;
    };
    let _ = writeln!(out, "critical-path attribution ({} jobs):", b.count);
    let _ = writeln!(
        out,
        "{:>18} {:>14} {:>7} {:>10} {:>10} {:>10}",
        "segment", "sum(us)", "share", "p50(us)", "p99(us)", "p999(us)"
    );
    for s in &b.segments {
        let _ = writeln!(
            out,
            "{:>18} {:>14.3} {:>6.1}% {:>10} {:>10} {:>10}",
            s.kind.name(),
            us(s.sum_ps),
            s.share * 100.0,
            pct_us(s.p50),
            pct_us(s.p99),
            pct_us(s.p999),
        );
    }
    let _ = writeln!(out, "{:>18} {:>14.3}", "attributed sum", us(b.attributed_ps()));
    let _ = writeln!(
        out,
        "{:>18} {:>14.3}  (exact match: {})",
        "end-to-end",
        us(b.total_ps),
        b.attributed_ps() == b.total_ps,
    );
    let _ = writeln!(out, "dominant bottleneck: {}", b.dominant().name());
    // Per-cell dominants, when more than one (tenant, device, WQ) cell ran.
    let keys = profile.keys();
    if keys.len() > 1 {
        for key in keys {
            if let Some(cell) = profile.breakdown(key) {
                let (tenant, device, wq) = key;
                let tenant = tenant.map(|t| t.to_string()).unwrap_or_else(|| "-".to_string());
                let _ = writeln!(
                    out,
                    "  tenant {tenant} dsa{device}/wq{wq}: {} jobs, dominant {}, p99 {}us",
                    cell.count,
                    cell.dominant().name(),
                    pct_us(cell.total_p99),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.op, OpKind::Memcpy);
        assert_eq!(o.size, 4096);
        assert_eq!(o.qd, 0);
        assert!(!o.shared_wq);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse_args(&argv(
            "--op crc32 --size 65536 --batch 8 --qd 32 --iters 7 --src c --dst l \
             --cache-control --devices 2 --engines 4 --wq-size 64 --swq --huge-pages \
             --platform icx --no-cpu",
        ))
        .unwrap();
        assert_eq!(o.op, OpKind::Crc32);
        assert_eq!(o.size, 65536);
        assert_eq!(o.batch, 8);
        assert_eq!(o.qd, 32);
        assert_eq!(o.iters, 7);
        assert_eq!(o.src, Location::Cxl);
        assert_eq!(o.dst, Location::Llc);
        assert!(o.cache_control && o.shared_wq && o.huge_pages && !o.compare_cpu);
        assert_eq!((o.devices, o.engines, o.wq_size), (2, 4, 64));
        assert_eq!(o.platform, "icx");
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let o = parse_args(&argv("--trace out.json --metrics out.csv")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("out.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("out.csv"));
        let o = parse_args(&[]).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert!(parse_args(&argv("--trace")).is_err(), "missing value");
        assert!(parse_args(&argv("--metrics")).is_err(), "missing value");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(parse_args(&argv("--op warp-drive")).is_err());
        assert!(parse_args(&argv("--src q")).is_err());
        assert!(parse_args(&argv("--engines 9")).is_err());
        assert!(parse_args(&argv("--batch 0")).is_err());
        assert!(parse_args(&argv("--size")).is_err(), "missing value");
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--platform mars")).is_err());
    }

    #[test]
    fn runtime_builds_from_options() {
        let o = parse_args(&argv("--devices 2 --engines 2 --wq-size 16 --swq")).unwrap();
        let rt = build_runtime(&o).unwrap();
        assert_eq!(rt.device_count(), 2);
    }

    #[test]
    fn critpath_and_folded_flags_parse() {
        let o = parse_args(&argv("--critpath --folded out.folded")).unwrap();
        assert!(o.critpath);
        assert_eq!(o.folded_out.as_deref(), Some("out.folded"));
        assert!(!parse_args(&[]).unwrap().critpath);
        assert!(parse_args(&argv("--folded")).is_err(), "missing value");
    }

    #[test]
    fn critpath_report_sums_segments_to_end_to_end() {
        // fig07-shaped: saturating async queue on a multi-engine group.
        let o = parse_args(&argv("--qd 16 --engines 4 --iters 50 --size 65536")).unwrap();
        let mut rt = build_runtime(&o).unwrap();
        let hub = rt.trace();
        Measure::new(o.op, o.size)
            .iters(o.iters)
            .mode(Mode::Async { qd: o.qd })
            .try_run(&mut rt)
            .unwrap();
        assert_eq!(hub.trace_count(), 50);
        let report = critpath_report(&hub);
        assert!(report.contains("critical-path attribution (50 jobs)"), "{report}");
        for name in ["software_prep", "wq_wait", "pe_service", "memory_hop", "completion_write"] {
            assert!(report.contains(name), "missing {name} in {report}");
        }
        assert!(report.contains("(exact match: true)"), "{report}");
        assert!(report.contains("dominant bottleneck:"), "{report}");
    }

    #[test]
    fn critpath_report_handles_empty_hub() {
        let hub = dsa_telemetry::Hub::new();
        assert!(critpath_report(&hub).contains("no completed jobs traced"));
    }
}
