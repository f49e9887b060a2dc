//! The declared metric sets, in output order, and the check that a run
//! produced exactly them. `BENCHMARK.json` lists the same names and units;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// One reported number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Every end-to-end metric as `(name, unit)`, printed on every untraced
/// run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("served_jobs_per_s", "jobs/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("sim_ontime_frac", "fraction"),
    ("sim_gbps", "sim_GB/s"),
    ("jain", "index"),
];

/// Every per-layer metric as `(name, unit)`, printed on every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.build_s", "s"),
    ("trace.run_s", "s"),
    ("trace.us_per_job", "us"),
    ("telemetry.hub_s", "s"),
    ("telemetry.hub_overhead", "ratio"),
    ("telemetry.hub_events", "count"),
    ("telemetry.hub_traces", "count"),
    ("ctl.replan_overhead", "ratio"),
    ("ctl.decisions", "count"),
    ("ctl.transitions", "count"),
    ("ctl.epochs", "count"),
    ("ctl.adopt_ratio", "fraction"),
    ("fleet.merge_share", "fraction"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.parallel_efficiency", "fraction"),
    ("fleet.shard_served_spread", "ratio"),
    ("fleet.upi_crossers", "count"),
    ("svc.offered", "count"),
    ("svc.served", "count"),
    ("svc.shed", "count"),
    ("svc.failed", "count"),
    ("svc.late", "count"),
    ("svc.retries", "count"),
    ("svc.retry_ratio", "ratio"),
    ("svc.cpu_fallback_frac", "fraction"),
    ("svc.latency_samples", "count"),
    ("core.sim_prep_share", "fraction"),
    ("device.sim_wq_wait_share", "fraction"),
    ("device.sim_wq_wait_p99_us", "sim_us"),
    ("device.sim_pe_service_share", "fraction"),
    ("mem.sim_memory_hop_share", "fraction"),
    ("mem.sim_memory_hop_p99_us", "sim_us"),
    ("device.sim_completion_share", "fraction"),
    ("device.descriptors", "count"),
    ("device.bytes_read", "bytes"),
    ("device.bytes_written", "bytes"),
    ("device.atc_miss_ratio", "fraction"),
    ("device.page_faults", "count"),
    ("device.wq_rejections", "count"),
    ("device.pe_utilization", "fraction"),
    ("core.submit_us_2k", "us"),
    ("core.submit_us_4k", "us"),
    ("core.submit_us_64k", "us"),
    ("core.submit_us_512k", "us"),
    ("core.submit_cold_us_4k", "us"),
    ("mem.chunk_us", "us"),
    ("sim.bw_transfer_us", "us"),
    ("sim.bw_transfer_cold_us", "us"),
    ("ops.copy_us_2k", "us"),
    ("ops.copy_us_4k", "us"),
    ("ops.copy_us_64k", "us"),
    ("ops.copy_us_512k", "us"),
    ("ops.crc32_us_64k", "us"),
    ("figures.breakeven_err_log2", "log2"),
];

/// Host-time units. A metric in one of them is measured on every
/// workload; any other metric of a layer a workload does not cross
/// reads 0.
const HOST_TIME_UNITS: &[&str] = &["s", "us"];

/// Orders `values` as `declared`, defaulting a missing non-time metric to
/// 0. Fails on a missing host time, an undeclared name, or a value that
/// is not finite.
pub fn assemble(
    declared: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<Metric>, String> {
    if let Some(extra) = values.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    declared
        .iter()
        .map(|&(name, unit)| {
            let value = match values.get(name) {
                Some(&v) => v,
                None if HOST_TIME_UNITS.contains(&unit) => {
                    return Err(format!("host-time metric {name} was not measured"))
                }
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            Ok(Metric { name, unit, value })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n:?} must match ^[A-Za-z0-9_.-]+$");
            assert!(!names[..i].contains(n), "{n} is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn manifest_declares_the_same_metrics_and_workloads() {
        let manifest = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match manifest.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| match m.get(k) {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(manifest.get("run_seconds"), Some(&Value::Num(crate::DEFAULT_SECONDS as f64)));
    }

    #[test]
    fn assemble_orders_defaults_and_rejects() {
        let declared = &[("a_s", "s"), ("b", "count")];
        let got = assemble(declared, &BTreeMap::from([("a_s", 1.5)])).expect("b defaults to 0");
        assert_eq!(
            got,
            [
                Metric { name: "a_s", unit: "s", value: 1.5 },
                Metric { name: "b", unit: "count", value: 0.0 }
            ]
        );
        assert!(assemble(declared, &BTreeMap::from([("b", 1.0)])).is_err(), "missing host time");
        assert!(
            assemble(declared, &BTreeMap::from([("a_s", 1.0), ("c", 1.0)])).is_err(),
            "undeclared"
        );
        assert!(assemble(declared, &BTreeMap::from([("a_s", f64::NAN)])).is_err(), "not finite");
    }
}
