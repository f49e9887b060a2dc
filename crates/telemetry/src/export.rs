//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! with causal flow arrows, flamegraph-style folded stacks, a
//! machine-readable metrics CSV, and a PCM-style text dashboard.

use crate::causal::SegmentKind;
use crate::hub::Hub;
use crate::metrics::{Labels, Metric};
use crate::span::{Event, Phase, Track};
use dsa_sim::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal. Span and
/// op names are `&'static str` chosen by callers, so quotes, backslashes,
/// and control characters must not leak through verbatim.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Process IDs used in the Chrome trace: one synthetic "process" per
/// hardware unit so Perfetto groups tracks sensibly.
fn track_pid_tid(track: Track, workloads: &mut Vec<&'static str>) -> (u64, u64) {
    match track {
        Track::Job => (1, 0),
        Track::Wq { device, wq } => (100 + device as u64, wq as u64),
        Track::Workload(name) => {
            let idx = match workloads.iter().position(|w| *w == name) {
                Some(i) => i,
                None => {
                    workloads.push(name);
                    workloads.len() - 1
                }
            };
            (300, idx as u64)
        }
    }
}

fn ts_us(t: SimTime) -> f64 {
    t.as_ns_f64() / 1000.0
}

fn push_event(out: &mut String, line: &str, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str(line);
}

/// Serializes the hub's event log as Chrome trace-event JSON (the array
/// form), one event per line. Load the result in Perfetto or
/// `chrome://tracing`. Timestamps are microseconds of simulated time.
pub fn chrome_trace_json(hub: &Hub) -> String {
    hub.with_events(|events| {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut workloads: Vec<&'static str> = Vec::new();
        let mut seen_tracks: Vec<(Track, u64, u64)> = Vec::new();
        let mut note = |track: Track| {
            let (pid, tid) = track_pid_tid(track, &mut workloads);
            if !seen_tracks.iter().any(|(t, _, _)| *t == track) {
                seen_tracks.push((track, pid, tid));
            }
            (pid, tid)
        };

        for e in events {
            if let Some(d) = e.descriptor() {
                let (pid, tid) = note(Track::Wq { device: d.device, wq: d.wq });
                for p in Phase::ALL {
                    let (start, end) = d.phase_bounds(p);
                    let line = format!(
                        r#"{{"name":"{}","cat":"descriptor","ph":"X","pid":{pid},"tid":{tid},"ts":{:.3},"dur":{:.3},"args":{{"seq":{},"op":"{}","xfer":{},"pe":{}}}}}"#,
                        json_escape(p.name()),
                        ts_us(start),
                        (end - start).as_ns_f64() / 1000.0,
                        d.seq,
                        json_escape(d.op),
                        d.xfer_size,
                        d.pe,
                    );
                    push_event(&mut out, &line, &mut first);
                }
            }
            for s in e.spans() {
                let (pid, tid) = note(s.track);
                let line = format!(
                    r#"{{"name":"{}","cat":"span","ph":"X","pid":{pid},"tid":{tid},"ts":{:.3},"dur":{:.3}}}"#,
                    json_escape(s.name),
                    ts_us(s.start),
                    (s.end - s.start).as_ns_f64() / 1000.0,
                );
                push_event(&mut out, &line, &mut first);
            }
            if let Event::Instant { track, name, at } = e {
                let (pid, tid) = note(*track);
                let line = format!(
                    r#"{{"name":"{}","cat":"marker","ph":"i","s":"t","pid":{pid},"tid":{tid},"ts":{:.3}}}"#,
                    json_escape(name),
                    ts_us(*at),
                );
                push_event(&mut out, &line, &mut first);
            }
        }

        // Metadata names after the fact (position in the array is
        // irrelevant to the importer).
        for (track, pid, tid) in &seen_tracks {
            let (pname, tname) = match track {
                Track::Job => ("software".to_string(), "jobs".to_string()),
                Track::Wq { device, wq } => (format!("dsa{device}"), format!("wq{wq}")),
                Track::Workload(name) => ("workloads".to_string(), (*name).to_string()),
            };
            let line = format!(
                r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{}"}}}}"#,
                json_escape(&pname),
            );
            push_event(&mut out, &line, &mut first);
            let line = format!(
                r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
                json_escape(&tname),
            );
            push_event(&mut out, &line, &mut first);
        }

        // Attributed critical paths: one slice per segment on a synthetic
        // "critpath" process (pid 2, tid = tenant), with flow arrows
        // chaining the causally-linked slices of each job.
        let mut critpath_tids: Vec<u64> = Vec::new();
        for t in hub.job_traces() {
            let tid = u64::from(t.tenant.unwrap_or(0));
            if !critpath_tids.contains(&tid) {
                critpath_tids.push(tid);
            }
            let mut cursor = t.start;
            let last = SegmentKind::ALL.len() - 1;
            for (i, kind) in SegmentKind::ALL.into_iter().enumerate() {
                let d = t.segment(kind);
                let line = format!(
                    r#"{{"name":"{}","cat":"critpath","ph":"X","pid":2,"tid":{tid},"ts":{:.3},"dur":{:.3},"args":{{"trace":{},"op":"{}","dsa":{},"wq":{}}}}}"#,
                    json_escape(kind.name()),
                    ts_us(cursor),
                    d.as_ns_f64() / 1000.0,
                    t.trace_id,
                    json_escape(t.op),
                    t.device,
                    t.wq,
                );
                push_event(&mut out, &line, &mut first);
                // Flow chain: start at the first slice, step through the
                // middle, finish on the last ("bp":"e" binds to the
                // enclosing slice).
                let ph = match i {
                    0 => "s",
                    i if i == last => "f",
                    _ => "t",
                };
                let bp = if ph == "f" { r#","bp":"e""# } else { "" };
                let line = format!(
                    r#"{{"name":"critpath","cat":"flow","ph":"{ph}","id":{}{bp},"pid":2,"tid":{tid},"ts":{:.3}}}"#,
                    t.trace_id,
                    ts_us(cursor),
                );
                push_event(&mut out, &line, &mut first);
                cursor += d;
            }
        }
        if !critpath_tids.is_empty() {
            let line =
                r#"{"name":"process_name","ph":"M","pid":2,"args":{"name":"critpath"}}"#.to_string();
            push_event(&mut out, &line, &mut first);
            for tid in critpath_tids {
                let line = format!(
                    r#"{{"name":"thread_name","ph":"M","pid":2,"tid":{tid},"args":{{"name":"tenant{tid}"}}}}"#
                );
                push_event(&mut out, &line, &mut first);
            }
        }

        out.push_str("\n]\n");
        out
    })
}

/// Serializes the hub's job traces as flamegraph folded stacks: one line
/// per unique `tenant;device/wq;op;segment` stack, weighted by attributed
/// picoseconds. Feed the output straight to `flamegraph.pl` or any
/// folded-stacks viewer.
pub fn folded_stacks(hub: &Hub) -> String {
    let mut stacks: BTreeMap<String, u128> = BTreeMap::new();
    for t in hub.job_traces() {
        let tenant = match t.tenant {
            Some(t) => format!("tenant{t}"),
            None => "untenanted".to_string(),
        };
        for kind in SegmentKind::ALL {
            let ps = u128::from(t.segment(kind).as_ps());
            if ps == 0 {
                continue;
            }
            let stack = format!("{tenant};dsa{}/wq{};{};{}", t.device, t.wq, t.op, kind.name());
            *stacks.entry(stack).or_insert(0) += ps;
        }
    }
    let mut out = String::new();
    for (stack, ps) in stacks {
        let _ = writeln!(out, "{stack} {ps}");
    }
    out
}

fn label_cell(v: Option<u16>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

/// Serializes the metrics registry as CSV. Histogram columns are
/// nanoseconds; series rows report point count, mean, and max.
pub fn metrics_csv(hub: &Hub) -> String {
    hub.with_metrics(|metrics| {
        let mut out =
            String::from("name,device,wq,pe,kind,count,value,min,mean,p50,p90,p99,p999,max\n");
        for (name, labels, metric) in metrics.iter() {
            let (d, w, p) =
                (label_cell(labels.device), label_cell(labels.wq), label_cell(labels.pe));
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name},{d},{w},{p},counter,,{c},,,,,,,");
                }
                Metric::Histogram(h) => {
                    if h.count() == 0 {
                        continue;
                    }
                    // Non-empty by the guard above, so the percentiles exist.
                    let pct = |p: f64| h.percentile(p).unwrap_or_default().as_ns_f64();
                    let _ = writeln!(
                        out,
                        "{name},{d},{w},{p},histogram,{},,{:.0},{:.0},{:.0},{:.0},{:.0},{:.0},{:.0}",
                        h.count(),
                        h.min().as_ns_f64(),
                        h.mean().as_ns_f64(),
                        pct(50.0),
                        pct(90.0),
                        pct(99.0),
                        pct(99.9),
                        h.max().as_ns_f64(),
                    );
                }
                Metric::Series(s) => {
                    if s.is_empty() {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{name},{d},{w},{p},series,{},{:.3},,{:.3},,,,,{:.3}",
                        s.len(),
                        s.mean_value(),
                        s.mean_value(),
                        s.max_value(),
                    );
                }
            }
        }
        out
    })
}

/// Renders a PCM-style text dashboard: per-WQ traffic counters and
/// latency percentiles, the way `pcm` prints per-socket DSA tables.
pub fn pcm_dashboard(hub: &Hub) -> String {
    hub.with_events(|events| {
        // Simulated-time window covered by the trace.
        let mut window: Option<(SimTime, SimTime)> = None;
        for e in events {
            let instant = match e {
                Event::Instant { at, .. } => Some((*at, *at)),
                _ => None,
            };
            let descriptor = e.descriptor().map(|d| (d.marks[0], d.marks[6]));
            let spans = e.spans().map(|s| (s.start, s.end));
            for (s, en) in descriptor.into_iter().chain(spans).chain(instant) {
                window = Some(window.map_or((s, en), |(t0, t1)| (t0.min(s), t1.max(en))));
            }
        }
        let (t0, t1) = window.unwrap_or_default();
        let elapsed = (t1 - t0).as_ns_f64().max(1.0);

        hub.with_metrics(|metrics| {
            let mut out = String::new();
            let _ = writeln!(out, "DSA telemetry dashboard (PCM-style)");
            let _ = writeln!(out, "window: {:.2} us of simulated time", elapsed / 1000.0);
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>12} {:>14} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "dev",
                "wq",
                "descriptors",
                "bytes",
                "GB/s",
                "p50(us)",
                "p90(us)",
                "p99(us)",
                "p999(us)"
            );
            let mut wq_keys: Vec<Labels> = Vec::new();
            for (name, labels, _) in metrics.iter() {
                if name == "descriptors" && labels.wq.is_some() && !wq_keys.contains(&labels) {
                    wq_keys.push(labels);
                }
            }
            for labels in wq_keys {
                let descriptors = metrics.counter("descriptors", labels);
                let bytes = metrics.counter("bytes", labels);
                let pct = |p: f64| {
                    metrics
                        .percentile("descriptor_latency", labels, p)
                        .map(|d| format!("{:.2}", d.as_us_f64()))
                        .unwrap_or_else(|| "-".to_string())
                };
                let _ = writeln!(
                    out,
                    "{:>4} {:>4} {:>12} {:>14} {:>8.2} {:>9} {:>9} {:>9} {:>9}",
                    labels.device.unwrap_or(0),
                    labels.wq.unwrap_or(0),
                    descriptors,
                    bytes,
                    bytes as f64 / elapsed,
                    pct(50.0),
                    pct(90.0),
                    pct(99.0),
                    pct(99.9),
                );
            }

            // Utilization series (WQ depth, PE occupancy) summary.
            let mut header_done = false;
            for (name, labels, metric) in metrics.iter() {
                if let Metric::Series(s) = metric {
                    if s.is_empty() {
                        continue;
                    }
                    if !header_done {
                        let _ = writeln!(
                            out,
                            "{:>24} {:>4} {:>4} {:>4} {:>8} {:>9} {:>9}",
                            "series", "dev", "wq", "pe", "points", "mean", "max"
                        );
                        header_done = true;
                    }
                    let _ = writeln!(
                        out,
                        "{:>24} {:>4} {:>4} {:>4} {:>8} {:>9.2} {:>9.2}",
                        name,
                        label_cell(labels.device),
                        label_cell(labels.wq),
                        label_cell(labels.pe),
                        s.len(),
                        s.mean_value(),
                        s.max_value(),
                    );
                }
            }
            out
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::StepContext;
    use crate::record::tests::record;
    use crate::record::RecordKind;
    use dsa_sim::time::SimTime;

    fn hub_with_one_descriptor() -> Hub {
        let hub = Hub::new();
        hub.record(record(RecordKind::Job, 2, [60, 100, 100, 100, 200, 230, 700, 900, 955]));
        hub
    }

    #[test]
    fn chrome_json_has_one_span_per_phase() {
        let hub = hub_with_one_descriptor();
        let json = chrome_trace_json(&hub);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        for p in Phase::ALL {
            assert!(
                json.contains(&format!(r#""name":"{}","cat":"descriptor""#, p.name())),
                "missing phase {} in {json}",
                p.name()
            );
        }
        // Durations (µs·1000 = ns) sum to the 855 ns total.
        let total: f64 = json
            .lines()
            .filter(|l| l.contains(r#""cat":"descriptor""#))
            .map(|l| {
                let dur = l.split(r#""dur":"#).nth(1).unwrap();
                dur.split(',').next().unwrap().parse::<f64>().unwrap()
            })
            .sum();
        assert!((total * 1000.0 - 855.0).abs() < 1e-6, "phase durations sum to {total}us");
        // Track metadata present.
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""name":"wq2""#));
    }

    #[test]
    fn json_strings_are_escaped() {
        let hub = Hub::new();
        hub.span(
            Track::Workload("we\"ird\\name\n"),
            "q\"uote\\me",
            SimTime::from_ns(0),
            SimTime::from_ns(10),
        );
        let json = chrome_trace_json(&hub);
        assert!(json.contains(r#""name":"q\"uote\\me""#), "span name escaped: {json}");
        assert!(json.contains(r#""name":"we\"ird\\name\n""#), "track name escaped: {json}");
        // No raw quote survives inside a string literal: every line must
        // keep balanced, parseable quoting. Cheap structural check: the
        // escaped forms are present and the unescaped originals are not.
        assert!(!json.contains("q\"uote\\me\""), "raw name must not appear");
        for line in json.lines().filter(|l| l.starts_with('{')) {
            let unescaped_quotes =
                line.replace("\\\\", "").replace("\\\"", "").matches('"').count();
            assert_eq!(unescaped_quotes % 2, 0, "unbalanced quotes in {line}");
        }
    }

    #[test]
    fn escape_helper_handles_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn hub_with_traces() -> Hub {
        let hub = Hub::new();
        hub.record(record(RecordKind::Job, 2, [100, 130, 130, 140, 200, 230, 700, 900, 955]));
        hub.set_step(Some(StepContext { tenant: 1, start: SimTime::from_ns(1000) }));
        hub.record(record(
            RecordKind::Job,
            3,
            [1000, 1030, 1030, 1040, 1100, 1130, 1500, 1800, 1855],
        ));
        hub
    }

    #[test]
    fn chrome_json_chains_critpath_slices_with_flow_arrows() {
        let hub = hub_with_traces();
        let json = chrome_trace_json(&hub);
        for kind in SegmentKind::ALL {
            assert!(
                json.contains(&format!(r#""name":"{}","cat":"critpath""#, kind.name())),
                "missing segment {}",
                kind.name()
            );
        }
        // One flow start, three steps, one finish per trace.
        let count = |pat: &str| json.matches(pat).count();
        assert_eq!(count(r#""cat":"flow","ph":"s""#), 2);
        assert_eq!(count(r#""cat":"flow","ph":"t""#), 6);
        assert_eq!(count(r#""cat":"flow","ph":"f""#), 2);
        assert!(json.contains(r#""bp":"e""#), "flow finish binds to enclosing slice");
        // Tenant lanes get named.
        assert!(json.contains(r#""name":"tenant0""#));
        assert!(json.contains(r#""name":"tenant1""#));
    }

    #[test]
    fn folded_stacks_weight_segments_by_picoseconds() {
        let hub = hub_with_traces();
        let folded = folded_stacks(&hub);
        // 670 ns memory hop on the untenanted trace.
        assert!(folded.contains("untenanted;dsa0/wq2;memmove;memory_hop 670000"), "got:\n{folded}");
        assert!(folded.contains("tenant1;dsa0/wq3;memmove;software_prep 40000"));
        // Every line is "stack weight".
        for line in folded.lines() {
            let mut parts = line.rsplitn(2, ' ');
            let weight: u128 = parts.next().unwrap().parse().expect("numeric weight");
            assert!(weight > 0);
            assert_eq!(parts.next().unwrap().split(';').count(), 4);
        }
        // Total folded weight equals total attributed time.
        let total: u128 =
            folded.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<u128>().unwrap()).sum();
        let expected: u128 = hub.job_traces().iter().map(|t| u128::from(t.total().as_ps())).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn csv_contains_histogram_and_counter_rows() {
        let hub = hub_with_one_descriptor();
        let csv = metrics_csv(&hub);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "name,device,wq,pe,kind,count,value,min,mean,p50,p90,p99,p999,max"
        );
        assert!(csv.contains("descriptors,0,2,,counter,,1,"));
        assert!(csv.lines().any(|l| l.starts_with("descriptor_latency,0,2,,histogram,1,")));
        // Every data row has the full column count.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 14, "bad row: {line}");
        }
    }

    #[test]
    fn dashboard_lists_each_wq_once() {
        let hub = hub_with_one_descriptor();
        let text = pcm_dashboard(&hub);
        assert!(text.contains("DSA telemetry dashboard"));
        assert_eq!(text.matches("4096").count(), 1, "one row for wq2: {text}");
        assert!(text.contains("wq_depth"));
    }
}
