//! Oracle for the figure path: the simulated results of the Fig. 2 grid,
//! folded point by point, and the device counters the grid drives. A
//! change to how `Measure` lays out or executes its operands (which bytes
//! it moves, which buffers hold bytes at all) must leave every pinned
//! value bit-identical.

use dsa_bench::measure::{Measure, MeasureResult, Mode, SIZES};
use dsa_core::digest::Fnv1a;
use dsa_core::runtime::DsaRuntime;
use dsa_ops::OpKind;

/// Folds one point's simulated results the way `dsa-e2e` does.
fn fold_point(h: &mut Fnv1a, r: &MeasureResult) {
    h.write_u64(r.gbps.to_bits());
    h.write_u64(r.avg_latency.as_ps());
    h.write_u64(r.p50_latency.as_ps());
    h.write_u64(r.p99_latency.as_ps());
}

/// Device work counters summed over every point's fresh runtime.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    descriptors: u64,
    bytes_read: u64,
    bytes_written: u64,
    atc_hits: u64,
    atc_misses: u64,
    errors: u64,
}

/// Runs each measurement on a fresh default runtime and returns the
/// digest of its results with the summed device counters.
fn run_grid(points: impl IntoIterator<Item = Measure>) -> (u64, Counters) {
    let mut h = Fnv1a::new();
    let mut c = Counters::default();
    for m in points {
        let mut rt = DsaRuntime::spr_default();
        let r = m.try_run(&mut rt).unwrap_or_else(|e| panic!("{m:?}: {e}"));
        fold_point(&mut h, &r);
        let t = rt.device(0).telemetry();
        c.descriptors += t.descriptors;
        c.bytes_read += t.bytes_read;
        c.bytes_written += t.bytes_written;
        c.atc_hits += t.atc_hits;
        c.atc_misses += t.atc_misses;
        c.errors += t.errors;
    }
    (h.finish(), c)
}

/// The 128 points of Fig. 2 in `dsa-e2e`'s order: both panels, every
/// size, every operation; 10 iterations at 1 MiB and up, 40 below.
fn fig02_points() -> Vec<Measure> {
    let mut out = Vec::new();
    for mode in [Mode::Sync, Mode::Async { qd: 32 }] {
        for &size in SIZES {
            for op in OpKind::figure2_set() {
                let iters = if size >= 1 << 20 { 10 } else { 40 };
                out.push(Measure::new(op, size).iters(iters).mode(mode));
            }
        }
    }
    out
}

#[test]
fn fig02_grid_results_are_pinned() {
    let (digest, counters) = run_grid(fig02_points());
    assert_eq!(digest, 0x1a87_6864_6e20_416b, "{digest:#018x}");
    assert_eq!(
        counters,
        Counters {
            descriptors: 4160,
            bytes_read: 636_108_800,
            bytes_written: 545_239_040,
            atc_hits: 5184,
            atc_misses: 1056,
            errors: 0,
        }
    );
}

#[test]
fn batched_fig02_points_are_pinned() {
    let mut points = Vec::new();
    for mode in [Mode::SyncBatch { bs: 4 }, Mode::AsyncBatch { bs: 4, window: 2 }] {
        for size in [256, 4096, 64 << 10] {
            for op in OpKind::figure2_set() {
                points.push(Measure::new(op, size).iters(6).mode(mode));
            }
        }
    }
    let (digest, counters) = run_grid(points);
    assert_eq!(digest, 0x5414_e388_b74e_39fb, "{digest:#018x}");
    assert_eq!(
        counters,
        Counters {
            descriptors: 1152,
            bytes_read: 23_568_384,
            bytes_written: 20_140_032,
            atc_hits: 1224,
            atc_misses: 504,
            errors: 0,
        }
    );
}

#[test]
fn cache_control_fig02_points_are_pinned() {
    let points = OpKind::figure2_set().map(|op| {
        Measure::new(op, 16 << 10).iters(40).mode(Mode::Async { qd: 32 }).cache_control(true)
    });
    let (digest, counters) = run_grid(points);
    assert_eq!(digest, 0x363f_e66e_048a_6175, "{digest:#018x}");
    assert_eq!(
        counters,
        Counters {
            descriptors: 320,
            bytes_read: 4_587_520,
            bytes_written: 3_932_160,
            atc_hits: 84,
            atc_misses: 396,
            errors: 0,
        }
    );
}
