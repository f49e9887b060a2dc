//! Transparent offload: route `memcpy`/`memset`/`memcmp` calls through the
//! policy [`Dispatcher`] without restructuring the application — the
//! paper's Appendix B CacheLib enablement story, generalized from DTO's
//! fixed byte threshold to pluggable routing policies.
//!
//! Run with: `cargo run --release --example transparent_offload`

use dsa_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rt = DsaRuntime::spr_default();

    // DTO-style routing: a fixed 8 KiB threshold, DTO's default (CacheLib
    // copies of 8 KiB or more carry almost all of its copied bytes).
    let mut dto = Dispatcher::new().with_policy(DispatchPolicy::Threshold(8 << 10));

    // An application-like mix: many small copies, a few large ones.
    let small_a = rt.alloc(1 << 10, Location::local_dram());
    let small_b = rt.alloc(1 << 10, Location::local_dram());
    let big_a = rt.alloc(256 << 10, Location::local_dram());
    let big_b = rt.alloc(256 << 10, Location::local_dram());
    rt.fill_random(&small_a);
    rt.fill_random(&big_a);

    for _ in 0..95 {
        dto.memcpy(&mut rt, &small_a, &small_b)?;
    }
    for _ in 0..5 {
        dto.memcpy(&mut rt, &big_a, &big_b)?;
    }

    // memset + memcmp flow through the same router.
    dto.memset(&mut rt, &big_b, 0x00)?;
    let (diff, _) = dto.memcmp(&mut rt, &big_a, &big_b)?;
    assert!(diff.is_some(), "zeroed buffer must differ from random data");

    let s = dto.stats();
    println!("--- Threshold(8 KiB) policy ---");
    println!("intercepted calls:        {}", s.calls());
    println!("  routed to CPU:          {}", s.cpu_calls);
    println!("  offloaded (sync):       {}", s.sync_offloads);
    println!("offloaded calls:          {:.1}%", s.call_fraction() * 100.0);
    println!("offloaded bytes:          {:.1}%", s.byte_fraction() * 100.0);
    assert!(s.call_fraction() < 0.15);
    assert!(s.byte_fraction() > 0.85);

    // Adaptive routing: instead of a byte threshold, compare the CPU and
    // DSA cost estimates per call (guideline G2 as a live policy), with
    // asynchronous offload allowed up to 32 outstanding operations.
    let mut adaptive = Dispatcher::all_devices(&rt).with_async_depth(32);
    for _ in 0..95 {
        adaptive.memcpy(&mut rt, &small_a, &small_b)?;
    }
    for _ in 0..5 {
        adaptive.memcpy(&mut rt, &big_a, &big_b)?;
    }
    adaptive.drain(&mut rt);

    let a = adaptive.stats();
    println!("\n--- Adaptive policy (estimate-driven, async depth 32) ---");
    println!("intercepted calls:        {}", a.calls());
    println!("  routed to CPU:          {}", a.cpu_calls);
    println!("  offloaded (sync):       {}", a.sync_offloads);
    println!("  offloaded (async):      {}", a.async_offloads);
    println!("offloaded bytes:          {:.1}%", a.byte_fraction() * 100.0);
    assert_eq!(a.calls(), 100);

    println!(
        "\nThe paper's CacheLib observation reproduced: a few percent of the\n\
         calls carry nearly all the bytes, so a size-routed transparent\n\
         dispatcher offloads almost all data movement while leaving small\n\
         copies on the core."
    );
    Ok(())
}
