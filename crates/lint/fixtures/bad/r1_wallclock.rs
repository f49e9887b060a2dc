// Fixture: R1 — clippy's disallowed_types and disallowed_methods must flag
// wall-clock time sources and OS threads.
use std::time::Instant;
use std::time::SystemTime;

fn measure() -> u128 {
    let start = Instant::now();
    let _epoch = SystemTime::now();
    let worker = std::thread::spawn(|| 42u128);
    worker.join().unwrap_or(0) + start.elapsed().as_nanos()
}
