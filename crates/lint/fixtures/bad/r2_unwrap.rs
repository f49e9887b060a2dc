// Fixture: R2 — clippy's unwrap_used and expect_used must flag panicking
// result handling in library code.
fn hot_path(slot: Option<u64>, res: Result<u64, ()>) -> u64 {
    let a = slot.unwrap();
    let b = res.expect("submission failed");
    a + b
}
