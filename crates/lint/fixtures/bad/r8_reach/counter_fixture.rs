//! R8 transitive-reach corpus, helper side: process-global counters. Two
//! shards on different threads calling these would race (`static mut`)
//! or count per OS thread (`thread_local!`). Reading a `static mut` needs
//! `unsafe`, which every crate root forbids; `disallowed-macros` bans
//! `thread_local!`.

use std::cell::Cell;

static mut CALLS: u64 = 0;

thread_local! {
    static LOCAL_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps a process-global counter.
pub fn bump_global() -> u64 {
    unsafe {
        CALLS += 1;
        CALLS
    }
}

/// Bumps a per-thread counter.
pub fn bump_local() -> u64 {
    LOCAL_CALLS.with(|c| {
        c.set(c.get() + 1);
        c.get()
    })
}
