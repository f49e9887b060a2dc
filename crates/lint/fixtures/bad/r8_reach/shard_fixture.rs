//! R8 transitive-reach corpus, shard side — linted as
//! `crates/svc/src/actionq.rs`. The file itself is lexically clean: no
//! `Rc`, no `static mut`, nothing the lexical ban list can see. But
//! `step` calls a workloads helper that bumps a process-global counter,
//! so two queues on different shards would race through it. Only the
//! call-graph pass catches this.

use dsa_workloads::counter_fixture::bump_global;

/// A shard engine that launders global state through a helper crate.
pub struct Engine;

impl Engine {
    /// Must be flagged: reaches `CALLS` via `bump_global`.
    pub fn step(&mut self) -> u64 {
        bump_global()
    }
}
