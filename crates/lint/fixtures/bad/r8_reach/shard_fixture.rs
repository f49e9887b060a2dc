//! R8 transitive-reach corpus, shard side. The file itself is clean: no
//! `Rc`, no `static mut`, nothing the lexical ban list can see. But
//! `step` calls helpers that keep process-global state, which the helper
//! side's lints catch at the source.

use super::counter_fixture::{bump_global, bump_local};

/// A shard engine that reaches global state through helpers.
pub struct Engine;

impl Engine {
    /// Reaches `CALLS` and `LOCAL_CALLS` through the helpers.
    pub fn step(&mut self) -> u64 {
        bump_global() + bump_local()
    }
}
