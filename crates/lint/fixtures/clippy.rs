//! Clippy fixtures for the rules that moved out of dsa-lint. The crate
//! root carries the attributes every workspace crate root carries, and
//! `crates/clippy.toml` applies as it does to the workspace crates.
//! Each bad fixture's module expects the lint that must catch it.

// The workspace crates forbid `unsafe_code`; a `forbid` cannot be
// expected, so this crate denies it, as `dsa-ops` does.
#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![allow(dead_code)]
// Clippy reports `disallowed_macros` at the crate root, wherever the macro
// sits, so its expectation cannot be scoped to a module.
#![expect(
    clippy::disallowed_macros,
    reason = "the `thread_local!` in bad/r8_reach/counter_fixture.rs is the crate's only one"
)]

mod bad {
    /// R1 `nondeterminism`: wall clocks and OS threads.
    #[expect(clippy::disallowed_types, clippy::disallowed_methods)]
    mod r1_wallclock;

    /// R1 `nondeterminism`: unordered hash containers.
    #[expect(clippy::disallowed_types)]
    mod r1_hashmap;

    /// R2 `unwrap`: panicking result handling in library code.
    #[expect(clippy::unwrap_used, clippy::expect_used)]
    mod r2_unwrap;

    /// R6 `det-taint`: a simulation function two calls away from a hash
    /// iteration. Clippy flags the source itself, whichever crate holds it.
    mod r6_two_hop {
        mod det_fixture;
        #[expect(clippy::disallowed_types)]
        mod leaf_hash;
        mod relay_fixture;
    }

    /// R8 `shard-isolation`, transitive half: a shard module that calls
    /// helpers holding process-global state.
    mod r8_reach {
        #[expect(unsafe_code)]
        mod counter_fixture;
        mod shard_fixture;
    }
}

mod good {
    /// The R6 chain over an ordered map: nothing may fire.
    mod r6_two_hop {
        mod det_fixture;
        mod leaf_hash;
        mod relay_fixture;
    }
}
