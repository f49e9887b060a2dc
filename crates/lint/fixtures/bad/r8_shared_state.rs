//! R8 shard-isolation corpus — linted as a shard module path such as
//! `crates/svc/src/actionq.rs`. Every construct here breaks the
//! one-owner-per-shard story ROADMAP item 1 depends on: state that can be
//! aliased across shards, observed cross-thread, or smuggled through
//! thread-local storage.

use std::rc::Rc;

use std::sync::atomic::AtomicU64;

static mut EVENTS_SEEN: u64 = 0;

thread_local! {
    static SCRATCH: u64 = 0;
}

/// A cursor whose slots could be aliased by another owner.
pub struct SharedCursor {
    pub slots: Rc<u64>,
    pub hits: AtomicU64,
}
