//! The service's pending-action queue: a binary min-heap over per-tenant
//! next-action instants.
//!
//! The original scheduling loop re-scanned every tenant per step to find
//! the earliest admissible action — O(T) per job, which is fine for the
//! tens of tenants the ablation benches drive but hopeless for the
//! thousands-per-shard tenant counts the fleet layer shards out. A
//! tenant's next-action instant depends only on its *own* state (arrival
//! stream, core cursor, in-flight window, token bucket), so it changes
//! exactly when that tenant steps — which makes the earliest-action scan
//! an event queue: push the new instant after each step, pop the global
//! minimum in O(log T). The queue is plain owned state, no
//! shared-anything, so each shard owns its own and shards stay
//! thread-independent (lint rule R8 covers this module).
//!
//! Stale entries are handled lazily: re-scheduling or cancelling a tenant
//! bumps its generation stamp, and outdated heap entries are skipped
//! when they surface at the top.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsa_sim::time::SimTime;

/// One queued action: `(time, seq, tenant, stamp)`. The tuple's
/// lexicographic order is the queue order; `seq` is unique, so `tenant`
/// and `stamp` never decide a comparison.
type Entry = (SimTime, u64, usize, u64);

/// A deterministic earliest-next-action queue over tenant indices.
///
/// Ordering is exact `(time, push order)`: among tenants whose next
/// actions coincide, the one whose instant was scheduled first pops
/// first. Every operation is deterministic — two queues fed the same
/// schedule/cancel/peek/pop sequence drain identically.
pub struct ActionQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Current generation stamp per tenant; heap entries carry the stamp
    /// they were scheduled under and are dead once the two disagree.
    stamp: Vec<u64>,
    seq: u64,
}

impl ActionQueue {
    /// An empty queue sized for `tenants` tenant indices.
    pub fn with_tenants(tenants: usize) -> ActionQueue {
        // dsa-lint: allow(hot-alloc, stamp table built once per queue)
        ActionQueue { heap: BinaryHeap::with_capacity(tenants), stamp: vec![0; tenants], seq: 0 }
    }

    /// Schedules (or re-schedules) tenant `tenant`'s next admissible
    /// action at `at`, invalidating any entry previously queued for it.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn schedule(&mut self, tenant: usize, at: SimTime) {
        self.stamp[tenant] += 1;
        self.heap.push(Reverse((at, self.seq, tenant, self.stamp[tenant])));
        self.seq += 1;
    }

    /// Invalidates any queued entry for `tenant` (a tenant whose stream
    /// just went idle). Lazy: the dead entry is dropped when it surfaces.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn cancel(&mut self, tenant: usize) {
        self.stamp[tenant] += 1;
    }

    /// Removes and returns the earliest live `(time, tenant)` action, or
    /// `None` when no live entries remain.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.skim();
        self.heap.pop().map(|Reverse((at, _, tenant, _))| (at, tenant))
    }

    /// The earliest live `(time, tenant)` action without consuming it —
    /// what lets a governed service run *up to* an epoch boundary and
    /// hand control back with the queue exact. Only dead entries are
    /// dropped, so a peeked action keeps its place among ties.
    pub fn peek(&mut self) -> Option<(SimTime, usize)> {
        self.skim();
        self.heap.peek().map(|&Reverse((at, _, tenant, _))| (at, tenant))
    }

    /// Drops dead entries from the top until a live one (or nothing) is
    /// left there.
    fn skim(&mut self) {
        while let Some(&Reverse((_, _, tenant, stamp))) = self.heap.peek() {
            if stamp == self.stamp[tenant] {
                return;
            }
            self.heap.pop();
        }
    }

    /// Queued entries, live and stale alike (an upper bound on live work).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::rng::SplitMix64;
    use dsa_sim::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn pops_in_time_order_with_push_order_ties() {
        let mut q = ActionQueue::with_tenants(3);
        q.schedule(2, t(30));
        q.schedule(0, t(10));
        q.schedule(1, t(10));
        assert_eq!(q.pop(), Some((t(10), 0)), "earlier push wins the tie");
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(30), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reschedule_invalidates_the_old_entry() {
        let mut q = ActionQueue::with_tenants(2);
        q.schedule(0, t(10));
        q.schedule(1, t(20));
        q.schedule(0, t(40)); // tenant 0 moved later; the t(10) entry is dead
        assert_eq!(q.pop(), Some((t(20), 1)));
        assert_eq!(q.pop(), Some((t(40), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_drops_a_tenant() {
        let mut q = ActionQueue::with_tenants(2);
        q.schedule(0, t(10));
        q.schedule(1, t(20));
        q.cancel(0);
        assert_eq!(q.pop(), Some((t(20), 1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pop_and_schedule_stays_exact() {
        // Mimics the service loop: every pop re-schedules the same tenant
        // later; the queue must keep returning the global minimum.
        let mut q = ActionQueue::with_tenants(4);
        for i in 0..4 {
            q.schedule(i, t(10 * (i as u64 + 1)));
        }
        let mut order = Vec::new();
        let mut rounds = 0;
        while let Some((at, i)) = q.pop() {
            order.push((at, i));
            rounds += 1;
            if rounds <= 4 {
                q.schedule(i, at + SimDuration::from_ns(35));
            } else {
                q.cancel(i);
            }
        }
        for w in order.windows(2) {
            assert!(w[0].0 <= w[1].0, "non-monotone pops: {order:?}");
        }
        assert_eq!(order.len(), 8, "4 initial + 4 rescheduled pops");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = ActionQueue::with_tenants(2);
        q.schedule(0, t(10));
        q.schedule(1, t(20));
        assert_eq!(q.peek(), Some((t(10), 0)));
        assert_eq!(q.peek(), Some((t(10), 0)), "peek is idempotent");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(10), 0)));
        assert_eq!(q.peek(), Some((t(20), 1)));
        assert_eq!(q.pop(), Some((t(20), 1)));
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peeked_head_survives_other_tenants_schedules() {
        // An earlier entry scheduled for a *different* tenant after a peek
        // must displace the peeked head.
        let mut q = ActionQueue::with_tenants(3);
        q.schedule(0, t(30));
        assert_eq!(q.peek(), Some((t(30), 0)));
        q.schedule(1, t(10));
        q.schedule(2, t(20));
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peeked_head_keeps_its_place_among_ties() {
        // A peek must not cost the head its push order: tenant 0 was
        // scheduled before tenant 1 at the same instant, so it pops first
        // even after a peek and an unrelated schedule.
        let mut q = ActionQueue::with_tenants(3);
        q.schedule(0, t(10));
        q.schedule(1, t(10));
        assert_eq!(q.peek(), Some((t(10), 0)));
        q.schedule(2, t(30));
        assert_eq!(q.pop(), Some((t(10), 0)));
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(30), 2)));
    }

    #[test]
    fn peeked_head_is_invalidated_by_its_own_reschedule_and_cancel() {
        let mut q = ActionQueue::with_tenants(2);
        q.schedule(0, t(10));
        assert_eq!(q.peek(), Some((t(10), 0)));
        q.schedule(0, t(50)); // supersedes the peeked head
        q.schedule(1, t(20));
        assert_eq!(q.pop(), Some((t(20), 1)));
        assert_eq!(q.peek(), Some((t(50), 0)));
        q.cancel(0);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// The reference the queue must match: per tenant, the live
    /// `(time, seq)` of its most recent schedule, scanned in O(T) for the
    /// minimum.
    struct Oracle {
        next: Vec<Option<(SimTime, u64)>>,
        seq: u64,
    }

    impl Oracle {
        fn schedule(&mut self, tenant: usize, at: SimTime) {
            self.next[tenant] = Some((at, self.seq));
            self.seq += 1;
        }

        fn peek(&self) -> Option<(SimTime, usize)> {
            self.next
                .iter()
                .enumerate()
                .filter_map(|(i, next)| next.map(|(at, seq)| (at, seq, i)))
                .min()
                .map(|(at, _, i)| (at, i))
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let head = self.peek();
            if let Some((_, i)) = head {
                self.next[i] = None;
            }
            head
        }
    }

    #[test]
    fn random_operations_match_a_linear_scan_oracle() {
        for seed in [1u64, 0x5EED, 0xAC7_10E0] {
            let mut rng = SplitMix64::new(seed);
            let tenants = 1 + rng.next_below(24) as usize;
            let mut q = ActionQueue::with_tenants(tenants);
            let mut oracle = Oracle { next: vec![None; tenants], seq: 0 };
            // A coarse time grid so ties between tenants are common.
            let mut now = 0u64;
            for step in 0..20_000 {
                let tenant = rng.next_below(tenants as u64) as usize;
                match rng.next_below(8) {
                    0..=2 => {
                        let at = t(now + 10 * rng.next_below(8));
                        q.schedule(tenant, at);
                        oracle.schedule(tenant, at);
                    }
                    3 => {
                        q.cancel(tenant);
                        oracle.next[tenant] = None;
                    }
                    4 | 5 => assert_eq!(q.peek(), oracle.peek(), "seed {seed} step {step}: peek"),
                    _ => {
                        let got = q.pop();
                        assert_eq!(got, oracle.pop(), "seed {seed} step {step}: pop");
                        if let Some((at, _)) = got {
                            now = now.max(at.as_ps() / 1_000);
                        }
                    }
                }
            }
            while let Some(head) = oracle.pop() {
                assert_eq!(q.pop(), Some(head), "seed {seed}: drain");
            }
            assert_eq!(q.pop(), None, "seed {seed}: drained");
        }
    }
}
