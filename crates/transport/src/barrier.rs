//! A reusable spinning barrier with a leader closure — the one
//! synchronization point of the slot-parallel loops (the simulator's
//! sharded driver and colord's shard workers).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A reusable spinning barrier with a leader closure.
///
/// `std::sync::Barrier` parks threads through the OS on every wait; at
/// several waits per simulated slot that dominates the slot loop. This
/// barrier spins briefly (the phases it separates are microseconds
/// long) and then yields, so it stays correct — if slow — when threads
/// outnumber cores. The closure passed to [`wait`](SpinBarrier::wait)
/// runs exactly once per generation, on the last-arriving thread,
/// strictly before any thread is released.
pub struct SpinBarrier {
    /// Threads arrived in the current generation.
    count: AtomicUsize,
    /// Generation counter; incremented by the leader to release waiters.
    gen: AtomicUsize,
    /// Number of participating threads.
    total: usize,
}

impl SpinBarrier {
    /// A barrier for `total` participating threads.
    pub fn new(total: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            total,
        }
    }

    /// Blocks until all `total` threads have arrived. The last arriver
    /// runs `leader`, resets the barrier and releases everyone.
    ///
    /// Memory ordering: every arriver's prior writes are published by
    /// the `AcqRel` increment of `count`; the leader's release-store of
    /// `gen` (after running `leader`) is observed by the waiters'
    /// acquire-loads, so all phase-N writes happen-before any phase-N+1
    /// read.
    pub fn wait(&self, leader: impl FnOnce()) {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            leader();
            self.count.store(0, Ordering::Relaxed);
            self.gen.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every thread checks, right after each wait, that the leader
    /// closure has run exactly once per completed generation. The
    /// barrier itself forces the interleaving, so no sleeps are needed:
    /// a second leader run, a missed one, or an early release shows up
    /// as a count mismatch on some thread.
    #[test]
    fn leader_runs_exactly_once_per_generation() {
        const THREADS: usize = 4;
        const GENERATIONS: usize = 2_000;
        let barrier = SpinBarrier::new(THREADS);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for generation in 1..=GENERATIONS {
                        barrier.wait(|| {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(leaders.load(Ordering::Relaxed), generation);
                        // Nobody may start the next generation (and run
                        // its leader) before every thread has checked.
                        barrier.wait(|| {});
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), GENERATIONS);
    }
}
