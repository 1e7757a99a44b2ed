//! Small scoped worker pool for multi-document temporal scans.
//!
//! The store is single-writer/multi-reader ([`crate::Database`] is `Sync`),
//! so per-document work — the structural join of the materialising pattern
//! scans — parallelises trivially: no document's work depends on another's.
//! This module provides the primitive: an order-preserving
//! parallel map over a slice, executed on `std::thread::scope` workers with
//! a work-stealing index (no channels, no allocation per task beyond the
//! result slot).
//!
//! The pool is deliberately small ([`MAX_WORKERS`]): scans are memory-bound
//! (posting intersections, delta application) and the version cache shards
//! contend past a handful of readers.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Upper bound on worker threads for any parallel scan.
pub const MAX_WORKERS: usize = 4;

/// The number of workers a job of `n` independent items gets: bounded by
/// the machine, [`MAX_WORKERS`], and the job size itself.
pub fn workers_for(n: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    hw.min(MAX_WORKERS).min(n).max(1)
}

/// Order-preserving parallel map: applies `f` to every item of `items` on
/// up to [`MAX_WORKERS`] scoped threads and returns the results in input
/// order. Falls back to a plain sequential map when the job is too small
/// to be worth a thread (`items.len() < 2`) or the machine has one core.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers_for(n);
    if workers <= 1 || n < 2 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock() = Some(r);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().expect("worker filled every claimed slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..257).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn results_can_be_fallible() {
        let items = [1i32, -1, 2];
        let out = parallel_map(&items, |&i| if i < 0 { Err("negative") } else { Ok(i) });
        assert_eq!(out, vec![Ok(1), Err("negative"), Ok(2)]);
    }
}
