//! A bounded, scoped worker pool with deterministic result ordering.
//!
//! One primitive serves the harness's `JobSet` batches: run `n`
//! independent index-addressed tasks on at most `workers` OS threads and
//! return the results **in index order**, no matter which worker finished
//! which task first. Determinism therefore never depends on the worker
//! count; only wall-clock does.
//!
//! Work distribution is a single atomic counter (work stealing by index):
//! whichever worker is free claims the next index. With `workers <= 1` (or
//! `n <= 1`) everything runs inline on the caller's thread — the degenerate
//! pool has zero thread overhead and identical results, which is what makes
//! `threads=1` vs `threads=N` comparisons exact.
//!
//! Panics in a task propagate to the caller (re-raised when the scope
//! joins), they are not swallowed; callers that want per-task fault
//! isolation wrap their closure in `catch_unwind` and return a `Result`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(0..n)` across at most `workers` threads; `out[i] == f(i)`.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        // ccsim-lint: allow(unwrap): a panicking worker re-raises at scope
        // join above, so reaching here means every slot was filled
        .map(|r| r.expect("worker completed every claimed index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(4, 64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial = run_indexed(1, 33, f);
        for workers in [2, 3, 8, 100] {
            assert_eq!(run_indexed(workers, 33, f), serial, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let hit = std::panic::catch_unwind(|| {
            run_indexed(2, 8, |i| {
                if i == 5 {
                    panic!("task 5 failed");
                }
                i
            })
        });
        assert!(hit.is_err());
    }
}
