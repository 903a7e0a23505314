//! The workspace's one worker pool: an order-preserving parallel map over
//! independent items, each claimed by one worker at a time.
//!
//! The fleet designer (one claimed item per application: synthesis, then
//! characterisation), the scenario batch (one claimed item per scenario) and
//! the robustness campaign (one claimed item per chunk of scenarios, one
//! call per window of chunks that it folds in order before the next) all
//! run on [`map_claimed`]. The calling thread is always a worker, so a
//! one-worker run spawns nothing, and a shared cursor hands out items one
//! at a time, so items of uneven cost balance across workers. Results are
//! stored by input index and errors are resolved by input index, so what a
//! run returns never depends on the worker count or on scheduling.

use crate::error::{CoreError, Result};
use cps_sched::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The worker count for a `configured` thread setting over `items` items:
/// `0` means the machine's available parallelism, and a run never has more
/// workers than items. The parallelism is queried once per process: the
/// query reads cgroup files on Linux and took 33–42 µs a call on a 2-vCPU
/// Xeon VM.
pub(crate) fn worker_count(configured: usize, items: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let configured = if configured == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        configured
    };
    configured.clamp(1, items.max(1))
}

/// Maps `f` over `items` on [`worker_count`]`(threads, items.len())`
/// workers and returns the results in input order.
///
/// The calling thread works as the last worker, beside `workers − 1` scoped
/// threads. Each worker claims the next unclaimed index from a shared
/// cursor, one item at a time. It builds its scratch with `init` at its
/// first claim and threads that scratch through every item it claims.
/// `cancel` is polled before every item; a fired token fails that item
/// with [`CoreError::Cancelled`].
///
/// # Errors
///
/// The error of the lowest-index failing item. Every item below it has
/// run, and items claimed once a lower-index failure is known are skipped,
/// so the error is the one a sequential run returns, for any worker count.
pub(crate) fn map_claimed<T, R, S>(
    threads: usize,
    cancel: Option<&CancelToken>,
    items: Vec<T>,
    init: impl Fn() -> Result<S> + Sync,
    f: impl Fn(&mut S, usize, T) -> Result<R> + Sync,
) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
{
    let workers = worker_count(threads, items.len());
    let slots: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    // Both atomics publish no other data, so `Relaxed` suffices: each item
    // moves through its own slot lock and each result through `join`. A
    // stale `first_failure` only delays a skip.
    let cursor = AtomicUsize::new(0);
    let first_failure = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut scratch: Option<S> = None;
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= slots.len() || index > first_failure.load(Ordering::Relaxed) {
                return (done, None);
            }
            let item = slots[index]
                .lock()
                .expect("a slot lock is held only for a take, which cannot panic")
                .take()
                .expect("the cursor hands out every index once");
            let result = match cancel {
                Some(token) if token.is_cancelled() => Err(CoreError::Cancelled),
                _ => match &mut scratch {
                    Some(scratch) => Ok(scratch),
                    empty => init().map(|fresh| empty.insert(fresh)),
                }
                .and_then(|scratch| f(scratch, index, item)),
            };
            match result {
                Ok(value) => done.push((index, value)),
                Err(error) => {
                    first_failure.fetch_min(index, Ordering::Relaxed);
                    return (done, Some((index, error)));
                }
            }
        }
    };
    let outputs = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut outputs = vec![work()];
        outputs.extend(helpers.into_iter().map(|h| h.join().expect("pool worker must not panic")));
        outputs
    });

    let mut results = Vec::with_capacity(slots.len());
    let mut failures = Vec::new();
    for (done, failure) in outputs {
        results.extend(done);
        failures.extend(failure);
    }
    if let Some((_, error)) = failures.into_iter().min_by_key(|(index, _)| *index) {
        return Err(error);
    }
    results.sort_unstable_by_key(|(index, _)| *index);
    Ok(results.into_iter().map(|(_, value)| value).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn fail_at(index: usize) -> CoreError {
        CoreError::InvalidConfig { reason: format!("item {index}") }
    }

    #[test]
    fn results_keep_input_order_and_scratch_stays_per_worker() {
        for threads in [1, 2, 3, 7] {
            // `init` runs once per worker that claims an item, not per item.
            let inits = AtomicUsize::new(0);
            let out = map_claimed(
                threads,
                None,
                (0..50u64).collect(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
                |_, index, item| Ok((index, item * item)),
            )
            .unwrap();
            let expected: Vec<_> = (0..50u64).map(|i| (i as usize, i * i)).collect();
            assert_eq!(out, expected, "threads={threads}");
            let inits = inits.load(Ordering::Relaxed);
            assert!((1..=worker_count(threads, 50)).contains(&inits), "threads={threads}");
        }
        assert!(map_claimed(2, None, Vec::<u8>::new(), || Ok(()), |_, _, x| Ok(x))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn the_lowest_index_failure_wins_for_every_worker_count() {
        for threads in [1, 2, 3, 7] {
            let err = map_claimed(
                threads,
                None,
                (0..40usize).collect(),
                || Ok(()),
                |_, index, _| {
                    if index == 9 || index == 31 {
                        Err(fail_at(index))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err.to_string(), fail_at(9).to_string(), "threads={threads}");
        }
    }

    #[test]
    fn the_lowest_index_failure_wins_whichever_worker_reports_it() {
        // Items 0 and 1 meet at a barrier, so each of the two workers holds
        // one. The early worker finishes its barrier item and fails on item
        // 2; only then does the late worker fail on its barrier item, so
        // both failures are recorded and the lower one is the late worker's.
        // The two rounds make the late worker the caller, then the spawned
        // thread.
        for late_is_caller in [true, false] {
            let caller = std::thread::current().id();
            let barrier = Barrier::new(2);
            let early_failed = AtomicBool::new(false);
            let late_index = AtomicUsize::new(usize::MAX);
            let err = map_claimed(
                2,
                None,
                (0..4usize).collect(),
                || Ok(()),
                |_, index, _| {
                    let late = (std::thread::current().id() == caller) == late_is_caller;
                    if index < 2 {
                        barrier.wait();
                        if !late {
                            return Ok(());
                        }
                        while !early_failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        late_index.store(index, Ordering::SeqCst);
                    } else {
                        early_failed.store(true, Ordering::SeqCst);
                    }
                    Err(fail_at(index))
                },
            )
            .unwrap_err();
            let expected = fail_at(late_index.load(Ordering::SeqCst)).to_string();
            assert_eq!(err.to_string(), expected, "late_is_caller={late_is_caller}");
        }
    }

    #[test]
    fn a_failing_init_fails_the_claimed_item_and_a_fired_token_every_item() {
        let err = map_claimed(2, None, vec![1, 2, 3], || Err::<(), _>(fail_at(0)), |_, _, x| Ok(x))
            .unwrap_err();
        assert_eq!(err.to_string(), fail_at(0).to_string());
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 3] {
            let err = map_claimed(threads, Some(&token), vec![1, 2, 3], || Ok(()), |_, _, x| Ok(x))
                .unwrap_err();
            assert!(matches!(err, CoreError::Cancelled), "threads={threads}: {err}");
        }
    }

    #[test]
    fn worker_count_resolves_zero_and_clamps_to_the_items() {
        assert_eq!(worker_count(0, 0), 1);
        assert!(worker_count(0, 100) >= 1);
        assert_eq!(worker_count(0, 100), worker_count(0, 100));
        assert_eq!(worker_count(5, 3), 3);
        assert_eq!(worker_count(1, 100), 1);
    }
}
