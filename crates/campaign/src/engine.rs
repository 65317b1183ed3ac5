//! The worker pool: a scoped-thread fan-out that preserves input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every item on `workers` scoped threads and returns the
/// results in input order.
///
/// Work is claimed with an atomic cursor, so the schedule is dynamic but
/// the result vector is positionally stable: `out[i]` is always `f(items[i])`
/// regardless of the worker count. With `workers <= 1` the items run
/// serially on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins every worker first).
pub fn run_parallel<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Send + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let total = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(total) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let item = slots[index]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let result = f(index, item);
                *results[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot was filled")
        })
        .collect()
}

/// Deterministic per-cell seed derivation: a splitmix64 chain over the
/// plan's base seed and the cell's matrix coordinates.
///
/// The derived seed depends only on
/// `(base, config, world, scenario, replicate)`, never on scheduling or
/// sharding, so a plan produces the same per-cell seeds at any worker count
/// and on any shard — the invariant that lets
/// [`CampaignReport::merge`](crate::CampaignReport::merge) reassemble shard
/// runs byte-for-byte.
#[must_use]
pub fn cell_seed(base: u64, config: usize, world: usize, scenario: usize, replicate: usize) -> u64 {
    let mut state = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    for coordinate in [
        config as u64,
        world as u64,
        scenario as u64,
        replicate as u64,
    ] {
        state ^= coordinate.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = splitmix64(state);
    }
    state
}

/// The splitmix64 finalizer: seed derivation here, and the synthetic
/// sweep's per-cell outcome draws.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let serial = run_parallel(items.clone(), 1, |i, x| (i as u64, x * 2));
        for workers in [2, 4, 8] {
            let parallel = run_parallel(items.clone(), workers, |i, x| (i as u64, x * 2));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        assert_eq!(serial[17], (17, 34));
    }

    #[test]
    fn empty_and_single_item_inputs_are_fine() {
        let empty: Vec<u8> = vec![];
        assert!(run_parallel(empty, 4, |_, x: u8| x).is_empty());
        assert_eq!(run_parallel(vec![9], 4, |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = cell_seed(7, 0, 0, 0, 0);
        assert_eq!(a, cell_seed(7, 0, 0, 0, 0));
        // Every coordinate perturbs the seed.
        assert_ne!(a, cell_seed(8, 0, 0, 0, 0));
        assert_ne!(a, cell_seed(7, 1, 0, 0, 0));
        assert_ne!(a, cell_seed(7, 0, 1, 0, 0));
        assert_ne!(a, cell_seed(7, 0, 0, 1, 0));
        assert_ne!(a, cell_seed(7, 0, 0, 0, 1));
        // Coordinates are not interchangeable.
        assert_ne!(cell_seed(7, 1, 0, 0, 0), cell_seed(7, 0, 1, 0, 0));
        assert_ne!(cell_seed(7, 0, 1, 0, 0), cell_seed(7, 0, 0, 1, 0));
        assert_ne!(cell_seed(7, 0, 0, 1, 0), cell_seed(7, 0, 0, 0, 1));
    }
}
