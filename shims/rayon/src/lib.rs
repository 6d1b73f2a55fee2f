//! Offline stand-in for the crates.io `rayon` crate.
//!
//! The build container has no network access, so this shim provides the two
//! parallel-iterator shapes the workspace uses — `slice.par_iter().map(f)
//! .collect()` and `slice.par_iter().map_init(init, f).collect()` —
//! implemented with `std::thread::scope` over contiguous chunks of the
//! input. Unlike rayon there is no work-stealing pool: each call spawns up
//! to `available_parallelism` scoped threads and hands each one chunk, which
//! is the right trade-off for the workspace's coarse, evenly sized shard
//! jobs. `map_init` calls `init`
//! once per chunk, so each worker owns one piece of scratch state for all
//! of its items — upstream rayon gives the weaker "at least once per split"
//! promise, which callers must not rely on beyond reuse. Result order is the
//! input order, and worker panics propagate to the caller, both matching
//! rayon's semantics.

#![warn(missing_docs)]

use std::cell::Cell;

/// The one-stop import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`] on the
    /// calling thread (the shim decides parallelism at the call site, so a
    /// thread-local is the right scope).
    static POOL_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolve the worker count for a parallel collect: an installed
/// [`ThreadPool`] wins, then the `RAYON_NUM_THREADS` environment variable
/// (as in upstream rayon's global pool), then the machine's parallelism.
fn configured_workers() -> usize {
    if let Some(n) = POOL_WORKERS.with(|w| w.get()) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool with the default (automatic) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the number of worker threads (`0` keeps the automatic default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool. The shim has no dedicated worker threads, so this
    /// only records the requested width; it cannot fail, but keeps
    /// upstream's fallible signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A configured worker-thread width, mirroring `rayon::ThreadPool`. The
/// shim applies the width to every `par_iter().collect()` executed inside
/// [`ThreadPool::install`] on the calling thread.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count governing all parallel
    /// iterators it executes (on this thread). Nested installs restore the
    /// previous width on exit, panic or not.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_WORKERS.with(|w| w.set(self.0));
            }
        }
        let width = if self.num_threads == 0 {
            None
        } else {
            Some(self.num_threads)
        };
        let _restore = Restore(POOL_WORKERS.with(|w| w.replace(width)));
        op()
    }
}

/// Error building a [`ThreadPool`] (never produced by the shim; kept for
/// upstream signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "could not build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Types whose elements can be iterated in parallel by reference.
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Sync + 'a;

    /// A parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowing parallel iterator (the result of [`par_iter`]).
///
/// [`par_iter`]: IntoParallelRefIterator::par_iter
#[derive(Debug)]
pub struct ParIter<'a, T: Sync> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f`, to be evaluated in parallel at
    /// `collect` time.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Maps every element through `f` with a mutable per-worker state built
    /// by `init`, mirroring upstream `map_init`: each worker calls `init`
    /// once, before its first element, and threads the value through every
    /// element it maps. Empty input never calls `init`.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> MapInit<'a, T, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        R: Send,
    {
        MapInit {
            items: self.items,
            init,
            f,
        }
    }
}

/// A mapped parallel iterator awaiting collection.
#[derive(Debug)]
pub struct ParMap<'a, T: Sync, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Evaluates the map over all elements — in parallel when the input is
    /// large enough — and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = &self.f;
        fan_out(self.items, |chunk| chunk.iter().map(f).collect())
    }
}

/// A [`ParIter::map_init`] iterator awaiting collection.
#[derive(Debug)]
pub struct MapInit<'a, T: Sync, INIT, F> {
    items: &'a [T],
    init: INIT,
    f: F,
}

impl<'a, T, S, R, INIT, F> MapInit<'a, T, INIT, F>
where
    T: Sync,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    /// Evaluates the map over all elements, one `init` state per worker,
    /// and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let (init, f) = (&self.init, &self.f);
        fan_out(self.items, |chunk| {
            let mut state = init();
            chunk.iter().map(|item| f(&mut state, item)).collect()
        })
    }
}

/// Split `items` into one contiguous chunk per worker, run `per_chunk` on
/// each (on scoped threads when there is more than one), and concatenate
/// the chunk results in input order. A worker panic resumes on the caller.
fn fan_out<'a, T: Sync, R: Send, C: FromIterator<R>>(
    items: &'a [T],
    per_chunk: impl Fn(&'a [T]) -> Vec<R> + Sync,
) -> C {
    let n = items.len();
    if n == 0 {
        return std::iter::empty().collect();
    }
    let workers = configured_workers().min(n);
    if workers == 1 {
        return per_chunk(items).into_iter().collect();
    }
    let chunk_len = n.div_ceil(workers);
    let per_chunk = &per_chunk;
    let chunk_results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || per_chunk(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    chunk_results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7usize];
        let out: Vec<usize> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn install_overrides_and_restores_worker_count() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let items: Vec<usize> = (0..64).collect();
        let single: Vec<usize> = pool.install(|| items.par_iter().map(|&x| x * 3).collect());
        assert_eq!(single, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        // Nested installs stack and results stay order-preserving.
        let wide = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let nested: Vec<usize> =
            pool.install(|| wide.install(|| items.par_iter().map(|&x| x + 1).collect()));
        assert_eq!(nested, (1..=64).collect::<Vec<_>>());
        // After install returns the default applies again.
        let after: Vec<usize> = items.par_iter().map(|&x| x).collect();
        assert_eq!(after, items);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&x| if x == 63 { panic!("boom") } else { x })
                .collect();
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_init_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for width in [1, 2, 3, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let out: Vec<usize> = pool.install(|| {
                items
                    .par_iter()
                    .map_init(Vec::<usize>::new, |seen, &x| {
                        seen.push(x);
                        x * 2
                    })
                    .collect()
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_init_builds_at_most_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..64).collect();
        for width in [1, 2, 4, 7] {
            let inits = AtomicUsize::new(0);
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            // Every item reports which state it was mapped with; a state is
            // reused for a whole chunk, so the ids run in contiguous blocks.
            let ids: Vec<usize> = pool.install(|| {
                items
                    .par_iter()
                    .map_init(|| inits.fetch_add(1, Ordering::SeqCst), |id, _| *id)
                    .collect()
            });
            let built = inits.load(Ordering::SeqCst);
            assert!(
                (1..=width).contains(&built),
                "{built} inits for {width} workers"
            );
            let mut blocks = ids.clone();
            blocks.dedup();
            assert_eq!(blocks.len(), built, "each state maps one contiguous chunk");
        }
    }

    #[test]
    fn map_init_worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                let _: Vec<usize> = items
                    .par_iter()
                    .map_init(|| 0usize, |_, &x| if x == 40 { panic!("boom") } else { x })
                    .collect();
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_init_handles_empty_and_single_item_inputs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty
            .par_iter()
            .map_init(|| inits.fetch_add(1, Ordering::SeqCst), |_, &x| x)
            .collect();
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::SeqCst), 0, "no items, no state");
        let one = [7usize];
        let out: Vec<usize> = one
            .par_iter()
            .map_init(|| inits.fetch_add(1, Ordering::SeqCst), |_, &x| x + 1)
            .collect();
        assert_eq!(out, vec![8]);
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    }
}
