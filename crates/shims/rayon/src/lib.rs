//! Offline drop-in subset of `rayon`, backed by `std::thread::scope`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the parallel-iterator surface it actually uses:
//!
//! * `slice.par_chunks(n).fold(id, f).reduce(id, g)` — the batch trace
//!   summary's fold over record chunks;
//! * `vec.into_par_iter().map(f).reduce(id, g)` — shard merging in
//!   `essio-stream`;
//! * `vec.into_par_iter().map(f).collect::<Vec<_>>()` and
//!   `.collect_into_vec(&mut v)` — order-preserving parallel maps, among
//!   them the campaign runner's seed fan-out and the N-body fleet's
//!   per-rank trajectories.
//!
//! Work is split into one contiguous block per worker thread (capped at
//! [`max_threads`]); each block is processed on its own scoped thread and
//! results are combined on the caller. `fold` starts one accumulator per
//! *block*, so a chunk fold builds at most [`max_threads`] of them. rayon's
//! contract lets `fold` create any number of accumulators, so user code
//! must still supply an associative `reduce` with the identity as its
//! neutral element.

/// Worker-thread cap: the host parallelism (at least 1).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `tasks` (one closure per work block) on scoped threads, returning
/// their results in order. Degenerates to inline execution for 0/1 tasks.
fn run_blocks<O, F>(tasks: Vec<F>) -> Vec<O>
where
    O: Send,
    F: FnOnce() -> O + Send,
{
    let mut tasks = tasks;
    match tasks.len() {
        0 => Vec::new(),
        1 => vec![tasks.pop().unwrap()()],
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = tasks.into_iter().map(|t| scope.spawn(t)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rayon shim worker panicked"))
                .collect()
        }),
    }
}

/// Split `n` items into at most `max_threads()` contiguous `(start, end)`
/// blocks.
fn blocks(n: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let workers = max_threads().min(n);
    let per = n.div_ceil(workers);
    (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(n)))
        .filter(|(s, e)| s < e)
        .collect()
}

/// The `use rayon::prelude::*` surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}

/// Slice extension providing [`ParallelSlice::par_chunks`].
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-sized chunks (last may be shorter).
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be nonzero");
        ParChunks { slice: self, size }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        self.as_slice().par_chunks(size)
    }
}

/// Owned parallel iteration (`vec.into_par_iter()`).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Iterator type.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoParIter<T>;

    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// Minimal common parallel-iterator operations, implemented by the concrete
/// adaptor types below (each eagerly distributes work on the consuming
/// call, not here).
pub trait ParallelIterator {}

/// Parallel chunk iterator (see [`ParallelSlice::par_chunks`]).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Fold the chunks of each worker's block, in order, into one
    /// accumulator started from `identity`; combine the per-block
    /// accumulators with [`FoldChunks::reduce`].
    pub fn fold<Acc, Id, F>(self, identity: Id, fold: F) -> FoldChunks<'a, T, Id, F>
    where
        Id: Fn() -> Acc + Sync,
        F: Fn(Acc, &'a [T]) -> Acc + Sync,
        Acc: Send,
    {
        FoldChunks {
            chunks: self,
            identity,
            fold,
        }
    }
}

/// Lazily folded chunks; consumed by [`FoldChunks::reduce`].
pub struct FoldChunks<'a, T, Id, F> {
    chunks: ParChunks<'a, T>,
    identity: Id,
    fold: F,
}

impl<'a, T, Acc, Id, F> FoldChunks<'a, T, Id, F>
where
    T: Sync,
    Acc: Send,
    Id: Fn() -> Acc + Sync,
    F: Fn(Acc, &'a [T]) -> Acc + Sync,
{
    /// Combine the per-chunk accumulators with `reduce` (must be
    /// associative; identity must be its neutral element).
    pub fn reduce<Rid, R>(self, r_identity: Rid, reduce: R) -> Acc
    where
        Rid: Fn() -> Acc + Sync,
        R: Fn(Acc, Acc) -> Acc + Sync,
    {
        let chunk_list: Vec<&'a [T]> = self.chunks.slice.chunks(self.chunks.size).collect();
        let identity = &self.identity;
        let fold = &self.fold;
        let tasks: Vec<_> = blocks(chunk_list.len())
            .into_iter()
            .map(|(s, e)| {
                let mine = &chunk_list[s..e];
                move || mine.iter().fold(identity(), |acc, chunk| fold(acc, chunk))
            })
            .collect();
        run_blocks(tasks)
            .into_iter()
            .reduce(reduce)
            .unwrap_or_else(r_identity)
    }
}

/// Owned parallel iterator (see [`IntoParallelIterator`]).
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Map each owned item in parallel.
    pub fn map<O, F>(self, f: F) -> IntoParMap<T, F>
    where
        O: Send,
        F: Fn(T) -> O + Sync,
    {
        IntoParMap {
            items: self.items,
            f,
        }
    }
}

/// Mapped owned iterator.
pub struct IntoParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, O, F> IntoParMap<T, F>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    /// Reduce the mapped values (associative `reduce`, neutral `identity`).
    pub fn reduce<Id, R>(self, identity: Id, reduce: R) -> O
    where
        Id: Fn() -> O + Sync,
        R: Fn(O, O) -> O + Sync,
    {
        let mapped: Vec<O> = self.collect();
        let reduce_ref = &reduce;
        let tasks: Vec<_> = {
            let mut mapped = mapped;
            let block_list = blocks(mapped.len());
            let mut parts: Vec<Vec<O>> = Vec::with_capacity(block_list.len());
            for (s, _) in block_list.iter().rev() {
                parts.push(mapped.split_off(*s));
            }
            parts.reverse();
            parts
                .into_iter()
                .map(|part| {
                    move || {
                        let mut acc: Option<O> = None;
                        for v in part {
                            acc = Some(match acc {
                                None => v,
                                Some(prev) => reduce_ref(prev, v),
                            });
                        }
                        acc
                    }
                })
                .collect()
        };
        run_blocks(tasks)
            .into_iter()
            .flatten()
            .fold(identity(), reduce)
    }

    /// Collect mapped values in input order.
    pub fn collect<C: FromParallel<O>>(self) -> C {
        C::from_blocks(self.map_blocks())
    }

    /// Collect mapped values in input order into `target`, which is
    /// cleared first; capacity it already holds is reused, as with
    /// rayon's `IndexedParallelIterator::collect_into_vec`.
    pub fn collect_into_vec(self, target: &mut Vec<O>) {
        target.clear();
        target.reserve(self.items.len());
        target.extend(self.map_blocks().into_iter().flatten());
    }

    /// Map every block on its own thread; results in block order.
    fn map_blocks(mut self) -> Vec<Vec<O>> {
        let n = self.items.len();
        let block_list = blocks(n);
        // Split the owned items into per-block vectors (back to front so
        // split_off indices stay valid).
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(block_list.len());
        for (s, _) in block_list.iter().rev() {
            parts.push(self.items.split_off(*s));
        }
        parts.reverse();
        let f = &self.f;
        let tasks: Vec<_> = parts
            .into_iter()
            .map(|part| move || part.into_iter().map(f).collect::<Vec<O>>())
            .collect();
        run_blocks(tasks)
    }
}

/// Order-preserving collection target for the shim's `collect`.
pub trait FromParallel<O> {
    /// Assemble from per-block result vectors (in block order).
    fn from_blocks(blocks: Vec<Vec<O>>) -> Self;
}

impl<O> FromParallel<O> for Vec<O> {
    fn from_blocks(blocks: Vec<Vec<O>>) -> Self {
        blocks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_fold_reduce_counts_items() {
        let data: Vec<u32> = (0..10_000).map(|i| i % 97).collect();
        let counts: HashMap<u32, u64> = data
            .par_chunks(256)
            .fold(HashMap::new, |mut acc: HashMap<u32, u64>, chunk| {
                for v in chunk {
                    *acc.entry(*v).or_insert(0) += 1;
                }
                acc
            })
            .reduce(HashMap::new, |mut a, b| {
                for (k, v) in b {
                    *a.entry(k).or_insert(0) += v;
                }
                a
            });
        assert_eq!(counts.values().sum::<u64>(), 10_000);
        assert_eq!(counts[&0], 10_000u64.div_ceil(97));
    }

    #[test]
    fn chunk_fold_starts_one_accumulator_per_worker_block() {
        let data: Vec<u32> = (0..10_000).collect();
        let made = AtomicUsize::new(0);
        let identity = || {
            made.fetch_add(1, Ordering::Relaxed);
            0u64
        };
        let sum = data
            .par_chunks(7)
            .fold(identity, |acc, chunk| {
                acc + chunk.iter().map(|&v| v as u64).sum::<u64>()
            })
            .reduce(identity, |a, b| a + b);
        assert_eq!(sum, 9_999 * 10_000 / 2);
        let made = made.into_inner();
        assert!(
            (1..=super::max_threads()).contains(&made),
            "{made} accumulators for {} threads",
            super::max_threads()
        );
    }

    #[test]
    fn into_par_iter_collect_preserves_order() {
        let data: Vec<u32> = (0..1000).collect();
        let doubled: Vec<u32> = data.clone().into_par_iter().map(|v| v * 2).collect();
        assert_eq!(doubled, data.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_vec_preserves_order_and_reuses_capacity() {
        let mut out = Vec::with_capacity(1000);
        out.push(7u32);
        let ptr = out.as_ptr();
        (0..1000u32)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|v| v * 2)
            .collect_into_vec(&mut out);
        assert_eq!(out, (0..1000).map(|v| v * 2).collect::<Vec<_>>());
        assert_eq!(out.as_ptr(), ptr, "no reallocation");
    }

    #[test]
    fn into_par_iter_reduce_sums() {
        let data: Vec<u64> = (1..=1000).collect();
        let sum = data
            .into_par_iter()
            .map(|v| v + 1)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, 500_500 + 1000);
    }

    #[test]
    fn empty_inputs() {
        let data: Vec<u64> = Vec::new();
        let out: Vec<u64> = data.into_par_iter().map(|v| v).collect();
        assert!(out.is_empty());
    }
}
