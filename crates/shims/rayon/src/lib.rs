//! API-compatible subset of `rayon`, implemented locally because the build
//! environment has no access to a crates registry.
//!
//! Provides exactly the worker-pool surface the batched NCC executor uses:
//! [`prelude::ParallelSliceMut::par_chunks_mut`] with `enumerate().for_each()`,
//! plus [`current_num_threads`]. Work is distributed over `std::thread`
//! scoped workers with static contiguous partitioning — deterministic in
//! the sense that *which* thread runs a chunk never affects results (the
//! caller gets disjoint `&mut` chunks either way), and allocation-free on
//! the single-chunk fast path.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads the pool will use (mirrors
/// `rayon::current_num_threads`): the machine's available parallelism,
/// cached on first use.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Import surface (mirrors `rayon::prelude`).
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Parallel chunked iteration over mutable slices (mirrors the
/// `rayon::slice::ParallelSliceMut` entry point).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of at most `chunk_size` elements, to be
    /// processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
        }
    }
}

/// Pending parallel iteration over chunks.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> EnumerateChunks<'a, T> {
        EnumerateChunks(self)
    }

    /// Runs `f` on every chunk, distributing chunks across worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumerateChunks<'a, T>(ParChunksMut<'a, T>);

impl<'a, T: Send> EnumerateChunks<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair across worker threads.
    ///
    /// Fast path: a single chunk (or a single worker) runs inline on the
    /// calling thread with no allocation and no thread traffic.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let ParChunksMut { data, chunk_size } = self.0;
        let n_chunks = data.len().div_ceil(chunk_size.max(1)).max(1);
        let workers = current_num_threads().min(n_chunks);
        if workers <= 1 || data.len() <= chunk_size {
            for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f((i, chunk));
            }
            return;
        }
        // Static contiguous partitioning: worker w takes chunks
        // [w*per, (w+1)*per). Simulation rounds step near-uniform work per
        // node, so static partitioning loses little to stealing and keeps
        // the dispatch allocation down to one Vec per call.
        let mut parts: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_size).enumerate().collect();
        let per = parts.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            while !parts.is_empty() {
                let take = per.min(parts.len());
                let batch: Vec<(usize, &mut [T])> = parts.drain(..take).collect();
                scope.spawn(move || {
                    for (i, chunk) in batch {
                        f((i, chunk));
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_chunks_visited_exactly_once() {
        let mut v: Vec<usize> = vec![0; 1027];
        v.as_mut_slice()
            .par_chunks_mut(64)
            .enumerate()
            .for_each(|(i, c)| {
                for x in c.iter_mut() {
                    *x += i + 1;
                }
            });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 64 + 1);
        }
    }

    #[test]
    fn single_chunk_runs_inline() {
        let calls = AtomicUsize::new(0);
        let mut v = [1u8, 2, 3];
        v.par_chunks_mut(16).for_each(|c| {
            calls.fetch_add(1, Ordering::Relaxed);
            c[0] = 9;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(v[0], 9);
    }

    #[test]
    fn threads_reported() {
        assert!(super::current_num_threads() >= 1);
    }
}
