//! Offline stand-in for the slice of rayon this workspace uses:
//! `data.par_iter().map(f).collect::<Vec<_>>()` plus [`join`] and
//! [`current_num_threads`]. Work is chunked across scoped `std::thread`s
//! (one chunk per available core, capped at the item count); results are
//! returned in input order, so the transformation is semantically
//! identical to the sequential `iter().map().collect()` — just faster on
//! multi-core hosts. On a single-core host everything degrades to an
//! in-place sequential loop with no thread overhead.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

/// Number of worker threads parallel operations will use, fixed on first
/// use as rayon fixes its pool size. `available_parallelism` re-reads the
/// cgroup quota files on every call (std's docs say to cache it), which
/// costs more than many of the batches it would size.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon::join worker panicked"))
    })
}

/// The user-facing iterator traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParIterMut, ParMap, ParMapMut,
    };
}

/// Parallel iterator machinery (slice → map → ordered collect).
pub mod iter {
    use crate::current_num_threads;

    /// Borrowing conversion into a parallel iterator (`.par_iter()`).
    pub trait IntoParallelRefIterator<'data> {
        /// Item yielded by reference.
        type Item: 'data + Sync;

        /// A parallel iterator over `&self`.
        fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { items: self }
        }
    }

    /// Parallel iterator over a slice.
    pub struct ParIter<'data, T> {
        items: &'data [T],
    }

    impl<'data, T: Sync> ParIter<'data, T> {
        /// Maps each item through `f` (applied on worker threads).
        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
        {
            ParMap {
                items: self.items,
                f,
            }
        }
    }

    /// A mapped parallel iterator, ready to collect in input order.
    pub struct ParMap<'data, T, F> {
        items: &'data [T],
        f: F,
    }

    impl<'data, T, R, F> ParMap<'data, T, F>
    where
        T: Sync,
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        /// Evaluates the map across worker threads, preserving order.
        pub fn collect<C: From<Vec<R>>>(self) -> C {
            let n = self.items.len();
            let threads = current_num_threads().min(n.max(1));
            if threads <= 1 || n <= 1 {
                return self.items.iter().map(&self.f).collect::<Vec<R>>().into();
            }
            let chunk = n.div_ceil(threads);
            let f = &self.f;
            let mut out: Vec<R> = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .items
                    .chunks(chunk)
                    .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("rayon worker panicked"));
                }
            });
            out.into()
        }
    }

    /// Mutable borrowing conversion (`.par_iter_mut()`), mirroring
    /// rayon's `IntoParallelRefMutIterator` for the slice/Vec cases this
    /// workspace uses (per-board fleet scheduling mutates each board's
    /// scheduler state concurrently).
    pub trait IntoParallelRefMutIterator<'data> {
        /// Item yielded by mutable reference.
        type Item: 'data + Send;

        /// A parallel iterator over `&mut self`.
        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, Self::Item>;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Item = T;

        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { items: self }
        }
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
        type Item = T;

        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { items: self }
        }
    }

    /// Parallel iterator over mutable slice elements.
    pub struct ParIterMut<'data, T> {
        items: &'data mut [T],
    }

    impl<'data, T: Send> ParIterMut<'data, T> {
        /// Maps each item through `f` (applied on worker threads).
        pub fn map<R, F>(self, f: F) -> ParMapMut<'data, T, F>
        where
            F: Fn(&'data mut T) -> R + Sync,
            R: Send,
        {
            ParMapMut {
                items: self.items,
                f,
            }
        }

        /// Runs `f` on every item across worker threads.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'data mut T) + Sync,
        {
            self.map(f).collect::<Vec<()>>();
        }
    }

    /// A mapped mutable parallel iterator, ready to collect in input
    /// order.
    pub struct ParMapMut<'data, T, F> {
        items: &'data mut [T],
        f: F,
    }

    impl<'data, T, R, F> ParMapMut<'data, T, F>
    where
        T: Send,
        R: Send,
        F: Fn(&'data mut T) -> R + Sync,
    {
        /// Evaluates the map across worker threads, preserving order.
        pub fn collect<C: From<Vec<R>>>(self) -> C {
            let n = self.items.len();
            let threads = current_num_threads().min(n.max(1));
            if threads <= 1 || n <= 1 {
                return self
                    .items
                    .iter_mut()
                    .map(&self.f)
                    .collect::<Vec<R>>()
                    .into();
            }
            let chunk = n.div_ceil(threads);
            let f = &self.f;
            let mut out: Vec<R> = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .items
                    .chunks_mut(chunk)
                    .map(|c| s.spawn(move || c.iter_mut().map(f).collect::<Vec<R>>()))
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("rayon worker panicked"));
                }
            });
            out.into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let data: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = data.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn empty_input_is_fine() {
        let data: Vec<u8> = vec![];
        let out: Vec<u8> = data.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn par_iter_mut_mutates_in_place_and_preserves_order() {
        let mut data: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = data
            .par_iter_mut()
            .map(|x| {
                *x += 1;
                *x * 10
            })
            .collect();
        assert_eq!(data, (1..=100).collect::<Vec<_>>());
        assert_eq!(out, (1..=100).map(|x| x * 10).collect::<Vec<_>>());
        let mut empty: Vec<u64> = vec![];
        empty.par_iter_mut().for_each(|x| *x += 1);
        assert!(empty.is_empty());
    }
}
