//! Shared parallel-execution configuration and deterministic helpers.
//!
//! Every `par_*` kernel in the workspace (`er-blocking`, `er-metablocking`,
//! `er-core::matching`) takes a [`Parallelism`] and promises **bit-identical
//! output to its serial counterpart at every thread count** — see
//! `docs/parallelism.md` for the contract. The helpers here make that easy to
//! uphold:
//!
//! * [`par_map`] — order-preserving map over a slice: results arrive in input
//!   order no matter how the work was scheduled, so any kernel whose per-item
//!   work is a pure function is deterministic for free.
//! * [`par_map_chunks`] — order-preserving map over **fixed-size** chunks.
//!   Kernels that reduce floating-point values use this with a chunk size
//!   that does *not* depend on the thread count, and merge the per-chunk
//!   partials left-to-right; the float association order is then a property
//!   of the algorithm, not of the hardware.

/// Degree of data parallelism for the workspace's `par_*` kernels.
///
/// `Parallelism::serial()` (the default) runs everything on the calling
/// thread; [`Parallelism::threads`] pins a worker count; and
/// [`Parallelism::auto`] uses the machine's available parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested worker count; `0` means "available parallelism".
    threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Single-threaded execution (the default).
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// Use all available hardware parallelism.
    pub fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Use exactly `n` worker threads; `0` is interpreted as [`auto`].
    ///
    /// [`auto`]: Parallelism::auto
    pub fn threads(n: usize) -> Self {
        Parallelism { threads: n }
    }

    /// The concrete worker count this configuration resolves to (≥ 1).
    pub fn effective(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Whether the configuration resolves to a single worker.
    pub fn is_serial(&self) -> bool {
        self.effective() <= 1
    }
}

/// Runs `span(start, end)` on one scoped thread per contiguous span of
/// `n.div_ceil(min(threads, n))` covering `[0, n)` (`n ≥ 1`) and concatenates
/// the results in span order. A worker's panic is re-raised with its own
/// payload, so what a caller catches does not depend on the thread count.
fn par_spans<U, F>(par: Parallelism, n: usize, span: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> Vec<U> + Sync,
{
    let len = n.div_ceil(par.effective().min(n));
    let span = &span;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .step_by(len)
            .map(|start| s.spawn(move || span(start, (start + len).min(n))))
            .collect();
        let mut out = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Order-preserving parallel map: `out[i] == f(&items[i])` for every `i`,
/// regardless of thread count. Falls back to a plain serial map when the
/// configuration is serial or the input is tiny.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if par.is_serial() || items.len() < 2 {
        items.iter().map(f).collect()
    } else {
        par_spans(par, items.len(), |start, end| {
            items[start..end].iter().map(&f).collect()
        })
    }
}

/// Order-preserving parallel map over fixed-size chunks:
/// `out[k] == f(&items[k*chunk .. (k+1)*chunk])` in chunk order.
///
/// The chunk size is chosen by the *caller* and must not depend on the
/// thread count; kernels that fold floats merge the returned partials
/// left-to-right, fixing the association order at every parallelism level.
pub fn par_map_chunks<T, U, F>(par: Parallelism, items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be non-zero");
    if par.is_serial() || items.len() <= chunk {
        items.chunks(chunk).map(&f).collect()
    } else {
        par_spans(par, items.len().div_ceil(chunk), |start, end| {
            let end = (end * chunk).min(items.len());
            items[start * chunk..end].chunks(chunk).map(&f).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_default_and_effective_one() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert_eq!(Parallelism::serial().effective(), 1);
        assert!(Parallelism::serial().is_serial());
    }

    #[test]
    fn explicit_threads_resolve_to_themselves() {
        assert_eq!(Parallelism::threads(4).effective(), 4);
        assert!(!Parallelism::threads(4).is_serial());
        assert!(Parallelism::auto().effective() >= 1);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert_eq!(
            Parallelism::threads(0).effective(),
            Parallelism::auto().effective()
        );
    }

    #[test]
    fn par_map_matches_serial_at_all_thread_counts() {
        for len in [2, 3, 7, 1013] {
            let items: Vec<u64> = (0..len).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            for n in [1, 2, 3, 4, 8] {
                let par = par_map(Parallelism::threads(n), &items, |x| x * x + 1);
                assert_eq!(par, serial, "{len} items, thread count {n}");
            }
        }
    }

    #[test]
    fn par_map_chunks_order_and_coverage() {
        // 2, 3 and 7 chunks: fewer chunks than threads, uneven last spans.
        for len in [20, 30, 70, 103] {
            let items: Vec<u32> = (0..len).collect();
            let serial: Vec<u32> = items.chunks(10).map(|c| c.iter().sum()).collect();
            for n in [1, 2, 3, 4, 8] {
                let par = par_map_chunks(Parallelism::threads(n), &items, 10, |c| {
                    c.iter().sum::<u32>()
                });
                assert_eq!(par, serial, "{len} items, thread count {n}");
            }
        }
    }

    #[test]
    fn float_fold_is_thread_count_independent_with_fixed_chunks() {
        // The exact scenario the fixed-chunk rule exists for: summing f64s.
        let items: Vec<f64> = (0..5000).map(|i| 1.0 / (i + 1) as f64).collect();
        let fold = |par: Parallelism| {
            par_map_chunks(par, &items, 64, |c| c.iter().sum::<f64>())
                .into_iter()
                .fold(0.0f64, |a, b| a + b)
        };
        let reference = fold(Parallelism::serial());
        for n in [2, 4, 8] {
            let v = fold(Parallelism::threads(n));
            assert!(
                v == reference,
                "bitwise mismatch at {n} threads: {v:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::threads(4), &empty, |x| *x).is_empty());
        assert!(par_map_chunks(Parallelism::threads(4), &empty, 8, |c| c.len()).is_empty());
    }

    #[test]
    fn worker_panic_message_is_thread_count_independent() {
        let items: Vec<u32> = (0..100).collect();
        let boom = |x: &u32| if *x == 37 { panic!("boom at {x}") } else { *x };
        for n in [1, 4] {
            let par = Parallelism::threads(n);
            let by_item = || drop(par_map(par, &items, boom));
            let by_chunk = || {
                drop(par_map_chunks(par, &items, 10, |c| {
                    c.iter().map(boom).max()
                }))
            };
            for run in [&by_item as &dyn Fn(), &by_chunk] {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    .expect_err("item 37 panics");
                let message = crate::fault::panic_message(payload.as_ref());
                assert_eq!(message, "task panicked: boom at 37", "{n} threads");
            }
        }
    }
}
