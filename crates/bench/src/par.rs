//! Fork-join helpers over one process-wide pool, for the harness only.
//!
//! The paper's thread level is OpenMP `parallel for` over particle chunks.
//! The library goes parallel one way — a [`ThreadPool`] owned by the
//! simulation, driven with borrowed slices and per-worker arenas, no
//! allocation per call. These helpers are the convenient form the STREAM
//! kernels ([`crate::membench`]) and the reference AoS loops
//! ([`crate::reference`]) use instead: one global pool sized to
//! `available_parallelism`, created on first use, and one `Vec` per call to
//! stage owned items.
//!
//! Do not call these helpers from inside a closure already running on the
//! global pool — pool regions must stay leaf-level (see [`ThreadPool::run`]).

use pic_core::pool::ThreadPool;
use std::sync::OnceLock;

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool behind [`for_each`] and [`map_collect`], sized to
/// `available_parallelism` and created on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    })
}

/// Run `f` over every item on the global pool (at most
/// `available_parallelism` items in flight; the caller's thread
/// participates). With zero or one item this degenerates to a plain loop.
pub fn for_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if items.len() <= 1 {
        for it in items {
            f(it);
        }
        return;
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    global().run_items(&mut slots, |_, slot| {
        f(slot.take().expect("pool visits each item exactly once"));
    });
}

/// Map every item on the global pool and return the results in item order.
pub fn map_collect<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|it| (Some(it), None)).collect();
    global().run_items(&mut slots, |_, slot| {
        let it = slot.0.take().expect("pool visits each item exactly once");
        slot.1 = Some(f(it));
    });
    slots
        .into_iter()
        .map(|(_, r)| r.expect("pool filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_visits_everything() {
        let hits = AtomicUsize::new(0);
        for_each((0..37).collect(), |i: usize| {
            hits.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), (1..=37).sum());
    }

    #[test]
    fn for_each_handles_empty_and_single() {
        let hits = AtomicUsize::new(0);
        for_each(Vec::<usize>::new(), |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        for_each(vec![5usize], |i| {
            hits.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn for_each_gives_threads_disjoint_mut_slices() {
        let mut data = vec![0u64; 100];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(13).collect();
        for_each(chunks, |c| {
            for x in c.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let out = map_collect((0..20).collect(), |i: usize| i * i);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_collect_item_count_far_exceeds_pool_width() {
        // The old implementation spawned one OS thread per item; the pool
        // must handle a work list far wider than the machine.
        let out = map_collect((0..5000).collect(), |i: usize| i + 1);
        assert_eq!(out.len(), 5000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }
}
