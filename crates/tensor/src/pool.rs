//! Persistent worker pool and deterministic parallel-for.
//!
//! Production training stacks never spawn OS threads inside a kernel: the
//! GPU runtime dispatches work to a fixed set of compute units, and CPU
//! reference paths (Megatron-LM-style data loaders, oneDNN, OpenMP BLAS)
//! keep a persistent pool and hand it loop ranges. This module is
//! bertscope's substitute for that multi-CU dispatch: a lazily-initialized
//! set of workers over `std` threads and channels, plus `parallel_*` helpers
//! that split index ranges into **shape-determined** chunks.
//!
//! # Determinism
//!
//! All helpers guarantee bit-identical results at any thread count, by
//! construction rather than by scheduling:
//!
//! * Chunk boundaries depend only on the *problem shape* (length and grain),
//!   never on the thread count. `BERTSCOPE_THREADS=1` and `=64` cut the same
//!   chunks.
//! * Each chunk is computed serially by exactly one thread, touching only
//!   its own output slice, so no floating-point operation is reassociated
//!   across a chunk boundary.
//! * Reductions ([`parallel_map`]) return per-chunk partials **indexed by
//!   chunk**, and callers fold them in ascending chunk order on one thread.
//!
//! # Thread count
//!
//! The pool size defaults to [`std::thread::available_parallelism`] and can
//! be pinned with the `BERTSCOPE_THREADS` environment variable (read once,
//! at first use). [`with_threads`] overrides it for a scope — the
//! determinism tests use this to run the same kernel at 1, 2 and 8 threads
//! inside one process.
//!
//! Nested parallelism is flattened: a `parallel_*` call made from inside a
//! pool worker runs inline on that worker, so kernels can be composed
//! without deadlocking the pool.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of work handed to the pool. Lifetime-erased boxes of these cross
/// the channel to the workers; [`run_tasks`] guarantees they finish before
/// the borrow they capture expires.
type Job = Box<dyn FnOnce() + Send>;

/// Counts outstanding offloaded tasks of one `run_tasks` call and lets the
/// submitting thread block until all of them completed.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn task_done(&self) {
        let mut left = self.remaining.lock().expect("pool latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("pool latch poisoned");
        while *left > 0 {
            left = self.all_done.wait(left).expect("pool latch poisoned");
        }
    }
}

/// Waits on the latch even if the calling thread unwinds: offloaded tasks
/// borrow the caller's stack, so `run_tasks` must never return (normally or
/// by panic) while a worker still holds such a borrow.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The persistent worker set. Workers are spawned on demand (never
/// destroyed) and sleep on their channel when idle.
struct Pool {
    workers: Mutex<Vec<Sender<Job>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool { workers: Mutex::new(Vec::new()) })
}

thread_local! {
    /// Set inside pool workers so nested `parallel_*` calls run inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The pool size configured at first use: `BERTSCOPE_THREADS` if set to a
/// positive integer, otherwise the host's available parallelism.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        match std::env::var("BERTSCOPE_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    })
}

/// The thread count `parallel_*` calls on this thread will use right now:
/// the innermost [`with_threads`] override, else [`configured_threads`].
pub fn current_threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(configured_threads)
}

/// Run `f` with the pool pinned to exactly `threads` participating threads
/// (the caller plus `threads - 1` workers) for every `parallel_*` call made
/// on this thread inside `f`. Used by the determinism tests and the
/// scaling benchmarks; results are bit-identical for any `threads`.
///
/// # Panics
///
/// Panics when `threads` is zero.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count must be at least 1");
    struct Reset(Option<usize>);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _reset = Reset(OVERRIDE.with(|o| o.replace(Some(threads))));
    f()
}

/// Whether the current thread is a pool worker (nested calls run inline).
fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Run `f` with every nested `parallel_*`/[`run_tasks`] call forced inline
/// on the current thread, exactly as if it were a pool worker: the 1-thread
/// reference chunking every kernel is bit-identical against.
///
/// The substrate itself does not call it (the operator-graph scheduler runs
/// task bodies with the full pool); the repository benchmark's GEMM replays
/// (`perfbench`) use it to time kernels on one thread.
pub fn run_isolated<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _reset = Reset(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// Ensure at least `n` workers exist, spawning any missing ones.
fn ensure_workers(n: usize) {
    let mut workers = pool().workers.lock().expect("pool worker list poisoned");
    while workers.len() < n {
        let (tx, rx) = channel::<Job>();
        let index = workers.len();
        std::thread::Builder::new()
            .name(format!("bertscope-pool-{index}"))
            .spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("failed to spawn pool worker");
        workers.push(tx);
    }
}

/// Execute a batch of independent tasks across the pool and the calling
/// thread, returning only when every task has completed.
///
/// Tasks are distributed round-robin over the participating threads; the
/// calling thread executes its own share (in submission order) instead of
/// idling. With one participating thread — or when called from inside a
/// pool worker — everything runs inline with zero synchronization, which is
/// also the `BERTSCOPE_THREADS=1` reference behaviour the determinism suite
/// compares against.
///
/// # Panics
///
/// Panics if any task panicked (after all tasks finished, so no borrow
/// outlives the call).
pub fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let participants = current_threads().min(tasks.len());
    if participants <= 1 || in_worker() {
        for task in tasks {
            task();
        }
        return;
    }
    ensure_workers(participants - 1);
    let offloaded = tasks.len() - tasks.len().div_ceil(participants);
    let latch = Arc::new(Latch::new(offloaded));
    let mut own: Vec<Box<dyn FnOnce() + Send + '_>> =
        Vec::with_capacity(tasks.len() / participants + 1);
    let mut jobs: Vec<(usize, Job)> = Vec::with_capacity(offloaded);
    for (i, task) in tasks.into_iter().enumerate() {
        if i % participants == 0 {
            own.push(task);
            continue;
        }
        let latch = Arc::clone(&latch);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                latch.panicked.store(true, Ordering::Release);
            }
            latch.task_done();
        });
        // SAFETY: `job` borrows data that lives at least as long as this
        // `run_tasks` frame. The transmute erases that lifetime so the job
        // can cross the channel to a persistent worker. Soundness is
        // guaranteed by the completion latch: the `WaitGuard` below blocks
        // this frame from returning — normally or by unwind — until every
        // submitted job has finished running, so no worker ever touches the
        // borrow after it expires. Workers catch panics, so a panicking
        // task still reaches `task_done`, and nothing executes before it is
        // sent (jobs sit inert in `jobs` until the send loop).
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
        };
        // Worker index depends only on the task index, but which worker
        // runs a chunk never affects results (chunks are disjoint).
        jobs.push(((i % participants) - 1, job));
    }
    // From the first send onward we must not return before `latch` reports
    // completion: the guard waits even if an own-share task panics.
    let guard = WaitGuard(&latch);
    {
        // The worker-list lock is held only while sending — never while
        // executing tasks or waiting — so tasks that recursively call back
        // into the pool (nested `parallel_*` on the caller thread) cannot
        // self-deadlock on it.
        let workers = pool().workers.lock().expect("pool worker list poisoned");
        for (w, job) in jobs {
            if let Err(rejected) = workers[w].send(job) {
                // Worker died (should not happen); run the job inline so the
                // latch still reaches zero.
                (rejected.0)();
            }
        }
    }
    for task in own {
        task();
    }
    drop(guard);
    assert!(!latch.panicked.load(Ordering::Acquire), "a bertscope-pool task panicked");
}

/// Deterministically chunked parallel loop over `0..len`.
///
/// `body` is invoked once per chunk with that chunk's index range; chunks
/// are `[i*grain, min((i+1)*grain, len))`, identical at every thread count.
/// `body` must only write through interior-mutable or otherwise disjoint
/// storage (for plain `&mut [T]` outputs use [`parallel_for_mut`]).
///
/// # Panics
///
/// Panics when `grain` is zero.
pub fn parallel_for(len: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    assert!(grain > 0, "grain must be non-zero");
    if len == 0 {
        return;
    }
    let chunks = len.div_ceil(grain);
    if chunks == 1 || current_threads() == 1 || in_worker() {
        body(0..len);
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..chunks)
        .map(|c| {
            let body = &body;
            let task: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || body(c * grain..((c + 1) * grain).min(len)));
            task
        })
        .collect();
    run_tasks(tasks);
}

/// Deterministically chunked parallel loop over a mutable slice.
///
/// The slice is split into `grain`-sized chunks (the last may be shorter);
/// `body` receives each chunk's element offset and the chunk itself.
///
/// # Panics
///
/// Panics when `grain` is zero.
pub fn parallel_for_mut<T: Send>(
    data: &mut [T],
    grain: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(grain > 0, "grain must be non-zero");
    if data.is_empty() {
        return;
    }
    if data.len() <= grain || current_threads() == 1 || in_worker() {
        body(0, data);
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(grain)
        .enumerate()
        .map(|(c, chunk)| {
            let body = &body;
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || body(c * grain, chunk));
            task
        })
        .collect();
    run_tasks(tasks);
}

/// Deterministic parallel map-reduce scaffold: apply `map` to every chunk
/// of `0..len` and return the per-chunk results **in chunk order**, so the
/// caller can fold them on one thread with a thread-count-independent
/// association order.
///
/// # Panics
///
/// Panics when `grain` is zero.
pub fn parallel_map<T: Send>(
    len: usize,
    grain: usize,
    map: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    assert!(grain > 0, "grain must be non-zero");
    if len == 0 {
        return Vec::new();
    }
    let chunks = len.div_ceil(grain);
    let mut results: Vec<Option<T>> = Vec::with_capacity(chunks);
    results.resize_with(chunks, || None);
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .chunks_mut(1)
            .enumerate()
            .map(|(c, slot)| {
                let map = &map;
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    slot[0] = Some(map(c * grain..((c + 1) * grain).min(len)));
                });
                task
            })
            .collect();
        run_tasks(tasks);
    }
    results.into_iter().map(|r| r.expect("pool chunk did not produce a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 8] {
            with_threads(threads, || {
                let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(1000, 7, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads={threads}");
            });
        }
    }

    #[test]
    fn parallel_for_mut_chunks_are_disjoint_and_offsets_correct() {
        for threads in [1, 2, 8] {
            with_threads(threads, || {
                let mut data = vec![0usize; 100];
                parallel_for_mut(&mut data, 9, |off, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = off + i;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == i), "threads={threads}");
            });
        }
    }

    #[test]
    fn parallel_map_returns_chunks_in_order() {
        for threads in [1, 2, 8] {
            with_threads(threads, || {
                let sums = parallel_map(10, 3, |r| r.sum::<usize>());
                assert_eq!(sums, vec![3, 12, 21, 9], "per-chunk sums in order, threads={threads}");
            });
        }
    }

    #[test]
    fn reduction_is_bit_identical_across_thread_counts() {
        // An intentionally ill-conditioned f32 sum: any reassociation across
        // chunk boundaries would change the result.
        let data: Vec<f32> =
            (0..40_000).map(|i| ((i * 2_654_435_761_usize) as f32).sin() * 1e4).collect();
        let reduce = || {
            parallel_map(data.len(), 1 << 10, |r| data[r].iter().sum::<f32>())
                .into_iter()
                .fold(0.0f32, |acc, p| acc + p)
        };
        let reference = with_threads(1, reduce);
        for threads in [2, 3, 8] {
            let got = with_threads(threads, reduce);
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        with_threads(4, || {
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(8, 1, |outer| {
                for o in outer {
                    // Nested call from (possibly) a worker thread.
                    parallel_for(8, 2, |inner| {
                        for i in inner {
                            hits[o * 8 + i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for(16, 1, |r| {
                    assert!(r.start != 7, "boom");
                });
            });
        });
        assert!(result.is_err(), "panic in a pool task must reach the caller");
    }

    #[test]
    fn with_threads_restores_previous_override() {
        assert_eq!(current_threads(), configured_threads());
        with_threads(5, || {
            assert_eq!(current_threads(), 5);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 5);
        });
        assert_eq!(current_threads(), configured_threads());
    }

    #[test]
    fn zero_len_and_empty_inputs_are_no_ops() {
        parallel_for(0, 4, |_| panic!("must not run"));
        parallel_for_mut::<u8>(&mut [], 4, |_, _| panic!("must not run"));
        assert!(parallel_map::<usize>(0, 4, |_| panic!("must not run")).is_empty());
    }
}
