//! Deterministic batch-parallel execution engine.
//!
//! A persistent worker pool executes an indexed task set over a **fixed
//! decomposition**: the mapping from task index to work is chosen by the
//! caller and never depends on the number of threads, and every
//! reduction over task results happens in the calling thread in task
//! order. Together those two rules make every kernel built on this
//! module **bit-identical run-to-run and across thread counts** — the
//! scheduler only decides *when* a task runs, never *what* it computes
//! or in which order partial sums are combined.
//!
//! The pool is sized from [`std::thread::available_parallelism`] and can
//! be overridden with the `SKYNET_THREADS` environment variable (read
//! once, at first use). `SKYNET_THREADS=1` disables the pool entirely:
//! every task runs inline in the caller, which is also the code path
//! used for nested parallelism (a kernel invoked from inside another
//! parallel region runs serially rather than deadlocking the pool).
//!
//! Work distribution is intentionally *work-stealing-free*: tasks are
//! handed out through a single atomic cursor, so the engine has no
//! per-thread deques and no randomized victim selection — nothing whose
//! scheduling could be observed through floating-point results.
//!
//! Because workers are persistent, each one also owns a long-lived
//! [`scratch`](crate::scratch) arena through that module's
//! `thread_local!`: kernel temporaries checked out inside a task are
//! returned to the worker's own arena and reused by the next task that
//! lands on the same thread, with no cross-thread contention.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::telemetry;

/// A published batch of tasks: an erased `Fn(usize)` plus progress
/// counters. The closure pointer is lifetime-erased; soundness comes
/// from [`run_indexed`] blocking until `done == total` before returning,
/// so the borrow always outlives every use.
struct Job {
    /// Erased task body. Only dereferenced between job publication and
    /// completion, both of which happen inside the `run_indexed` call
    /// that owns the underlying closure.
    func: *const (dyn Fn(usize) + Sync),
    /// Next task index to hand out.
    next: AtomicUsize,
    /// Total number of tasks.
    total: usize,
    /// Number of tasks fully executed.
    done: AtomicUsize,
    /// Completion latch: `(all done, first panic message)`.
    finish: Mutex<(bool, Option<String>)>,
    /// Signalled when the last task completes.
    finished: Condvar,
}

// SAFETY: `func` is only shared while the owning `run_indexed` frame is
// alive (see `Job` docs); the pointee is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// The persistent pool: a FIFO of open jobs and the worker handles.
struct Pool {
    queue: Mutex<Vec<Arc<Job>>>,
    wake: Condvar,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set while this thread is executing a pool task; nested parallel
    /// calls run inline instead of re-entering the pool.
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of threads the engine uses: `SKYNET_THREADS` when set,
/// otherwise [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    pool().threads
}

/// Resolves `SKYNET_THREADS` (unset or empty means the machine's
/// parallelism). Panics (hard error, by design) on any other value that
/// [`parse_threads`] rejects: like `SKYNET_SIMD` and `SKYNET_FUSION`, a
/// typo must never silently change how the code runs.
fn configured_threads() -> usize {
    match std::env::var("SKYNET_THREADS") {
        Ok(v) if !v.trim().is_empty() => parse_threads(&v).unwrap_or_else(|e| panic!("{e}")),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Parses a `SKYNET_THREADS` value: a positive integer, surrounding
/// whitespace allowed. The error names the accepted form.
fn parse_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "SKYNET_THREADS={v:?} is not a thread count (expected a positive integer, e.g. 1 or 4)"
        )),
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        wake: Condvar::new(),
        threads: configured_threads(),
    })
}

/// Runs `f` with all parallel regions forced onto the calling thread, as
/// if the pool were configured with one thread.
///
/// Because the engine's decomposition and reduction order never depend on
/// the thread count, `serial(f)` must produce bit-identical results to
/// running `f` on the pool — the determinism tests assert exactly that.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    IN_TASK.with(|t| {
        let prev = t.get();
        t.set(true);
        let out = f();
        t.set(prev);
        out
    })
}

/// Lazily spawns the worker threads the first time a job is published.
/// Workers are detached: they park on the queue condvar for the life of
/// the process.
fn ensure_workers(p: &'static Pool) {
    static SPAWNED: OnceLock<()> = OnceLock::new();
    SPAWNED.get_or_init(|| {
        // The caller participates in every job, so `threads - 1` workers
        // saturate the configured width.
        for i in 1..p.threads {
            std::thread::Builder::new()
                .name(format!("skynet-par-{i}"))
                .spawn(move || worker_loop(p, i))
                .expect("spawn pool worker");
        }
    });
}

fn worker_loop(p: &'static Pool, ordinal: usize) {
    // Scheduling metrics (`pool.*`) observe the nondeterministic part of
    // the engine: which thread ran how many tasks, and how long each
    // worker sat idle. They are intentionally excluded from the
    // determinism guarantee — see the telemetry module docs.
    let tasks_c = telemetry::counter(&format!("pool.thread.{ordinal}.tasks"));
    let idle_c = telemetry::counter(&format!("pool.thread.{ordinal}.idle_ns"));
    let mut guard = p.queue.lock().expect("pool queue");
    loop {
        if let Some(job) = guard.first().cloned() {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.total {
                // Exhausted: retire it if it is still at the front.
                if guard.first().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                    guard.remove(0);
                }
                continue;
            }
            drop(guard);
            run_task(&job, i);
            if telemetry::metrics_enabled() {
                tasks_c.inc();
            }
            guard = p.queue.lock().expect("pool queue");
        } else if telemetry::metrics_enabled() {
            let parked = std::time::Instant::now();
            guard = p.wake.wait(guard).expect("pool queue");
            idle_c.add(parked.elapsed().as_nanos() as u64);
        } else {
            guard = p.wake.wait(guard).expect("pool queue");
        }
    }
}

fn run_task(job: &Job, i: usize) {
    IN_TASK.with(|t| t.set(true));
    // SAFETY: the publishing `run_indexed` frame is blocked until `done`
    // reaches `total`, which happens strictly after this call returns.
    let func = unsafe { &*job.func };
    let outcome = catch_unwind(AssertUnwindSafe(|| func(i)));
    IN_TASK.with(|t| t.set(false));
    let all_done = job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.total;
    if let Err(payload) = outcome {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "task panicked".into());
        let mut finish = job.finish.lock().expect("finish latch");
        finish.1.get_or_insert(msg);
    }
    if all_done {
        let mut finish = job.finish.lock().expect("finish latch");
        finish.0 = true;
        job.finished.notify_all();
    }
}

/// Executes `f(0)`, `f(1)`, …, `f(tasks - 1)` across the pool and
/// returns when all have finished.
///
/// Each task must write only to state disjoint from every other task's
/// (the usual pattern is "task *i* owns chunk *i* of the output").
/// Because the decomposition is the caller's and no reduction happens
/// here, results are independent of thread count and scheduling.
///
/// Runs inline (plain serial loop) when the pool is single-threaded,
/// when called from inside another parallel task, or when `tasks < 2`.
///
/// # Panics
///
/// Re-raises (the first) panic from a task after all tasks finished.
pub fn run_indexed<F: Fn(usize) + Sync>(tasks: usize, f: F) {
    if tasks == 0 {
        return;
    }
    let p = pool();
    if p.threads <= 1 || tasks == 1 || IN_TASK.with(|t| t.get()) {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    ensure_workers(p);
    if telemetry::metrics_enabled() {
        telemetry::counter("pool.jobs").inc();
        telemetry::counter("pool.tasks").add(tasks as u64);
    }
    // SAFETY: pure lifetime erasure of a wide reference; the `Job` docs
    // explain why the borrow outlives every dereference.
    let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
    };
    let job = Arc::new(Job {
        func: erased as *const _,
        next: AtomicUsize::new(0),
        total: tasks,
        done: AtomicUsize::new(0),
        finish: Mutex::new((false, None)),
        finished: Condvar::new(),
    });
    p.queue.lock().expect("pool queue").push(Arc::clone(&job));
    p.wake.notify_all();
    // The caller works the same queue until its job is exhausted…
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            break;
        }
        run_task(&job, i);
    }
    // …then waits for straggler tasks still running on workers.
    let mut finish = job.finish.lock().expect("finish latch");
    while !finish.0 {
        finish = job.finished.wait(finish).expect("finish latch");
    }
    if let Some(msg) = finish.1.take() {
        drop(finish);
        panic!("parallel task panicked: {msg}");
    }
}

/// Computes `n` values in parallel and returns them **in index order**,
/// so any subsequent reduction by the caller is deterministic.
pub fn par_iter_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let slots = SendPtr(out.as_mut_ptr());
        run_indexed(n, |i| {
            // SAFETY: task i is the only writer of slot i, and the slots
            // vector outlives `run_indexed`.
            unsafe { *slots.get().add(i) = Some(f(i)) };
        });
    }
    out.into_iter()
        .map(|v| v.expect("every task filled its slot"))
        .collect()
}

/// Runs `f(chunk_index, chunk)` over `data.chunks_mut(chunk)` in
/// parallel. The chunk decomposition depends only on `chunk`, never on
/// the thread count.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], chunk: usize, f: F) {
    assert!(chunk > 0, "chunk length must be positive");
    let len = data.len();
    let tasks = len.div_ceil(chunk);
    let base = SendPtr(data.as_mut_ptr());
    run_indexed(tasks, |i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: chunk ranges [start, end) are pairwise disjoint across
        // tasks and in-bounds; `data` outlives `run_indexed`.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, slice);
    });
}

/// Runs `f(chunk_index, a_chunk, b_chunk)` over the paired chunk
/// decompositions of two buffers — the shape used by backward kernels
/// that produce a per-item gradient slice *and* a per-item partial
/// (weight, bias) accumulator in one pass.
///
/// # Panics
///
/// Panics if either chunk length is zero or the buffers imply different
/// task counts.
pub fn par_chunks_mut2<A: Send, B: Send, F>(
    a: &mut [A],
    chunk_a: usize,
    b: &mut [B],
    chunk_b: usize,
    f: F,
) where
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be positive");
    let tasks = a.len().div_ceil(chunk_a);
    assert_eq!(
        tasks,
        b.len().div_ceil(chunk_b),
        "paired buffers must decompose into the same number of chunks"
    );
    let (len_a, len_b) = (a.len(), b.len());
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    run_indexed(tasks, |i| {
        let (sa, ea) = (i * chunk_a, ((i + 1) * chunk_a).min(len_a));
        let (sb, eb) = (i * chunk_b, ((i + 1) * chunk_b).min(len_b));
        // SAFETY: per-buffer chunk ranges are pairwise disjoint across
        // tasks and in-bounds; both buffers outlive `run_indexed`.
        let (ca, cb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(sa), ea - sa),
                std::slice::from_raw_parts_mut(pb.get().add(sb), eb - sb),
            )
        };
        f(i, ca, cb);
    });
}

/// Raw pointer wrapper that may cross thread boundaries. Every use site
/// guarantees disjoint access ranges per task. Accessed through
/// [`SendPtr::get`] so closures capture the whole (Sync) wrapper rather
/// than the raw-pointer field (2021-edition disjoint capture).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_count_parse_accepts_only_positive_integers() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2\n"), Ok(2));
        for bad in ["abc", "0", "-2", "1.5", "4 threads"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(err.contains("expected a positive integer"), "{bad}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
    }

    #[test]
    fn run_indexed_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn par_iter_preserves_index_order() {
        let v = par_iter_indexed(100, |i| i * i);
        assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0u32; 103]; // non-divisible tail chunk
        par_chunks_mut(&mut data, 10, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci as u32 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i / 10 + 1);
        }
    }

    #[test]
    fn par_chunks_mut2_pairs_chunks() {
        let mut a = vec![0usize; 12];
        let mut b = vec![0usize; 4];
        par_chunks_mut2(&mut a, 3, &mut b, 1, |i, ca, cb| {
            ca.fill(i);
            cb[0] = i * 10;
        });
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(b, vec![0, 10, 20, 30]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let total = AtomicU64::new(0);
        run_indexed(4, |_| {
            // Nested region: must not deadlock and must still cover all
            // indices.
            run_indexed(8, |j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (1..=8).sum::<u64>());
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(8, |i| {
                if i == 5 {
                    panic!("boom {i}");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn float_sums_are_bit_identical_across_repeats() {
        // The canonical determinism pattern: parallel map, ordered fold.
        let run = || -> u32 {
            let parts = par_iter_indexed(64, |i| {
                let mut acc = 0.0f32;
                for j in 0..1000 {
                    acc += ((i * 1000 + j) as f32).sin() * 1e-3;
                }
                acc
            });
            parts.iter().fold(0.0f32, |a, &b| a + b).to_bits()
        };
        let first = run();
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }
}
