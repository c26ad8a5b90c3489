//! The deterministic fork-join pool.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, Thread};

/// Work counters from one fork-join call, for observability manifests.
///
/// Every field is a pure function of the task decomposition (and therefore
/// deterministic): the pool's schedule is static, so there is nothing
/// timing-dependent to count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Tasks (chunks) the call was decomposed into.
    pub tasks: u64,
    /// Tasks executed in their statically assigned lane. Tasks never move
    /// between lanes, so this always equals [`tasks`](Self::tasks) — the
    /// counter exists as a pinned invariant: a future dynamic scheduler
    /// would make the two diverge in every recorded manifest.
    pub steal_free_chunks: u64,
    /// Lanes the tasks were dealt into (`min(threads, tasks)`).
    pub workers: u64,
}

impl ParStats {
    fn for_schedule(tasks: usize, workers: usize) -> Self {
        Self {
            tasks: tasks as u64,
            steal_free_chunks: tasks as u64,
            workers: workers as u64,
        }
    }

    /// Accumulate another call's counters into this one (workers is kept
    /// at the maximum seen).
    pub fn merge(&mut self, other: ParStats) {
        self.tasks += other.tasks;
        self.steal_free_chunks += other.steal_free_chunks;
        self.workers = self.workers.max(other.workers);
    }
}

/// A deterministic fork-join pool.
///
/// A call deals its tasks into `min(threads, tasks)` *lanes*: task `i` goes
/// to lane `i % lanes`, and a lane runs its tasks in task order. Lane 0
/// runs on the caller; the others are offered to helper threads that are
/// shared by every pool in the process, spawned on first demand and
/// parked between calls, so a fork costs a wake-up, not a thread spawn.
/// Each lane is claimed whole by the first thread to reach it: once the
/// caller has finished lane 0 it runs any lane no helper has started, so
/// a helper the host has descheduled delays nothing it has not begun.
/// The call returns after every lane has finished, which is what lets
/// tasks borrow the caller's data without `'static` bounds. A panic in a
/// task reaches the caller with its own payload, after the other lanes
/// have finished.
///
/// A `ParPool` itself is nothing but a thread-count policy: construction
/// is free, and it is shared by value or reference as convenient.
///
/// See the crate docs for the determinism contract all entry points obey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParPool {
    threads: usize,
}

impl ParPool {
    /// A pool that runs up to `threads` lanes per call, the caller's
    /// thread among them (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The single-threaded pool: every call runs inline on the caller's
    /// thread, through the *same* task decomposition and fold order as the
    /// threaded paths.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The configured thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `task_idx ∈ 0..tasks` through `map` on the pool's lanes, then
    /// fold the results **in task order** into `init`.
    ///
    /// The fold runs on the caller's thread after every lane has finished,
    /// so it needs neither `Send` nor `Sync`; only the task results cross
    /// threads.
    pub fn map_reduce<T, A, M, F>(&self, tasks: usize, map: M, init: A, mut fold: F) -> (A, ParStats)
    where
        T: Send,
        M: Fn(usize) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        let workers = self.threads.min(tasks).max(1);
        let stats = ParStats::for_schedule(tasks, workers);
        let mut acc = init;
        if workers == 1 {
            for i in 0..tasks {
                acc = fold(acc, map(i));
            }
            return (acc, stats);
        }
        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        fork(workers, &|lane| {
            for i in (lane..tasks).step_by(workers) {
                let value = map(i);
                *slots[i].lock().expect("a task's slot is locked only to store its value") =
                    Some(value);
            }
        });
        for slot in slots {
            let value = slot.into_inner().expect("a task's slot is locked only to store its value");
            acc = fold(acc, value.expect("every task produces a value"));
        }
        (acc, stats)
    }

    /// [`map_reduce`](Self::map_reduce) over the index range `0..len`
    /// split into chunks of `chunk_size` (the last chunk may be short).
    ///
    /// The chunk decomposition depends only on `len` and `chunk_size` —
    /// never on the thread count — which is what makes non-associative
    /// (floating-point) reductions reproducible across pools.
    pub fn map_reduce_chunks<T, A, M, F>(
        &self,
        len: usize,
        chunk_size: usize,
        map: M,
        init: A,
        fold: F,
    ) -> (A, ParStats)
    where
        T: Send,
        M: Fn(usize, Range<usize>) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        let chunk_size = chunk_size.max(1);
        let tasks = len.div_ceil(chunk_size);
        self.map_reduce(
            tasks,
            |task| {
                let start = task * chunk_size;
                let end = (start + chunk_size).min(len);
                map(task, start..end)
            },
            init,
            fold,
        )
    }

    /// Run `f(task_idx, offset, chunk)` over disjoint `chunk_size`-sized
    /// shards of `out` on the pool's lanes.
    ///
    /// Each task owns its shard exclusively (via [`slice::chunks_mut`]),
    /// so there is no reduction step and no ordering concern: the write
    /// pattern is identical at any thread count by construction. `offset`
    /// is the index of the shard's first element within `out`.
    pub fn for_each_chunk_mut<T, F>(&self, out: &mut [T], chunk_size: usize, f: F) -> ParStats
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let shards: Vec<Mutex<&mut [T]>> = out.chunks_mut(chunk_size).map(Mutex::new).collect();
        let ((), stats) = self.map_reduce(
            shards.len(),
            |i| {
                let mut shard = shards[i].lock().expect("a shard is locked by its task alone");
                f(i, i * chunk_size, &mut shard)
            },
            (),
            |(), ()| (),
        );
        stats
    }
}

/// Runs `lane(0)` … `lane(lanes - 1)`, each exactly once, and returns when
/// all have finished. Lane 0 runs on the caller; the others are handed to
/// parked helpers, and the caller runs any of them no helper has claimed
/// by the time lane 0 is done. If a lane panics, the lowest such lane's
/// payload is resumed on the caller after every lane has finished.
fn fork(lanes: usize, lane: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime is erased. `lane` is called only by a
    // thread that has claimed a lane (`Job::work`), and this function
    // neither returns nor unwinds before every claimed lane has finished:
    // lanes run under `catch_unwind`, the hand-offs below take locks that
    // no panic ever holds, and the caller then waits for `pending` to reach
    // zero. A helper that reaches the job later finds no lane to claim and
    // never calls `lane`; its `Arc` keeps the rest of the job alive.
    let lane: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(lane) };
    let job = Arc::new(Job {
        lane,
        lanes,
        // Lane 0 is the caller's.
        next: AtomicUsize::new(1),
        pending: AtomicUsize::new(lanes),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    let handed: Vec<Arc<Mailbox>> = (1..lanes)
        .filter_map(|_| {
            let idle = IDLE.lock().expect("the idle list is never held across a panic").pop();
            match idle {
                Some(mailbox) => {
                    mailbox.hand(Arc::clone(&job));
                    Some(mailbox)
                }
                None => {
                    spawn_helper(Arc::clone(&job));
                    None
                }
            }
        })
        .collect();
    job.run(0);
    job.count_off(1 + job.work());
    while job.pending.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    // A helper that has not woken yet gets no lane from this job: take the
    // job back and return the helper to the idle list, so the next fork
    // wakes it instead of spawning another.
    for mailbox in handed {
        if mailbox.take_back(&job) {
            IDLE.lock().expect("the idle list is never held across a panic").push(mailbox);
        }
    }
    let panic = job.panic.lock().expect("a lane's payload is stored under no other lock").take();
    if let Some((_, payload)) = panic {
        panic::resume_unwind(payload);
    }
}

/// One fork's shared state. Helpers hold it by `Arc`, so one that arrives
/// after the caller has returned still reads live counters.
struct Job {
    /// The lane body; see `fork` for why its erased lifetime is sound.
    lane: &'static (dyn Fn(usize) + Sync),
    lanes: usize,
    /// The lowest lane nobody has claimed yet.
    next: AtomicUsize,
    /// Lanes that have not been counted off as finished.
    pending: AtomicUsize,
    /// The lowest panicking lane and its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    caller: Thread,
}

impl Job {
    /// Claims and runs lanes until none is left unclaimed, and returns how
    /// many it ran. They are counted off by the caller of this method.
    fn work(&self) -> usize {
        let mut ran = 0;
        loop {
            // Relaxed: the claim only has to be unique. The lane's inputs
            // reached this thread through the hand-off, and its outputs
            // reach the caller through `pending`.
            let lane = self.next.fetch_add(1, Ordering::Relaxed);
            if lane >= self.lanes {
                return ran;
            }
            self.run(lane);
            ran += 1;
        }
    }

    fn run(&self, lane: usize) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.lane)(lane))) {
            let mut first =
                self.panic.lock().expect("a lane's payload is stored under no other lock");
            if first.as_ref().is_none_or(|&(seen, _)| lane < seen) {
                *first = Some((lane, payload));
            }
        }
    }

    /// Counts off `ran` finished lanes, and wakes the caller after the last.
    fn count_off(&self, ran: usize) {
        // Release: the lanes' writes happen before the caller's Acquire
        // load that sees zero, through the decrements' release sequence.
        if ran > 0 && self.pending.fetch_sub(ran, Ordering::Release) == ran {
            self.caller.unpark();
        }
    }
}

/// The mailboxes of parked helpers, the most recently parked last.
static IDLE: Mutex<Vec<Arc<Mailbox>>> = Mutex::new(Vec::new());

/// Where a parked helper waits for its next job.
#[derive(Default)]
struct Mailbox {
    job: Mutex<Option<Arc<Job>>>,
    handed: Condvar,
}

impl Mailbox {
    fn hand(&self, job: Arc<Job>) {
        *self.job.lock().expect("a mailbox is never held across a panic") = Some(job);
        self.handed.notify_one();
    }

    /// Takes `job` back if the helper has not taken it yet.
    fn take_back(&self, job: &Arc<Job>) -> bool {
        let mut slot = self.job.lock().expect("a mailbox is never held across a panic");
        slot.take_if(|handed| Arc::ptr_eq(handed, job)).is_some()
    }

    fn wait(&self) -> Arc<Job> {
        let mut slot = self.job.lock().expect("a mailbox is never held across a panic");
        loop {
            if let Some(job) = slot.take() {
                return job;
            }
            slot = self.handed.wait(slot).expect("a mailbox is never held across a panic");
        }
    }
}

/// Starts a helper whose first job is `job`.
fn spawn_helper(job: Arc<Job>) {
    // The handle is dropped: a helper lives as long as the process, and
    // its lanes' panics reach their callers through the job. A helper that
    // cannot be started leaves its lane unclaimed, and the caller runs it
    // after lane 0.
    let _ = thread::Builder::new().name("vnet-par".into()).spawn(move || {
        let mailbox = Arc::new(Mailbox::default());
        let mut job = job;
        loop {
            let ran = job.work();
            // Back on the idle list before its lanes count off, so the
            // caller's next fork finds this helper idle.
            IDLE.lock()
                .expect("the idle list is never held across a panic")
                .push(Arc::clone(&mailbox));
            job.count_off(ran);
            drop(job);
            job = mailbox.wait();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamRng;
    use rand::Rng;
    use std::sync::Barrier;

    /// The thread counts every determinism test sweeps (mirrors the
    /// integration battery).
    const SWEEP: [usize; 4] = [1, 2, 4, 7];

    /// Non-associative fold: per-task random f64s summed in task order.
    /// Returns the sum's bits.
    fn float_sum(pool: &ParPool, seed: u64) -> u64 {
        pool.map_reduce(
            101,
            |i| StreamRng::split(seed, i as u64).random::<f64>() - 0.5,
            0.0f64,
            |acc, x| acc + x,
        )
        .0
        .to_bits()
    }

    /// A panic payload no library code raises.
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(ParPool::new(0).threads(), 1);
        assert_eq!(ParPool::serial().threads(), 1);
        assert_eq!(ParPool::new(8).threads(), 8);
    }

    #[test]
    fn map_reduce_visits_every_task_once() {
        for &t in &SWEEP {
            let (seen, stats) = ParPool::new(t).map_reduce(
                37,
                |i| vec![i],
                Vec::new(),
                |mut acc: Vec<usize>, v| {
                    acc.extend(v);
                    acc
                },
            );
            assert_eq!(seen, (0..37).collect::<Vec<_>>(), "threads={t}");
            assert_eq!(stats.tasks, 37);
            assert_eq!(stats.steal_free_chunks, 37);
            assert_eq!(stats.workers as usize, t.min(37));
        }
    }

    #[test]
    fn float_reduction_bit_identical_across_thread_counts() {
        let reference = float_sum(&ParPool::serial(), 99);
        for &t in &SWEEP[1..] {
            assert_eq!(reference, float_sum(&ParPool::new(t), 99), "threads={t}");
        }
    }

    #[test]
    fn a_task_panic_reaches_the_caller_with_its_own_payload() {
        for threads in [2, 4] {
            let pool = ParPool::new(threads);
            // Task `threads + 1` is dealt to lane 1, behind a task that
            // does not panic.
            let bad = threads + 1;
            let mapped = panic::catch_unwind(|| {
                pool.map_reduce(
                    4 * threads,
                    |i| {
                        if i == bad {
                            panic::panic_any(Boom(i));
                        }
                        i
                    },
                    0,
                    |a, b| a + b,
                )
            });
            let payload = mapped.expect_err("a task panicked");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(bad)),
                "map_reduce, threads={threads}"
            );
            assert_eq!(float_sum(&pool, 7), float_sum(&ParPool::serial(), 7), "threads={threads}");

            let mut out = vec![0usize; 4 * threads * 8];
            let written = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_chunk_mut(&mut out, 8, |task, offset, chunk| {
                    if task == bad {
                        panic::panic_any(Boom(task));
                    }
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = offset + k;
                    }
                })
            }));
            let payload = written.expect_err("a task panicked");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(bad)),
                "for_each_chunk_mut, threads={threads}"
            );
            assert_eq!(float_sum(&pool, 8), float_sum(&ParPool::serial(), 8), "threads={threads}");
        }
    }

    #[test]
    fn nested_forks_match_serial_bits() {
        // Each of 4 outer tasks runs a 3-task float reduction on the same
        // pool, from whichever thread runs its lane.
        let run = |pool: ParPool| {
            pool.map_reduce(
                4,
                |outer| {
                    pool.map_reduce_chunks(
                        150,
                        50,
                        |_, rows| {
                            rows.map(|r| StreamRng::split(outer as u64, r as u64).random::<f64>())
                                .fold(0.0f64, |acc, x| acc + x - 0.5)
                        },
                        0.0f64,
                        |acc, x| acc + x,
                    )
                    .0
                },
                0.0f64,
                |acc, x| acc * 1.5 + x,
            )
            .0
            .to_bits()
        };
        let reference = run(ParPool::serial());
        for &t in &SWEEP {
            assert_eq!(run(ParPool::new(t)), reference, "threads={t}");
        }
    }

    #[test]
    fn concurrent_callers_get_serial_bits() {
        let start = Arc::new(Barrier::new(4));
        let callers: Vec<_> = (0..4u64)
            .map(|caller| {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    let pool = ParPool::new(3);
                    for round in 0..100 {
                        let seed = caller * 1_000 + round;
                        assert_eq!(
                            float_sum(&pool, seed),
                            float_sum(&ParPool::serial(), seed),
                            "caller {caller}, round {round}"
                        );
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a caller's reductions match serial");
        }
    }

    #[test]
    fn chunk_decomposition_independent_of_threads() {
        // Chunk ranges must depend on (len, chunk_size) only.
        for &t in &SWEEP {
            let (ranges, stats) = ParPool::new(t).map_reduce_chunks(
                10,
                4,
                |task, range| (task, range),
                Vec::new(),
                |mut acc: Vec<_>, r| {
                    acc.push(r);
                    acc
                },
            );
            assert_eq!(ranges, vec![(0, 0..4), (1, 4..8), (2, 8..10)], "threads={t}");
            assert_eq!(stats.tasks, 3);
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_disjoint_shards() {
        for &t in &SWEEP {
            let mut out = vec![0usize; 23];
            let stats = ParPool::new(t).for_each_chunk_mut(&mut out, 5, |task, offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = 1000 * task + offset + k;
                }
            });
            let want: Vec<usize> = (0..23).map(|i| 1000 * (i / 5) + i).collect();
            assert_eq!(out, want, "threads={t}");
            assert_eq!(stats.tasks, 5);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (acc, stats) =
            ParPool::new(4).map_reduce(0, |_| 1u64, 7u64, |a, b| a + b);
        assert_eq!(acc, 7);
        assert_eq!(stats.tasks, 0);
        let stats = ParPool::new(4).for_each_chunk_mut(&mut [] as &mut [u8], 8, |_, _, _| {});
        assert_eq!(stats.tasks, 0);
        let (v, _) = ParPool::new(4).map_reduce_chunks(
            3,
            0, // clamped to 1
            |_, r| r.len(),
            0usize,
            |a, b| a + b,
        );
        assert_eq!(v, 3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut total = ParStats::default();
        total.merge(ParStats::for_schedule(5, 2));
        total.merge(ParStats::for_schedule(7, 4));
        assert_eq!(total.tasks, 12);
        assert_eq!(total.steal_free_chunks, 12);
        assert_eq!(total.workers, 4);
    }
}
