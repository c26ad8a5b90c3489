//! The request executor: a fixed pool of worker threads fed by a bounded
//! queue, with `Condvar` scheduling end to end.
//!
//! This replaces two busy-wait constructs from the first service cut: a
//! detached `std::thread::spawn` per `analyze` request (threads nobody
//! could join or cancel) and a 5 ms sleep loop in shutdown that polled the
//! in-flight counter. Here workers block on a condition variable until a
//! job or shutdown arrives, [`Executor::drain`] blocks on a second
//! condition variable that workers signal exactly when the executor goes
//! quiescent, and every worker thread is joined on shutdown — no thread
//! outlives the [`Executor`].
//!
//! Jobs produce a reply `String` delivered through a [`JobHandle`]; the
//! connection thread waits on the handle with a deadline and can flag
//! cancellation, which the job observes through its [`CancelToken`]
//! before each cache lookup (a timed-out computation stops early
//! instead of burning CPU invisibly).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vnet_obs::{Gauge, Histogram, Obs, Telemetry};

use crate::stats::{observe_since, stage_histogram};

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// Queue at capacity (or the executor has zero workers): the caller
    /// should answer `queue_full` and let the client back off.
    Saturated {
        /// Jobs queued or running at refusal time.
        in_flight: usize,
        /// The admission limit that was hit.
        limit: usize,
    },
    /// The executor is draining or stopped.
    ShuttingDown,
}

type Job = Box<dyn FnOnce(&CancelToken) -> String + Send + 'static>;

struct QueuedJob {
    run: Job,
    handle: Arc<JobShared>,
    /// Admission time; the worker that dequeues this job records the
    /// difference as the `queue` stage.
    submitted: Instant,
}

/// The executor's hot-path recording handles: queue-state gauges labelled
/// with the owning shard, plus the (shard-agnostic) `queue` and `execute`
/// stage histograms. Registered once per shard at construction: the
/// gauges are set on every submit and completion, so they are handles,
/// not by-name writes that format a key under a lock.
pub struct ExecutorTelemetry {
    queue_depth: Gauge,
    jobs_running: Gauge,
    stage_queue: Histogram,
    stage_execute: Histogram,
}

impl ExecutorTelemetry {
    /// Register this shard's executor handles on `telemetry`
    /// (idempotent: re-registering a shard reuses the same series).
    pub fn new(telemetry: &Telemetry, shard: &str) -> Self {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        Self {
            queue_depth: telemetry.gauge("serve.queue_depth", labels),
            jobs_running: telemetry.gauge("serve.jobs_running", labels),
            stage_queue: stage_histogram(telemetry, "queue"),
            stage_execute: stage_histogram(telemetry, "execute"),
        }
    }
}

#[derive(Debug)]
struct JobShared {
    reply: Mutex<Option<String>>,
    done: Condvar,
    cancelled: AtomicBool,
}

/// The caller's side of a submitted job: wait for the reply, or give up
/// and flag cancellation.
#[derive(Debug)]
pub struct JobHandle {
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// Block until the job replies or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<String> {
        let deadline = Instant::now() + timeout;
        let mut reply = self.shared.reply.lock().expect("job reply lock");
        while reply.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(reply, deadline - now)
                .expect("job reply lock");
            reply = guard;
        }
        reply.take()
    }

    /// Ask the job to stop at its next cancellation point. The job may
    /// still complete normally if it was past the last check.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
    }
}

/// The job's view of its own cancellation flag.
#[derive(Debug)]
pub struct CancelToken {
    shared: Arc<JobShared>,
}

impl CancelToken {
    /// `true` once the submitter gave up on this job.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::SeqCst)
    }
}

struct ExecState {
    queue: VecDeque<QueuedJob>,
    running: usize,
    shutdown: bool,
}

struct ExecInner {
    state: Mutex<ExecState>,
    /// Workers sleep here until a job (or shutdown) arrives.
    work_ready: Condvar,
    /// Drainers sleep here; workers signal when the executor goes
    /// quiescent (nothing queued, nothing running).
    quiescent: Condvar,
    /// Cold-path recording (worker panics); the per-submit gauge storm
    /// goes through `telemetry` instead.
    obs: Arc<Obs>,
    telemetry: ExecutorTelemetry,
}

impl ExecInner {
    fn set_depth_gauge(&self, state: &ExecState) {
        self.telemetry.queue_depth.set(state.queue.len() as f64);
        self.telemetry.jobs_running.set(state.running as f64);
    }
}

/// Fixed worker-pool executor with a bounded queue.
pub struct Executor {
    inner: Arc<ExecInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    queue_capacity: usize,
}

impl Executor {
    /// Spawn `workers` threads admitting at most `workers +
    /// queue_capacity` in-flight jobs, owned by the shard named `shard`
    /// (the label on every executor gauge and worker thread name). Zero
    /// workers means every submission is refused — useful for
    /// load-shedding configurations and tests.
    pub fn new(
        workers: usize,
        queue_capacity: usize,
        obs: Arc<Obs>,
        shard: &str,
        telemetry: ExecutorTelemetry,
    ) -> Self {
        let inner = Arc::new(ExecInner {
            state: Mutex::new(ExecState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            quiescent: Condvar::new(),
            obs,
            telemetry,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vnet-serve-worker-{shard}-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { inner, workers: Mutex::new(handles), worker_count: workers, queue_capacity }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs currently queued plus running.
    pub fn in_flight(&self) -> (usize, usize) {
        let state = self.inner.state.lock().expect("executor state lock");
        (state.queue.len(), state.running)
    }

    /// Admit a job, or refuse without blocking. On admission one worker is
    /// woken; the returned [`JobHandle`] delivers the job's reply.
    pub fn submit<F>(&self, job: F) -> Result<JobHandle, SubmitRefusal>
    where
        F: FnOnce(&CancelToken) -> String + Send + 'static,
    {
        let shared = Arc::new(JobShared {
            reply: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        {
            let mut state = self.inner.state.lock().expect("executor state lock");
            if state.shutdown {
                return Err(SubmitRefusal::ShuttingDown);
            }
            // Admission is on *total* in-flight work, not raw queue
            // length: a job pushed a microsecond ago still sits in the
            // queue until an idle worker's condvar wakeup lands, and on
            // a loaded single-core host that window is long enough that
            // a queue-length bound refuses work the executor has spare
            // capacity for. `workers + queue_capacity` is the limit the
            // refusal has always reported; now it is also the one
            // enforced.
            let in_flight = state.queue.len() + state.running;
            if self.worker_count == 0 || in_flight >= self.worker_count + self.queue_capacity {
                return Err(SubmitRefusal::Saturated {
                    in_flight,
                    limit: self.worker_count + self.queue_capacity,
                });
            }
            state.queue.push_back(QueuedJob {
                run: Box::new(job),
                handle: Arc::clone(&shared),
                submitted: Instant::now(),
            });
            self.inner.set_depth_gauge(&state);
        }
        self.inner.work_ready.notify_one();
        Ok(JobHandle { shared })
    }

    /// Block until nothing is queued or running. Purely event-driven: the
    /// caller sleeps on a condition variable that workers signal when the
    /// executor goes quiescent. Returns the number of condvar wakeups
    /// taken, which the server exports as `serve.drain_wakeups` — the
    /// observable proof there is no poll loop here (a 5 ms poll over a
    /// seconds-long drain would take hundreds of iterations; this takes a
    /// handful).
    pub fn drain(&self) -> u64 {
        let mut state = self.inner.state.lock().expect("executor state lock");
        let mut wakeups = 0;
        while state.running > 0 || !state.queue.is_empty() {
            state = self.inner.quiescent.wait(state).expect("executor state lock");
            wakeups += 1;
        }
        wakeups
    }

    /// Stop the workers and join them. Queued jobs that never started are
    /// completed with the reply produced by `orphan` (so no waiter hangs);
    /// call [`Executor::drain`] first for a graceful drain.
    pub fn shutdown_and_join(&self, orphan: impl Fn() -> String) {
        let leftovers: Vec<QueuedJob> = {
            let mut state = self.inner.state.lock().expect("executor state lock");
            state.shutdown = true;
            let leftovers = state.queue.drain(..).collect();
            self.inner.set_depth_gauge(&state);
            leftovers
        };
        self.inner.work_ready.notify_all();
        for job in leftovers {
            complete(&job.handle, orphan());
        }
        let handles: Vec<JoinHandle<()>> =
            self.workers.lock().expect("executor workers lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn complete(handle: &JobShared, reply: String) {
    *handle.reply.lock().expect("job reply lock") = Some(reply);
    handle.done.notify_all();
}

fn worker_loop(inner: &ExecInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("executor state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    inner.set_depth_gauge(&state);
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).expect("executor state lock");
            }
        };
        observe_since(&inner.telemetry.stage_queue, job.submitted);
        let started = Instant::now();
        let token = CancelToken { shared: Arc::clone(&job.handle) };
        let run = std::panic::AssertUnwindSafe(move || (job.run)(&token));
        let reply = match std::panic::catch_unwind(run) {
            Ok(reply) => reply,
            Err(_) => {
                inner.obs.inc_by("serve.worker_panics", &[], 1);
                "{\"ok\":false,\"error\":{\"code\":\"analysis\",\"message\":\"worker panicked\"}}"
                    .to_string()
            }
        };
        // Recorded before the reply is handed over, so a client that has
        // its reply and then scrapes metrics finds this request's sample.
        observe_since(&inner.telemetry.stage_execute, started);
        complete(&job.handle, reply);
        let mut state = inner.state.lock().expect("executor state lock");
        state.running -= 1;
        inner.set_depth_gauge(&state);
        if state.running == 0 && state.queue.is_empty() {
            inner.quiescent.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(workers: usize, cap: usize) -> Executor {
        let obs = Arc::new(Obs::new());
        let exec_telemetry = ExecutorTelemetry::new(obs.telemetry(), "test");
        Executor::new(workers, cap, obs, "test", exec_telemetry)
    }

    #[test]
    fn jobs_run_and_reply_through_the_handle() {
        let e = exec(2, 4);
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                // Respect the queue bound: admit in waves.
                loop {
                    match e.submit(move |_| format!("r{i}")) {
                        Ok(h) => break h,
                        Err(SubmitRefusal::Saturated { .. }) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(other) => panic!("refused: {other:?}"),
                    }
                }
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some(format!("r{i}")));
        }
        e.drain();
        e.shutdown_and_join(String::new);
    }

    #[test]
    fn zero_workers_refuse_everything() {
        let e = exec(0, 0);
        match e.submit(|_| String::new()) {
            Err(SubmitRefusal::Saturated { in_flight: 0, limit: 0 }) => {}
            other => panic!("expected saturation, got {other:?}"),
        }
        e.shutdown_and_join(String::new);
    }

    #[test]
    fn saturation_counts_queued_and_running() {
        let e = exec(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let running = e
            .submit(move |_| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().expect("gate");
                while !*open {
                    open = cv.wait(open).expect("gate");
                }
                "ran".into()
            })
            .expect("admit running job");
        // Wait until the worker picked it up so the queue is empty again.
        while e.in_flight() != (0, 1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = e.submit(|_| "queued".into()).expect("admit queued job");
        match e.submit(|_| String::new()) {
            Err(SubmitRefusal::Saturated { in_flight: 2, limit: 2 }) => {}
            other => panic!("expected saturation, got {other:?}"),
        }
        let (lock, cv) = &*gate;
        *lock.lock().expect("gate") = true;
        cv.notify_all();
        assert_eq!(running.wait_timeout(Duration::from_secs(5)), Some("ran".into()));
        assert_eq!(queued.wait_timeout(Duration::from_secs(5)), Some("queued".into()));
        e.drain();
        e.shutdown_and_join(String::new);
    }

    #[test]
    fn cancellation_reaches_the_token() {
        let e = exec(1, 1);
        let h = e
            .submit(|token| {
                while !token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                "cancelled".into()
            })
            .expect("admit");
        assert_eq!(h.wait_timeout(Duration::from_millis(20)), None, "wait should time out");
        h.cancel();
        assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some("cancelled".into()));
        e.drain();
        e.shutdown_and_join(String::new);
    }

    #[test]
    fn drain_is_event_driven_not_a_poll_loop() {
        let e = exec(2, 4);
        for _ in 0..4 {
            while e
                .submit(|_| {
                    std::thread::sleep(Duration::from_millis(60));
                    String::new()
                })
                .is_err()
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let wakeups = e.drain();
        // A 5 ms poll over ~120 ms of work would take ~25 iterations; the
        // condvar is signalled only at quiescence.
        assert!(wakeups <= 8, "drain took {wakeups} wakeups — looks like a poll loop");
        assert_eq!(e.in_flight(), (0, 0));
        e.shutdown_and_join(String::new);
    }

    #[test]
    fn shutdown_completes_orphaned_queue_entries() {
        let e = exec(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let running = e
            .submit(move |_| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().expect("gate");
                while !*open {
                    open = cv.wait(open).expect("gate");
                }
                "ran".into()
            })
            .expect("admit");
        while e.in_flight() != (0, 1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let orphan = e.submit(|_| "never runs".into()).expect("admit");
        let shutdown = std::thread::spawn({
            let gate = Arc::clone(&gate);
            move || {
                std::thread::sleep(Duration::from_millis(20));
                let (lock, cv) = &*gate;
                *lock.lock().expect("gate") = true;
                cv.notify_all();
            }
        });
        // Non-graceful shutdown: the queued job is answered by `orphan`.
        e.shutdown_and_join(|| "orphaned".to_string());
        assert_eq!(orphan.wait_timeout(Duration::from_secs(5)), Some("orphaned".into()));
        assert_eq!(running.wait_timeout(Duration::from_secs(5)), Some("ran".into()));
        shutdown.join().expect("shutdown helper");
    }
}
