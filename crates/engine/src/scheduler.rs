//! The worker-pool scheduler: submission queue, results store, rollups.

use crate::job::{ClusteringJob, JobId, JobResult};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ppdbscan::config::YaoLedger;
use ppdbscan::run_session;
use ppds_observe::MetricsRegistry;
use ppds_transport::MetricsSnapshot;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many workers the engine runs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads pulling jobs from the queue. Each session additionally
    /// spawns its per-party threads, so the sweet spot is roughly
    /// `cores / 2` for two-party workloads.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().div_ceil(2))
                .unwrap_or(4),
        }
    }
}

impl EngineConfig {
    /// A config with exactly `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers }
    }
}

/// A generic unit of work for [`Engine::submit_task`]: runs on a worker
/// thread, reports success or a failure description. Unlike a
/// [`ClusteringJob`] it deposits nothing in the results store — completion
/// is visible through the report counters and whatever state the closure
/// updates itself (a server's session registry, for instance). A task that
/// panics counts as failed; the worker survives it.
pub type TaskFn = Box<dyn FnOnce() -> Result<(), String> + Send + 'static>;

/// What travels down the worker queue.
enum Work {
    /// A clustering session job (results land in the store).
    Clustering(JobId, ClusteringJob),
    /// A generic task.
    Task(TaskFn),
}

/// Aggregated view over everything the engine has executed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineReport {
    /// Jobs and tasks accepted by [`Engine::submit`] and
    /// [`Engine::submit_task`].
    pub submitted: u64,
    /// Jobs and tasks that finished successfully.
    pub completed: u64,
    /// Jobs and tasks that returned an error or panicked.
    pub failed: u64,
    /// Componentwise sum of every finished job's party traffic.
    pub traffic: MetricsSnapshot,
    /// Absorbed Yao ledgers of every finished job.
    pub yao: YaoLedger,
    /// Sum of per-job wall times (exceeds real elapsed time when jobs ran
    /// in parallel; the ratio is the scheduler's effective concurrency).
    pub busy_time: Duration,
}

/// Shared mutable state between the engine handle and its workers.
struct EngineShared {
    results: Mutex<HashMap<u64, Arc<JobResult>>>,
    /// Signaled whenever a result lands.
    job_done: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rollup: Mutex<Rollup>,
    /// Operator-facing gauges and counters; see [`Engine::registry`].
    registry: Arc<MetricsRegistry>,
}

#[derive(Default)]
struct Rollup {
    traffic: MetricsSnapshot,
    yao: YaoLedger,
    busy: Duration,
}

/// The engine: a handle to the worker pool. Dropping it (or calling
/// [`Engine::shutdown`]) closes the queue, drains in-flight jobs, and joins
/// the workers.
pub struct Engine {
    sender: Option<Sender<Work>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<EngineShared>,
    next_id: AtomicU64,
}

impl Engine {
    /// Starts the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn start(config: EngineConfig) -> Engine {
        assert!(config.workers > 0, "engine needs at least one worker");
        let (sender, receiver): (Sender<Work>, Receiver<_>) = unbounded();
        let shared = Arc::new(EngineShared {
            results: Mutex::new(HashMap::new()),
            job_done: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rollup: Mutex::new(Rollup::default()),
            registry: Arc::new(MetricsRegistry::new()),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let rx = receiver.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppds-engine-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn engine worker")
            })
            .collect();

        Engine {
            sender: Some(sender),
            workers,
            shared,
            next_id: AtomicU64::new(0),
        }
    }

    /// Enqueue shared by every submit path.
    fn enqueue(&self, work: Work) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.registry.counter("engine_jobs_submitted").inc();
        self.shared.registry.gauge("engine_queue_depth").inc();
        self.sender
            .as_ref()
            .expect("engine not shut down")
            .send(work)
            .expect("workers alive while engine handle exists");
    }

    /// Queues a job and returns its handle immediately.
    pub fn submit(&self, job: ClusteringJob) -> JobId {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.enqueue(Work::Clustering(id, job));
        id
    }

    /// Queues a generic task on the same queue and workers as clustering
    /// jobs. The task's completion shows up in [`Engine::report`] counters
    /// and the registry, **not** in the results store. This is the hook a
    /// network front-end uses to schedule protocol sessions whose I/O it
    /// owns itself; such a front-end enforces its own admission cap
    /// against [`Engine::queue_depth`].
    pub fn submit_task(&self, task: TaskFn) {
        self.enqueue(Work::Task(task));
    }

    /// Jobs admitted but not yet picked up by a worker (the
    /// `engine_queue_depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .registry
            .gauge("engine_queue_depth")
            .get()
            .max(0) as usize
    }

    /// Queues several jobs, returning their handles in order.
    pub fn submit_all(&self, jobs: impl IntoIterator<Item = ClusteringJob>) -> Vec<JobId> {
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// The result for `id`, if it has finished.
    pub fn try_result(&self, id: JobId) -> Option<Arc<JobResult>> {
        self.shared
            .results
            .lock()
            .unwrap()
            .get(&id.0)
            .map(Arc::clone)
    }

    /// Like [`Engine::wait`], but also *removes* the result from the store.
    ///
    /// The store retains every result until taken (rollup counters are
    /// unaffected by taking), so a long-lived engine serving an open-ended
    /// job stream should prefer this over [`Engine::wait`] to keep memory
    /// bounded. Note that [`Engine::wait_all`] considers only results still
    /// in the store.
    pub fn take(&self, id: JobId) -> Arc<JobResult> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some(result) = results.remove(&id.0) {
                return result;
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// Blocks until job `id` finishes and returns its result.
    pub fn wait(&self, id: JobId) -> Arc<JobResult> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some(result) = results.get(&id.0) {
                return Arc::clone(result);
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// Blocks until every submitted job has finished, then returns all
    /// results still in the store (everything not already [`Engine::take`]n)
    /// in submission (id) order.
    pub fn wait_all(&self) -> Vec<Arc<JobResult>> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            let submitted = self.shared.submitted.load(Ordering::Relaxed);
            let finished = self.shared.completed.load(Ordering::Relaxed)
                + self.shared.failed.load(Ordering::Relaxed);
            if finished >= submitted {
                let mut all: Vec<Arc<JobResult>> = results.values().map(Arc::clone).collect();
                all.sort_by_key(|r| r.id);
                return all;
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// The operator metrics registry: scheduler gauges
    /// (`engine_queue_depth`, `engine_in_flight`), job counters
    /// (`engine_jobs_submitted` / `_completed` / `_failed`), and per-mode
    /// traffic rollups. Cheap to clone and safe to scrape from any thread
    /// while jobs run; see [`ppds_observe::MetricsRegistry::render_text`]
    /// for the exposition format.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Point-in-time aggregated rollups.
    pub fn report(&self) -> EngineReport {
        let rollup = self.shared.rollup.lock().unwrap();
        EngineReport {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            traffic: rollup.traffic,
            yao: rollup.yao,
            busy_time: rollup.busy,
        }
    }

    /// Drains in-flight jobs, joins the workers, and returns the final
    /// report.
    pub fn shutdown(mut self) -> EngineReport {
        self.close();
        self.report()
    }

    fn close(&mut self) {
        // Closing the queue makes worker `recv` return Err once drained.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(rx: &Receiver<Work>, shared: &EngineShared) {
    let queue_depth = shared.registry.gauge("engine_queue_depth");
    let in_flight = shared.registry.gauge("engine_in_flight");
    let jobs_completed = shared.registry.counter("engine_jobs_completed");
    let jobs_failed = shared.registry.counter("engine_jobs_failed");
    while let Ok(work) = rx.recv() {
        queue_depth.dec();
        in_flight.inc();
        let start = Instant::now();
        let (succeeded, job_result) = match work {
            Work::Task(task) => {
                // A panicking task fails, not the worker: an uncaught
                // unwind would end this thread and strand the queue behind
                // it with the gauges never brought back.
                let outcome = catch_unwind(AssertUnwindSafe(task));
                shared.rollup.lock().unwrap().busy += start.elapsed();
                (matches!(outcome, Ok(Ok(()))), None)
            }
            Work::Clustering(id, job) => {
                let result = run_job(shared, id, &job, start);
                (result.is_ok(), Some(result))
            }
        };
        {
            // Insert before bumping the finished counters, under the same
            // lock `wait_all` holds while reading them: once a waiter sees
            // `finished == submitted`, every result is in the store.
            let mut results = shared.results.lock().unwrap();
            if let Some(result) = job_result {
                results.insert(result.id.0, result);
            }
            if succeeded {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                jobs_completed.inc();
            } else {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                jobs_failed.inc();
            }
            // Under the same lock as the finished counters: a waiter that
            // observes the drain also observes in-flight back at zero.
            in_flight.dec();
        }
        shared.job_done.notify_all();
    }
}

/// Runs one clustering session and rolls its traffic and Yao cost into the
/// engine-wide totals.
fn run_job(
    shared: &EngineShared,
    id: JobId,
    job: &ClusteringJob,
    start: Instant,
) -> Arc<JobResult> {
    let mode = job.request.mode_name();
    let outcome = run_session(&job.cfg, &job.request, job.seed);
    let wall_time = start.elapsed();

    let (traffic, yao) = match &outcome {
        Ok(outputs) => {
            let traffic = outputs.iter().map(|o| o.traffic).sum();
            let mut yao = YaoLedger::default();
            for output in outputs {
                yao.absorb(output.yao);
            }
            (traffic, yao)
        }
        Err(_) => (MetricsSnapshot::default(), YaoLedger::default()),
    };

    {
        let mut rollup = shared.rollup.lock().unwrap();
        rollup.traffic += traffic;
        rollup.yao.absorb(yao);
        rollup.busy += wall_time;
    }
    shared.registry.record_traffic(mode, traffic);

    Arc::new(JobResult {
        id,
        mode,
        outcome,
        wall_time,
        traffic,
        yao,
    })
}
