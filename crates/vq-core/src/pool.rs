//! Work-stealing search-execution pools.
//!
//! The search execution layer. An [`ExecPool`] is a small fixed set of
//! worker threads, each with its own task deque, plus a bounded
//! injection queue for external one-shot jobs. Idle workers steal from their siblings before touching
//! the injector, so a shard whose queries arrive in bursts keeps all of
//! its pool busy without a central lock on the hot path.
//!
//! Two dispatch surfaces:
//!
//! * [`ExecPool::spawn`] — bounded fire-and-forget (`'static`) jobs, the
//!   primitive the HTTP accept pool reuses. Rejects instead of growing
//!   without bound when the injection queue is full.
//! * [`ExecPool::scope_map`] — fork–join over `n` indices where the
//!   *caller participates*: tasks are claimed from a shared atomic
//!   cursor, so the calling thread drains whatever the pool workers do
//!   not take and the call can never deadlock, even when issued from
//!   inside another pool task (nested scans).
//!
//! [`ExecCtx`] is the cheap handle threaded through search entry points
//! (cluster worker → collection → segment → index scan) so chunk sizing
//! uses the *executing* pool's width, not the node's core count — the
//! nested-parallelism mis-sizing this layer exists to fix.
//!
//! Per-pool observability (all via `vq-obs`, aggregate and labeled by
//! pool id): `pool.tasks`, `pool.steals`, `pool.injected`,
//! `pool.rejected`, `pool.task_panics`, `pool.queue_depth`,
//! `pool.pinned_threads`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How an [`ExecPool`] is built.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (≥ 1).
    pub threads: usize,
    /// Bounded injection-queue capacity for [`ExecPool::spawn`] jobs.
    pub queue_capacity: usize,
    /// Cores to pin worker threads to, round-robin (`thread i` →
    /// `pin_cores[i % len]`). Empty/`None` leaves threads unpinned.
    /// Pinning is best-effort: unsupported platforms and denied
    /// `sched_setaffinity` calls leave the thread floating.
    pub pin_cores: Option<Vec<usize>>,
    /// Width advertised to chunk-sizing callers. Defaults to `threads`;
    /// the paradox experiment sets it wider to reproduce "chunks sized
    /// for the whole node" mis-sizing on a narrow pool.
    pub advertised_width: Option<usize>,
}

impl PoolConfig {
    /// `threads` workers, a 256-deep injection queue, no pinning.
    pub fn new(threads: usize) -> Self {
        PoolConfig {
            threads: threads.max(1),
            queue_capacity: 256,
            pin_cores: None,
            advertised_width: None,
        }
    }

    /// Builder-style setter for the injection-queue bound.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Builder-style setter for core pinning.
    pub fn pin_cores(mut self, cores: Vec<usize>) -> Self {
        self.pin_cores = if cores.is_empty() { None } else { Some(cores) };
        self
    }

    /// Builder-style setter for the advertised chunk-sizing width.
    pub fn advertised_width(mut self, width: usize) -> Self {
        self.advertised_width = Some(width.max(1));
        self
    }
}

/// Error returned by [`ExecPool::spawn`] when the bounded injection
/// queue is full (or the pool is shutting down). The job is handed back
/// so the caller can run it inline, shed it, or retry.
pub struct PoolFull(pub Box<dyn FnOnce() + Send + 'static>);

impl std::fmt::Debug for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolFull(..)")
    }
}

/// One fork–join job: `n` indices claimed from a shared cursor.
struct ScopeJob {
    /// Next unclaimed index.
    next: AtomicUsize,
    n: usize,
    /// Completed indices; the latch below fires at `n`.
    done_count: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
    /// Lifetime-erased `&(dyn Fn(usize) + Sync)`. Only dereferenced for
    /// claimed indices (`next.fetch_add() < n`), and the issuing caller
    /// blocks until every claimed index has completed — so the borrow it
    /// erases is always live when used.
    func: ErasedFn,
}

/// Raw two-word fat pointer to the scope closure, sendable across the
/// pool threads. See [`ScopeJob::func`] for the validity argument.
struct ErasedFn(*const (dyn Fn(usize) + Sync));
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

impl ScopeJob {
    /// Claim-and-run loop shared by pool workers and the issuing caller.
    /// Returns the number of indices this participant executed.
    fn drain(&self, counters: &PoolCounters) -> usize {
        let mut ran = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            let f = unsafe { &*self.func.0 };
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
                counters.task_panics.add(1);
            }
            ran += 1;
            let mut done = self.done_count.lock().expect("scope latch");
            *done += 1;
            if *done == self.n {
                self.done_cv.notify_all();
            }
        }
        ran
    }

    fn wait(&self) {
        let mut done = self.done_count.lock().expect("scope latch");
        while *done < self.n {
            done = self.done_cv.wait(done).expect("scope latch");
        }
    }
}

enum Task {
    /// Fire-and-forget job from [`ExecPool::spawn`].
    Owned(Box<dyn FnOnce() + Send + 'static>),
    /// A claim ticket for a fork–join job. Executing it drains indices
    /// until the job's cursor is exhausted.
    Scope(Arc<ScopeJob>),
}

/// Per-pool metric handles: aggregate name plus a `pool`-labeled copy,
/// so both "all pools" and "this pool" are visible in snapshots.
struct PoolCounter {
    total: Arc<vq_obs::Counter>,
    this: Arc<vq_obs::Counter>,
}

impl PoolCounter {
    fn new(name: &str, pool_id: u64) -> Self {
        PoolCounter {
            total: vq_obs::handle_counter(name),
            this: vq_obs::handle_counter(&vq_obs::labeled(name, "pool", pool_id)),
        }
    }

    fn add(&self, delta: u64) {
        self.total.add(delta);
        self.this.add(delta);
    }

    fn get(&self) -> u64 {
        self.this.get()
    }
}

struct PoolCounters {
    tasks: PoolCounter,
    steals: PoolCounter,
    injected: PoolCounter,
    rejected: PoolCounter,
    task_panics: PoolCounter,
    pinned_threads: PoolCounter,
    queue_depth: Arc<vq_obs::Gauge>,
}

impl PoolCounters {
    fn new(pool_id: u64) -> Self {
        PoolCounters {
            tasks: PoolCounter::new("pool.tasks", pool_id),
            steals: PoolCounter::new("pool.steals", pool_id),
            injected: PoolCounter::new("pool.injected", pool_id),
            rejected: PoolCounter::new("pool.rejected", pool_id),
            task_panics: PoolCounter::new("pool.task_panics", pool_id),
            pinned_threads: PoolCounter::new("pool.pinned_threads", pool_id),
            queue_depth: vq_obs::handle_gauge(&vq_obs::labeled(
                "pool.queue_depth",
                "pool",
                pool_id,
            )),
        }
    }
}

struct Shared {
    /// Per-worker deques. Workers pop their own FIFO; idle workers steal
    /// from siblings (counted) before falling back to the injector.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// External injection queue, bounded by `queue_capacity`.
    injector: Mutex<VecDeque<Task>>,
    queue_capacity: usize,
    /// Tasks pushed but not yet popped anywhere (wakeup predicate).
    pending: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    counters: PoolCounters,
}

impl Shared {
    /// Pop for worker `me`: own deque, then steal, then injector.
    fn pop(&self, me: usize) -> Option<Task> {
        if let Some(t) = self.deques[me].lock().expect("deque").pop_front() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(t) = self.deques[victim].lock().expect("deque").pop_back() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.counters.steals.add(1);
                return Some(t);
            }
        }
        let popped = self.injector.lock().expect("injector").pop_front();
        if let Some(t) = popped {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            self.update_depth();
            return Some(t);
        }
        None
    }

    /// Publish a task to worker `target`'s deque and wake a sleeper.
    fn push_to(&self, target: usize, task: Task) {
        self.deques[target].lock().expect("deque").push_back(task);
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.wake_one();
    }

    fn wake_one(&self) {
        // Empty critical section orders the pending increment against a
        // sleeper's re-check, closing the lost-wakeup window.
        drop(self.sleep_lock.lock().expect("sleep lock"));
        self.sleep_cv.notify_one();
    }

    fn wake_all(&self) {
        drop(self.sleep_lock.lock().expect("sleep lock"));
        self.sleep_cv.notify_all();
    }

    fn update_depth(&self) {
        if vq_obs::enabled() {
            let len = self.injector.lock().expect("injector").len();
            self.counters.queue_depth.set(len as i64);
        }
    }

    fn run_task(&self, task: Task) {
        match task {
            Task::Owned(f) => {
                if catch_unwind(AssertUnwindSafe(f)).is_err() {
                    self.counters.task_panics.add(1);
                }
                self.counters.tasks.add(1);
            }
            Task::Scope(job) => {
                let ran = job.drain(&self.counters);
                self.counters.tasks.add(ran as u64);
            }
        }
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// A work-stealing thread pool dedicated to one execution domain (one
/// cluster worker's shards, the HTTP accept path, a bench harness).
pub struct ExecPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    width: usize,
    advertised_width: usize,
    id: u64,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("id", &self.id)
            .field("width", &self.width)
            .finish()
    }
}

impl ExecPool {
    /// Build and start a pool.
    pub fn new(config: PoolConfig) -> Arc<Self> {
        let threads = config.threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queue_capacity: config.queue_capacity,
            pending: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: PoolCounters::new(id),
        });
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = shared.clone();
            let core = config
                .pin_cores
                .as_ref()
                .filter(|c| !c.is_empty())
                .map(|c| c[i % c.len()]);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("vq-pool-{id}-{i}"))
                    .spawn(move || {
                        if let Some(core) = core {
                            if pin_current_thread(core) {
                                shared.counters.pinned_threads.add(1);
                            }
                        }
                        worker_loop(&shared, i);
                    })
                    .expect("spawn pool thread"),
            );
        }
        Arc::new(ExecPool {
            shared,
            handles: Mutex::new(handles),
            width: threads,
            advertised_width: config.advertised_width.unwrap_or(threads).max(1),
            id,
        })
    }

    /// Worker-thread count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Width advertised for chunk sizing (normally [`Self::width`]).
    pub fn advertised_width(&self) -> usize {
        self.advertised_width
    }

    /// Pool id (the `pool` label on its metrics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Steals performed by this pool's workers so far.
    pub fn steal_count(&self) -> u64 {
        self.shared.counters.steals.get()
    }

    /// Tasks executed by this pool's workers so far (scope indices count
    /// individually; caller-executed indices are not included).
    pub fn task_count(&self) -> u64 {
        self.shared.counters.tasks.get()
    }

    /// Spawn jobs rejected by the bounded injection queue so far.
    pub fn rejected_count(&self) -> u64 {
        self.shared.counters.rejected.get()
    }

    /// Worker threads successfully pinned to a core at startup.
    pub fn pinned_count(&self) -> u64 {
        self.shared.counters.pinned_threads.get()
    }

    /// Enqueue a fire-and-forget job on the bounded injection queue.
    /// Returns the job back as [`PoolFull`] when the queue is at
    /// capacity or the pool is shutting down — the caller decides
    /// whether to run inline, shed, or retry.
    pub fn spawn(
        &self,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Result<(), PoolFull> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.shared.counters.rejected.add(1);
            return Err(PoolFull(f));
        }
        {
            let mut q = self.shared.injector.lock().expect("injector");
            if q.len() >= self.shared.queue_capacity {
                drop(q);
                self.shared.counters.rejected.add(1);
                return Err(PoolFull(f));
            }
            q.push_back(Task::Owned(f));
        }
        self.shared.counters.injected.add(1);
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        self.shared.update_depth();
        self.shared.wake_one();
        Ok(())
    }

    /// Run `f(0..n)`, caller participating, and collect the results.
    ///
    /// Claim tickets are injected across the worker deques; the calling
    /// thread then drains the same shared cursor, so every index is
    /// executed even if no pool worker ever picks a ticket up — which is
    /// what makes nested use (a scan inside a query task) deadlock-free.
    /// Single-index scopes skip the tickets and run inline on the caller.
    /// Panics in `f` are contained per index and re-raised here once all
    /// indices finished, leaving the pool threads alive.
    pub fn scope_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let slots = SharedSlots(out.as_mut_ptr());
            let fill = |i: usize| {
                // Each index writes exactly one distinct slot.
                unsafe { *slots.get(i) = Some(f(i)) };
            };
            self.scope_run(n, &fill);
        }
        out.into_iter()
            .map(|o| o.expect("every scope index completed"))
            .collect()
    }

    /// The untyped fork–join primitive under [`Self::scope_map`].
    pub fn scope_run<'env>(&self, n: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        if n == 0 {
            return;
        }
        // Single-index scopes run inline on the caller: a one-ticket
        // dispatch buys no parallelism and costs a deque push, a condvar
        // wake, and claim contention with the woken worker — measurable
        // per-query overhead on narrow pools, where single-query search
        // dispatch is the common case. Still counted as an injection so
        // dispatch stays observable; panic semantics match the ticket
        // path (contained, counted, re-raised).
        if n == 1 {
            self.shared.counters.injected.add(1);
            if catch_unwind(AssertUnwindSafe(|| f(0))).is_err() {
                self.shared.counters.task_panics.add(1);
                panic!("ExecPool scope task panicked");
            }
            return;
        }
        // Erase 'env: the job never outlives this frame (see wait below).
        let func: &(dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize) + Sync + 'env),
                &'static (dyn Fn(usize) + Sync),
            >(f)
        };
        let job = Arc::new(ScopeJob {
            next: AtomicUsize::new(0),
            n,
            done_count: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            func: ErasedFn(func as *const _),
        });
        // One claim ticket per worker (capped by n): enough for every
        // thread to participate without flooding the deques.
        let tickets = self.width.min(n);
        for t in 0..tickets {
            self.shared.push_to(t, Task::Scope(job.clone()));
        }
        self.shared.counters.injected.add(tickets as u64);
        // Caller helps until the cursor is exhausted, then waits for
        // in-flight claims on other threads.
        job.drain(&self.shared.counters);
        job.wait();
        if job.panicked.load(Ordering::Acquire) {
            panic!("ExecPool scope task panicked");
        }
    }

    /// Stop accepting work, wake every worker, and join the threads.
    /// Tasks already queued are abandoned unexecuted (scope jobs are
    /// always fully drained by their caller, so only `spawn` jobs can be
    /// dropped). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        let mut handles = self.handles.lock().expect("join handles");
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Raw base pointer to the result slots of one `scope_map`, shared
/// across the participating threads. Distinct indices never alias.
struct SharedSlots<T>(*mut Option<T>);
unsafe impl<T: Send> Sync for SharedSlots<T> {}
unsafe impl<T: Send> Send for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// Pointer to slot `i`; caller guarantees `i` is in bounds and
    /// written by exactly one task.
    unsafe fn get(&self, i: usize) -> *mut Option<T> {
        self.0.add(i)
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(task) = shared.pop(me) {
            shared.run_task(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.sleep_lock.lock().expect("sleep lock");
        if shared.pending.load(Ordering::Relaxed) == 0
            && !shared.shutdown.load(Ordering::Acquire)
        {
            // Timeout is belt-and-braces only; wakeups are signalled.
            let _ = shared
                .sleep_cv
                .wait_timeout(guard, std::time::Duration::from_millis(50))
                .expect("sleep lock");
        }
    }
}

/// Best-effort pin of the current thread to one core via a raw
/// `sched_setaffinity` syscall (no libc dependency). Returns whether the
/// kernel accepted the mask. No-op (false) on unsupported targets.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(core: usize) -> bool {
    if core >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16]; // 1024-core cpu_set_t
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,                 // pid 0 = current thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Best-effort pin (aarch64-linux variant).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
pub fn pin_current_thread(core: usize) -> bool {
    if core >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "svc 0",
            inlateout("x8") 122isize => _,    // __NR_sched_setaffinity
            inlateout("x0") 0usize => ret,    // pid 0 = current thread
            in("x1") std::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

/// Pinning is unsupported here; always reports failure.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

/// Execution context threaded through search entry points. Cheap to
/// clone; decides *where* a chunked scan runs and *how wide* its chunks
/// should be.
#[derive(Debug, Clone)]
pub enum ExecCtx {
    /// Single-threaded, in place.
    Serial,
    /// A dedicated [`ExecPool`].
    Pool(Arc<ExecPool>),
}

impl ExecCtx {
    /// Context for `pool`.
    pub fn pool(pool: Arc<ExecPool>) -> Self {
        ExecCtx::Pool(pool)
    }

    /// Chunk-sizing width: 1 in place, the pool's advertised width on a
    /// pool.
    pub fn width_hint(&self) -> usize {
        match self {
            ExecCtx::Serial => 1,
            ExecCtx::Pool(p) => p.advertised_width(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scope_map_computes_every_index() {
        let pool = ExecPool::new(PoolConfig::new(3));
        let out = pool.scope_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        pool.shutdown();
    }

    #[test]
    fn scope_map_zero_and_one() {
        let pool = ExecPool::new(PoolConfig::new(2));
        assert!(pool.scope_map(0, |i| i).is_empty());
        assert_eq!(pool.scope_map(1, |i| i + 7), vec![7]);
        pool.shutdown();
    }

    #[test]
    fn scope_map_borrows_caller_state() {
        let pool = ExecPool::new(PoolConfig::new(2));
        let data: Vec<u64> = (0..1000).collect();
        let sum: u64 = pool
            .scope_map(10, |i| data[i * 100..(i + 1) * 100].iter().sum::<u64>())
            .into_iter()
            .sum();
        assert_eq!(sum, (0..1000).sum::<u64>());
        pool.shutdown();
    }

    #[test]
    fn nested_scope_map_does_not_deadlock() {
        let pool = ExecPool::new(PoolConfig::new(2));
        let out = pool.scope_map(4, |i| {
            // Inner fork–join issued from inside an outer task.
            pool.scope_map(8, |j| i * 8 + j).into_iter().sum::<usize>()
        });
        let want: usize = (0..32).sum();
        assert_eq!(out.into_iter().sum::<usize>(), want);
        pool.shutdown();
    }

    #[test]
    fn spawn_runs_and_counts_tasks() {
        let pool = ExecPool::new(PoolConfig::new(2));
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let hits = hits.clone();
            pool.spawn(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while hits.load(Ordering::Relaxed) < 16 {
            assert!(std::time::Instant::now() < deadline, "spawned jobs stalled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(pool.task_count() >= 16);
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let pool = ExecPool::new(PoolConfig::new(1).queue_capacity(2));
        // Park the single worker so the queue cannot drain. The blocker
        // flips `started` once it is RUNNING (off the queue) so the rest
        // of the test knows both injector slots are genuinely free — a
        // spawn merely being accepted does not prove the worker picked
        // the blocker up (on a loaded host the blocker can still be
        // queued while a no-op lands in the second slot).
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new((Mutex::new(false), Condvar::new()));
        let (g, s) = (gate.clone(), started.clone());
        pool.spawn(Box::new(move || {
            {
                let (lock, cv) = &*s;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .expect("first job fits");
        {
            let (lock, cv) = &*started;
            let mut run = lock.lock().unwrap();
            while !*run {
                let (next, timed_out) = cv
                    .wait_timeout(run, std::time::Duration::from_secs(10))
                    .unwrap();
                assert!(!timed_out.timed_out(), "blocker never picked up");
                run = next;
            }
        }
        pool.spawn(Box::new(|| {})).expect("first slot");
        pool.spawn(Box::new(|| {})).expect("second slot");
        let rejected = pool.spawn(Box::new(|| {}));
        assert!(rejected.is_err(), "queue of 2 must reject the third job");
        assert!(pool.rejected_count() >= 1);
        // Unblock and drain.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.shutdown();
    }

    #[test]
    fn steals_recorded_when_one_deque_is_loaded() {
        let pool = ExecPool::new(PoolConfig::new(4));
        // Many scope rounds with blocking tasks force idle workers to
        // steal tickets pushed to their siblings' deques.
        for round in 0..50 {
            let out = pool.scope_map(64, |i| {
                std::hint::black_box(i * round);
                let mut acc = 0u64;
                for k in 0..2000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc
            });
            assert_eq!(out.len(), 64);
        }
        assert!(pool.task_count() > 0, "pool workers participated");
        // Steal counts are scheduling-dependent; the counter existing
        // and being readable is the contract, >0 is the common case.
        let _ = pool.steal_count();
        pool.shutdown();
    }

    #[test]
    fn panic_in_scope_task_propagates_and_pool_survives() {
        let pool = ExecPool::new(PoolConfig::new(2));
        let p = pool.clone();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            p.scope_map(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(caught.is_err(), "scope panic must reach the caller");
        // Pool still fully functional afterwards.
        let out = pool.scope_map(16, |i| i + 1);
        assert_eq!(out.iter().sum::<usize>(), (1..=16).sum::<usize>());
        pool.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_spawns() {
        let pool = ExecPool::new(PoolConfig::new(2));
        pool.shutdown();
        pool.shutdown();
        assert!(pool.spawn(Box::new(|| {})).is_err());
    }

    #[test]
    fn exec_ctx_width_hints() {
        assert_eq!(ExecCtx::Serial.width_hint(), 1);
        let pool = ExecPool::new(PoolConfig::new(3));
        let ctx = ExecCtx::pool(pool.clone());
        assert_eq!(ctx.width_hint(), 3);
        let wide = ExecPool::new(PoolConfig::new(2).advertised_width(16));
        assert_eq!(ExecCtx::pool(wide.clone()).width_hint(), 16);
        pool.shutdown();
        wide.shutdown();
    }

    #[test]
    fn pinning_reports_a_result() {
        // Either the platform supports affinity (pin succeeds on core 0)
        // or it reports false — it must not crash either way.
        let _ = pin_current_thread(0);
        let pool = ExecPool::new(PoolConfig::new(2).pin_cores(vec![0]));
        let out = pool.scope_map(8, |i| i);
        assert_eq!(out.len(), 8);
        let _ = pool.pinned_count();
        pool.shutdown();
    }
}
