//! A fixed worker thread pool with a bounded job queue.
//!
//! The pool is the server's admission controller: jobs beyond the queue
//! bound are rejected immediately ([`SubmitError::Full`]) instead of
//! growing an unbounded backlog — the caller turns that into a structured
//! `overloaded` reply, which is the backpressure discipline production
//! result caches use. Shutdown is graceful: no new jobs are admitted,
//! queued jobs drain, and every worker is joined. A job that panics ends
//! at its own boundary: its worker survives and takes the next job (a
//! request's reply sender is dropped with the job, which its caller
//! answers as a lost request).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; shed load instead of buffering.
    Full,
    /// The pool is shutting down and admits no new work.
    ShuttingDown,
}

struct State {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when a job arrives or shutdown begins.
    wake: Condvar,
    queue_capacity: usize,
}

/// Fixed-size thread pool; see the module docs for the admission contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads sharing one queue bounded at
    /// `queue_capacity` pending jobs (both clamped to at least 1).
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutting_down: false,
            }),
            wake: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit a job, or reject it without blocking: [`SubmitError::Full`]
    /// when the queue is at capacity, [`SubmitError::ShuttingDown`] after
    /// [`WorkerPool::shutdown`] began.
    pub fn try_execute(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool poisoned");
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_capacity {
            return Err(SubmitError::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Number of jobs waiting for a worker (excludes jobs being run).
    #[cfg(test)]
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool poisoned").queue.len()
    }

    /// Stop admitting jobs, drain everything already queued, and join all
    /// workers. Idempotent: later calls return immediately.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            state.shutting_down = true;
        }
        self.shared.wake.notify_all();
        let handles: Vec<JoinHandle<()>> =
            self.workers.lock().expect("pool poisoned").drain(..).collect();
        for worker in handles {
            // Jobs cannot take a worker down, so a failed join has nothing
            // left to drain; shutdown still joins the rest.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutting_down {
                    break None;
                }
                state = shared.wake.wait(state).expect("pool poisoned");
            }
        };
        match job {
            // The job owns everything it touches except what it shares
            // through locks, which a panic poisons, so the worker may go
            // on. The panic hook has already reported the panic.
            Some(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_jobs_on_workers() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.try_execute(move || tx.send(i).unwrap()).unwrap();
        }
        let mut seen: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn full_queue_sheds_instead_of_buffering() {
        // One worker blocked on a gate; capacity 2 admits exactly two more
        // jobs, then sheds.
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        entered_rx.recv().unwrap(); // worker is now busy, queue empty
        assert!(pool.try_execute(|| {}).is_ok());
        assert!(pool.try_execute(|| {}).is_ok());
        assert_eq!(pool.try_execute(|| {}), Err(SubmitError::Full));
        assert_eq!(pool.queued(), 2);
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1, 16);
        let ran = Arc::new(AtomicUsize::new(0));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        {
            let ran = Arc::clone(&ran);
            pool.try_execute(move || {
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        entered_rx.recv().unwrap();
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            pool.try_execute(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        gate_tx.send(()).unwrap();
        pool.shutdown();
        // Every admitted job ran to completion before shutdown returned.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        // One worker: had either panic killed it, the third job would
        // never run.
        let pool = WorkerPool::new(1, 16);
        for _ in 0..2 {
            pool.try_execute(|| panic!("deliberate job panic")).unwrap();
        }
        let (tx, rx) = mpsc::channel();
        pool.try_execute(move || tx.send(7).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
        pool.shutdown();
    }
}
