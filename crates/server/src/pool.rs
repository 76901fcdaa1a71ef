//! A fixed worker thread pool fed over an `mpsc` channel.
//!
//! A wake is the unit of work: when a poller shard meets a line its
//! fast path may not answer, it sends the connection, with the rest of
//! that wake's lines, into the channel (see [`crate::poller`]). One of
//! `N` resident workers answers those lines, flushes the replies and
//! registers the connection back with its shard, which owns it between
//! wakes. Dropping every sender is the shutdown signal — workers drain
//! whatever is already queued, then exit, which is exactly the
//! "graceful shutdown drains in-flight work" contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool. Jobs submitted after [`WorkerPool::shutdown`] are
/// rejected; jobs submitted before are always run.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` resident threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("qid-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a job; returns `false` if the pool is shut down.
    pub fn execute(&self, job: Job) -> bool {
        match &self.sender {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// A cloneable submission handle, for submitters on other threads
    /// (the poller shards hand their wakes over through one, wrapped in
    /// a [`GaugedSender`]). Holding one keeps the queue open:
    /// [`WorkerPool::shutdown`] drains only once every sender is gone.
    pub fn sender(&self) -> Option<Sender<Job>> {
        self.sender.clone()
    }

    /// Stops accepting jobs, drains the queue, joins every worker.
    pub fn shutdown(&mut self) {
        self.sender.take(); // closes the channel
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A [`WorkerPool`] submission handle that maintains a shared
/// queue-depth gauge: the counter goes up when a job is enqueued and
/// down when a worker starts running it, so its value is the number
/// of jobs waiting for a worker — what the `qid_worker_queue_depth`
/// Prometheus gauge exports. Cloneable like the raw sender, with the
/// same keep-the-queue-open semantics.
#[derive(Clone, Debug)]
pub struct GaugedSender {
    tx: Sender<Job>,
    depth: Arc<AtomicU64>,
}

impl GaugedSender {
    /// Wraps a pool sender with a shared depth counter (typically the
    /// observability hub's).
    pub fn new(tx: Sender<Job>, depth: Arc<AtomicU64>) -> GaugedSender {
        GaugedSender { tx, depth }
    }

    /// Current queued-job count.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Submits a job; returns `false` (and leaves the gauge untouched)
    /// if the pool is shut down.
    pub fn send(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let depth = Arc::clone(&self.depth);
        let wrapped: Job = Box::new(move || {
            depth.fetch_sub(1, Ordering::Relaxed);
            job();
        });
        if self.tx.send(wrapped).is_ok() {
            true
        } else {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while popping, never while running a job.
        let job = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // channel closed: drain complete
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            assert!(pool.execute(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })));
        }
        drop(pool); // shutdown drains the queue
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let mut pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        // Rejected after shutdown.
        assert!(!pool.execute(Box::new(|| {})));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn gauged_sender_tracks_queue_depth() {
        let mut pool = WorkerPool::new(1);
        let depth = Arc::new(AtomicU64::new(0));
        let tx = GaugedSender::new(pool.sender().unwrap(), Arc::clone(&depth));

        // Park the single worker so queued jobs stay queued.
        let (gate_tx, gate_rx) = channel::<()>();
        assert!(tx.send(move || {
            let _ = gate_rx.recv();
        }));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            assert!(tx.send(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // The parked job may or may not have been dequeued yet; the 5
        // behind it cannot have been.
        assert!(tx.depth() >= 5, "depth {} should be >= 5", tx.depth());
        gate_tx.send(()).unwrap();
        drop(tx);
        pool.shutdown(); // drains the queue
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(depth.load(Ordering::SeqCst), 0, "gauge returns to zero");
    }
}
