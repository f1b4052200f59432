//! The bounded admission queue between connection threads and the sweep
//! loop.
//!
//! Connection threads [`try_push`](Admission::try_push) instantiated
//! sweep queries; a full queue refuses immediately (the caller replies
//! `BUSY` — backpressure is the client's problem, not a hidden unbounded
//! buffer). The sweep loop [`pop_batch`](Admission::pop_batch)es up to
//! `max_batch` queries at a time: everything queued while the previous
//! batch was sweeping joins the next one, which is exactly the
//! admission-batching the shared scan wants.

use crate::proto::Reply;
use gstore_core::SweepQuery;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// One admitted sweep query and the channel its reply streams back on.
pub(crate) struct QueuedSweep {
    pub query: SweepQuery,
    pub reply: mpsc::Sender<Reply>,
}

struct State {
    queue: VecDeque<QueuedSweep>,
    open: bool,
}

/// Bounded MPSC queue with blocking consumer-side batch drain.
pub(crate) struct Admission {
    state: Mutex<State>,
    not_empty: Condvar,
    capacity: usize,
}

impl Admission {
    pub fn new(capacity: usize) -> Admission {
        Admission {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless full or closed. `Ok(depth)` is the occupancy right
    /// after the push (the backpressure signal recorded per enqueue);
    /// `Err` hands the query back so the caller can reply `BUSY`.
    #[allow(clippy::result_large_err)] // Err returns the rejected query itself
    pub fn try_push(&self, item: QueuedSweep) -> Result<usize, QueuedSweep> {
        let mut s = self.state.lock().unwrap();
        if !s.open || s.queue.len() >= self.capacity {
            return Err(item);
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until at least one query is queued, then drains up to
    /// `max_batch`. `None` once the queue is closed *and* empty — the
    /// sweep loop's exit signal (everything admitted still gets run).
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<QueuedSweep>> {
        let mut s = self.state.lock().unwrap();
        while s.queue.is_empty() {
            if !s.open {
                return None;
            }
            s = self.not_empty.wait(s).unwrap();
        }
        let n = s.queue.len().min(max_batch.max(1));
        Some(s.queue.drain(..n).collect())
    }

    /// Stops accepting new queries and wakes the sweep loop so it can
    /// drain the remainder and exit.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.not_empty.notify_all();
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstore_core::inmem::store_from_edges;
    use gstore_core::{QuerySpec, SweepQuery};
    use gstore_graph::{EdgeList, GraphKind};
    use std::sync::Arc;

    fn dummy() -> (QueuedSweep, mpsc::Receiver<Reply>) {
        let el = EdgeList::new(4, GraphKind::Directed, vec![]).unwrap();
        let index = store_from_edges(&el, 2).index();
        let query = SweepQuery::for_index(&QuerySpec::Wcc, &index).unwrap();
        let (tx, rx) = mpsc::channel();
        (QueuedSweep { query, reply: tx }, rx)
    }

    #[test]
    fn push_pop_and_backpressure() {
        let q = Admission::new(2);
        let (a, _ra) = dummy();
        let (b, _rb) = dummy();
        let (c, _rc) = dummy();
        assert_eq!(q.try_push(a).ok(), Some(1));
        assert_eq!(q.try_push(b).ok(), Some(2));
        assert!(q.try_push(c).is_err()); // full -> BUSY
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(64).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_respects_max_batch() {
        let q = Admission::new(8);
        for _ in 0..5 {
            let (item, _rx) = dummy();
            q.try_push(item).unwrap_or_else(|_| panic!("queue full"));
        }
        assert_eq!(q.pop_batch(3).unwrap().len(), 3);
        assert_eq!(q.pop_batch(3).unwrap().len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(Admission::new(4));
        let (item, _rx) = dummy();
        q.try_push(item).unwrap_or_else(|_| panic!("queue full"));
        q.close();
        // Closed but non-empty: the admitted query still comes out.
        assert_eq!(q.pop_batch(64).unwrap().len(), 1);
        // Closed and empty: the consumer is told to exit.
        assert!(q.pop_batch(64).is_none());
        // New work is refused after close.
        let (late, _rx) = dummy();
        assert!(q.try_push(late).is_err());
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(Admission::new(4));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop_batch(64).is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap());
    }
}
