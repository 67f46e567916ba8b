//! The hand-off queue the TCP front-end feeds its worker threads from.
//!
//! One mutex over a `VecDeque` plus one condition variable. A consumer
//! with nothing to do parks on the condition variable *without* the lock,
//! and a push wakes one of them — unlike workers sharing a
//! `Mutex<mpsc::Receiver>`, where one blocks in `recv()` holding the lock,
//! the rest park on the mutex, and each hand-off wakes two threads: the
//! receiver, and the next one in line only to put it back to sleep.
//!
//! Lock poisoning is recovered from, not propagated (the policy of the
//! session table and the metrics registry): a push or pop is a single
//! `VecDeque` call, so a thread that panics elsewhere while holding the
//! guard cannot leave the queue half-updated.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A multi-consumer FIFO with blocking [`WorkQueue::pop`] and a closed
/// state for shutdown.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked in [`WorkQueue::pop`]: a push with nobody parked
    /// skips the wake-up syscall (a running consumer re-checks the queue
    /// before it parks).
    parked: usize,
    /// Consumers that were woken and found nothing to do (test-only).
    #[cfg(test)]
    empty_wakes: u64,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WorkQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
                #[cfg(test)]
                empty_wakes: 0,
            }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Append `item` and wake one parked consumer. An item pushed after
    /// [`WorkQueue::close`] is dropped: nobody is left to run it.
    pub(crate) fn push(&self, item: T) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.items.push_back(item);
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// The oldest item, parking until one arrives. `None` once the queue
    /// is closed *and* drained — the consumer's signal to exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state.parked -= 1;
            #[cfg(test)]
            if state.items.is_empty() && !state.closed {
                state.empty_wakes += 1;
            }
        }
    }

    /// Stop accepting items and release every parked consumer; items
    /// already queued are still handed out.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// A handle that closes the queue when dropped. The producing thread
    /// pushes through one, so the consumers are released however it exits
    /// — a panic included, like the `mpsc::Sender` drop this replaces.
    pub(crate) fn close_on_drop(self: Arc<Self>) -> CloseOnDrop<T> {
        CloseOnDrop(self)
    }
}

/// See [`WorkQueue::close_on_drop`].
pub(crate) struct CloseOnDrop<T>(Arc<WorkQueue<T>>);

impl<T> std::ops::Deref for CloseOnDrop<T> {
    type Target = WorkQueue<T>;

    fn deref(&self) -> &WorkQueue<T> {
        &self.0
    }
}

impl<T> Drop for CloseOnDrop<T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Four consumers, 1 000 pushes, each made once all four are parked
    /// again: every item is delivered exactly once, consumers are not
    /// woken for nothing (one `notify_one` per push, nobody parked on the
    /// lock), and `close` releases all four.
    #[test]
    fn sequential_pushes_wake_one_consumer_each_and_close_releases_all() {
        let queue = WorkQueue::<u32>::new();
        let (taken_tx, taken_rx) = mpsc::channel::<u32>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let taken_tx = taken_tx.clone();
                std::thread::spawn(move || {
                    while let Some(item) = queue.pop() {
                        taken_tx.send(item).unwrap();
                    }
                })
            })
            .collect();
        drop(taken_tx);
        let mut seen = Vec::new();
        for item in 0..1000 {
            while queue.lock().parked < 4 {
                std::thread::yield_now();
            }
            queue.push(item);
            seen.push(taken_rx.recv().unwrap());
        }
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        // Not `== 0`: a consumer caught between releasing the lock and
        // going to sleep when the next push comes returns from `wait` at
        // once, next to the one that push woke (seen about once in 30 000
        // pushes on a loaded machine). Workers chained on a lock, or a
        // `notify_all`, would make it 1 000 or more.
        let empty_wakes = queue.lock().empty_wakes;
        assert!(empty_wakes <= 10, "{empty_wakes} empty wake-ups");
        queue.close();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        assert!(taken_rx.recv().is_err(), "no item was delivered twice");
        queue.push(7);
        assert_eq!(queue.pop(), None, "a closed queue drops late pushes");
    }

    #[test]
    fn queued_items_survive_close_and_the_guard_closes_on_drop() {
        let queue = WorkQueue::<u32>::new();
        queue.push(1);
        queue.push(2);
        drop(Arc::clone(&queue).close_on_drop());
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
    }
}
