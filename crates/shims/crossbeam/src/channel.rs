//! Multi-producer multi-consumer channels with bounded capacity,
//! disconnect-aware blocking, and a select facility.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

/// A waker shared between a [`Select`] session and the channels it watches:
/// a generation counter bumped on every event of interest.
pub(crate) struct Waker {
    gen: Mutex<u64>,
    cond: Condvar,
}

impl Waker {
    fn new() -> Arc<Self> {
        Arc::new(Waker {
            gen: Mutex::new(0),
            cond: Condvar::new(),
        })
    }

    fn generation(&self) -> u64 {
        *self.gen.lock().unwrap()
    }

    fn wake(&self) {
        *self.gen.lock().unwrap() += 1;
        self.cond.notify_all();
    }

    /// Wait until the generation moves past `seen` (bounded by a timeout so
    /// a missed edge can never wedge the caller).
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let mut g = self.gen.lock().unwrap();
        while *g == seen {
            let (guard, res) = self.cond.wait_timeout(g, timeout).unwrap();
            g = guard;
            if res.timed_out() {
                break;
            }
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    receivers: usize,
    /// Select sessions to poke whenever a message arrives or the channel
    /// disconnects.
    wakers: Vec<Arc<Waker>>,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Inner<T> {
    fn wake_selects(state: &mut State<T>) {
        state.wakers.retain(|w| {
            w.wake();
            // Keep only wakers still externally referenced (their Select
            // session holds the other strong count).
            Arc::strong_count(w) > 1
        });
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Create a channel holding at most `cap` queued messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let cap = cap.max(1);
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            wakers: Vec::new(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Send a message, blocking while the channel is full. Fails only when
    /// every receiver has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            if state.queue.len() < state.cap {
                state.queue.push_back(msg);
                Inner::wake_selects(&mut state);
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self.inner.not_full.wait(state).unwrap();
        }
    }

    /// Number of currently queued messages (sender-side occupancy gauge).
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            Inner::wake_selects(&mut state);
            drop(state);
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive a message, blocking while the channel is empty. Fails only
    /// when the channel is drained and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.inner.not_empty.wait(state).unwrap();
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.inner.state.lock().unwrap();
        if let Some(msg) = state.queue.pop_front() {
            drop(state);
            self.inner.not_full.notify_one();
            return Ok(msg);
        }
        if state.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Number of currently queued messages.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register_waker(&self, w: &Arc<Waker>) {
        self.inner.state.lock().unwrap().wakers.push(Arc::clone(w));
    }

    fn unregister_waker(&self, w: &Arc<Waker>) {
        self.inner
            .state
            .lock()
            .unwrap()
            .wakers
            .retain(|x| !Arc::ptr_eq(x, w));
    }

    /// A message (or disconnect) is observable right now.
    fn is_ready(&self) -> bool {
        let state = self.inner.state.lock().unwrap();
        !state.queue.is_empty() || state.senders == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().receivers += 1;
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.inner.not_full.notify_all();
        }
    }
}

/// Dyn-compatible view of a receiver used by [`Select`].
trait SelectHandle {
    fn register(&self, w: &Arc<Waker>);
    fn unregister(&self, w: &Arc<Waker>);
    fn ready(&self) -> bool;
}

impl<T> SelectHandle for Receiver<T> {
    fn register(&self, w: &Arc<Waker>) {
        self.register_waker(w);
    }
    fn unregister(&self, w: &Arc<Waker>) {
        self.unregister_waker(w);
    }
    fn ready(&self) -> bool {
        self.is_ready()
    }
}

/// Waits over any number of receive operations, crossbeam-style: register
/// the receivers, block in [`Select::ready`] until one of them has a
/// message or is disconnected, then complete it with
/// [`Receiver::try_recv`]:
///
/// ```
/// use crossbeam::channel::{bounded, Select, TryRecvError};
/// let (tx_a, rx_a) = bounded::<u32>(1);
/// let (tx_b, rx_b) = bounded::<u32>(1);
/// tx_b.send(7).unwrap();
/// drop(tx_a);
/// let mut sel = Select::new();
/// sel.recv(&rx_a);
/// sel.recv(&rx_b);
/// // Either operand may be reported first: `rx_a` is ready because its
/// // sender is gone, `rx_b` because it holds a message.
/// let mut got = Vec::new();
/// for _ in 0..2 {
///     match sel.ready() {
///         0 => assert_eq!(rx_a.try_recv(), Err(TryRecvError::Disconnected)),
///         _ => got.push(rx_b.try_recv().unwrap()),
///     }
/// }
/// assert_eq!(got, vec![7]);
/// ```
pub struct Select<'a> {
    handles: Vec<&'a dyn SelectHandle>,
    waker: Arc<Waker>,
    registered: bool,
    /// Rotates the scan start so no operand starves.
    next_start: usize,
}

impl<'a> Select<'a> {
    /// An empty select session.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Select {
            handles: Vec::new(),
            waker: Waker::new(),
            registered: false,
            next_start: 0,
        }
    }

    /// Add a receive operation; returns its operation index.
    pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
        assert!(
            !self.registered,
            "cannot add operations while select is registered"
        );
        self.handles.push(r);
        self.handles.len() - 1
    }

    /// Block until one operation is ready and return its index.
    pub fn ready(&mut self) -> usize {
        assert!(!self.handles.is_empty(), "select with no operations");
        if !self.registered {
            for h in &self.handles {
                h.register(&self.waker);
            }
            self.registered = true;
        }
        loop {
            let seen = self.waker.generation();
            let n = self.handles.len();
            for off in 0..n {
                let i = (self.next_start + off) % n;
                if self.handles[i].ready() {
                    self.next_start = (i + 1) % n;
                    return i;
                }
            }
            // Timeout bounds the damage of any missed wakeup edge.
            self.waker.wait_past(seen, Duration::from_millis(1));
        }
    }
}

impl Drop for Select<'_> {
    fn drop(&mut self) {
        if self.registered {
            for h in &self.handles {
                h.unregister(&self.waker);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = bounded(2);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_capacity_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || {
            let start = Instant::now();
            tx.send(2).unwrap(); // blocks until the main thread receives
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(t.join().unwrap() >= Duration::from_millis(20));
    }

    #[test]
    fn mpmc_all_messages_arrive_once() {
        let (tx, rx) = bounded(8);
        let mut senders = Vec::new();
        for s in 0..4 {
            let tx = tx.clone();
            senders.push(thread::spawn(move || {
                for i in 0..100 {
                    tx.send(s * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let rx2 = rx.clone();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        got.extend(consumer.join().unwrap());
        for s in senders {
            s.join().unwrap();
        }
        got.sort_unstable();
        let expect: Vec<i32> = (0..4)
            .flat_map(|s| (0..100).map(move |i| s * 1000 + i))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn n_ary_select_drains_all() {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..5 {
            let (tx, rx) = bounded::<usize>(2);
            txs.push(tx);
            rxs.push(rx);
        }
        for (i, tx) in txs.iter().enumerate() {
            tx.send(i).unwrap();
        }
        drop(txs);
        // The operator input driver's loop: rebuild the select over the
        // live receivers, wait in `ready`, complete with `try_recv`.
        let mut seen = Vec::new();
        let mut live: Vec<usize> = (0..rxs.len()).collect();
        while !live.is_empty() {
            let mut sel = Select::new();
            for &i in &live {
                sel.recv(&rxs[i]);
            }
            let pos = sel.ready();
            match rxs[live[pos]].try_recv() {
                Ok(v) => seen.push(v),
                Err(TryRecvError::Disconnected) => {
                    live.remove(pos);
                }
                Err(TryRecvError::Empty) => {}
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
