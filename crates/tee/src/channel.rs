//! A type-enforced one-way REE→TEE channel.
//!
//! The paper's second design requirement is a *one-way context switch*: data
//! may flow from the rich world into the secure world, never back (apart from
//! the final classification result, which is returned to the user by the TA
//! itself). Here the direction is enforced by the type system: the REE holds
//! a [`ReeSender`], which has no receive method, and the TEE holds a
//! [`TeeReceiver`], which has no send method. There is no way to construct
//! the reverse pair.
//!
//! [`one_way_bounded`] creates the pair over capacity-limited shared memory:
//! [`ReeSender::send`] blocks when the secure world falls behind
//! (backpressure instead of unbounded queue growth), and
//! [`ReeSender::send_timeout`] / [`TeeReceiver::recv_timeout`] bound every
//! wait so a stalled or crashed peer is detected instead of hung on. The
//! concurrent serving runtime sizes it for pipelining; the single-threaded
//! `deploy::run_split_inference` sends every payload before it receives
//! any, so it sizes the channel to hold them all.
//!
//! Endpoint drops are tracked: once every sender is gone the receiver gets
//! [`RecvError::Disconnected`] after draining the queue, and once the
//! receiver is gone senders get their payload back as
//! [`SendError::Disconnected`] — the serving runtime's crash detection is
//! built on exactly this distinction.
//!
//! The channel also keeps transfer statistics ([`ChannelStats`]) so the
//! deployment executor can account world switches and bytes moved.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Cumulative traffic statistics of a one-way channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Number of messages sent (each models one world-switch invocation).
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Deepest the shared-memory queue has ever been (backpressure
    /// indicator: a high-water mark at the capacity
    /// means the secure world was the bottleneck).
    pub high_water: u64,
    /// Payloads that never made it into the queue: rejected by
    /// [`ReeSender::try_send`] on a full channel, abandoned by a timed-out
    /// [`ReeSender::send_timeout`], or refused because the receiver was
    /// dropped.
    pub dropped: u64,
}

/// Why a send did not deliver. The payload is handed back so the rich world
/// can retry, reroute or degrade without recomputing it.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The channel stayed full past the allowed wait. The secure world is
    /// stalled or overloaded.
    TimedOut(T),
    /// The receiver endpoint was dropped; nothing will ever drain the queue.
    Disconnected(T),
}

impl<T> SendError<T> {
    /// Recovers the undelivered payload.
    pub fn into_inner(self) -> T {
        match self {
            SendError::TimedOut(v) | SendError::Disconnected(v) => v,
        }
    }
}

/// Why a blocking receive returned without a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The queue stayed empty past the allowed wait, but senders still
    /// exist — the rich world is slow, not gone.
    TimedOut,
    /// The queue is empty and every sender has been dropped; no payload can
    /// ever arrive.
    Disconnected,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<(T, usize)>,
    stats: ChannelStats,
    senders: usize,
    receiver_alive: bool,
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Capacity of the shared-memory region, in payloads.
    cap: usize,
    /// Signalled when a payload is enqueued or the last sender drops.
    not_empty: Condvar,
    /// Signalled when a payload is dequeued or the receiver drops.
    not_full: Condvar,
}

/// Locks the state, recovering from poisoning: a panicking serving-runtime
/// thread (e.g. an injected TEE consumer crash) must not wedge the channel
/// for its peers — the state transitions are all single-assignment safe.
fn lock<T>(shared: &Shared<T>) -> MutexGuard<'_, State<T>> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The REE endpoint: send-only.
#[derive(Debug)]
pub struct ReeSender<T> {
    shared: Arc<Shared<T>>,
}

/// The TEE endpoint: receive-only.
#[derive(Debug)]
pub struct TeeReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a one-way channel whose shared-memory queue holds at most `cap`
/// payloads (`cap` ≥ 1). A full channel blocks [`ReeSender::send`] and
/// rejects [`ReeSender::try_send`] — the rich world experiences backpressure
/// rather than growing the queue without bound.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tbnet_tee::channel::{one_way_bounded, SendError};
///
/// let (tx, rx) = one_way_bounded::<u32>(1);
/// tx.send(1, 4);
/// // Queue full: a bounded wait reports the stall and returns the payload.
/// match tx.send_timeout(2, 4, Duration::from_millis(1)) {
///     Err(SendError::TimedOut(v)) => assert_eq!(v, 2),
///     other => panic!("expected timeout, got {other:?}"),
/// }
/// assert_eq!(rx.recv(), Some(1));
/// assert_eq!(rx.stats().dropped, 1);
/// ```
pub fn one_way_bounded<T>(cap: usize) -> (ReeSender<T>, TeeReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            stats: ChannelStats::default(),
            senders: 1,
            receiver_alive: true,
        }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        ReeSender {
            shared: Arc::clone(&shared),
        },
        TeeReceiver { shared },
    )
}

impl<T> ReeSender<T> {
    fn push(state: &mut State<T>, shared: &Shared<T>, value: T, bytes: usize) {
        state.stats.messages += 1;
        state.stats.bytes += bytes as u64;
        state.queue.push_back((value, bytes));
        state.stats.high_water = state.stats.high_water.max(state.queue.len() as u64);
        shared.not_empty.notify_one();
    }

    /// Sends a payload into the secure world, recording its size in bytes.
    ///
    /// Blocks until space frees up; if the receiver is dropped the payload
    /// is silently counted as `dropped` (use [`ReeSender::send_timeout`]
    /// when delivery failure must be observed).
    pub fn send(&self, value: T, bytes: usize) {
        let _ = self.send_timeout(value, bytes, Duration::MAX);
    }

    /// Sends without waiting: on a full channel the payload comes
    /// straight back as [`SendError::TimedOut`] and is counted as dropped.
    ///
    /// # Errors
    ///
    /// [`SendError::TimedOut`] when the queue is at capacity,
    /// [`SendError::Disconnected`] when the receiver is gone.
    pub fn try_send(&self, value: T, bytes: usize) -> Result<(), SendError<T>> {
        self.send_timeout(value, bytes, Duration::ZERO)
    }

    /// Sends, waiting at most `timeout` for queue space. Timing out or a
    /// dropped receiver returns the payload to the caller and counts it in
    /// [`ChannelStats::dropped`].
    ///
    /// # Errors
    ///
    /// [`SendError::TimedOut`] when the queue stayed full for the whole
    /// wait, [`SendError::Disconnected`] when the receiver is gone.
    pub fn send_timeout(
        &self,
        value: T,
        bytes: usize,
        timeout: Duration,
    ) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut state = lock(shared);
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if !state.receiver_alive {
                state.stats.dropped += 1;
                return Err(SendError::Disconnected(value));
            }
            if state.queue.len() < shared.cap {
                Self::push(&mut state, shared, value, bytes);
                return Ok(());
            }
            let remaining = match deadline {
                // `Duration::MAX` overflows `checked_add`: wait forever.
                None => Duration::from_secs(3600),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(r) if !r.is_zero() => r,
                    _ => {
                        state.stats.dropped += 1;
                        return Err(SendError::TimedOut(value));
                    }
                },
            };
            state = shared
                .not_full
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> ChannelStats {
        lock(&self.shared).stats
    }
}

impl<T> Clone for ReeSender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).senders += 1;
        ReeSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for ReeSender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared);
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver parked in `recv_timeout` so it can observe the
            // disconnect instead of waiting out its timeout.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> TeeReceiver<T> {
    fn pop(state: &mut State<T>, shared: &Shared<T>) -> Option<T> {
        let item = state.queue.pop_front().map(|(v, _)| v);
        if item.is_some() {
            shared.not_full.notify_one();
        }
        item
    }

    /// Receives the oldest pending payload, if any, without blocking.
    pub fn recv(&self) -> Option<T> {
        let shared = &*self.shared;
        Self::pop(&mut lock(shared), shared)
    }

    /// Blocks until a payload arrives, every sender is gone, or `timeout`
    /// elapses. Pending payloads are always drained before a disconnect is
    /// reported, so nothing sent before a sender crash is lost.
    ///
    /// Parks on a condvar — the TEE consumer thread does not spin while the
    /// rich world computes.
    ///
    /// # Errors
    ///
    /// [`RecvError::TimedOut`] when senders exist but nothing arrived in
    /// time (slow or stalled rich world), [`RecvError::Disconnected`] when
    /// the queue is empty and no sender remains (crashed or finished rich
    /// world) — the two need different recovery, so they are distinct.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut state = lock(shared);
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(v) = Self::pop(&mut state, shared) {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let remaining = match deadline.checked_duration_since(Instant::now()) {
                Some(r) if !r.is_zero() => r,
                _ => return Err(RecvError::TimedOut),
            };
            state = shared
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Number of payloads waiting in the shared-memory queue.
    ///
    /// Racy by design: the value is a point-in-time snapshot that may be
    /// stale before the caller looks at it (senders and the receiver run
    /// concurrently). Use it for monitoring and capacity heuristics, never
    /// for a "will `recv` succeed?" check — that is what
    /// [`TeeReceiver::recv_timeout`]'s result is for.
    pub fn pending(&self) -> usize {
        lock(&self.shared).queue.len()
    }

    /// Whether at least one sender endpoint is still alive. Like
    /// [`TeeReceiver::pending`], a racy snapshot.
    pub fn is_connected(&self) -> bool {
        lock(&self.shared).senders > 0
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> ChannelStats {
        lock(&self.shared).stats
    }
}

impl<T> Drop for TeeReceiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared);
        state.receiver_alive = false;
        // Senders blocked on a full queue must fail over, not wait forever.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = one_way_bounded::<u32>(2);
        tx.send(1, 4);
        tx.send(2, 4);
        assert_eq!(rx.pending(), 2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn stats_accumulate() {
        let (tx, rx) = one_way_bounded::<Vec<u8>>(2);
        tx.send(vec![0; 10], 10);
        tx.send(vec![0; 20], 20);
        let s = rx.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 30);
        assert_eq!(s.high_water, 2);
        assert_eq!(s.dropped, 0);
        assert_eq!(tx.stats(), s);
    }

    #[test]
    fn works_across_threads() {
        let (tx, rx) = one_way_bounded::<usize>(100);
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i, 8);
            }
        });
        handle.join().unwrap();
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    /// Compile-time property (documented here): `TeeReceiver` has no `send`
    /// and `ReeSender` has no `recv`, so reverse traffic cannot be written.
    #[test]
    fn endpoints_are_direction_typed() {
        fn sender_only_api<T>(_s: &ReeSender<T>) {}
        fn receiver_only_api<T>(_r: &TeeReceiver<T>) {}
        let (tx, rx) = one_way_bounded::<()>(1);
        sender_only_api(&tx);
        receiver_only_api(&rx);
    }

    #[test]
    fn bounded_rejects_and_counts_drops() {
        let (tx, rx) = one_way_bounded::<u32>(2);
        tx.try_send(1, 4).unwrap();
        tx.try_send(2, 4).unwrap();
        match tx.try_send(3, 4) {
            Err(SendError::TimedOut(v)) => assert_eq!(v, 3),
            other => panic!("expected full-channel rejection, got {other:?}"),
        }
        let s = tx.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.high_water, 2);
        assert_eq!(rx.recv(), Some(1));
        // Space freed: the next try_send goes through.
        tx.try_send(3, 4).unwrap();
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = one_way_bounded::<u32>(1);
        tx.send(1, 4);
        let handle = std::thread::spawn(move || {
            // Blocks until the receiver below drains the queue.
            tx.send(2, 4);
            tx.stats()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        let stats = handle.join().unwrap();
        assert_eq!(stats.messages, 2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_disconnect() {
        let (tx, rx) = one_way_bounded::<u32>(4);
        // Sender alive, queue empty: a bounded wait times out.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::TimedOut)
        );
        tx.send(7, 4);
        drop(tx);
        // Pending payloads drain before the disconnect is reported.
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Disconnected)
        );
        assert!(!rx.is_connected());
    }

    #[test]
    fn recv_wakes_on_sender_drop() {
        let (tx, rx) = one_way_bounded::<u32>(1);
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        // The receiver parks for up to 10 s but must wake as soon as the
        // last sender drops, not wait out the timeout.
        let r = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(r, Err(RecvError::Disconnected));
        assert!(t0.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn send_fails_fast_when_receiver_dropped() {
        let (tx, rx) = one_way_bounded::<u32>(1);
        drop(rx);
        match tx.send_timeout(1, 4, Duration::from_secs(10)) {
            Err(SendError::Disconnected(v)) => assert_eq!(v, 1),
            other => panic!("expected disconnect, got {other:?}"),
        }
        assert_eq!(tx.stats().dropped, 1);
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_drop() {
        let (tx, rx) = one_way_bounded::<u32>(1);
        tx.send(1, 4);
        let handle = std::thread::spawn(move || tx.send_timeout(2, 4, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(rx);
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(SendError::Disconnected(2))));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cloned_senders_all_count() {
        let (tx, rx) = one_way_bounded::<u32>(2);
        let tx2 = tx.clone();
        tx.send(1, 4);
        tx2.send(2, 4);
        drop(tx);
        assert!(rx.is_connected());
        drop(tx2);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn high_water_tracks_backpressure() {
        let (tx, rx) = one_way_bounded::<u32>(3);
        for i in 0..3 {
            tx.send(i, 4);
        }
        for _ in 0..3 {
            rx.recv();
        }
        tx.send(9, 4);
        let s = rx.stats();
        assert_eq!(s.high_water, 3, "deepest fill was the full capacity");
        assert_eq!(s.messages, 4);
    }
}
