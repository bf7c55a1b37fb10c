//! Offline stand-in for `crossbeam`: only `crossbeam::channel`, as a
//! multi-producer multi-consumer queue under one mutex and two condition
//! variables. Same disconnect rules as crossbeam: `send` fails once every
//! receiver is gone, `recv` fails once the queue is empty and every sender
//! is gone. `bounded(0)` is not a rendezvous here; it holds one message.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        // No user code runs under this lock, so poisoning cannot leave the
        // queue half-updated.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

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
    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}
    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }
    impl std::error::Error for TryRecvError {}
    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }
    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.0.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self
                            .0
                            .not_full
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let value = st.queue.pop_front()?;
            if self.0.capacity.is_some() {
                self.0.not_full.notify_one();
            }
            Some(value)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match self.pop(&mut st) {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.not_full.notify_all();
            }
        }
    }
}
