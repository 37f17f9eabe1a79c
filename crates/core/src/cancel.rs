//! Cooperative cancellation for long-running releases.
//!
//! A release is dominated by `f_M` verification calls, each a full pass
//! over the dataset's population bitmaps — seconds of work for the larger
//! schemas. A serving layer that has already timed a request out (or whose
//! client hung up) must be able to stop that work *between* verification
//! calls without poisoning shared state: the verifier's memo cache, the
//! cursor and the session remain valid after a cancelled release, and the
//! caller can refund the release's reserved privacy budget knowing no
//! private draw was published.
//!
//! [`CancelToken`] is the signal: a cheaply clonable handle combining an
//! explicit cancel flag with an optional deadline. The [`Verifier`] checks
//! it before every *fresh* evaluation (cache hits are near-free and never
//! blocked), and every release algorithm checks it once per search step, so
//! cancellation latency is bounded by one verification call or one step of
//! memoized replays — exactly the granularity the cost model says matters.
//!
//! [`Verifier`]: crate::Verifier

use crate::{PcorError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheaply clonable cancellation signal: an explicit flag plus an
/// optional deadline. All clones observe the same flag.
///
/// ```
/// use pcor_core::cancel::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// assert!(watcher.check().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only trips on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken { inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: None }) }
    }

    /// A token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: Some(deadline) }),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn deadline_after(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trips the token. Idempotent; all clones observe the trip.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token was explicitly cancelled (deadline expiry alone
    /// does not set this — see [`CancelToken::deadline_exceeded`]).
    pub fn cancel_requested(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Whether the token has a deadline and it has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The token's deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether work under this token should stop: explicitly cancelled or
    /// past the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_requested() || self.deadline_exceeded()
    }

    /// The cooperative checkpoint: `Ok(())` while work may continue,
    /// [`PcorError::Cancelled`] once it must stop.
    ///
    /// # Errors
    /// [`PcorError::Cancelled`] when the token is cancelled or its
    /// deadline has passed.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(PcorError::Cancelled)
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancellation_trips_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.check().is_ok());
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.cancel_requested());
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(), Err(PcorError::Cancelled));
        // Idempotent.
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadlines_trip_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.deadline_exceeded());
        assert!(!token.cancel_requested());
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(PcorError::Cancelled));

        let future = CancelToken::deadline_after(Duration::from_secs(3600));
        assert!(!future.deadline_exceeded());
        assert!(future.deadline().is_some());
        assert!(future.check().is_ok());
    }

    #[test]
    fn tokens_without_deadlines_never_expire() {
        let token = CancelToken::default();
        assert!(token.deadline().is_none());
        assert!(!token.deadline_exceeded());
        assert!(token.check().is_ok());
    }
}
