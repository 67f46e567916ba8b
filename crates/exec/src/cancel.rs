//! Cooperative cancellation: a shared token checked at morsel boundaries.
//!
//! Ranked enumeration is an *anytime* algorithm — the whole point is that
//! the caller can stop whenever the answers so far are enough. A
//! [`CancelToken`] turns that into a server-side contract: it carries an
//! optional **deadline** (absolute instant, covering preprocessing *and*
//! every later fetch on the cursor) and an **external cancel flag** (set by
//! a `CANCEL` request racing the work from another thread). Kernels poll
//! [`CancelToken::check`] at morsel/pass/bag boundaries, so an abort takes
//! effect within one unit of work and unwinds through the ordinary `Result`
//! error path — no thread is ever killed, no lock is poisoned, partial
//! state is dropped by plain RAII.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a computation was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The token's deadline passed.
    Deadline,
    /// [`CancelToken::cancel`] was called (e.g. a protocol `CANCEL`).
    Explicit,
}

impl CancelKind {
    /// Stable machine-readable label (the wire-protocol error code).
    pub fn code(self) -> &'static str {
        match self {
            CancelKind::Deadline => "deadline_exceeded",
            CancelKind::Explicit => "cancelled",
        }
    }
}

impl std::fmt::Display for CancelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelKind::Deadline => write!(f, "query deadline exceeded"),
            CancelKind::Explicit => write!(f, "cancelled by client request"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheaply clonable cancellation handle (all clones share one state).
///
/// ```
/// use re_exec::{CancelKind, CancelToken};
///
/// let token = CancelToken::unbounded();
/// assert_eq!(token.check(), Ok(()));
/// token.cancel();
/// assert_eq!(token.check(), Err(CancelKind::Explicit));
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline that only trips on [`CancelToken::cancel`].
    pub fn unbounded() -> Self {
        CancelToken::new(None)
    }

    /// A token whose deadline is `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken::new(Some(timeout))
    }

    /// A token with an optional deadline `timeout` from now.
    pub fn new(timeout: Option<Duration>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.map(|t| Instant::now() + t),
            }),
        }
    }

    /// Trip the external cancel flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Poll the token: `Ok` to keep working, `Err(kind)` to unwind. An
    /// explicit cancel takes precedence over a simultaneously-passed
    /// deadline (the client asked first).
    pub fn check(&self) -> Result<(), CancelKind> {
        self.check_with(Instant::now)
    }

    /// [`CancelToken::check`] against a clock reading the caller already
    /// took, for loops that time every iteration anyway.
    pub fn check_at(&self, now: Instant) -> Result<(), CancelKind> {
        self.check_with(|| now)
    }

    /// The clock is read only when there is a deadline to hold it against.
    fn check_with(&self, now: impl FnOnce() -> Instant) -> Result<(), CancelKind> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(CancelKind::Explicit);
        }
        match self.inner.deadline {
            Some(d) if now() >= d => Err(CancelKind::Deadline),
            _ => Ok(()),
        }
    }

    /// Whether the token has tripped (either way).
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_trips_on_its_own() {
        let t = CancelToken::unbounded();
        assert_eq!(t.check(), Ok(()));
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::unbounded();
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.check(), Err(CancelKind::Explicit));
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_trips_after_the_timeout() {
        let t = CancelToken::with_deadline(Duration::from_millis(20));
        assert_eq!(t.check(), Ok(()));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(t.check(), Err(CancelKind::Deadline));
    }

    #[test]
    fn check_at_holds_the_deadline_against_the_callers_clock_reading() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let now = Instant::now();
        assert_eq!(t.check_at(now), Ok(()));
        assert_eq!(
            t.check_at(now + Duration::from_secs(7200)),
            Err(CancelKind::Deadline)
        );
        assert_eq!(t.check(), Ok(()), "the real clock has not moved");
        t.cancel();
        assert_eq!(t.check_at(now), Err(CancelKind::Explicit));
    }

    #[test]
    fn explicit_cancel_wins_over_a_passed_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        t.cancel();
        assert_eq!(t.check(), Err(CancelKind::Explicit));
    }

    #[test]
    fn kinds_have_stable_codes() {
        assert_eq!(CancelKind::Deadline.code(), "deadline_exceeded");
        assert_eq!(CancelKind::Explicit.code(), "cancelled");
    }
}
