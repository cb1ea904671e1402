//! Cooperative cancellation for the query lifecycle.
//!
//! A [`CancelToken`] is the one-bit contract between whoever decides a
//! query must stop (a deadline monitor, `HdmServer::shutdown`, an
//! explicit kill) and every layer that does the work (the stage
//! scheduler, engine task supervisors, the MPI
//! simulator's receive loops). The contract is *cooperative*: firing the
//! token never interrupts anything — each layer polls at its own safe
//! points and unwinds by returning [`HdmError::Cancelled`].
//!
//! Polling is poll-cheap by construction: [`CancelToken::is_cancelled`]
//! is a single relaxed atomic load, the same discipline as
//! `hdm-faults`' disabled path, so un-cancelled hot loops pay nothing
//! measurable. The reason string and fire timestamp live behind a mutex
//! that is only touched when the token actually fires.

use crate::error::{HdmError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct TokenState {
    fired: AtomicBool,
    /// Why and when the token fired; written once, under the mutex.
    detail: Mutex<Option<(String, Instant)>>,
}

/// A cheaply clonable cooperative cancellation flag.
///
/// The default token is *never fired* and can be polled forever for the
/// cost of one relaxed load — code paths that do not participate in
/// cancellation just thread the default through.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Has the token fired? One relaxed atomic load — safe to call on
    /// per-record hot paths.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.fired.load(Ordering::Relaxed)
    }

    /// Fire the token. The first call's reason and timestamp win;
    /// repeats are no-ops (idempotent, so a deadline monitor and a
    /// shutdown sweep can race benignly).
    pub fn cancel(&self, reason: &str) {
        let mut detail = self
            .inner
            .detail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if detail.is_none() {
            *detail = Some((reason.to_string(), Instant::now()));
            // Release pairs with nothing: the flag is advisory and the
            // reason is read back under the same mutex, so relaxed is
            // enough — but store after the detail write so a poller that
            // sees the flag finds the reason populated.
            self.inner.fired.store(true, Ordering::Release);
        }
    }

    /// The reason the token fired, or a generic fallback. Only
    /// meaningful once [`Self::is_cancelled`] returns true.
    pub fn reason(&self) -> String {
        self.inner
            .detail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|(r, _)| r.clone())
            .unwrap_or_else(|| "cancelled".to_string())
    }

    /// Milliseconds elapsed since the token fired — the cancel latency
    /// when sampled at the moment a cancelled query unwinds. `None`
    /// until the token fires.
    pub fn fired_elapsed_ms(&self) -> Option<u64> {
        self.inner
            .detail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|(_, at)| at.elapsed().as_millis() as u64)
    }

    /// The [`HdmError::Cancelled`] this token unwinds with.
    pub fn as_error(&self) -> HdmError {
        HdmError::Cancelled(self.reason())
    }

    /// `Err(Cancelled)` if fired, `Ok(())` otherwise — the one-liner for
    /// safe-point checks: `token.bail_if_cancelled()?;`.
    #[inline]
    pub fn bail_if_cancelled(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(self.as_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.bail_if_cancelled().is_ok());
        assert!(t.fired_elapsed_ms().is_none());
    }

    #[test]
    fn first_cancel_reason_wins_and_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel("deadline exceeded");
        t.cancel("second reason loses");
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), "deadline exceeded");
        let err = c.bail_if_cancelled().unwrap_err();
        assert_eq!(err.subsystem(), "cancelled");
        assert!(err.message().contains("deadline exceeded"));
        assert!(c.fired_elapsed_ms().is_some());
    }
}
