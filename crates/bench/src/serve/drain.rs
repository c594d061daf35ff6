//! Shutdown signaling and the drain state machine.
//!
//! The daemon moves through three states:
//!
//! ```text
//! SERVING ──SIGTERM / SIGINT / POST /admin/drain──▶ DRAINING ──queue empty,
//!    │                                                 │        workers idle,
//!    │ /readyz 200                                     │        replies written
//!    ▼                                                 ▼
//!  accept + admit                            /readyz 503, admit nothing,
//!                                            finish admitted work   ──▶ EXIT 0
//! ```
//!
//! Signals only flip an `AtomicBool` (the only async-signal-safe thing a
//! handler may do); the accept loop polls it and then calls
//! `ServiceState::begin_drain`. `POST /admin/drain` calls `begin_drain`
//! itself, so its `200` is sent only after admission has closed.
//! Installation uses a raw `signal(2)` FFI declaration because the
//! workspace is offline — no `libc` crate — and is `#[cfg(unix)]`-gated;
//! elsewhere only `POST /admin/drain` triggers a drain.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; polled by the accept loop. Process-global
/// because signal handlers cannot carry state.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a shutdown has been requested by signal.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that flip the shutdown flag. Safe to
/// call more than once.
#[cfg(unix)]
pub fn install_signal_handlers() {
    // No libc crate in the vendored workspace; declare the two symbols we
    // need. SIG_ERR (usize::MAX) is ignored — failing to install a handler
    // degrades to "drain via /admin/drain only", never to a crash.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// Non-unix fallback: signals are unavailable; `POST /admin/drain` remains
/// the drain trigger.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}
