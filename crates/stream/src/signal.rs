//! Process signals for the long-running binaries (`hpc-watch`,
//! `hpc-fleetd`): the handler only sets a flag, the main loop polls it.
//!
//! SIGINT/SIGTERM request a graceful drain; SIGUSR1, where the caller
//! asked for it, requests a flight-recorder dump without stopping.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(target_os = "macos")]
const SIGUSR1: i32 = 30;
#[cfg(not(target_os = "macos"))]
const SIGUSR1: i32 = 10;

extern "C" fn on_signal(signum: i32) {
    if signum == SIGUSR1 {
        DUMP_REQUESTED.store(true, Ordering::SeqCst);
    } else {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
}

/// Catches SIGINT and SIGTERM, and SIGUSR1 too when `catch_usr1` — left
/// alone, SIGUSR1 keeps its default action (terminate).
#[cfg(unix)]
pub fn install(catch_usr1: bool) {
    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the libc function with this signature, and
    // `on_signal` only stores to atomics, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
        if catch_usr1 {
            signal(SIGUSR1, on_signal);
        }
    }
}

/// No signals to catch off unix; the flags simply never set.
#[cfg(not(unix))]
pub fn install(_catch_usr1: bool) {}

/// True once SIGINT or SIGTERM arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// True once per SIGUSR1 (or burst of them): reading clears the request.
pub fn take_dump_request() -> bool {
    DUMP_REQUESTED.swap(false, Ordering::SeqCst)
}
