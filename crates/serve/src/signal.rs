//! Minimal SIGINT/SIGTERM hookup without a signal crate.
//!
//! `std` already links libc, so the classic `signal(2)` entry point is
//! available to declare directly. The handler does the only
//! async-signal-safe thing we need: store to a static [`AtomicBool`]
//! that the serve loop polls between requests.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub fn sigpipe(ignore: bool) {
        unsafe {
            signal(SIGPIPE, if ignore { SIG_IGN } else { SIG_DFL });
        }
    }
}

#[cfg(not(unix))]
mod imp {
    // No portable std-only hook here; ctrl-c simply terminates the
    // process, which is acceptable for the non-unix fallback.
    pub fn install() {}
    pub fn sigpipe(_ignore: bool) {}
}

/// Route SIGINT and SIGTERM into [`shutdown_requested`]. Idempotent.
pub fn install() {
    imp::install();
}

/// Whether a shutdown signal has arrived since [`install`].
pub fn shutdown_requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Restore the default SIGPIPE disposition (std ignores it at startup),
/// so a CLI writing into a closed pipe (`hms list | head`) dies quietly
/// like any unix tool instead of panicking on the write error.
pub fn sigpipe_default() {
    imp::sigpipe(false);
}

/// Ignore SIGPIPE again — the server's requirement: a peer closing
/// mid-write must surface as an `io::Error`, never kill the process.
pub fn sigpipe_ignore() {
    imp::sigpipe(true);
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn raise_sigterm_sets_flag() {
        install();
        // No "flag starts clear" precondition: the flag is a process-wide
        // static that other tests in this binary may already have set.
        unsafe {
            raise(15);
        }
        assert!(shutdown_requested());
    }
}
