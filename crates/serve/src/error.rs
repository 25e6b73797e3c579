//! Typed errors for client-reachable serving paths.
//!
//! A serving process must not panic on a request path (lint R6): a bad
//! request, a shut-down pool, or a panicked batch are *runtime
//! conditions a caller can hit*, and each maps to a [`ServeError`]
//! variant the caller can match on. Panics remain only for invariants
//! that are established at construction and cannot be violated by any
//! request — each such site carries a `// PANIC-OK:` justification.

use std::error::Error;
use std::fmt;

/// Why a request could not be accepted or answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submitted window has the wrong number of features.
    WindowLength { got: usize, want: usize },
    /// The head's aux-input requirement does not match the request:
    /// `needs_aux` says what the head expects.
    AuxMismatch { head: &'static str, needs_aux: bool },
    /// The batcher is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Panicked batches spent the restart budget; the batcher rejects
    /// new submissions (accepting requests nobody will answer would
    /// hang the client).
    Poisoned,
    /// Serving this request's batch panicked. The worker caught the
    /// panic and kept serving; this request got no answer.
    WorkerDied,
    /// The admission queue is full (`cap` requests waiting): the
    /// batcher sheds load instead of queuing unboundedly. Back off and
    /// retry.
    Overloaded { cap: usize },
    /// The request's deadline passed before a worker could serve it.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WindowLength { got, want } => {
                write!(f, "window has {got} values, engine expects {want}")
            }
            ServeError::AuxMismatch { head, needs_aux } => {
                if *needs_aux {
                    write!(f, "{head:?} head requires an aux scalar, none given")
                } else {
                    write!(f, "{head:?} head takes no aux scalar, one given")
                }
            }
            ServeError::ShuttingDown => write!(f, "batcher is shutting down"),
            ServeError::Poisoned => {
                write!(f, "batcher is dead: a worker thread panicked")
            }
            ServeError::WorkerDied => {
                write!(f, "batcher worker died before answering")
            }
            ServeError::Overloaded { cap } => {
                write!(f, "batcher queue is full ({cap} requests waiting)")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before a worker claimed it")
            }
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::WindowLength { got: 3, want: 96 };
        assert!(e.to_string().contains('3') && e.to_string().contains("96"));
        let e = ServeError::AuxMismatch {
            head: "mct",
            needs_aux: true,
        };
        assert!(e.to_string().contains("mct"));
        assert!(ServeError::Poisoned.to_string().contains("panicked"));
    }
}
