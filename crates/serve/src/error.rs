//! Typed client-facing service errors.

/// Why the service refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full (backpressure). Retry after roughly
    /// the given number of broadcast ticks — the scheduler's estimate
    /// of when the budgeted admission will have worked the queue down.
    QueueFull {
        /// Suggested retry delay in broadcast ticks.
        retry_after_ticks: u64,
    },
    /// The service is draining: it still answers everything already
    /// admitted, but accepts no new work.
    Draining,
    /// The service has fully stopped.
    Stopped,
    /// The host id exceeds the world's fleet capacity.
    HostOutOfRange {
        /// The offending host id.
        host: usize,
        /// Fleet capacity (maximum host id + 1).
        capacity: usize,
    },
    /// The host has no open session (register first).
    UnknownSession {
        /// The offending host id.
        host: usize,
    },
    /// A lockstep service requires every submission to carry a
    /// [`crate::QueryTag`]; a scaled-time service stamps its own and
    /// rejects tagged submissions.
    TagMismatch,
    /// The request can never be answered: a non-finite position or
    /// heading, a kNN query for zero neighbors, or a window that is not
    /// a finite, non-inverted rectangle.
    InvalidRequest {
        /// What is wrong with the request.
        reason: &'static str,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { retry_after_ticks } => {
                write!(f, "admission queue full; retry after ~{retry_after_ticks} ticks")
            }
            ServeError::Draining => write!(f, "service is draining"),
            ServeError::Stopped => write!(f, "service has stopped"),
            ServeError::HostOutOfRange { host, capacity } => {
                write!(f, "host {host} out of range (fleet capacity {capacity})")
            }
            ServeError::UnknownSession { host } => {
                write!(f, "host {host} has no open session")
            }
            ServeError::TagMismatch => {
                write!(f, "submission tag does not match the service's pacing mode")
            }
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}
