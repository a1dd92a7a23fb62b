//! Engine-wide error type.

use std::fmt;

/// Convenient result alias used across all sparkline crates.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors raised by the different stages of query processing.
///
/// The variants mirror the pipeline of the paper's Figure 2: parsing,
/// analysis (resolution), planning/optimization, and execution, plus a
/// catch-all for internal invariant violations and the benchmark harness's
/// query timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The SQL text could not be tokenized or parsed. The `position` is a
    /// byte offset into the query string, when known.
    Parse {
        /// Human-readable description of the syntax problem.
        message: String,
        /// Byte offset into the query text, when known.
        position: Option<usize>,
    },
    /// The analyzer could not resolve an identifier, a type, or an
    /// aggregate (e.g. unknown column, ambiguous reference).
    Analysis(String),
    /// Logical or physical planning failed (e.g. unsupported plan shape).
    Plan(String),
    /// A runtime failure during execution (e.g. arithmetic on incompatible
    /// values that slipped past analysis, division by zero).
    Execution(String),
    /// The query exceeded the configured wall-clock timeout (the paper's
    /// experiments use a 3600 s timeout; the harness scales this down).
    Timeout {
        /// Wall-clock time spent before aborting, in milliseconds.
        elapsed_ms: u64,
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// A reservation was denied because it would push the sum of the
    /// query's concurrent reservations past its configured
    /// `memory_budget`. Near a query's peak, whether it is raised depends
    /// on how the executors' reservations interleave. The query fails
    /// with it on its one run; nothing re-runs a denied query.
    ResourceExhausted {
        /// Bytes the denied reservation asked for.
        requested: usize,
        /// Bytes already reserved when the request was denied.
        used: usize,
        /// The per-query budget, in bytes.
        budget: usize,
    },
    /// The query was cancelled via its [`QueryControl`] handle
    /// (`SessionContext::cancel`).
    ///
    /// [`QueryControl`]: crate::control::QueryControl
    Cancelled,
    /// An internal invariant was violated; indicates a bug in the engine.
    Internal(String),
}

impl Error {
    /// Shorthand for a parse error without position information.
    pub fn parse(message: impl Into<String>) -> Self {
        Error::Parse {
            message: message.into(),
            position: None,
        }
    }

    /// Shorthand for a parse error at a byte offset.
    pub fn parse_at(message: impl Into<String>, position: usize) -> Self {
        Error::Parse {
            message: message.into(),
            position: Some(position),
        }
    }

    /// Shorthand for an analysis error.
    pub fn analysis(message: impl Into<String>) -> Self {
        Error::Analysis(message.into())
    }

    /// Shorthand for a planning error.
    pub fn plan(message: impl Into<String>) -> Self {
        Error::Plan(message.into())
    }

    /// Shorthand for an execution error.
    pub fn execution(message: impl Into<String>) -> Self {
        Error::Execution(message.into())
    }

    /// Shorthand for an internal error.
    pub fn internal(message: impl Into<String>) -> Self {
        Error::Internal(message.into())
    }

    /// Whether this error is the harness timeout marker.
    pub fn is_timeout(&self) -> bool {
        matches!(self, Error::Timeout { .. })
    }

    /// Whether this error is a memory-budget denial.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, Error::ResourceExhausted { .. })
    }

    /// Whether this error is the cancellation marker.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Error::Cancelled)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { message, position } => match position {
                Some(p) => write!(f, "parse error at byte {p}: {message}"),
                None => write!(f, "parse error: {message}"),
            },
            Error::Analysis(m) => write!(f, "analysis error: {m}"),
            Error::Plan(m) => write!(f, "planning error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Timeout {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "query timed out after {elapsed_ms} ms (limit {limit_ms} ms)"
            ),
            Error::ResourceExhausted {
                requested,
                used,
                budget,
            } => write!(
                f,
                "memory budget exhausted: requested {requested} bytes with \
                 {used} of {budget} already reserved"
            ),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Internal(m) => write!(f, "internal error (engine bug): {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            Error::parse("bad token").to_string(),
            "parse error: bad token"
        );
        assert_eq!(
            Error::parse_at("bad token", 7).to_string(),
            "parse error at byte 7: bad token"
        );
        assert!(Error::analysis("x").to_string().contains("analysis"));
        assert!(Error::plan("x").to_string().contains("planning"));
        assert!(Error::execution("x").to_string().contains("execution"));
        assert!(Error::internal("x").to_string().contains("bug"));
    }

    #[test]
    fn error_kind_predicates() {
        let exhausted = Error::ResourceExhausted {
            requested: 100,
            used: 900,
            budget: 1000,
        };
        assert!(exhausted.is_resource_exhausted());
        assert!(!exhausted.is_cancelled() && !exhausted.is_timeout());
        assert!(exhausted.to_string().contains("900 of 1000"));
        assert!(Error::Cancelled.is_cancelled());
        assert!(!Error::Cancelled.is_resource_exhausted() && !Error::Cancelled.is_timeout());
        for other in [
            Error::parse("x"),
            Error::execution("x"),
            Error::internal("x"),
        ] {
            assert!(
                !other.is_resource_exhausted() && !other.is_cancelled() && !other.is_timeout(),
                "{other}"
            );
        }
    }

    #[test]
    fn timeout_detection() {
        let t = Error::Timeout {
            elapsed_ms: 1000,
            limit_ms: 500,
        };
        assert!(t.is_timeout());
        assert!(!Error::parse("x").is_timeout());
        assert!(t.to_string().contains("1000 ms"));
    }
}
