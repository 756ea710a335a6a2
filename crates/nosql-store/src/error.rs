//! Error type shared by every store operation.

use std::fmt;

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors returned by the cluster API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named table does not exist.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// The schema passed to `create_table` declares no column family.
    NoColumnFamilies(String),
    /// The named column family is not declared in the table schema.
    UnknownColumnFamily {
        /// Table being accessed.
        table: String,
        /// Family that was requested.
        family: String,
    },
    /// A mutation carried no cells.
    EmptyMutation,
    /// A scan requested an invalid key range (start > stop).
    InvalidRange,
    /// The region server hosting the addressed key is down (injected
    /// region-server crash; the server comes back after its simulated MTTR).
    /// Retryable: re-routing/backing off succeeds once the server restarts.
    RegionUnavailable {
        /// Index of the crashed region server.
        server: usize,
    },
    /// The operation's RPC timed out (injected network fault).  Retryable:
    /// the op was not applied, so a fresh attempt is safe.
    RpcTimeout {
        /// Index of the region server the timed-out RPC was addressed to.
        server: usize,
    },
    /// A transient server-side error (injected; models compaction stalls,
    /// lease churn, throttling).  Retryable.
    TransientOp {
        /// Index of the region server that raised the transient error.
        server: usize,
    },
    /// The whole cluster is crashed and must be recovered with
    /// [`crate::Cluster::recover`] before serving requests.  Not retryable
    /// from the client's point of view.
    ClusterDown,
    /// A retry policy gave up after `attempts` attempts; `last` is the final
    /// error (exposed through [`std::error::Error::source`]).
    RetriesExhausted {
        /// Total attempts made (including the first).
        attempts: u32,
        /// The error the last attempt failed with.
        last: Box<StoreError>,
    },
}

impl StoreError {
    /// True if a fresh attempt of the same operation may succeed (the fault
    /// taxonomy retry policies key off): injected region-server outages,
    /// RPC timeouts and transient op errors are retryable; semantic errors
    /// (missing table, bad mutation) and a crashed cluster are not.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            StoreError::RegionUnavailable { .. }
                | StoreError::RpcTimeout { .. }
                | StoreError::TransientOp { .. }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableNotFound(t) => write!(f, "table not found: {t}"),
            StoreError::TableExists(t) => write!(f, "table already exists: {t}"),
            StoreError::NoColumnFamilies(t) => {
                write!(f, "table {t} must declare at least one column family")
            }
            StoreError::UnknownColumnFamily { table, family } => {
                write!(f, "unknown column family {family} in table {table}")
            }
            StoreError::EmptyMutation => write!(f, "mutation contains no cells"),
            StoreError::InvalidRange => write!(f, "scan start key is after stop key"),
            StoreError::RegionUnavailable { server } => {
                write!(f, "region server {server} is unavailable")
            }
            StoreError::RpcTimeout { server } => {
                write!(f, "rpc to region server {server} timed out")
            }
            StoreError::TransientOp { server } => {
                write!(f, "transient error on region server {server}")
            }
            StoreError::ClusterDown => write!(f, "cluster is crashed; call recover() first"),
            StoreError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_context() {
        let err = StoreError::UnknownColumnFamily {
            table: "orders".into(),
            family: "cf2".into(),
        };
        assert!(err.to_string().contains("orders"));
        assert!(err.to_string().contains("cf2"));
        assert!(StoreError::TableNotFound("x".into()).to_string().contains('x'));
    }

    #[test]
    fn retryable_taxonomy_partitions_faults_from_semantic_errors() {
        assert!(StoreError::RegionUnavailable { server: 2 }.retryable());
        assert!(StoreError::RpcTimeout { server: 0 }.retryable());
        assert!(StoreError::TransientOp { server: 1 }.retryable());
        assert!(!StoreError::ClusterDown.retryable());
        assert!(!StoreError::TableNotFound("t".into()).retryable());
        assert!(!StoreError::EmptyMutation.retryable());
        let exhausted = StoreError::RetriesExhausted {
            attempts: 3,
            last: Box::new(StoreError::RpcTimeout { server: 0 }),
        };
        assert!(!exhausted.retryable());
    }

    #[test]
    fn fault_errors_render_their_server_context() {
        assert!(StoreError::RpcTimeout { server: 3 }.to_string().contains("server 3"));
        assert!(StoreError::TransientOp { server: 4 }.to_string().contains("server 4"));
    }

    #[test]
    fn retries_exhausted_exposes_the_final_error_as_source() {
        use std::error::Error;
        let err = StoreError::RetriesExhausted {
            attempts: 5,
            last: Box::new(StoreError::RegionUnavailable { server: 1 }),
        };
        let source = err.source().expect("source chain");
        assert!(source.to_string().contains("region server 1"));
        assert!(err.to_string().contains("5 attempts"));
    }
}
