//! Helpers shared by the synergy integration tests.

use nosql_store::ops::Get;
use nosql_store::{Cluster, StoreResult};
use synergy::lock::{lock_table_name, LOCK_COLUMN, LOCK_FAMILY};

/// True if the hierarchical lock on root row `key` of `root` is held: its
/// lock-table row reads `held = 1`.
pub fn lock_held(cluster: &Cluster, root: &str, key: &str) -> StoreResult<bool> {
    let row = cluster.get(&lock_table_name(root), Get::new(key.to_string()))?;
    Ok(row.is_some_and(|row| row.value(LOCK_FAMILY, LOCK_COLUMN) == Some(b"1".as_slice())))
}
