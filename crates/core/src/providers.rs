//! Write-path providers: resolving table versions for refreshes and DML.
//!
//! Interactive queries no longer come through here — they run lock-free
//! against a [`crate::ReadSnapshot`] (which implements
//! [`TableProvider`] itself). These borrowed providers serve the paths
//! that already hold the engine write lock: refresh evaluation with DVS
//! or persisted semantics ([`SnapshotProvider`]) and DML subqueries over
//! the latest state ([`LatestProvider`]).

use std::collections::HashMap;
use std::sync::Arc;

use dt_common::{DtError, DtResult, EntityId, Row, Timestamp, VersionId};
use dt_exec::TableProvider;
use dt_storage::TableStore;
use dt_txn::RefreshTsMap;

/// How DT versions are resolved when read by a refresh (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VersionSemantics {
    /// Delayed view semantics: a DT read by a refresh at data timestamp
    /// `t` resolves to the version created by that DT's refresh at the
    /// *same* `t` (exact lookup in the refresh-timestamp map; a miss fails
    /// the refresh — production validation #1 of §6.1).
    #[default]
    Dvs,
    /// Persisted table semantics (the baseline §4 argues against): read
    /// whatever version is persisted as of the refresh's start.
    Persisted,
}

/// Which entities are DTs and where every entity's storage lives.
pub struct StorageView<'a> {
    /// Per-entity storage.
    pub tables: &'a HashMap<EntityId, Arc<TableStore>>,
    /// Entities that are DTs (their storage includes the `$ROW_ID` column,
    /// which scans strip).
    pub dt_entities: &'a dyn Fn(EntityId) -> bool,
    /// The refresh-timestamp → version map.
    pub refresh_map: &'a RefreshTsMap,
}

/// Strip the leading `$ROW_ID` column from stored DT rows.
pub fn strip_row_ids(rows: Vec<Row>) -> Vec<Row> {
    rows.into_iter()
        .map(|r| Row::new(r.values()[1..].to_vec()))
        .collect()
}

/// A provider that resolves every entity as of a data timestamp, applying
/// the chosen semantics for DT reads.
pub struct SnapshotProvider<'a> {
    view: StorageView<'a>,
    /// The data timestamp to resolve at.
    pub at: Timestamp,
    semantics: VersionSemantics,
}

impl<'a> SnapshotProvider<'a> {
    /// Build a provider at `at`.
    pub fn new(view: StorageView<'a>, at: Timestamp, semantics: VersionSemantics) -> Self {
        SnapshotProvider {
            view,
            at,
            semantics,
        }
    }
}

impl SnapshotProvider<'_> {
    /// The storage of `entity`, the version this provider resolves it to,
    /// and whether it is a DT.
    fn resolve(&self, entity: EntityId) -> DtResult<(&Arc<TableStore>, VersionId, bool)> {
        let store = self
            .view
            .tables
            .get(&entity)
            .ok_or_else(|| DtError::Storage(format!("no storage for {entity}")))?;
        let is_dt = (self.view.dt_entities)(entity);
        let version = if is_dt {
            match self.semantics {
                VersionSemantics::Dvs => self.view.refresh_map.exact_version_for(entity, self.at)?,
                VersionSemantics::Persisted => store
                    .version_at(self.at)
                    .ok_or_else(|| DtError::Storage(format!("no version of {entity}")))?,
            }
        } else {
            // Base tables resolve by commit timestamp (§5.3).
            store
                .version_at(self.at)
                .ok_or_else(|| DtError::Storage(format!("no version of {entity} at {}", self.at)))?
        };
        Ok((store, version, is_dt))
    }

    /// The number of rows [`TableProvider::scan`] would return for
    /// `entity`, read from the resolved version's metadata without
    /// materializing a row.
    pub fn row_count(&self, entity: EntityId) -> DtResult<usize> {
        let (store, version, _) = self.resolve(entity)?;
        store.row_count_at(version)
    }
}

impl TableProvider for SnapshotProvider<'_> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        let (store, version, is_dt) = self.resolve(entity)?;
        let rows = store.scan(version)?;
        Ok(if is_dt { strip_row_ids(rows) } else { rows })
    }
}

/// A provider for interactive queries: every entity at its latest committed
/// version ("our implementation simply reads the current data", §4). DTs
/// that are not yet initialized error (§3.1).
pub struct LatestProvider<'a> {
    view: StorageView<'a>,
    /// Entities known to be uninitialized DTs.
    pub uninitialized: &'a dyn Fn(EntityId) -> bool,
}

impl<'a> LatestProvider<'a> {
    /// Build a latest-version provider.
    pub fn new(view: StorageView<'a>, uninitialized: &'a dyn Fn(EntityId) -> bool) -> Self {
        LatestProvider {
            view,
            uninitialized,
        }
    }
}

impl TableProvider for LatestProvider<'_> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        if (self.uninitialized)(entity) {
            return Err(DtError::NotInitialized(format!(
                "dynamic table {entity} has not been initialized yet"
            )));
        }
        let store = self
            .view
            .tables
            .get(&entity)
            .ok_or_else(|| DtError::Storage(format!("no storage for {entity}")))?;
        let rows = store.scan(store.latest_version())?;
        Ok(if (self.view.dt_entities)(entity) {
            strip_row_ids(rows)
        } else {
            rows
        })
    }
}
