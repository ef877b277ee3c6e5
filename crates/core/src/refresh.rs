//! The refresh engine (§5.3–§5.5): action selection, differentiation,
//! merge, commit, and the production validations.
//!
//! Every refresh — scheduled, manual, initial, or part of a parallel
//! round — takes one pipeline with one error classification and one
//! bookkeeping path:
//!
//! 1. **Stage** (`EngineState::stage_refresh`, under any engine lock):
//!    resolve the DT, take its refresh lock, rebind the defining query,
//!    detect query evolution, and pin a `RefreshEnv` of `Arc` handles.
//! 2. **Compute** (`RefreshJob::compute`, no engine lock needed): decide
//!    the action, evaluate or differentiate, and stage the result as a
//!    [`dt_storage::PreparedChange`] against the DT's pinned version.
//! 3. **Install** (`install_one`, under the engine write lock): validate
//!    and publish the change, advance the frontier and refresh map, log
//!    the refresh, and emit its WAL records.
//!
//! [`EngineState::run_refresh`] drives the three steps back to back under
//! the write lock its caller holds; [`crate::Engine::refresh_all_parallel`]
//! stages under a read lock, computes lock-free, and installs a level per
//! write-lock acquisition. A binding or evaluation failure is a user error
//! at either step: it is logged as a `failed` refresh and counts toward
//! automatic suspension (§3.3.3). A dropped upstream is such an error, so
//! `UNDROP` alone lets the next refresh succeed. Reporting the outcome to
//! the scheduler is the caller's job: serial callers report at virtual
//! completion time, the parallel install leader as it installs.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dt_catalog::RefreshMode;
use dt_common::{DtError, DtResult, EntityId, Row, Timestamp, Value, VersionId};
use dt_exec::TableProvider;
use dt_ivm::{
    assign_change_rows, delta, delta_unconsolidated, ChangeProvider, DeltaContext,
    OuterJoinStrategy, StoredRows,
};
use dt_plan::LogicalPlan;
use dt_scheduler::{CostModel, RefreshAction, RefreshOutcome};
use dt_storage::{ChangeSet, PreparedChange, TableStore};
use dt_txn::{Frontier, RefreshTsMap, Txn};

use crate::database::EngineState;
use crate::durability::{SideEffect, WalRecord};
use crate::providers::{strip_row_ids, SnapshotProvider, StorageView, VersionSemantics};

/// One executed refresh, for telemetry and the §6.3 statistics. `Copy`:
/// entries are a few machine words, so handing them out by value is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshLogEntry {
    /// The DT refreshed.
    pub dt: EntityId,
    /// The refresh (data) timestamp.
    pub refresh_ts: Timestamp,
    /// Action label ("no_data", "full", "incremental", "reinitialize",
    /// "failed").
    pub action: &'static str,
    /// Output changed rows (inserts + deletes) — the delta installed.
    pub changed_rows: usize,
    /// DT size after the refresh.
    pub dt_rows: usize,
    /// Whether this was an initialization.
    pub initial: bool,
    /// Wall-clock duration of the refresh (prepare through install), in
    /// microseconds.
    pub duration_micros: u64,
    /// Source rows scanned: full query input rows for FULL/REINITIALIZE,
    /// source change rows consumed for INCREMENTAL, 0 for NO_DATA.
    pub source_rows: usize,
}

/// The refresh log: an append-only record of every refresh executed,
/// behind its own lock so telemetry readers never contend with the engine
/// lock. Cloning the handle is O(1) (an `Arc` inside); the engine hands
/// out handles via [`crate::Engine::refresh_log`] instead of copying the
/// whole history.
#[derive(Clone, Default)]
pub struct RefreshLog {
    inner: std::sync::Arc<parking_lot::RwLock<Vec<RefreshLogEntry>>>,
}

impl RefreshLog {
    /// Append one entry (engine-internal; called at most once per refresh).
    pub(crate) fn push(&self, entry: RefreshLogEntry) {
        self.inner.write().push(entry);
    }

    /// Number of refreshes recorded.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no refresh has run yet.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// The most recent entry, if any.
    pub fn last(&self) -> Option<RefreshLogEntry> {
        self.inner.read().last().copied()
    }

    /// The last `n` entries, oldest first — the bounded way to check
    /// recent refresh activity.
    pub fn tail(&self, n: usize) -> Vec<RefreshLogEntry> {
        let log = self.inner.read();
        log[log.len().saturating_sub(n)..].to_vec()
    }

    /// A copy of the full history (for offline statistics; prefer
    /// [`RefreshLog::tail`] when only recent entries matter).
    pub fn entries(&self) -> Vec<RefreshLogEntry> {
        self.inner.read().clone()
    }

    /// How many recorded refreshes ran `action` ("no_data", "full",
    /// "incremental", "reinitialize", "failed").
    pub fn count_action(&self, action: &str) -> usize {
        self.inner
            .read()
            .iter()
            .filter(|e| e.action == action)
            .count()
    }
}

impl std::fmt::Debug for RefreshLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshLog").field("len", &self.len()).finish()
    }
}

/// Per-source change sets gathered for an interval.
struct IntervalChanges {
    per_entity: HashMap<EntityId, ChangeSet>,
}

impl ChangeProvider for IntervalChanges {
    fn changes(&self, entity: EntityId) -> DtResult<ChangeSet> {
        self.per_entity
            .get(&entity)
            .cloned()
            .ok_or_else(|| DtError::internal(format!("no change set gathered for {entity}")))
    }
}

/// Everything a refresh's delta computation needs, pinned by `Arc` under a
/// brief engine lock so the computation itself runs with **no** lock held —
/// the write-side analogue of [`crate::ReadSnapshot`]. Versioned stores
/// never mutate in place, so a worker reading through these handles sees a
/// stable world no matter what commits land meanwhile.
struct RefreshEnv {
    /// Storage handles for the DT and every scanned source.
    tables: HashMap<EntityId, Arc<TableStore>>,
    /// Which of those entities are DTs (their storage carries `$ROW_ID`).
    dt_ids: BTreeSet<EntityId>,
    /// The refresh-timestamp → version map (interior-mutable, `&self`).
    refresh_map: Arc<RefreshTsMap>,
    /// DT version resolution semantics (§3.1.1).
    semantics: VersionSemantics,
    /// Outer-join differentiation strategy (§5.5.1).
    outer_join: OuterJoinStrategy,
    /// The §3.3.2 cost model.
    cost_model: CostModel,
}

impl RefreshEnv {
    fn is_dt(&self, id: EntityId) -> bool {
        self.dt_ids.contains(&id)
    }

    fn store(&self, id: EntityId) -> DtResult<&Arc<TableStore>> {
        self.tables
            .get(&id)
            .ok_or_else(|| DtError::Storage(format!("no storage for {id}")))
    }

    /// The storage version of a source at a data timestamp (commit-time
    /// rule for base tables, exact refresh-timestamp rule for DTs — §5.3).
    fn source_version_at(&self, entity: EntityId, ts: Timestamp) -> DtResult<VersionId> {
        if self.is_dt(entity) && self.semantics == VersionSemantics::Dvs {
            self.refresh_map.exact_version_for(entity, ts)
        } else {
            self.store(entity)?
                .version_at(ts)
                .ok_or_else(|| DtError::Storage(format!("no version of {entity} at {ts}")))
        }
    }

    /// Evaluate a plan at a data timestamp; also returns the total input
    /// row count (for the cost model and source-row telemetry).
    fn evaluate_at(&self, plan: &LogicalPlan, ts: Timestamp) -> DtResult<(Vec<Row>, usize)> {
        let is_dt = |id: EntityId| self.is_dt(id);
        let view = StorageView {
            tables: &self.tables,
            dt_entities: &is_dt,
            refresh_map: &self.refresh_map,
        };
        let provider = SnapshotProvider::new(view, ts, self.semantics);
        let mut input_rows = 0usize;
        for e in plan.scanned_entities() {
            input_rows += provider.row_count(e).unwrap_or(0);
        }
        let rows = dt_exec::execute(plan, &provider)?;
        Ok((rows, input_rows))
    }

    /// §6.1 level-4 validation: "if you run the defining query as of the
    /// data timestamp, you should get the same result as in the DT."
    fn validate_dvs(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        plan: &LogicalPlan,
    ) -> DtResult<()> {
        let store = self.store(dt)?;
        let mut stored = strip_row_ids(store.scan(store.latest_version())?);
        stored.sort();
        let (mut expected, _) = self.evaluate_at(plan, refresh_ts)?;
        expected.sort();
        if stored != expected {
            return Err(DtError::internal(format!(
                "DVS violation on {dt} at {refresh_ts}: stored {} rows != query {} rows",
                stored.len(),
                expected.len()
            )));
        }
        Ok(())
    }
}

/// The output of [`compute_refresh`]: the staged storage change (if any),
/// the outcome for the scheduler, and the frontier the DT will advance to
/// once the change installs.
struct ComputedRefresh {
    /// Action + row/cost accounting, as the scheduler wants it reported.
    outcome: RefreshOutcome,
    /// The staged storage change; `None` for NO_DATA (only metadata moves).
    prep: Option<PreparedChange>,
    /// Source rows scanned (see [`RefreshLogEntry::source_rows`]).
    source_rows: usize,
    /// The frontier the DT advances to at install.
    new_frontier: Frontier,
}

/// The row work of one refresh, runnable with no engine lock held: decide
/// the action (§5.4), evaluate or differentiate (§5.5), and stage the
/// result against the DT's pinned latest version. User errors (binding
/// losses surface earlier; evaluation errors surface here) propagate as
/// `Err` for the caller to classify.
#[allow(clippy::too_many_arguments)]
fn compute_refresh(
    env: &RefreshEnv,
    dt: EntityId,
    refresh_ts: Timestamp,
    initial: bool,
    evolved: bool,
    refresh_mode: RefreshMode,
    plan: &LogicalPlan,
    prev: Option<&Frontier>,
) -> DtResult<ComputedRefresh> {
    let upstream = plan.scanned_entities();
    let store = Arc::clone(env.store(dt)?);
    // Pin the base version every staged change validates against at
    // install time (first committer wins, like transactional DML).
    let base = store.latest_version();

    // Resolve each source's version at the refresh timestamp. These
    // resolutions are stable under concurrent commits — every later commit
    // is minted strictly after `refresh_ts` by the shared HLC — so the
    // frontier can be computed here, before the install.
    let mut new_frontier = Frontier::at(refresh_ts);
    let mut to_versions = Vec::with_capacity(upstream.len());
    for up in &upstream {
        let to = env.source_version_at(*up, refresh_ts)?;
        new_frontier.set(*up, to);
        to_versions.push((*up, to));
    }

    // Decide the refresh action (§5.4).
    if !initial && !evolved {
        // NO_DATA: no source changed since the previous frontier.
        let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
        let mut unchanged = true;
        for (up, to) in &to_versions {
            let from = prev
                .get(*up)
                .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
            if !env.store(*up)?.unchanged_between(from.min(*to), *to)? {
                unchanged = false;
                break;
            }
        }
        if unchanged {
            // §3.3.2: uses negligible resources and no warehouse
            // compute; only the data timestamp advances.
            let dt_rows = store.row_count_at(base)?;
            return Ok(ComputedRefresh {
                outcome: RefreshOutcome {
                    action: RefreshAction::NoData,
                    changed_rows: 0,
                    dt_rows,
                    work_units: 0.0,
                },
                prep: None,
                source_rows: 0,
                new_frontier,
            });
        }
    }

    let full = initial || evolved || refresh_mode == RefreshMode::Full;
    if full {
        let (rows, input_rows) = env.evaluate_at(plan, refresh_ts)?;
        let stored = StoredRows::initialize(rows);
        let mut out_rows = Vec::with_capacity(stored.len());
        for (id, r) in stored.pairs() {
            let mut vals = vec![Value::Str(id.clone())];
            vals.extend(r.values().iter().cloned());
            out_rows.push(Row::new(vals));
        }
        let changed = out_rows.len();
        let dt_rows = out_rows.len();
        let prep = store.prepare_overwrite_at(base, out_rows)?;
        let action = if evolved && !initial {
            RefreshAction::Reinitialize
        } else {
            RefreshAction::Full
        };
        return Ok(ComputedRefresh {
            outcome: RefreshOutcome {
                action,
                changed_rows: changed,
                dt_rows,
                work_units: env.cost_model.units(input_rows + changed),
            },
            prep: Some(prep),
            source_rows: input_rows,
            new_frontier,
        });
    }

    // INCREMENTAL (§5.5).
    let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
    let mut per_entity = HashMap::new();
    let mut change_volume = 0usize;
    for (up, to) in &to_versions {
        let from = prev
            .get(*up)
            .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
        let mut cs = if *to >= from {
            env.store(*up)?.changes_between(from, *to)?
        } else {
            return Err(DtError::internal("source version regressed"));
        };
        if env.is_dt(*up) {
            // DT storage carries the $ROW_ID column; the defining query
            // sees only the payload. Strip ids and re-consolidate (a
            // row whose id churned but whose payload did not is not a
            // logical change).
            cs = ChangeSet::new(
                strip_row_ids(cs.inserts().to_vec()),
                strip_row_ids(cs.deletes().to_vec()),
            )
            .consolidate();
        }
        change_volume += cs.len();
        per_entity.insert(*up, cs);
    }
    // §5.5.2 insert-only specialization: when the plan structure
    // guarantees differentiation introduces no redundant actions and
    // every source change is pure inserts, the final consolidation
    // pass is provably a no-op and is skipped.
    let insert_only = per_entity.values().all(|cs| cs.deletes().is_empty())
        && dt_ivm::merge::is_insert_only_safe(plan);
    let changes = IntervalChanges { per_entity };

    let stored_pairs: Vec<(String, Row)> = store
        .scan(base)?
        .into_iter()
        .map(|r| {
            let id = r.get(0).expect_str()?.to_string();
            Ok((id, Row::new(r.values()[1..].to_vec())))
        })
        .collect::<DtResult<_>>()?;
    let mut stored = StoredRows::from_pairs(stored_pairs);

    let d = {
        let is_dt = |id: EntityId| env.is_dt(id);
        let new_view = StorageView {
            tables: &env.tables,
            dt_entities: &is_dt,
            refresh_map: &env.refresh_map,
        };
        // The "old" provider resolves each source at the previous
        // frontier version; implemented as a fixed-version provider.
        let old = FrontierProvider {
            env,
            frontier: prev,
        };
        let new = SnapshotProvider::new(new_view, refresh_ts, env.semantics);
        let ctx = DeltaContext {
            old: &old,
            new: &new,
            changes: &changes,
            outer_join: env.outer_join,
        };
        if insert_only {
            delta_unconsolidated(plan, &ctx)?
        } else {
            delta(plan, &ctx)?
        }
    };

    // Merge: assign $ROW_IDs, validate the §6.1 invariants, stage.
    let change_rows = assign_change_rows(&stored, &d)?;
    stored.apply(&change_rows)?;
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for c in &change_rows {
        let mut vals = vec![Value::Str(c.row_id.clone())];
        vals.extend(c.row.values().iter().cloned());
        let row = Row::new(vals);
        match c.action {
            dt_ivm::MergeAction::Insert => inserts.push(row),
            dt_ivm::MergeAction::Delete => deletes.push(row),
        }
    }
    let changed = inserts.len() + deletes.len();
    let deletes = store.locate(base, &deletes)?;
    let prep = store.prepare_change_at(base, inserts, deletes)?;
    let dt_rows = stored.len();
    Ok(ComputedRefresh {
        outcome: RefreshOutcome {
            action: RefreshAction::Incremental,
            changed_rows: changed,
            dt_rows,
            work_units: env.cost_model.units(change_volume + changed),
        },
        prep: Some(prep),
        source_rows: change_volume,
        new_frontier,
    })
}

/// One refresh moving through the pipeline every refresh takes — staged by
/// [`EngineState::stage_refresh`], computed by [`RefreshJob::compute`],
/// installed by [`install_one`]. From stage to install the job's
/// transaction holds the DT's refresh lock (§5.3); whoever drops a job
/// without installing it must abort that transaction.
pub(crate) struct RefreshJob {
    pub(crate) dt: EntityId,
    pub(crate) refresh_ts: Timestamp,
    initial: bool,
    pub(crate) txn: Txn,
    started: Instant,
    fixed_units: f64,
    work: RefreshWork,
}

enum RefreshWork {
    /// Bound and pinned; `computed` is filled by [`RefreshJob::compute`].
    Bound(Box<BoundRefresh>),
    /// Failed with a user error (binding or evaluation); install records
    /// the failure so failure bookkeeping serializes with everything else.
    Failed(String),
}

struct BoundRefresh {
    env: RefreshEnv,
    plan: LogicalPlan,
    refresh_mode: RefreshMode,
    prev: Option<Frontier>,
    upstream: Vec<EntityId>,
    /// The new definition fingerprint when query evolution was detected
    /// (§5.4); applied to the catalog at install.
    evolved: Option<u64>,
    /// Run the §6.1 level-4 DVS check after install.
    validate: bool,
    computed: Option<ComputedRefresh>,
}

impl RefreshJob {
    /// True when the refresh failed with a user error; install will record
    /// the failure rather than publish.
    pub(crate) fn is_failed(&self) -> bool {
        matches!(self.work, RefreshWork::Failed(_))
    }

    /// Phase 2, runnable with no engine lock held: compute and stage the
    /// refresh against its pinned env. User errors turn the job into a
    /// recorded failure; an internal error is returned and leaves the
    /// job for the caller to abort.
    pub(crate) fn compute(&mut self) -> DtResult<()> {
        let RefreshWork::Bound(bound) = &mut self.work else {
            return Ok(());
        };
        match compute_refresh(
            &bound.env,
            self.dt,
            self.refresh_ts,
            self.initial,
            bound.evolved.is_some(),
            bound.refresh_mode,
            &bound.plan,
            bound.prev.as_ref(),
        ) {
            Ok(computed) => bound.computed = Some(computed),
            Err(e) if e.is_user_error() => self.work = RefreshWork::Failed(e.to_string()),
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

impl EngineState {
    /// Pin a [`RefreshEnv`] for `dt` and its scanned sources: `Arc` clones
    /// of the storage handles and refresh map plus the config the delta
    /// computation needs. O(#sources); taken under whatever engine lock
    /// the caller already holds.
    fn refresh_env(&self, dt: EntityId, upstream: &[EntityId]) -> DtResult<RefreshEnv> {
        let mut tables = HashMap::with_capacity(upstream.len() + 1);
        let mut dt_ids = BTreeSet::new();
        for id in upstream.iter().copied().chain(std::iter::once(dt)) {
            let store = self
                .tables
                .get(&id)
                .ok_or_else(|| DtError::Storage(format!("no storage for {id}")))?;
            tables.insert(id, Arc::clone(store));
            if self.is_dt(id) {
                dt_ids.insert(id);
            }
        }
        Ok(RefreshEnv {
            tables,
            dt_ids,
            refresh_map: Arc::clone(&self.refresh_map),
            semantics: self.config.semantics,
            outer_join: self.config.outer_join,
            cost_model: self.config.cost_model,
        })
    }

    /// Phase 1 of every refresh, under any engine lock: resolve the DT,
    /// admit it (per-DT lock, §5.3), reject a stale timestamp, rebind the
    /// defining query (§5.4), detect query evolution, and pin the refresh
    /// env. `Err` means nothing was admitted: the target was dropped, the
    /// DT is locked or already refreshed at or past `refresh_ts` (typed
    /// conflicts), or an internal error. A binding failure is a user error
    /// — including a dropped upstream, which `UNDROP` heals (§3.3.3) — and
    /// yields a failed job whose install records it.
    pub(crate) fn stage_refresh(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        initial: bool,
    ) -> DtResult<RefreshJob> {
        let started = Instant::now();
        let dropped = || DtError::Conflict(format!("refresh target {dt} was dropped"));
        let entity = self.catalog.get(dt).map_err(|_| dropped())?;
        if !entity.is_live() {
            return Err(dropped());
        }
        let meta = entity
            .as_dt()
            .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?;

        let txn = self.txn.begin_at(refresh_ts);
        let work = (|| {
            self.txn.try_lock(&txn, dt)?;
            // An overlapping round with a newer timestamp may already have
            // refreshed this DT past `refresh_ts` (frontiers only move
            // forward). The per-DT lock held from here through install
            // keeps the frontier frozen, so this check cannot race.
            let prev = self.frontiers.get(&dt).cloned();
            if let Some(prev) = &prev {
                if prev.refresh_ts >= refresh_ts {
                    return Err(DtError::Conflict(format!(
                        "a newer refresh of {dt} (ts {}) already installed at or past {refresh_ts}",
                        prev.refresh_ts
                    )));
                }
            }
            let bound = dt_sql::parse(&meta.definition_sql).and_then(|parsed| {
                let dt_sql::ast::Statement::Query(q) = parsed else {
                    return Err(DtError::internal("DT definition is not a query"));
                };
                self.bind_query(&q)
            });
            let plan = match bound {
                Ok(bound) => bound.plan,
                Err(e) if e.is_user_error() || matches!(e, DtError::Catalog(_)) => {
                    return Ok(RefreshWork::Failed(e.to_string()))
                }
                Err(e) => return Err(e),
            };
            let upstream = plan.scanned_entities();
            let fingerprint = self.catalog.fingerprint(&upstream);
            Ok(RefreshWork::Bound(Box::new(BoundRefresh {
                env: self.refresh_env(dt, &upstream)?,
                plan,
                refresh_mode: meta.refresh_mode,
                prev,
                upstream,
                evolved: (fingerprint != meta.definition_fingerprint).then_some(fingerprint),
                validate: self.config.validate_dvs
                    && self.config.semantics == VersionSemantics::Dvs,
                computed: None,
            })))
        })();
        match work {
            Ok(work) => Ok(RefreshJob {
                dt,
                refresh_ts,
                initial,
                txn,
                started,
                fixed_units: self.config.cost_model.fixed_units,
                work,
            }),
            Err(e) => {
                let _ = self.txn.abort(&txn);
                Err(e)
            }
        }
    }

    /// Execute one refresh of `dt` to data timestamp `refresh_ts` under the
    /// engine write lock the caller holds: stage, compute, install, log.
    /// User errors become a `Failed` outcome (and bump the DT's error
    /// counter); conflicts and internal errors propagate as `Err`. The
    /// caller reports the outcome to the scheduler.
    pub fn run_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        initial: bool,
    ) -> DtResult<RefreshOutcome> {
        let mut job = self.stage_refresh(dt, refresh_ts, initial)?;
        if let Err(e) = job.compute() {
            let _ = self.txn.abort(&job.txn);
            return Err(e);
        }
        let mut wal_records = Vec::new();
        let installed = install_one(self, job, &mut wal_records);
        self.wal_append(&wal_records)?;
        installed.map(|(outcome, _)| outcome)
    }
}

/// Install one computed refresh (or record its failure) under the engine
/// write lock the caller holds, pushing its WAL records onto
/// `wal_records` for the caller to append. Returns the outcome and the
/// commit timestamp (`refresh_ts` for a failure). Every entity the refresh
/// read must still be live, else it aborts with a typed
/// [`DtError::Conflict`]. The caller reports to the scheduler.
pub(crate) fn install_one(
    st: &mut EngineState,
    job: RefreshJob,
    wal_records: &mut Vec<WalRecord>,
) -> DtResult<(RefreshOutcome, Timestamp)> {
    let RefreshJob {
        dt,
        refresh_ts,
        initial,
        txn,
        started,
        fixed_units,
        work,
    } = job;
    let abort = |st: &EngineState, e: DtError| {
        let _ = st.txn.abort(&txn);
        Err(e)
    };

    let (outcome, commit_ts, source_rows) = match work {
        RefreshWork::Failed(error) => {
            // The transaction installs nothing; the failure bumps the
            // error counter, which the WAL must carry.
            st.txn.abort(&txn)?;
            st.catalog.record_dt_error(dt)?;
            if st.wal_enabled() {
                wal_records.push(st.catalog_record(SideEffect::None));
            }
            let outcome = RefreshOutcome {
                action: RefreshAction::Failed(error),
                changed_rows: 0,
                dt_rows: 0,
                work_units: fixed_units,
            };
            (outcome, refresh_ts, 0)
        }
        RefreshWork::Bound(bound) => {
            let BoundRefresh {
                env,
                plan,
                upstream,
                evolved,
                validate,
                computed,
                ..
            } = *bound;
            let Some(computed) = computed else {
                return abort(st, DtError::internal("refresh installed before it was computed"));
            };
            if !st.txn.is_active(&txn) {
                return Err(DtError::Txn(format!(
                    "refresh transaction {} is not active",
                    txn.id
                )));
            }
            // Liveness, as DML commits check it: a table dropped between
            // stage and install aborts the refresh instead of installing
            // a result nothing can read consistently.
            for id in std::iter::once(dt).chain(upstream.iter().copied()) {
                if !st.catalog.get(id).map(|e| e.is_live()).unwrap_or(false) {
                    return abort(
                        st,
                        DtError::Conflict(format!(
                            "entity {id} read by the refresh of {dt} was dropped mid-round"
                        )),
                    );
                }
            }

            // Validate + install under the table's commit guard (first
            // committer wins), stamped past both the table's chain and the
            // refresh timestamp.
            let store = Arc::clone(env.store(dt)?);
            let mut wal_install = None;
            let commit_ts = match computed.prep {
                Some(prep) => {
                    let guard = store.commit_guard();
                    if let Err(e) = guard.validate_prepared(&prep) {
                        drop(guard);
                        return abort(st, e);
                    }
                    let floor = guard.latest_commit_ts().max(refresh_ts);
                    let commit_ts = st.txn.hlc().tick_after(floor);
                    if st.wal_enabled() {
                        wal_install = Some((commit_ts, prep.install_record()));
                    }
                    guard.install_validated(prep, commit_ts, txn.id);
                    commit_ts
                }
                // NO_DATA: nothing to install, only metadata advances.
                None => st.txn.hlc().tick_after(refresh_ts),
            };
            st.txn.commit_at(&txn, commit_ts)?;

            // Metadata: evolution, the refresh-ts → version map (§5.3),
            // the frontier, and the error-counter reset.
            if let Some(fingerprint) = evolved {
                if let Some(m) = st.catalog.get_mut(dt)?.as_dt_mut() {
                    m.definition_fingerprint = fingerprint;
                    m.upstream = upstream;
                }
            }
            let version = store.latest_version();
            st.refresh_map.record(dt, refresh_ts, version, commit_ts);
            let new_frontier = computed.new_frontier;
            if let Some(prev) = st.frontiers.get(&dt) {
                debug_assert!(
                    new_frontier.refresh_ts >= prev.refresh_ts,
                    "frontier moved backwards"
                );
            }
            let frontier = new_frontier.iter().collect();
            st.frontiers.insert(dt, new_frontier);
            st.catalog.record_dt_success(dt)?;
            // Catalog bytes are captured after the success bookkeeping so
            // the record carries the error-counter reset and any evolution.
            if st.wal_enabled() {
                wal_records.push(WalRecord::Refresh {
                    dt,
                    txn: txn.id,
                    refresh_ts,
                    commit_ts,
                    install: wal_install,
                    version,
                    frontier,
                    catalog: st.catalog.to_bytes(),
                });
            }
            if validate {
                env.validate_dvs(dt, refresh_ts, &plan)?;
            }
            (computed.outcome, commit_ts, computed.source_rows)
        }
    };
    st.refresh_log.push(RefreshLogEntry {
        dt,
        refresh_ts,
        action: action_label(&outcome.action),
        changed_rows: outcome.changed_rows,
        dt_rows: outcome.dt_rows,
        initial,
        duration_micros: started.elapsed().as_micros() as u64,
        source_rows,
    });
    Ok((outcome, commit_ts))
}

/// The log label for a refresh action.
pub(crate) fn action_label(action: &RefreshAction) -> &'static str {
    match action {
        RefreshAction::NoData => "no_data",
        RefreshAction::Full => "full",
        RefreshAction::Incremental => "incremental",
        RefreshAction::Reinitialize => "reinitialize",
        RefreshAction::Failed(_) => "failed",
    }
}

/// Resolves each source at the exact version recorded in a frontier — the
/// "previous data timestamp" side of the differentiation interval.
struct FrontierProvider<'a> {
    env: &'a RefreshEnv,
    frontier: &'a Frontier,
}

impl TableProvider for FrontierProvider<'_> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        let version = self
            .frontier
            .get(entity)
            .ok_or_else(|| DtError::internal(format!("no frontier entry for {entity}")))?;
        let rows = self.env.store(entity)?.scan(version)?;
        Ok(if self.env.is_dt(entity) {
            strip_row_ids(rows)
        } else {
            rows
        })
    }
}
