//! Shared DML planning: computing the row-level effect of INSERT /
//! DELETE / UPDATE statements against *some* view of the database.
//!
//! Two consumers share this logic. [`crate::database::EngineState`] plans
//! against the latest version under the engine write lock (the
//! engine-lock auto-commit path), and [`crate::Transaction`] plans against
//! its pinned snapshot overlaid with its own buffered write set. The row
//! computation — value binding, coercion, predicate matching, assignment
//! evaluation — is identical; only the [`TableView`] and what happens to
//! the resulting change differ (immediate commit vs buffering until
//! `COMMIT`).
//!
//! UPDATE and DELETE match **by position**. The predicate is bound, its
//! pushable conjuncts move into the scan ([`dt_plan::push_down_filters`]),
//! and one sequential columnar pass over the view's partitions skips the
//! partitions whose zone maps rule the predicate out and evaluates the
//! rest with the vectorized Kleene filter ([`dt_exec::filter_batch`]).
//! Its selection bitmaps become [`RowPos`] positions in the pinned base
//! version, plus indices into the transaction's own buffered inserts; no
//! table is materialised as rows and no row is hashed. Zone-map pruning
//! only runs when the whole predicate is error-free
//! ([`dt_exec::vectorizes`]), so an erroring predicate fails on exactly
//! the row the row interpreter would fail on.

use std::collections::BTreeSet;

use dt_common::{
    Batch, DtError, DtResult, EntityId, PartitionId, PredicateSet, Row, Schema, Value, VersionId,
};
use dt_plan::{BindOutput, LogicalPlan, ScalarExpr};
use dt_sql::ast;
use dt_storage::{RowPos, TableSnapshot};

/// The view a DML statement is planned against: name resolution, query
/// binding/execution, and the target table's rows.
pub(crate) trait DmlSource {
    /// Resolve a DML target to a base table (errors for views and DTs).
    fn target_table(&self, name: &str) -> DtResult<(EntityId, Schema)>;
    /// The catalog name of an entity (used to bind predicates and
    /// assignment expressions in the table's scope).
    fn entity_name(&self, id: EntityId) -> DtResult<String>;
    /// Bind a query in this view's catalog.
    fn bind_query(&self, q: &ast::Query) -> DtResult<BindOutput>;
    /// Execute a bound plan against this view's data.
    fn execute_plan(&self, plan: &LogicalPlan) -> DtResult<Vec<Row>>;
    /// The rows UPDATE / DELETE match against: a pinned version of the
    /// base table, with any buffered writes layered over it.
    fn target_view(&self, id: EntityId) -> DtResult<TableView<'_>>;
}

/// The row-level effect of one DML statement on one base table, plus the
/// statement's user-visible row count.
#[derive(Debug, Clone)]
pub(crate) struct DmlChange {
    /// The target base table.
    pub entity: EntityId,
    /// The table version `deletes` are positions in (`None` for an
    /// INSERT, which matches no rows).
    pub base: Option<VersionId>,
    /// Rows the statement adds.
    pub inserts: Vec<Row>,
    /// Rows the statement removes from `base`, by position.
    pub deletes: Vec<RowPos>,
    /// Indices into the transaction's own buffered inserts that the
    /// statement removes (always empty outside a transaction).
    pub cancels: Vec<usize>,
    /// Rows inserted / deleted / matched by UPDATE — what
    /// `ExecResult::Count` reports.
    pub count: usize,
}

/// A transaction's buffered effect on one table.
#[derive(Debug, Default)]
pub(crate) struct TableWrites {
    /// Rows the transaction adds.
    pub inserts: Vec<Row>,
    /// Rows the transaction removes, as positions in its pinned base
    /// version. Always disjoint from the own inserts: a statement that
    /// removes one of those cancels it instead.
    pub deletes: BTreeSet<RowPos>,
}

impl TableWrites {
    /// Fold one statement's change in. Cancelled own inserts are dropped
    /// in one pass (a row inserted and deleted in the same transaction
    /// leaves no trace); deleted base positions join the set.
    pub fn fold(&mut self, change: DmlChange) {
        if !change.cancels.is_empty() {
            let mut cancelled = vec![false; self.inserts.len()];
            for i in change.cancels {
                cancelled[i] = true;
            }
            let mut i = 0;
            self.inserts.retain(|_| {
                i += 1;
                !cancelled[i - 1]
            });
        }
        self.deletes.extend(change.deletes);
        self.inserts.extend(change.inserts);
    }

    /// True when the write set nets to nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Offsets this write set deletes from base partition `partition`,
    /// ascending.
    fn deleted_in(&self, partition: PartitionId) -> impl Iterator<Item = usize> + '_ {
        self.deletes
            .range(
                RowPos {
                    partition,
                    offset: 0,
                }..=RowPos {
                    partition,
                    offset: usize::MAX,
                },
            )
            .map(|p| p.offset)
    }
}

/// One base table as a DML statement (or a read inside a transaction)
/// sees it: a pinned version, minus the positions the transaction deleted,
/// plus the rows it inserted.
pub(crate) struct TableView<'a> {
    /// The pinned base version.
    pub base: TableSnapshot,
    /// Buffered writes layered over `base`, if any.
    pub writes: Option<&'a TableWrites>,
}

/// Where a batch of a [`TableView`] comes from.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// The base partition at this index of the pinned version.
    Base(usize),
    /// The transaction's own buffered inserts.
    Own,
}

impl TableView<'_> {
    /// Visit the view as columnar batches, in scan order, each tagged
    /// with its origin: every base partition that survives `filter`'s
    /// zone-map check (with the filter applied and deleted positions
    /// deselected), then the own inserts (filtered row-equivalently).
    /// Each batch is handed over as soon as it is cut, while its
    /// partition is still in cache. Sequential by design: a point
    /// statement touches a handful of partitions, and a thread fan-out per
    /// statement would cost more than the scan.
    fn for_each_batch(
        &self,
        filter: Option<&PredicateSet>,
        mut visit: impl FnMut(Origin, Batch) -> DtResult<()>,
    ) -> DtResult<()> {
        for (i, part) in self.base.partitions().iter().enumerate() {
            let Some(mut batch) = self.base.partition_batch(i, filter) else {
                continue;
            };
            if let Some(w) = self.writes {
                let mut deleted = w.deleted_in(part.id()).peekable();
                if deleted.peek().is_some() {
                    let mut keep = vec![true; batch.len()];
                    for offset in deleted {
                        keep[offset] = false;
                    }
                    batch.retain(&keep);
                }
            }
            visit(Origin::Base(i), batch)?;
        }
        if let Some(w) = self.writes.filter(|w| !w.inserts.is_empty()) {
            let mut batch = Batch::from_rows(self.base.schema().len(), &w.inserts);
            if let Some(f) = filter {
                f.apply(&mut batch);
            }
            visit(Origin::Own, batch)?;
        }
        Ok(())
    }

    /// The view as columnar batches (see [`TableView::for_each_batch`]).
    pub fn scan_batches(&self, filter: Option<&PredicateSet>) -> DtResult<Vec<Batch>> {
        let mut out = Vec::new();
        self.for_each_batch(filter, |_, batch| {
            out.push(batch);
            Ok(())
        })?;
        Ok(out)
    }
}

/// Coerce a value row to a table schema (arity + type checks).
fn coerce_row(schema: &Schema, values: Vec<Value>) -> DtResult<Row> {
    if values.len() != schema.len() {
        return Err(DtError::Type(format!(
            "INSERT arity {} does not match table arity {}",
            values.len(),
            schema.len()
        )));
    }
    let mut out = Vec::with_capacity(values.len());
    for (v, c) in values.into_iter().zip(schema.columns()) {
        out.push(if v.is_null() { v } else { v.cast(c.ty)? });
    }
    Ok(Row::new(out))
}

/// Build `SELECT <items> [FROM <table>] [WHERE <predicate>]` — the scaffold
/// used to bind VALUES expressions, predicates, and SET assignments in the
/// right scope.
fn scaffold_query(
    items: Vec<ast::SelectItem>,
    from: Option<String>,
    where_clause: Option<ast::Expr>,
) -> ast::Query {
    ast::Query {
        select: ast::SelectBlock {
            distinct: false,
            items,
            from: from.map(|name| ast::TableRef::Named { name, alias: None }),
            joins: vec![],
            where_clause,
            group_by: ast::GroupBy::None,
            having: None,
            order_by: vec![],
            limit: None,
        },
        union_all: vec![],
        for_update: false,
    }
}

/// Plan `INSERT INTO table VALUES ... | <query>`.
pub(crate) fn plan_insert(
    src: &dyn DmlSource,
    table: &str,
    values: Vec<Vec<ast::Expr>>,
    query: Option<ast::Query>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let mut rows = Vec::new();
    if let Some(q) = query {
        let out = src.bind_query(&q)?;
        if out.plan.schema().len() != schema.len() {
            return Err(DtError::Type(format!(
                "INSERT query arity {} does not match table arity {}",
                out.plan.schema().len(),
                schema.len()
            )));
        }
        let plan = out.plan.bind_params(params)?;
        for r in src.execute_plan(&plan)? {
            rows.push(coerce_row(&schema, r.values().to_vec())?);
        }
    } else {
        // VALUES rows: bind each expression over an empty scope.
        for row_exprs in values {
            let mut vals = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                let q = scaffold_query(
                    vec![ast::SelectItem::Expr {
                        expr: e,
                        alias: None,
                    }],
                    None,
                    None,
                );
                let out = src.bind_query(&q)?;
                let plan = out.plan.bind_params(params)?;
                let r = src.execute_plan(&plan)?;
                vals.push(r[0].get(0).clone());
            }
            rows.push(coerce_row(&schema, vals)?);
        }
    }
    let count = rows.len();
    Ok(DmlChange {
        entity: id,
        base: None,
        inserts: rows,
        deletes: vec![],
        cancels: vec![],
        count,
    })
}

/// What an UPDATE / DELETE predicate matched in a [`TableView`].
#[derive(Default)]
struct Matches {
    /// Matched rows of the pinned base version.
    base: Vec<RowPos>,
    /// Matched own inserts, as indices into [`TableWrites::inserts`].
    own: Vec<usize>,
    /// The matched rows' values (only when asked for): base matches in
    /// scan order, then own matches.
    rows: Vec<Row>,
}

/// Match `predicate` (every row when absent) against `view` in one
/// sequential columnar pass; see the module docs. `with_rows` also
/// collects the matched rows' values, which UPDATE needs.
fn match_rows(
    src: &dyn DmlSource,
    id: EntityId,
    view: &TableView<'_>,
    predicate: Option<ast::Expr>,
    params: &[Value],
    with_rows: bool,
) -> DtResult<Matches> {
    let (pushdown, residual) = match predicate {
        None => (None, None),
        Some(p) => split_predicate(src, id, view.base.schema().len(), p, params)?,
    };
    let mut m = Matches::default();
    view.for_each_batch(pushdown.as_ref(), |origin, mut batch| {
        if let Some(r) = &residual {
            dt_exec::filter_batch(&mut batch, r)?;
        }
        let live = batch.live_indices();
        match origin {
            Origin::Base(i) => {
                let part = &view.base.partitions()[i];
                if with_rows {
                    m.rows.extend(live.iter().map(|o| part.rows()[*o].clone()));
                }
                m.base.extend(live.into_iter().map(|offset| RowPos {
                    partition: part.id(),
                    offset,
                }));
            }
            Origin::Own => {
                let own = &view.writes.expect("own batch implies writes").inserts;
                if with_rows {
                    m.rows.extend(live.iter().map(|o| own[*o].clone()));
                }
                m.own = live;
            }
        }
        Ok(())
    })?;
    Ok(m)
}

/// Bind `predicate` in `id`'s scope and split it for the scan: the
/// conjuncts [`dt_plan::push_down_filters`] moves into the scan (zone-map
/// pruning plus a row selection) and the residual the batch filter
/// evaluates. A predicate that can error is never pushed — pruning would
/// skip rows the row interpreter evaluates, and so hide their errors.
fn split_predicate(
    src: &dyn DmlSource,
    id: EntityId,
    arity: usize,
    predicate: ast::Expr,
    params: &[Value],
) -> DtResult<(Option<PredicateSet>, Option<ScalarExpr>)> {
    let q = scaffold_query(
        vec![ast::SelectItem::Wildcard],
        Some(src.entity_name(id)?),
        Some(predicate),
    );
    let out = src.bind_query(&q)?;
    let LogicalPlan::Project { input, .. } = out.plan else {
        return Err(DtError::internal("expected projection"));
    };
    let filter = input.bind_params(params)?;
    let LogicalPlan::Filter { predicate, .. } = &filter else {
        return Err(DtError::internal("expected filter"));
    };
    if !dt_exec::vectorizes(predicate, arity) {
        return Ok((None, Some(predicate.clone())));
    }
    Ok(match dt_plan::push_down_filters(&filter) {
        LogicalPlan::TableScan { pushdown, .. } => (pushdown, None),
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::TableScan { pushdown, .. } => (pushdown, Some(predicate)),
            _ => return Err(DtError::internal("expected scan under filter")),
        },
        _ => return Err(DtError::internal("expected scan or filter")),
    })
}

/// Plan `DELETE FROM table [WHERE predicate]`.
pub(crate) fn plan_delete(
    src: &dyn DmlSource,
    table: &str,
    predicate: Option<ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, _schema) = src.target_table(table)?;
    let view = src.target_view(id)?;
    let m = match_rows(src, id, &view, predicate, params, false)?;
    Ok(DmlChange {
        entity: id,
        base: Some(view.base.version()),
        inserts: vec![],
        count: m.base.len() + m.own.len(),
        deletes: m.base,
        cancels: m.own,
    })
}

/// Plan `UPDATE table SET col = expr, ... [WHERE predicate]`.
pub(crate) fn plan_update(
    src: &dyn DmlSource,
    table: &str,
    assignments: Vec<(String, ast::Expr)>,
    predicate: Option<ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let view = src.target_view(id)?;
    let m = match_rows(src, id, &view, predicate, params, true)?;
    // Bind assignment expressions against the table schema.
    let mut bound: Vec<(usize, ScalarExpr)> = Vec::new();
    for (col, e) in &assignments {
        let idx = schema.index_of(col)?;
        let q = scaffold_query(
            vec![ast::SelectItem::Expr {
                expr: e.clone(),
                alias: None,
            }],
            Some(src.entity_name(id)?),
            None,
        );
        let out = src.bind_query(&q)?;
        let LogicalPlan::Project { exprs, .. } = &out.plan else {
            return Err(DtError::internal("expected projection"));
        };
        bound.push((idx, exprs[0].bind_params(params)?));
    }
    let mut new_rows = Vec::with_capacity(m.rows.len());
    for r in &m.rows {
        let mut vals = r.values().to_vec();
        for (idx, e) in &bound {
            let v = e.eval(r)?;
            vals[*idx] = if v.is_null() {
                v
            } else {
                v.cast(schema.column(*idx).ty)?
            };
        }
        new_rows.push(Row::new(vals));
    }
    Ok(DmlChange {
        entity: id,
        base: Some(view.base.version()),
        inserts: new_rows,
        count: m.rows.len(),
        deletes: m.base,
        cancels: m.own,
    })
}
