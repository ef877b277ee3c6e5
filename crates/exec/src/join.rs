//! Join execution: hash join on extracted equi-keys with a nested-loop
//! fallback; all four join types.
//!
//! [`execute_join`] is the row interpreter's join. [`execute_join_batches`]
//! is the columnar one: the hash table is built on the right input's key
//! columns, each left batch probes it with its own key columns, and output
//! batches are gathered column by column at the matched index pairs, so no
//! row is materialized on the way through.

use std::collections::HashMap;
use std::sync::Arc;

use dt_common::{Batch, ColumnVec, DtResult, Row, Value};
use dt_plan::expr::BinOp;
use dt_plan::{JoinType, ScalarExpr};

use crate::batch::{filter_batch, flatten, project_batch, rejoin_conjuncts, rows_to_batches};
use crate::keys::{any_null, KeyIndex};

/// Equi-key pairs extracted from an ON condition: expressions over the left
/// row and the corresponding expressions over the right row.
struct EquiKeys {
    left: Vec<ScalarExpr>,
    /// Right-side expressions, rebased to the right row's own indices.
    right: Vec<ScalarExpr>,
    /// Conjuncts that are not simple equi-comparisons (evaluated on the
    /// concatenated row as a residual filter).
    residual: Vec<ScalarExpr>,
}

fn split_conjuncts(e: &ScalarExpr, out: &mut Vec<ScalarExpr>) {
    if let ScalarExpr::Binary { left, op, right } = e {
        if *op == BinOp::And {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
            return;
        }
    }
    out.push(e.clone());
}

fn side_of(e: &ScalarExpr, left_arity: usize) -> Option<bool> {
    // Some(true) = refs only left columns; Some(false) = only right;
    // None = mixed or no columns (no-column exprs treated as left-safe).
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    if cols.is_empty() {
        return Some(true);
    }
    let all_left = cols.iter().all(|c| *c < left_arity);
    let all_right = cols.iter().all(|c| *c >= left_arity);
    if all_left {
        Some(true)
    } else if all_right {
        Some(false)
    } else {
        None
    }
}

fn extract_equi_keys(on: &ScalarExpr, left_arity: usize) -> EquiKeys {
    let mut conjuncts = Vec::new();
    split_conjuncts(on, &mut conjuncts);
    let mut keys = EquiKeys {
        left: vec![],
        right: vec![],
        residual: vec![],
    };
    for c in conjuncts {
        if let ScalarExpr::Binary { left, op, right } = &c {
            if *op == BinOp::Eq {
                match (side_of(left, left_arity), side_of(right, left_arity)) {
                    (Some(true), Some(false)) => {
                        keys.left.push((**left).clone());
                        keys.right.push(right.map_columns(&|i| i - left_arity));
                        continue;
                    }
                    (Some(false), Some(true)) => {
                        keys.left.push((**right).clone());
                        keys.right.push(left.map_columns(&|i| i - left_arity));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        keys.residual.push(c);
    }
    keys
}

fn eval_key(exprs: &[ScalarExpr], row: &Row) -> DtResult<Option<Vec<Value>>> {
    // SQL equi-join keys never match on NULL; a NULL key joins nothing.
    let mut k = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = e.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        k.push(v);
    }
    Ok(Some(k))
}

/// Execute a join between materialized inputs.
pub fn execute_join(
    left: &[Row],
    right: &[Row],
    left_arity: usize,
    right_arity: usize,
    join_type: JoinType,
    on: &ScalarExpr,
) -> DtResult<Vec<Row>> {
    let keys = extract_equi_keys(on, left_arity);
    let mut out = Vec::new();
    let mut left_matched = vec![false; left.len()];
    let mut right_matched = vec![false; right.len()];

    if keys.left.is_empty() {
        // Nested loop.
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                let joined = l.concat(r);
                if residual_ok(&keys.residual, &joined)? {
                    left_matched[i] = true;
                    right_matched[j] = true;
                    out.push(joined);
                }
            }
        }
    } else {
        // Hash join: build on the right.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (j, r) in right.iter().enumerate() {
            if let Some(k) = eval_key(&keys.right, r)? {
                table.entry(k).or_default().push(j);
            }
        }
        for (i, l) in left.iter().enumerate() {
            if let Some(k) = eval_key(&keys.left, l)? {
                if let Some(matches) = table.get(&k) {
                    for &j in matches {
                        let joined = l.concat(&right[j]);
                        if residual_ok(&keys.residual, &joined)? {
                            left_matched[i] = true;
                            right_matched[j] = true;
                            out.push(joined);
                        }
                    }
                }
            }
        }
    }

    // Outer padding.
    if matches!(join_type, JoinType::Left | JoinType::Full) {
        for (i, l) in left.iter().enumerate() {
            if !left_matched[i] {
                out.push(l.concat(&Row::nulls(right_arity)));
            }
        }
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (j, r) in right.iter().enumerate() {
            if !right_matched[j] {
                out.push(Row::nulls(left_arity).concat(r));
            }
        }
    }
    Ok(out)
}

/// The columnar form of [`execute_join`]. Output rows, their order
/// (matches in probe order, then unmatched left rows in probe order, then
/// unmatched right rows in build order) and errors are identical to
/// [`execute_join`] over the same rows. A join without equi-keys runs as
/// the row interpreter's nested loop.
pub fn execute_join_batches(
    left: &[Batch],
    right: &[Batch],
    left_arity: usize,
    right_arity: usize,
    join_type: JoinType,
    on: &ScalarExpr,
) -> DtResult<Vec<Batch>> {
    let row_join = || {
        let rows = execute_join(
            &flatten(left),
            &flatten(right),
            left_arity,
            right_arity,
            join_type,
            on,
        )?;
        Ok(rows_to_batches(rows))
    };
    let keys = extract_equi_keys(on, left_arity);
    if keys.left.is_empty() {
        return row_join();
    }
    // An expression (a computed key or a residual ON conjunct) failed on
    // some row. The columnar join evaluates them in a different order than
    // the row interpreter, so let the row interpreter decide which error —
    // if any — the query reports.
    hash_join(left, right, left_arity, right_arity, join_type, &keys).or_else(|_| row_join())
}

fn hash_join(
    left: &[Batch],
    right: &[Batch],
    left_arity: usize,
    right_arity: usize,
    join_type: JoinType,
    keys: &EquiKeys,
) -> DtResult<Vec<Batch>> {
    let build = concat_batches(right, right_arity);
    let build_keys = KeyColumns::new(&build, &keys.right)?;
    let probe_keys: Vec<KeyColumns> = left
        .iter()
        .map(|b| KeyColumns::new(b, &keys.left))
        .collect::<DtResult<_>>()?;
    let residual = rejoin_conjuncts(&keys.residual);

    // Build: key id → build rows with that key, in build order. NULL keys
    // never match, so they are never inserted.
    let bk = build_keys.columns();
    let mut index = KeyIndex::new(
        KeyIndex::int_keyable(&bk)
            && probe_keys
                .iter()
                .all(|k| KeyIndex::int_keyable(&k.columns())),
    );
    let mut rows_of: Vec<Vec<u32>> = Vec::new();
    for j in 0..build.len() {
        if any_null(&bk, j) {
            continue;
        }
        let id = index.find_or_insert(&bk, j) as usize;
        if id == rows_of.len() {
            rows_of.push(Vec::new());
        }
        rows_of[id].push(j as u32);
    }

    let pad_left = matches!(join_type, JoinType::Left | JoinType::Full);
    let mut right_matched = vec![false; build.len()];
    let mut out = Vec::new();
    let mut unmatched_left: Vec<(&Batch, Vec<usize>)> = Vec::new();
    for (b, probe) in left.iter().zip(&probe_keys) {
        let pk = probe.columns();
        let live = b.live_indices();
        let (mut lp, mut rp) = (Vec::new(), Vec::new());
        for (rank, &p) in live.iter().enumerate() {
            let k = if probe.dense { rank } else { p };
            if any_null(&pk, k) {
                continue;
            }
            if let Some(id) = index.find(&pk, k) {
                for &j in &rows_of[id as usize] {
                    lp.push(p);
                    rp.push(j as usize);
                }
            }
        }
        let mut matched = gather_pairs(b, &lp, &build, &rp);
        if let Some(residual) = &residual {
            filter_batch(&mut matched, residual)?;
        }
        let mut left_matched = vec![false; b.len()];
        for (t, (&p, &j)) in lp.iter().zip(&rp).enumerate() {
            if matched.is_selected(t) {
                left_matched[p] = true;
                right_matched[j] = true;
            }
        }
        if matched.live_count() > 0 {
            out.push(matched);
        }
        if pad_left {
            let unmatched: Vec<usize> = live.into_iter().filter(|&p| !left_matched[p]).collect();
            if !unmatched.is_empty() {
                unmatched_left.push((b, unmatched));
            }
        }
    }

    for (b, idx) in unmatched_left {
        let mut columns: Vec<Arc<ColumnVec>> = b
            .columns()
            .iter()
            .map(|c| Arc::new(c.gather(&idx)))
            .collect();
        columns.extend((0..right_arity).map(|_| Arc::new(null_column(idx.len()))));
        out.push(Batch::new(columns, idx.len()));
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        let idx: Vec<usize> = (0..build.len()).filter(|&j| !right_matched[j]).collect();
        if !idx.is_empty() {
            let mut columns: Vec<Arc<ColumnVec>> = (0..left_arity)
                .map(|_| Arc::new(null_column(idx.len())))
                .collect();
            columns.extend(build.columns().iter().map(|c| Arc::new(c.gather(&idx))));
            out.push(Batch::new(columns, idx.len()));
        }
    }
    Ok(out)
}

/// One batch's join-key columns: the batch's own columns (indexed by
/// physical slot) when every key is a bare column, otherwise the batch
/// projected onto the key expressions (dense: indexed by the rank of the
/// selected row).
struct KeyColumns {
    columns: Vec<Arc<ColumnVec>>,
    dense: bool,
}

impl KeyColumns {
    fn new(b: &Batch, exprs: &[ScalarExpr]) -> DtResult<KeyColumns> {
        let bare: Option<Vec<Arc<ColumnVec>>> = exprs
            .iter()
            .map(|e| match e {
                ScalarExpr::Column(c) if *c < b.arity() => Some(Arc::clone(b.column(*c))),
                _ => None,
            })
            .collect();
        Ok(match bare {
            Some(columns) => KeyColumns {
                columns,
                dense: false,
            },
            None => KeyColumns {
                columns: project_batch(b, exprs)?.columns().to_vec(),
                dense: true,
            },
        })
    }

    fn columns(&self) -> Vec<&ColumnVec> {
        self.columns.iter().map(|c| &**c).collect()
    }
}

/// The joined batch of `left`'s slots `lp` paired with `build`'s slots
/// `rp`.
fn gather_pairs(left: &Batch, lp: &[usize], build: &Batch, rp: &[usize]) -> Batch {
    let columns = left
        .columns()
        .iter()
        .map(|c| Arc::new(c.gather(lp)))
        .chain(build.columns().iter().map(|c| Arc::new(c.gather(rp))))
        .collect();
    Batch::new(columns, lp.len())
}

/// The selected rows of `batches` as one dense batch of `arity` columns:
/// zero-copy for the common single-partition build side, shredded from
/// rows otherwise.
fn concat_batches(batches: &[Batch], arity: usize) -> Batch {
    match batches {
        [only] => only.compact(),
        _ => Batch::from_rows(arity, &flatten(batches)),
    }
}

/// An all-NULL column of `n` slots (outer-join padding).
fn null_column(n: usize) -> ColumnVec {
    ColumnVec::Int {
        data: vec![0; n],
        validity: Some(vec![false; n]),
    }
}

fn residual_ok(residual: &[ScalarExpr], joined: &Row) -> DtResult<bool> {
    for p in residual {
        if !p.eval(joined)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    fn eq(l: usize, r: usize) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::col(l), ScalarExpr::col(r))
    }

    #[test]
    fn equi_key_extraction_orients_sides() {
        // ON right.col = left.col (reversed order) still extracts.
        let on = eq(2, 0); // col2 (right, arity 2) = col0 (left)
        let keys = extract_equi_keys(&on, 2);
        assert_eq!(keys.left, vec![ScalarExpr::col(0)]);
        assert_eq!(keys.right, vec![ScalarExpr::col(0)]);
        assert!(keys.residual.is_empty());
    }

    #[test]
    fn null_keys_never_match() {
        let left = vec![Row::new(vec![Value::Null]), row!(1i64)];
        let right = vec![Row::new(vec![Value::Null]), row!(1i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &eq(0, 1)).unwrap();
        assert_eq!(out, vec![row!(1i64, 1i64)]);
        // But FULL join surfaces the null rows unmatched.
        let out = execute_join(&left, &right, 1, 1, JoinType::Full, &eq(0, 1)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn residual_predicate_applies_after_hash_match() {
        // ON a = b AND a > 1
        let on = ScalarExpr::Binary {
            left: Box::new(eq(0, 1)),
            op: BinOp::And,
            right: Box::new(ScalarExpr::Binary {
                left: Box::new(ScalarExpr::col(0)),
                op: BinOp::Gt,
                right: Box::new(ScalarExpr::lit(1i64)),
            }),
        };
        let left = vec![row!(1i64), row!(2i64)];
        let right = vec![row!(1i64), row!(2i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &on).unwrap();
        assert_eq!(out, vec![row!(2i64, 2i64)]);
    }

    #[test]
    fn duplicate_left_and_right_rows_multiply() {
        let left = vec![row!(1i64), row!(1i64)];
        let right = vec![row!(1i64), row!(1i64), row!(1i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &eq(0, 1)).unwrap();
        assert_eq!(out.len(), 6);
    }
}
