//! Grouped aggregation: the row interpreter's [`execute_aggregate`] and
//! the columnar [`execute_aggregate_batches`].
//!
//! The columnar form reads group keys and aggregate arguments straight
//! out of column slots: a hash index maps each key to a dense group index
//! (keyed on the machine word when the key is one `Int` column), and
//! accumulators fold `Int` argument slots through a typed path that never
//! builds a `Value`. Groups are emitted in key order, the order of the row
//! interpreter's `BTreeMap`, so both forms return identical rows.

use std::collections::{BTreeMap, HashSet};

use dt_common::{Batch, ColumnVec, DtError, DtResult, Row, Value};
use dt_plan::{AggExpr, AggFunc, ScalarExpr};

use crate::batch::{flatten, project_batch};
use crate::keys::KeyIndex;

/// One aggregate's running state.
enum AccState {
    Count(i64),
    Sum { sum: Value, any: bool },
    MinMax { best: Option<Value>, is_min: bool },
    Avg { sum: f64, n: i64 },
    Distinct(HashSet<Value>),
}

/// A running accumulator for one aggregate expression.
pub struct Accumulator {
    func: AggFunc,
    state: AccState,
}

impl Accumulator {
    /// Fresh accumulator for an aggregate.
    pub fn new(a: &AggExpr) -> Accumulator {
        let state = if a.distinct {
            AccState::Distinct(HashSet::new())
        } else {
            match a.func {
                AggFunc::Count | AggFunc::CountIf => AccState::Count(0),
                AggFunc::Sum => AccState::Sum {
                    sum: Value::Int(0),
                    any: false,
                },
                AggFunc::Min => AccState::MinMax {
                    best: None,
                    is_min: true,
                },
                AggFunc::Max => AccState::MinMax {
                    best: None,
                    is_min: false,
                },
                AggFunc::Avg => AccState::Avg { sum: 0.0, n: 0 },
            }
        };
        Accumulator {
            func: a.func,
            state,
        }
    }

    /// Fold one input value (already the evaluated argument; `None` means
    /// the aggregate has no argument, i.e. `count(*)`).
    pub fn update(&mut self, v: Option<&Value>) -> DtResult<()> {
        match &mut self.state {
            AccState::Count(n) => match self.func {
                AggFunc::Count => {
                    // count(*) counts rows; count(x) counts non-null x.
                    match v {
                        None => *n += 1,
                        Some(x) if !x.is_null() => *n += 1,
                        _ => {}
                    }
                }
                AggFunc::CountIf => {
                    if v.map(|x| x.is_true()).unwrap_or(false) {
                        *n += 1;
                    }
                }
                _ => return Err(DtError::internal("count state for non-count func")),
            },
            AccState::Sum { sum, any } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *sum = if *any { sum.add(x)? } else { x.clone() };
                        *any = true;
                    }
                }
            }
            AccState::MinMax { best, is_min } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                if *is_min {
                                    x < b
                                } else {
                                    x > b
                                }
                            }
                        };
                        if better {
                            *best = Some(x.clone());
                        }
                    }
                }
            }
            AccState::Avg { sum, n } => {
                if let Some(x) = v {
                    match x {
                        Value::Null => {}
                        Value::Int(i) => {
                            *sum += *i as f64;
                            *n += 1;
                        }
                        Value::Float(f) => {
                            *sum += f;
                            *n += 1;
                        }
                        other => {
                            return Err(DtError::Type(format!("avg over {other}")));
                        }
                    }
                }
            }
            AccState::Distinct(set) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        set.insert(x.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold slot `i` of an argument column. Non-NULL `Int` slots take the
    /// typed path; everything else goes through [`Accumulator::update`].
    #[inline]
    pub(crate) fn update_slot(&mut self, col: &ColumnVec, i: usize) -> DtResult<()> {
        match col {
            ColumnVec::Int { data, validity } if validity.as_ref().is_none_or(|v| v[i]) => {
                self.update_int(data[i])
            }
            ColumnVec::Generic(values) => self.update(Some(&values[i])),
            other => self.update(Some(&other.get(i))),
        }
    }

    /// [`Accumulator::update`] with `Value::Int(x)`, on machine words where
    /// the state allows. A `SUM` that would overflow takes the general path,
    /// which reports the overflow exactly as the row interpreter does.
    #[inline]
    fn update_int(&mut self, x: i64) -> DtResult<()> {
        match &mut self.state {
            AccState::Count(n) if self.func == AggFunc::Count => {
                *n += 1;
                return Ok(());
            }
            AccState::Sum {
                sum: Value::Int(s),
                any,
            } => {
                let next = if *any { s.checked_add(x) } else { Some(x) };
                if let Some(v) = next {
                    *s = v;
                    *any = true;
                    return Ok(());
                }
            }
            AccState::MinMax {
                best: Some(Value::Int(b)),
                is_min,
            } => {
                if (*is_min && x < *b) || (!*is_min && x > *b) {
                    *b = x;
                }
                return Ok(());
            }
            AccState::Avg { sum, n } => {
                *sum += x as f64;
                *n += 1;
                return Ok(());
            }
            _ => {}
        }
        self.update(Some(&Value::Int(x)))
    }

    /// Produce the final aggregate value.
    pub fn finish(self) -> DtResult<Value> {
        Ok(match self.state {
            AccState::Count(n) => Value::Int(n),
            AccState::Sum { sum, any } => {
                if any {
                    sum
                } else {
                    Value::Null
                }
            }
            AccState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AccState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AccState::Distinct(set) => match self.func {
                AggFunc::Count => Value::Int(set.len() as i64),
                AggFunc::Sum => {
                    let mut acc = Value::Int(0);
                    let mut any = false;
                    for v in set {
                        acc = if any { acc.add(&v)? } else { v };
                        any = true;
                    }
                    if any {
                        acc
                    } else {
                        Value::Null
                    }
                }
                AggFunc::Avg => {
                    let mut sum = 0.0;
                    let mut n = 0i64;
                    for v in set {
                        match v {
                            Value::Int(i) => {
                                sum += i as f64;
                                n += 1;
                            }
                            Value::Float(f) => {
                                sum += f;
                                n += 1;
                            }
                            _ => return Err(DtError::Type("avg distinct non-numeric".into())),
                        }
                    }
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum / n as f64)
                    }
                }
                AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
                AggFunc::CountIf => {
                    return Err(DtError::Unsupported("count_if(distinct ...)".into()))
                }
            },
        })
    }
}

/// Execute a grouped aggregation. Output rows: group keys then aggregate
/// values, one row per group. With no group keys this is a scalar
/// aggregation producing exactly one row (even over empty input).
pub fn execute_aggregate(
    rows: &[Row],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<Vec<Row>> {
    // BTreeMap keyed on the group-key tuple gives deterministic output order.
    let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
    for r in rows {
        fold_row(&mut groups, r, group_exprs, aggregates)?;
    }
    finish_groups(groups.into_iter().collect(), group_exprs, aggregates)
}

/// The columnar form of [`execute_aggregate`]: keys and arguments are read
/// from column slots of each batch's selected rows (see the module docs).
/// Output rows, their order, and errors are identical to
/// [`execute_aggregate`] over the same rows.
pub fn execute_aggregate_batches(
    batches: &[Batch],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<Vec<Row>> {
    let mut inputs = Vec::with_capacity(batches.len());
    for b in batches {
        match AggInput::new(b, group_exprs, aggregates) {
            Ok(input) => inputs.push(input),
            // A key or argument expression failed on some row. The row
            // interpreter interleaves evaluation with folding, so let it
            // decide which error surfaces first.
            Err(_) => return execute_aggregate(&flatten(batches), group_exprs, aggregates),
        }
    }
    let grouped = !group_exprs.is_empty();
    let mut index = KeyIndex::new(
        grouped
            && inputs
                .iter()
                .all(|input| KeyIndex::int_keyable(&input.key_columns())),
    );
    let n_aggs = aggregates.len();
    // Group-major accumulators: group `g`'s are `accs[g * n_aggs..][..n_aggs]`.
    let mut accs: Vec<Accumulator> = Vec::new();
    let mut any_row = false;
    for input in &inputs {
        let keys = input.key_columns();
        let args: Vec<Option<&ColumnVec>> = input
            .args
            .iter()
            .map(|a| a.map(|c| &**input.batch.column(c)))
            .collect();
        for i in 0..input.batch.len() {
            if !input.batch.is_selected(i) {
                continue;
            }
            any_row = true;
            let g = if grouped {
                index.find_or_insert(&keys, i) as usize
            } else {
                0
            };
            if accs.len() < (g + 1) * n_aggs {
                accs.extend(aggregates.iter().map(Accumulator::new));
            }
            for (acc, arg) in accs[g * n_aggs..].iter_mut().zip(&args) {
                match arg {
                    Some(col) => acc.update_slot(col, i)?,
                    None => acc.update(None)?,
                }
            }
        }
    }
    let keys = if grouped {
        index.into_keys()
    } else if any_row {
        vec![Vec::new()]
    } else {
        Vec::new()
    };
    let mut accs = accs.into_iter();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = keys
        .into_iter()
        .map(|k| (k, accs.by_ref().take(n_aggs).collect()))
        .collect();
    // Key order: the row interpreter's BTreeMap order.
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    finish_groups(groups, group_exprs, aggregates)
}

/// One batch's key and argument columns: the batch itself when every
/// expression is a bare column, otherwise the batch projected onto the
/// key expressions followed by the argument expressions.
struct AggInput {
    batch: Batch,
    keys: Vec<usize>,
    /// Per aggregate: its argument column, `None` for `count(*)`.
    args: Vec<Option<usize>>,
}

impl AggInput {
    fn new(b: &Batch, group_exprs: &[ScalarExpr], aggregates: &[AggExpr]) -> DtResult<AggInput> {
        let bare = |e: &ScalarExpr| match e {
            ScalarExpr::Column(c) if *c < b.arity() => Some(*c),
            _ => None,
        };
        let keys: Option<Vec<usize>> = group_exprs.iter().map(bare).collect();
        let args: Option<Vec<Option<usize>>> = aggregates
            .iter()
            .map(|a| match &a.arg {
                None => Some(None),
                Some(e) => bare(e).map(Some),
            })
            .collect();
        if let (Some(keys), Some(args)) = (keys, args) {
            return Ok(AggInput {
                batch: b.clone(),
                keys,
                args,
            });
        }
        let mut exprs = group_exprs.to_vec();
        let mut args = Vec::with_capacity(aggregates.len());
        for a in aggregates {
            args.push(a.arg.as_ref().map(|e| {
                exprs.push(e.clone());
                exprs.len() - 1
            }));
        }
        Ok(AggInput {
            batch: project_batch(b, &exprs)?,
            keys: (0..group_exprs.len()).collect(),
            args,
        })
    }

    fn key_columns(&self) -> Vec<&ColumnVec> {
        self.keys.iter().map(|&c| &**self.batch.column(c)).collect()
    }
}

fn fold_row(
    groups: &mut BTreeMap<Vec<Value>, Vec<Accumulator>>,
    r: &Row,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<()> {
    let mut key = Vec::with_capacity(group_exprs.len());
    for e in group_exprs {
        key.push(e.eval(r)?);
    }
    let accs = groups
        .entry(key)
        .or_insert_with(|| aggregates.iter().map(Accumulator::new).collect());
    for (acc, a) in accs.iter_mut().zip(aggregates) {
        let arg = match &a.arg {
            Some(e) => Some(e.eval(r)?),
            None => None,
        };
        acc.update(arg.as_ref())?;
    }
    Ok(())
}

/// Finish `groups` (already in key order) into output rows.
fn finish_groups(
    groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<Vec<Row>> {
    if groups.is_empty() && group_exprs.is_empty() {
        // Scalar aggregation over the empty bag yields one row of identities.
        let accs: Vec<Accumulator> = aggregates.iter().map(Accumulator::new).collect();
        let mut vals = Vec::with_capacity(aggregates.len());
        for acc in accs {
            vals.push(acc.finish()?);
        }
        return Ok(vec![Row::new(vals)]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut vals = key;
        for acc in accs {
            vals.push(acc.finish()?);
        }
        out.push(Row::new(vals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    fn agg(func: AggFunc, arg: Option<ScalarExpr>, distinct: bool) -> AggExpr {
        AggExpr {
            func,
            arg,
            distinct,
            name: "a".into(),
        }
    }

    #[test]
    fn sum_ignores_nulls_and_is_null_when_empty() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            row!(1i64, 5i64),
        ];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 5i64)]);

        let all_null = vec![Row::new(vec![Value::Int(1), Value::Null])];
        let out = execute_aggregate(
            &all_null,
            &[ScalarExpr::col(0)],
            &[agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)],
        )
        .unwrap();
        assert_eq!(out[0].get(1), &Value::Null);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let out = execute_aggregate(
            &[],
            &[],
            &[
                agg(AggFunc::Count, None, false),
                agg(AggFunc::Sum, Some(ScalarExpr::col(0)), false),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::Int(0), Value::Null])]);
    }

    #[test]
    fn count_star_vs_count_column() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            row!(1i64, 2i64),
        ];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[
                agg(AggFunc::Count, None, false),
                agg(AggFunc::Count, Some(ScalarExpr::col(1)), false),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 2i64, 1i64)]);
    }

    #[test]
    fn min_max_distinct() {
        let rows = vec![row!(1i64, 5i64), row!(1i64, 5i64), row!(1i64, 2i64)];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[
                agg(AggFunc::Min, Some(ScalarExpr::col(1)), false),
                agg(AggFunc::Max, Some(ScalarExpr::col(1)), false),
                agg(AggFunc::Sum, Some(ScalarExpr::col(1)), true),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 2i64, 5i64, 7i64)]);
    }
}
