//! Filter pushdown: move column-vs-constant conjuncts below joins and into
//! table scans.
//!
//! [`push_down_filters`] splits every filter predicate at its top-level
//! `AND`s. Conjuncts of the form `column OP literal` (either orientation)
//! sink as deep as they can go: into a scan's [`PredicateSet`] when the
//! filter sits on a `TableScan`, and through a `Join` into the input whose
//! columns they reference. Whatever cannot sink stays behind as the
//! residual filter — which the executor still evaluates, so a conjunct the
//! scan *can't* apply is never lost. With everything pushed, the filter
//! node disappears entirely.
//!
//! Through a join, a conjunct only moves into an input whose rows are
//! never NULL-padded: both inputs of an INNER join, the left input of a
//! LEFT join, the right input of a RIGHT join, and neither input of a FULL
//! join. (A comparison on a padded side would let padding rows through
//! that the filter above rejects.) Right-side conjuncts are rebased to the
//! right input's own column indices. Conjuncts that reference both sides
//! stay above the join. When the target input is not a scan (or a filter
//! or join over one), the conjunct becomes a filter directly over it, so
//! the join still sees fewer rows.
//!
//! Only comparisons against literals are pushable — run the rewrite
//! *after* [`LogicalPlan::bind_params`], so prepared-statement parameters
//! have already become literals and get pushed too. (An unbound
//! `Parameter` is simply not pushable; the rewrite is safe either way.)
//!
//! Note on evaluation order: SQL leaves conjunct evaluation order
//! unspecified. A pushed conjunct is a comparison between a column and a
//! literal, which never errors, so pushing it cannot add an error. Rows it
//! rejects never reach the residual filter or the join's `ON` condition,
//! so an expression that would *error* on such a row (e.g.
//! `1/x = 1 AND x > 0` at `x = 0`) no longer does. Result rows are always
//! identical; a query can surface fewer errors, never more, exactly as in
//! any engine with scan-level filtering.

use std::sync::Arc;

use dt_common::{CmpOp, ColumnPredicate, PredicateSet};

use crate::expr::{BinOp, ScalarExpr};
use crate::plan::{JoinType, LogicalPlan};

/// Rewrite the plan bottom-up, sinking the pushable conjuncts of every
/// `Filter` through joins and into table scans. Pure function: returns
/// the rewritten plan.
pub fn push_down_filters(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_filters(input);
            let conjuncts = split_conjuncts(predicate);
            let pushable: Vec<Pushable> = conjuncts
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    as_column_predicate(c).map(|pred| Pushable {
                        conjunct: i,
                        expr: (*c).clone(),
                        pred,
                    })
                })
                .collect();
            let mut stays = vec![true; conjuncts.len()];
            for p in &pushable {
                stays[p.conjunct] = false;
            }
            let (input, refused) = sink(input, pushable);
            for p in &refused {
                stays[p.conjunct] = true;
            }
            if stays.iter().all(|s| *s) {
                return LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate: predicate.clone(),
                };
            }
            let residual: Vec<&ScalarExpr> = conjuncts
                .iter()
                .zip(&stays)
                .filter(|(_, s)| **s)
                .map(|(c, _)| *c)
                .collect();
            match rejoin_conjuncts(&residual) {
                // Everything pushed: the filter node dissolves (its
                // schema equals its input's, so shapes are unchanged).
                None => input,
                Some(residual) => LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate: residual,
                },
            }
        }
        LogicalPlan::TableScan { .. } | LogicalPlan::SingleRow => plan.clone(),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(push_down_filters(input)),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(push_down_filters(left)),
            right: Box::new(push_down_filters(right)),
            join_type: *join_type,
            on: on.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            inputs: inputs.iter().map(push_down_filters).collect(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(push_down_filters(input)),
            group_exprs: group_exprs.clone(),
            aggregates: aggregates.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(push_down_filters(input)),
        },
        LogicalPlan::Window {
            input,
            exprs,
            schema,
        } => LogicalPlan::Window {
            input: Box::new(push_down_filters(input)),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_down_filters(input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(push_down_filters(input)),
            n: *n,
        },
    }
}

/// One pushable conjunct on its way down: its position in the original
/// filter (so the residual keeps its order), its expression (rebased as it
/// crosses joins) and its scan-predicate form.
struct Pushable {
    conjunct: usize,
    expr: ScalarExpr,
    pred: ColumnPredicate,
}

impl Pushable {
    /// The same conjunct over the right input of a join whose left input
    /// has `left_arity` columns.
    fn rebase_right(mut self, left_arity: usize) -> Pushable {
        self.expr = self.expr.map_columns(&|i| i - left_arity);
        self.pred.column -= left_arity;
        self
    }
}

/// Sink `preds` (over `plan`'s output columns) as deep into `plan` as they
/// go. Returns the rewritten plan and the conjuncts it could not take,
/// which the caller must still apply above it.
fn sink(plan: LogicalPlan, preds: Vec<Pushable>) -> (LogicalPlan, Vec<Pushable>) {
    if preds.is_empty() {
        return (plan, preds);
    }
    match plan {
        LogicalPlan::TableScan {
            entity,
            name,
            schema,
            pushdown,
        } => {
            let mut pushed = pushdown.unwrap_or_default().preds;
            pushed.extend(preds.into_iter().map(|p| p.pred));
            let scan = LogicalPlan::TableScan {
                entity,
                name,
                schema,
                pushdown: Some(PredicateSet::new(pushed)),
            };
            (scan, Vec::new())
        }
        // A filter keeps its rows' shape, so conjuncts pass through it;
        // the filter's own predicate then runs on fewer rows.
        LogicalPlan::Filter { input, predicate } => {
            let (input, refused) = sink(*input, preds);
            let filter = LogicalPlan::Filter {
                input: Box::new(input),
                predicate,
            };
            (filter, refused)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } => {
            let left_arity = left.schema().len();
            let (into_left, into_right) = match join_type {
                JoinType::Inner => (true, true),
                JoinType::Left => (true, false),
                JoinType::Right => (false, true),
                JoinType::Full => (false, false),
            };
            let (mut to_left, mut to_right, mut stay) = (Vec::new(), Vec::new(), Vec::new());
            for p in preds {
                if p.pred.column < left_arity {
                    if into_left {
                        to_left.push(p);
                    } else {
                        stay.push(p);
                    }
                } else if into_right {
                    to_right.push(p.rebase_right(left_arity));
                } else {
                    stay.push(p);
                }
            }
            let join = LogicalPlan::Join {
                left: Box::new(place(*left, to_left)),
                right: Box::new(place(*right, to_right)),
                join_type,
                on,
                schema,
            };
            (join, stay)
        }
        other => (other, preds),
    }
}

/// Sink `preds` into `plan`, wrapping whatever does not sink in a filter
/// directly over it.
fn place(plan: LogicalPlan, preds: Vec<Pushable>) -> LogicalPlan {
    let (plan, refused) = sink(plan, preds);
    let exprs: Vec<&ScalarExpr> = refused.iter().map(|p| &p.expr).collect();
    match rejoin_conjuncts(&exprs) {
        None => plan,
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
    }
}

/// Flatten a predicate's top-level AND tree into conjuncts.
fn split_conjuncts(e: &ScalarExpr) -> Vec<&ScalarExpr> {
    let mut out = Vec::new();
    fn go<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
        match e {
            ScalarExpr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                go(left, out);
                go(right, out);
            }
            other => out.push(other),
        }
    }
    go(e, &mut out);
    out
}

/// Reassemble residual conjuncts into one left-deep AND (evaluation order
/// preserved), or `None` when nothing is left.
fn rejoin_conjuncts(conjuncts: &[&ScalarExpr]) -> Option<ScalarExpr> {
    let mut it = conjuncts.iter();
    let first = (*it.next()?).clone();
    Some(it.fold(first, |acc, c| ScalarExpr::Binary {
        left: Box::new(acc),
        op: BinOp::And,
        right: Box::new((*c).clone()),
    }))
}

/// `col OP literal` / `literal OP col` → a pushable [`ColumnPredicate`].
fn as_column_predicate(e: &ScalarExpr) -> Option<ColumnPredicate> {
    let ScalarExpr::Binary { left, op, right } = e else {
        return None;
    };
    let op = cmp_of(*op)?;
    match (left.as_ref(), right.as_ref()) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => Some(ColumnPredicate {
            column: *c,
            op,
            literal: v.clone(),
        }),
        (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => Some(ColumnPredicate {
            column: *c,
            op: op.flip(),
            literal: v.clone(),
        }),
        _ => None,
    }
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::NotEq,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::LtEq,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::GtEq,
        _ => return None,
    })
}

/// The pushed-predicate set of a scan, if any (bench/test introspection).
pub fn scan_pushdown(plan: &LogicalPlan) -> Option<&PredicateSet> {
    match plan {
        LogicalPlan::TableScan { pushdown, .. } => pushdown.as_ref(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType, EntityId, Schema, Value};
    use std::sync::Arc;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            entity: EntityId(1),
            name: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Int),
            ])),
            pushdown: None,
        }
    }

    fn bin(l: ScalarExpr, op: BinOp, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn fully_pushable_filter_dissolves() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64)),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::TableScan { pushdown, .. } = &out else {
            panic!("filter should dissolve into the scan: {out:?}");
        };
        let ps = pushdown.as_ref().unwrap();
        assert_eq!(ps.preds.len(), 1);
        assert_eq!(ps.preds[0].column, 0);
        assert_eq!(ps.preds[0].op, CmpOp::Gt);
        assert_eq!(ps.preds[0].literal, Value::Int(5));
        assert_eq!(out.schema(), p.schema());
    }

    #[test]
    fn flipped_literal_orientation_is_normalized() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::lit(5i64), BinOp::Lt, ScalarExpr::col(1)),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::TableScan { pushdown, .. } = &out else {
            panic!()
        };
        let p0 = &pushdown.as_ref().unwrap().preds[0];
        // 5 < y  ≡  y > 5
        assert_eq!((p0.column, p0.op), (1, CmpOp::Gt));
    }

    #[test]
    fn mixed_conjunction_keeps_residual() {
        // x > 5 AND x + y = 3: first conjunct pushes, second stays.
        let pushable = bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64));
        let residual = bin(
            bin(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(1)),
            BinOp::Eq,
            ScalarExpr::lit(3i64),
        );
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(pushable, BinOp::And, residual.clone()),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::Filter { input, predicate } = &out else {
            panic!("residual filter must remain: {out:?}");
        };
        assert_eq!(*predicate, residual);
        let LogicalPlan::TableScan { pushdown, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pushdown.as_ref().unwrap().preds.len(), 1);
    }

    #[test]
    fn or_and_non_literal_comparisons_do_not_push() {
        for pred in [
            // OR is not a conjunction.
            bin(
                bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(1i64)),
                BinOp::Or,
                bin(ScalarExpr::col(1), BinOp::Gt, ScalarExpr::lit(1i64)),
            ),
            // column-vs-column.
            bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(1)),
            // unbound parameter.
            bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::Parameter(0)),
        ] {
            let p = LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: pred.clone(),
            };
            let out = push_down_filters(&p);
            assert_eq!(out, p, "{pred:?} must not push");
        }
    }

    #[test]
    fn filters_above_non_scans_are_untouched() {
        let p = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan()),
            }),
            predicate: bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64)),
        };
        assert_eq!(push_down_filters(&p), p);
    }

    /// `l(x, y)` join `r(x, y)` on `l.x = r.x` (right columns are #2, #3).
    fn join(join_type: JoinType) -> LogicalPlan {
        let (l, r) = (scan(), scan());
        let schema = Arc::new(l.schema().join(&r.schema()));
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type,
            on: bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(2)),
            schema,
        }
    }

    fn gt(col: usize, lit: i64) -> ScalarExpr {
        bin(ScalarExpr::col(col), BinOp::Gt, ScalarExpr::lit(lit))
    }

    /// Pushed predicates as `(column, literal)` pairs.
    type Pushed = Vec<(usize, Value)>;

    /// The pushed predicates of a join input (a scan, possibly under a
    /// residual filter).
    fn pushed(side: &LogicalPlan) -> Pushed {
        let scan = match side {
            LogicalPlan::Filter { input, .. } => input.as_ref(),
            other => other,
        };
        let LogicalPlan::TableScan { pushdown, .. } = scan else {
            panic!("expected a scan: {scan:?}")
        };
        pushdown
            .iter()
            .flat_map(|ps| ps.preds.iter().map(|p| (p.column, p.literal.clone())))
            .collect()
    }

    /// Push `l.y > 1 AND r.y > 2 AND l.x + r.y > 3` through a join of
    /// `join_type`; returns (left pushed, right pushed, residual above).
    fn push_through(join_type: JoinType) -> (Pushed, Pushed, Option<ScalarExpr>) {
        let both_sides = bin(
            bin(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(3)),
            BinOp::Gt,
            ScalarExpr::lit(3i64),
        );
        let p = LogicalPlan::Filter {
            input: Box::new(join(join_type)),
            predicate: bin(bin(gt(1, 1), BinOp::And, gt(3, 2)), BinOp::And, both_sides),
        };
        let out = push_down_filters(&p);
        assert_eq!(out.schema(), p.schema());
        let (join, residual) = match out {
            LogicalPlan::Filter { input, predicate } => (*input, Some(predicate)),
            other => (other, None),
        };
        let LogicalPlan::Join { left, right, .. } = join else {
            panic!("expected the join under the residual: {join:?}")
        };
        (pushed(&left), pushed(&right), residual)
    }

    #[test]
    fn inner_join_takes_conjuncts_into_both_inputs() {
        let (left, right, residual) = push_through(JoinType::Inner);
        assert_eq!(left, vec![(1, Value::Int(1))]);
        // r.y is column 3 of the join, column 1 of the right input.
        assert_eq!(right, vec![(1, Value::Int(2))]);
        // The conjunct over both sides stays above the join.
        let residual = residual.expect("cross-side conjunct stays");
        assert!(!matches!(
            &residual,
            ScalarExpr::Binary { op: BinOp::And, .. }
        ));
        let mut cols = Vec::new();
        residual.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 3]);
    }

    #[test]
    fn outer_joins_only_take_conjuncts_into_unpadded_inputs() {
        let (left, right, residual) = push_through(JoinType::Left);
        assert_eq!((left, right), (vec![(1, Value::Int(1))], vec![]));
        let text = residual.unwrap().to_string();
        assert!(
            text.contains("#3 Gt 2"),
            "right-side conjunct stays: {text}"
        );

        let (left, right, residual) = push_through(JoinType::Right);
        assert_eq!((left, right), (vec![], vec![(1, Value::Int(2))]));
        let text = residual.unwrap().to_string();
        assert!(text.contains("#1 Gt 1"), "left-side conjunct stays: {text}");

        let (left, right, residual) = push_through(JoinType::Full);
        assert_eq!((left, right), (vec![], vec![]));
        let text = residual.unwrap().to_string();
        assert!(
            text.contains("#1 Gt 1") && text.contains("#3 Gt 2"),
            "{text}"
        );
    }

    #[test]
    fn full_join_filter_is_left_untouched() {
        let p = LogicalPlan::Filter {
            input: Box::new(join(JoinType::Full)),
            predicate: bin(gt(1, 1), BinOp::And, gt(3, 2)),
        };
        assert_eq!(push_down_filters(&p), p);
    }

    #[test]
    fn conjuncts_sink_through_nested_joins() {
        // (l JOIN r) JOIN s: the outer filter's s-side conjunct goes right,
        // its r-side conjunct crosses both joins into r's scan.
        let inner = join(JoinType::Inner);
        let s = scan();
        let schema = Arc::new(inner.schema().join(&s.schema()));
        let outer = LogicalPlan::Join {
            left: Box::new(inner),
            right: Box::new(s),
            join_type: JoinType::Inner,
            on: bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(4)),
            schema,
        };
        let p = LogicalPlan::Filter {
            input: Box::new(outer),
            predicate: bin(gt(5, 7), BinOp::And, gt(2, 9)),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::Join { left, right, .. } = &out else {
            panic!("filter should dissolve: {out:?}")
        };
        assert_eq!(pushed(right), vec![(1, Value::Int(7))]);
        let LogicalPlan::Join {
            left: l, right: r, ..
        } = left.as_ref()
        else {
            panic!("inner join expected: {left:?}")
        };
        assert_eq!(pushed(l), vec![]);
        assert_eq!(pushed(r), vec![(0, Value::Int(9))]);
    }

    #[test]
    fn conjuncts_for_a_non_scan_input_filter_it_below_the_join() {
        // The right input is a DISTINCT: the conjunct cannot reach a scan,
        // so it filters the DISTINCT's output under the join.
        let l = scan();
        let r = LogicalPlan::Distinct {
            input: Box::new(scan()),
        };
        let schema = Arc::new(l.schema().join(&r.schema()));
        let p = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                join_type: JoinType::Inner,
                on: bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(2)),
                schema,
            }),
            predicate: gt(3, 4),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::Join { right, .. } = &out else {
            panic!("filter should dissolve: {out:?}")
        };
        let LogicalPlan::Filter { input, predicate } = right.as_ref() else {
            panic!("right input should be filtered: {right:?}")
        };
        assert_eq!(*predicate, gt(1, 4));
        assert!(matches!(input.as_ref(), LogicalPlan::Distinct { .. }));
    }

    #[test]
    fn explain_shows_pushdown() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::col(0), BinOp::GtEq, ScalarExpr::lit(2i64)),
        };
        let text = push_down_filters(&p).explain();
        assert!(text.contains("Scan t [pushdown: #0 >= 2]"), "{text}");
    }
}
