//! Differential tests for the vectorized read path: every query runs
//! through BOTH executors — the legacy row-at-a-time interpreter
//! (`dt_exec::execute_rows`, no pushdown) and the columnar batch pipeline
//! (`dt_exec::execute` over `push_down_filters`, with zone-map pruning and
//! morsel-parallel scans when backed by real storage) — and the results
//! must be identical, including row order. Order equality is deliberate:
//! every batch operator preserves the row interpreter's output order, so
//! the two paths are bit-for-bit interchangeable.

use dt_common::{Column, DataType, DtError, DtResult, EntityId, Row, Schema, Value};
use dt_core::{DbConfig, Engine, Session};
use dt_exec::MapProvider;
use dt_plan::{Binder, ResolvedRelation, Resolver};
use proptest::prelude::*;

fn parse_query(sql: &str) -> dt_sql::ast::Query {
    match dt_sql::parse(sql).unwrap() {
        dt_sql::ast::Statement::Query(q) => q,
        other => panic!("not a query: {other:?}"),
    }
}

/// Run one SQL query through both executors against a live snapshot and
/// assert the results match exactly (values and order).
fn assert_paths_agree(session: &Session, sql: &str) {
    let q = parse_query(sql);
    let snap = session.snapshot();
    let plan = snap.bind_query(&q).unwrap().plan;
    let legacy = dt_exec::execute_rows(&plan, &snap).unwrap();
    let pushed = dt_plan::push_down_filters(&plan);
    let columnar = dt_exec::execute(&pushed, &snap).unwrap();
    assert_eq!(legacy, columnar, "paths diverged for: {sql}");
}

/// A populated engine: two tables spanning several storage partitions so
/// zone maps have real min/max spreads to prune on, with NULLs, strings,
/// and floats in the mix.
fn fixture_engine() -> Engine {
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    s.execute("CREATE TABLE t1 (k INT, v INT, name STRING)").unwrap();
    s.execute("CREATE TABLE t2 (k INT, w FLOAT)").unwrap();
    // Separate statements -> separate commits -> separate partitions,
    // each with a tight, disjoint key range for the zone maps.
    for chunk in 0..6i64 {
        let rows: Vec<String> = (0..50)
            .map(|i| {
                let k = chunk * 50 + i;
                let name = if k % 7 == 0 { "NULL".into() } else { format!("'n{}'", k % 10) };
                format!("({k}, {}, {name})", k % 13)
            })
            .collect();
        s.execute(&format!("INSERT INTO t1 VALUES {}", rows.join(", ")))
            .unwrap();
    }
    for chunk in 0..4i64 {
        let rows: Vec<String> = (0..25)
            .map(|i| {
                let k = chunk * 25 + i;
                format!("({k}, {}.5)", k * 2)
            })
            .collect();
        s.execute(&format!("INSERT INTO t2 VALUES {}", rows.join(", ")))
            .unwrap();
    }
    engine
}

/// The query fixtures: one per operator family the executor supports, plus
/// filter shapes chosen to hit each vectorization tier (fully vectorized,
/// prefix + residual, full row fallback) and each pushdown outcome
/// (prunable range, unprunable, mixed conjuncts).
const FIXTURES: &[&str] = &[
    // Pushable single-column ranges (zone maps prune most partitions).
    "SELECT k, v FROM t1 WHERE k < 20",
    "SELECT k, v FROM t1 WHERE k >= 280",
    "SELECT k FROM t1 WHERE k > 90 AND k <= 110",
    // Unpushable / partially pushable predicates.
    "SELECT k FROM t1 WHERE k + 1 > 100 AND k < 150",
    "SELECT k, v FROM t1 WHERE v = 3 OR k = 299",
    "SELECT k FROM t1 WHERE NOT (k < 250)",
    // IN-list membership through the vectorized mask: plain, negated,
    // string-typed, NULL candidates (Kleene), and mixed with residuals.
    "SELECT k, v FROM t1 WHERE k IN (3, 7, 250, 299)",
    "SELECT k FROM t1 WHERE v NOT IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)",
    "SELECT k, name FROM t1 WHERE name IN ('n1', 'n4')",
    "SELECT k FROM t1 WHERE v IN (1, NULL)",
    "SELECT k FROM t1 WHERE v NOT IN (1, NULL)",
    "SELECT k FROM t1 WHERE k IN (5, 10, 15) AND k + v > 6",
    "SELECT k FROM t1 WHERE NOT (k IN (1, 2, 3)) AND k < 8",
    "SELECT k FROM t1 WHERE k + 1 IN (4, 8)",
    // NULL semantics through the vectorized mask.
    "SELECT k, name FROM t1 WHERE name IS NULL",
    "SELECT k FROM t1 WHERE name IS NOT NULL AND k < 30",
    "SELECT k FROM t1 WHERE name = 'n3'",
    // Projection shapes: zero-copy column picks and computed exprs.
    "SELECT name, k FROM t1 WHERE k < 40",
    "SELECT k * 2 d, v FROM t1 WHERE k BETWEEN 10 AND 25",
    // Joins (equi and non-equi padding paths).
    "SELECT a.k, a.v, b.w FROM t1 a JOIN t2 b ON a.k = b.k WHERE a.k < 60",
    "SELECT a.k, b.w FROM t1 a LEFT JOIN t2 b ON a.k = b.k WHERE a.k < 120",
    "SELECT a.v, b.w FROM t1 a FULL OUTER JOIN t2 b ON a.k = b.k WHERE a.k < 10 OR a.k IS NULL",
    // WHERE through joins: each conjunct sinks into the input it
    // references where that input is never NULL-padded, and stays above
    // the join otherwise.
    "SELECT a.k, b.k, b.w FROM t1 a RIGHT JOIN t2 b ON a.k = b.k WHERE b.k >= 40",
    "SELECT a.k, b.k, b.w FROM t1 a RIGHT JOIN t2 b ON a.k = b.k WHERE b.k < 30 AND a.k > 10",
    "SELECT a.k, b.w FROM t1 a LEFT JOIN t2 b ON a.k = b.k WHERE b.w > 50 AND a.k < 200",
    "SELECT a.k, b.w FROM t1 a LEFT JOIN t2 b ON a.k = b.k WHERE a.k >= 90 AND b.k IS NULL",
    "SELECT a.k, a.v, b.w FROM t1 a JOIN t2 b ON a.k = b.k \
     WHERE a.k >= 20 AND b.w < 150 AND a.v + b.w > 10",
    "SELECT a.k, b.w FROM t1 a FULL OUTER JOIN t2 b ON a.k = b.k WHERE b.w > 100 AND a.v < 5",
    // Three-table join with WHERE conjuncts for the outer and inner joins.
    "SELECT a.k, b.w, c.k, c.name FROM t1 a JOIN t2 b ON a.k = b.k \
     JOIN t1 c ON c.v = a.v WHERE a.k < 30 AND c.k > 280 AND b.w > 3",
    "SELECT a.k, b.w, c.name FROM t1 a LEFT JOIN t2 b ON a.k = b.k \
     JOIN t1 c ON c.k = a.k + 1 WHERE a.k > 70 AND a.k < 130 AND b.w > 150",
    // Equi-join with a residual ON conjunct and a computed key.
    "SELECT a.k, b.w FROM t1 a JOIN t2 b ON a.k = b.k AND a.v < b.w - 100",
    "SELECT a.k, b.k FROM t1 a JOIN t2 b ON a.k + 1 = b.k WHERE a.k < 40",
    "SELECT a.k, b.k FROM t1 a LEFT JOIN t2 b ON a.k = b.k AND b.w > 20 WHERE a.k < 30",
    // Grouped aggregates: string keys with NULLs, keys off a join, keys
    // mixing Int and Float values that compare equal, count(col) over
    // NULLs, DISTINCT aggregates and computed keys and arguments.
    "SELECT name, count(*) c, sum(v) s, min(k) lo FROM t1 GROUP BY name",
    "SELECT b.w > 100 big, a.name, count(*) c FROM t1 a JOIN t2 b ON a.k = b.k \
     WHERE a.k < 90 GROUP BY b.w > 100, a.name",
    "SELECT x, count(*) n FROM (SELECT k x FROM t2 UNION ALL SELECT w - 0.5 x FROM t2) u GROUP BY x",
    "SELECT v, count(name) cn, count(*) c, avg(k) a FROM t1 GROUP BY v",
    "SELECT v, count(DISTINCT name) d, sum(DISTINCT k % 5) s FROM t1 GROUP BY v",
    "SELECT b.w, count(a.k) n, max(a.name) m FROM t1 a RIGHT JOIN t2 b ON a.k = b.k GROUP BY b.w",
    "SELECT k % 4 g, sum(v * 2) s, count_if(v > 6) c FROM t1 GROUP BY k % 4",
    // Aggregation, distinct, union, windows, sort, limit.
    "SELECT v, count(*) c, min(k) lo, max(k) hi FROM t1 GROUP BY v",
    "SELECT count(*) n, sum(v) s FROM t1 WHERE k > 250",
    "SELECT DISTINCT v FROM t1 WHERE k < 100",
    "SELECT k FROM t1 WHERE k < 5 UNION ALL SELECT k FROM t2 WHERE k < 5",
    "SELECT v, k, sum(k) OVER (PARTITION BY v ORDER BY k) run FROM t1 WHERE k < 50",
    "SELECT k, v FROM t1 WHERE v > 5 ORDER BY v, k DESC LIMIT 17",
    "SELECT k FROM t1 ORDER BY k LIMIT 3",
    // Aggregate over an empty (fully pruned) scan: identity row parity.
    "SELECT count(*) n, sum(v) s FROM t1 WHERE k > 100000",
    // Nested subquery with filters on both levels.
    "SELECT k, d FROM (SELECT k, v - 1 d FROM t1 WHERE k > 30) x WHERE d < 5",
];

#[test]
fn every_fixture_agrees_between_row_and_columnar_paths() {
    let engine = fixture_engine();
    let session = engine.session();
    for sql in FIXTURES {
        assert_paths_agree(&session, sql);
    }
}

/// Queries that fail: both paths must return the same error.
const FAILING: &[&str] = &[
    // SUM over Int overflows (typed path).
    "SELECT g, sum(x) FROM big GROUP BY g",
    "SELECT sum(x) FROM big",
    // Errors in a computed aggregate argument, join key, and ON residual.
    "SELECT v, sum(10 / (v - 3)) FROM t1 GROUP BY v",
    "SELECT a.k FROM t1 a JOIN t2 b ON a.k / (a.v - 3) = b.k",
    "SELECT a.k FROM t1 a JOIN t2 b ON a.k = b.k AND 10 / (a.v - 3) > 0",
];

#[test]
fn failing_queries_fail_alike_on_both_paths() {
    let engine = fixture_engine();
    let s = engine.session();
    s.execute("CREATE TABLE big (g INT, x INT)").unwrap();
    s.execute(
        "INSERT INTO big VALUES (1, 1), (2, 4611686018427387904), \
         (2, 4611686018427387904), (1, 2)",
    )
    .unwrap();
    for sql in FAILING {
        let q = parse_query(sql);
        let snap = s.snapshot();
        let plan = snap.bind_query(&q).unwrap().plan;
        let legacy = dt_exec::execute_rows(&plan, &snap);
        let columnar = dt_exec::execute(&dt_plan::push_down_filters(&plan), &snap);
        assert!(legacy.is_err(), "{sql} should fail: {legacy:?}");
        assert_eq!(legacy, columnar, "paths fail differently for: {sql}");
    }
}

#[test]
fn fixtures_agree_under_forced_parallel_scans() {
    // Re-run the scan-heavy fixtures with the morsel cursor forced to more
    // workers than this host has cores: partition-order reassembly must
    // keep the output identical to the sequential row path.
    let engine = fixture_engine();
    let session = engine.session();
    for sql in FIXTURES {
        let q = parse_query(sql);
        let mut snap = session.snapshot();
        snap.set_scan_threads(4);
        let plan = snap.bind_query(&q).unwrap().plan;
        let legacy = dt_exec::execute_rows(&plan, &snap).unwrap();
        let columnar = dt_exec::execute(&dt_plan::push_down_filters(&plan), &snap).unwrap();
        assert_eq!(legacy, columnar, "parallel scan diverged for: {sql}");
    }
}

#[test]
fn pushdown_never_changes_results() {
    // The pushed plan must agree with the *unpushed* plan on the same
    // executor too — pushdown is a pure motion of work, not a rewrite.
    let engine = fixture_engine();
    let session = engine.session();
    for sql in FIXTURES {
        let q = parse_query(sql);
        let snap = session.snapshot();
        let plan = snap.bind_query(&q).unwrap().plan;
        let pushed = dt_plan::push_down_filters(&plan);
        let unpushed = dt_exec::execute(&plan, &snap).unwrap();
        let with_pushdown = dt_exec::execute(&pushed, &snap).unwrap();
        assert_eq!(unpushed, with_pushdown, "pushdown changed results for: {sql}");
    }
}

// ---------------------------------------------------------------------------
// Property-based differential: random tables, random filters, random
// projections. Runs at the executor level over a MapProvider so each case
// is cheap; predicates are drawn from the comparison/AND/OR/NOT/IS NULL
// grammar (no arithmetic that could divide by zero) so both paths must
// agree on values, NULL propagation, and order.
// ---------------------------------------------------------------------------

struct PropFixture;

impl Resolver for PropFixture {
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
        let int = |n: &str| Column::new(n, DataType::Int);
        match name {
            "t" => Ok(ResolvedRelation::Table {
                entity: EntityId(1),
                schema: Schema::new(vec![int("a"), int("b"), int("c")]),
            }),
            "u" => Ok(ResolvedRelation::Table {
                entity: EntityId(2),
                schema: Schema::new(vec![int("k"), int("d")]),
            }),
            _ => Err(DtError::Catalog(format!("unknown relation '{name}'"))),
        }
    }
}

fn opt_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..15).prop_map(Value::Int),
        (-5i64..15).prop_map(Value::Int),
        (-5i64..15).prop_map(Value::Int),
        Just(Value::Null),
    ]
}

fn table_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (opt_int(), opt_int(), opt_int()).prop_map(|(a, b, c)| Row::new(vec![a, b, c])),
        0..40,
    )
}

fn dim_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (opt_int(), opt_int()).prop_map(|(k, d)| Row::new(vec![k, d])),
        0..20,
    )
}

/// A random predicate over `cols`, rendered as SQL text from a vector of
/// entropy words (the vendored proptest stand-in has no recursive strategy
/// combinator, so recursion lives in plain code).
fn predicate_from(seeds: &[u64], cols: &[&str]) -> String {
    fn build(seeds: &[u64], cols: &[&str], pos: &mut usize, depth: usize) -> String {
        let mut next = || {
            let v = seeds[*pos % seeds.len()];
            *pos += 1;
            v
        };
        let col = |v: u64| cols[(v % cols.len() as u64) as usize];
        let choice = if depth >= 3 { next() % 3 } else { next() % 6 };
        match choice {
            // Leaves: column-vs-literal, column-vs-column, IS NULL.
            0 | 1 => {
                let c = col(next());
                let op = ["=", "<>", "<", "<=", ">", ">="][(next() % 6) as usize];
                let lit = match next() % 5 {
                    0 => "NULL".to_string(),
                    v => ((v as i64) * 4 - 8).to_string(),
                };
                format!("{c} {op} {lit}")
            }
            2 => {
                let (c1, c2) = (col(next()), col(next()));
                if next() % 4 == 0 {
                    format!("{c1} IS NULL")
                } else {
                    let op = ["=", "<", ">="][(next() % 3) as usize];
                    format!("{c1} {op} {c2}")
                }
            }
            // Connectives.
            3 => format!(
                "({}) AND ({})",
                build(seeds, cols, pos, depth + 1),
                build(seeds, cols, pos, depth + 1)
            ),
            4 => format!(
                "({}) OR ({})",
                build(seeds, cols, pos, depth + 1),
                build(seeds, cols, pos, depth + 1)
            ),
            _ => format!("NOT ({})", build(seeds, cols, pos, depth + 1)),
        }
    }
    build(seeds, cols, &mut 0, 0)
}

const PROJECTIONS: &[&str] = &[
    "a, b, c",
    "c, a",
    "b",
    "a, a + b s",
    "count(*) n, sum(a) s",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_filters_and_projections_agree(
        rows in table_rows(),
        seeds in prop::collection::vec(0u64..u64::MAX, 8..48),
        proj_pick in 0usize..PROJECTIONS.len(),
    ) {
        let sql = format!(
            "SELECT {} FROM t WHERE {}",
            PROJECTIONS[proj_pick],
            predicate_from(&seeds, &["a", "b", "c"])
        );
        let q = parse_query(&sql);
        let plan = Binder::new(&PropFixture).bind_query(&q).unwrap().plan;
        let mut provider = MapProvider::new();
        provider.insert(EntityId(1), rows);
        let legacy = dt_exec::execute_rows(&plan, &provider).unwrap();
        let columnar =
            dt_exec::execute(&dt_plan::push_down_filters(&plan), &provider).unwrap();
        prop_assert_eq!(legacy, columnar, "diverged for: {}", sql);
    }

    #[test]
    fn random_joins_with_group_by_agree(
        facts in table_rows(),
        dims in dim_rows(),
        seeds in prop::collection::vec(0u64..u64::MAX, 8..48),
        join_pick in 0usize..JOINS.len(),
        group_pick in 0usize..GROUPINGS.len(),
    ) {
        let (select, group_by) = GROUPINGS[group_pick];
        let sql = format!(
            "SELECT {select} FROM t {} u ON t.a = u.k WHERE {} {group_by}",
            JOINS[join_pick],
            predicate_from(&seeds, &["a", "b", "c", "k", "d"])
        );
        let q = parse_query(&sql);
        let plan = Binder::new(&PropFixture).bind_query(&q).unwrap().plan;
        let mut provider = MapProvider::new();
        provider.insert(EntityId(1), facts);
        provider.insert(EntityId(2), dims);
        let legacy = dt_exec::execute_rows(&plan, &provider).unwrap();
        let columnar =
            dt_exec::execute(&dt_plan::push_down_filters(&plan), &provider).unwrap();
        prop_assert_eq!(legacy, columnar, "diverged for: {}", sql);
    }
}

const JOINS: &[&str] = &["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"];

/// Select list and GROUP BY clause pairs over `t JOIN u`.
const GROUPINGS: &[(&str, &str)] = &[
    ("a, count(*) n, sum(b) s, count(d) cd", "GROUP BY a"),
    ("d, count(*) n, min(c) lo, max(b) hi", "GROUP BY d"),
    ("a, d, count(*) n, sum(c) s", "GROUP BY a, d"),
    ("count(*) n, sum(d) s, avg(b) m", ""),
    ("b, c, k", ""),
];
