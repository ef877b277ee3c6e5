//! Differential tests for positional DML: UPDATE and DELETE match rows
//! through the columnar scan (zone-map pruning plus the vectorized
//! filter), turn the selection into `(partition, offset)` positions, and
//! rewrite only the partitions those positions name. Every statement here
//! is checked against an oracle that applies it to the pre-state with
//! the row interpreter (`dt_exec::execute_rows`, no pushdown): the final
//! table must be the same multiset, the reported count the same, and a
//! predicate that errors must raise the same error on both sides.
//!
//! Tables are small-capacity and multi-partition, with NULLs, duplicate
//! rows and 1-row tail partitions, so positions, copy-on-write rewrites
//! and duplicate handling are all exercised. Statements run three ways:
//! as autocommit statements on a durable engine (which is then reopened
//! from its WAL and must hold the same table), inside one transaction
//! mixed with the transaction's own inserts, updates and deletes, and
//! through the engine-lock `EngineState` path.

use dt_common::{Column, DataType, DtError, DtResult, EntityId, Row, Schema, Value};
use dt_core::{DbConfig, DurabilityMode, Engine, ExecResult, Session};
use dt_exec::MapProvider;
use dt_plan::{Binder, ResolvedRelation, Resolver};
use proptest::prelude::*;

/// Rows per micro-partition: small, so a few dozen rows span many
/// partitions and most inserts leave a short tail partition.
const CAPACITY: usize = 3;

struct Fixture;

impl Resolver for Fixture {
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
        if name == "t" {
            Ok(ResolvedRelation::Table {
                entity: EntityId(1),
                schema: Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                    Column::new("c", DataType::Int),
                ]),
            })
        } else {
            Err(DtError::Catalog(format!("unknown relation '{name}'")))
        }
    }
}

/// A small value domain, so duplicate rows are common, plus NULLs.
fn opt_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..5).prop_map(Value::Int),
        (-3i64..5).prop_map(Value::Int),
        (-3i64..5).prop_map(Value::Int),
        Just(Value::Null),
    ]
}

fn table_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (opt_int(), opt_int(), opt_int()).prop_map(|(a, b, c)| Row::new(vec![a, b, c])),
        0..30,
    )
}

/// A random predicate over columns a/b/c — the grammar of
/// `tests/columnar_differential.rs` (comparisons with column or literal
/// operands, IS NULL, AND / OR / NOT).
fn predicate_from(seeds: &[u64]) -> String {
    fn build(seeds: &[u64], pos: &mut usize, depth: usize) -> String {
        let mut next = || {
            let v = seeds[*pos % seeds.len()];
            *pos += 1;
            v
        };
        let col = |v: u64| ["a", "b", "c"][(v % 3) as usize];
        let choice = if depth >= 3 { next() % 3 } else { next() % 6 };
        match choice {
            0 | 1 => {
                let c = col(next());
                let op = ["=", "<>", "<", "<=", ">", ">="][(next() % 6) as usize];
                let lit = match next() % 5 {
                    0 => "NULL".to_string(),
                    v => ((v as i64) * 2 - 4).to_string(),
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
            3 => format!(
                "({}) AND ({})",
                build(seeds, pos, depth + 1),
                build(seeds, pos, depth + 1)
            ),
            4 => format!(
                "({}) OR ({})",
                build(seeds, pos, depth + 1),
                build(seeds, pos, depth + 1)
            ),
            _ => format!("NOT ({})", build(seeds, pos, depth + 1)),
        }
    }
    build(seeds, &mut 0, 0)
}

/// SET clauses and, per column, the expression the oracle projects.
const ASSIGNMENTS: &[(&str, [&str; 3])] = &[
    ("b = b + 1", ["a", "b + 1", "c"]),
    ("c = a", ["a", "b", "a"]),
    ("a = NULL, b = 7", ["NULL", "7", "c"]),
    ("b = c * 2, c = b", ["a", "c * 2", "b"]),
];

/// One UPDATE / DELETE.
#[derive(Debug, Clone)]
struct Stmt {
    /// The WHERE clause, if any.
    predicate: Option<String>,
    /// Index into [`ASSIGNMENTS`] for an UPDATE; `None` for a DELETE.
    update: Option<usize>,
}

impl Stmt {
    fn sql(&self) -> String {
        let wh = self
            .predicate
            .as_ref()
            .map(|p| format!(" WHERE {p}"))
            .unwrap_or_default();
        match self.update {
            Some(u) => format!("UPDATE t SET {}{wh}", ASSIGNMENTS[u].0),
            None => format!("DELETE FROM t{wh}"),
        }
    }
}

/// Statements drawn from entropy words. About one in five predicates is
/// made error-capable: a division by zero for rows where `a` equals a
/// chosen key, conjoined before or after the random predicate.
fn statements_from(seeds: &[u64], n: usize) -> Vec<Stmt> {
    (0..n)
        .map(|i| {
            let s = &seeds[(i * 7) % seeds.len()..];
            let pick = s[0];
            let mut predicate = (!pick.is_multiple_of(8)).then(|| predicate_from(s));
            if pick % 5 == 1 {
                let k = (pick / 5 % 8) as i64 - 3;
                let div = format!("10 / (a - {k}) > 0");
                predicate = Some(match predicate {
                    Some(p) if pick.is_multiple_of(2) => format!("{div} AND ({p})"),
                    Some(p) => format!("({p}) AND {div}"),
                    None => div,
                });
            }
            Stmt {
                predicate,
                update: (!pick.is_multiple_of(3))
                    .then_some((pick / 3 % ASSIGNMENTS.len() as u64) as usize),
            }
        })
        .collect()
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        other => other.to_string(),
    }
}

fn values_sql(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.values().iter().map(render).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO t VALUES {}", tuples.join(", "))
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The oracle: apply `stmt` to `model` with the row interpreter. Returns
/// the matched count, or the error the statement must fail with (the
/// model is then left untouched).
fn oracle(model: &mut Vec<Row>, stmt: &Stmt) -> Result<usize, String> {
    let wh = stmt
        .predicate
        .as_ref()
        .map(|p| format!(" WHERE {p}"))
        .unwrap_or_default();
    let run = |select: &str| -> DtResult<Vec<Row>> {
        let q = match dt_sql::parse(&format!("SELECT {select} FROM t{wh}"))? {
            dt_sql::ast::Statement::Query(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        let plan = Binder::new(&Fixture).bind_query(&q)?.plan;
        let mut provider = MapProvider::new();
        provider.insert(EntityId(1), model.clone());
        dt_exec::execute_rows(&plan, &provider)
    };
    let matched = run("a, b, c").map_err(|e| e.to_string())?;
    let replacements = match stmt.update {
        Some(u) => run(&ASSIGNMENTS[u].1.join(", ")).map_err(|e| e.to_string())?,
        None => Vec::new(),
    };
    for m in &matched {
        let at = model
            .iter()
            .position(|r| r == m)
            .expect("matched row is in the model");
        model.remove(at);
    }
    model.extend(replacements);
    Ok(matched.len())
}

/// Check one engine-side statement outcome against the oracle's.
fn check(sql: &str, got: DtResult<ExecResult>, want: &Result<usize, String>) {
    match (got, want) {
        (Ok(ExecResult::Count(n)), Ok(m)) => assert_eq!(n, *m, "count diverged for: {sql}"),
        (Err(e), Err(msg)) => assert_eq!(&e.to_string(), msg, "error diverged for: {sql}"),
        (got, want) => panic!("outcome diverged for: {sql}\n  engine: {got:?}\n  oracle: {want:?}"),
    }
}

fn config() -> DbConfig {
    DbConfig {
        partition_capacity: CAPACITY,
        ..DbConfig::default()
    }
}

/// Create `t` and load `rows` in commits of 1–4 rows (so several
/// partitions end in 1-row tails).
fn load(session: &Session, rows: &[Row], chunk_seed: u64) {
    session
        .execute("CREATE TABLE t (a INT, b INT, c INT)")
        .unwrap();
    let mut rest = rows;
    let mut s = chunk_seed;
    while !rest.is_empty() {
        let n = ((s % 4) as usize + 1).min(rest.len());
        s = s.rotate_right(7) ^ 0x9e37_79b9;
        session.execute(&values_sql(&rest[..n])).unwrap();
        rest = &rest[n..];
    }
}

fn table(session: &Session) -> Vec<Row> {
    session.query_sorted("SELECT * FROM t").unwrap()
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "dt-positional-dml-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Autocommit statements on a durable engine, then a reopen from the WAL.
fn run_autocommit(rows: &[Row], chunk_seed: u64, stmts: &[Stmt]) {
    let dir = TempDir::new("auto");
    let durable = || {
        Engine::open_with_config(DbConfig {
            durability: DurabilityMode::wal(&dir.0),
            ..config()
        })
        .unwrap()
    };
    let mut model = rows.to_vec();
    let expected = {
        let engine = durable();
        let session = engine.session();
        load(&session, rows, chunk_seed);
        for stmt in stmts {
            let want = oracle(&mut model, stmt);
            check(&stmt.sql(), session.execute(&stmt.sql()), &want);
            assert_eq!(
                table(&session),
                sorted(model.clone()),
                "after: {}",
                stmt.sql()
            );
        }
        table(&session)
    };
    let reopened = durable();
    assert_eq!(table(&reopened.session()), expected, "WAL replay diverged");
}

/// The same statements through the engine-lock `EngineState` path.
fn run_engine_state(rows: &[Row], chunk_seed: u64, stmts: &[Stmt]) {
    let engine = Engine::new(config());
    let session = engine.session();
    load(&session, rows, chunk_seed);
    let mut model = rows.to_vec();
    for stmt in stmts {
        let want = oracle(&mut model, stmt);
        let sql = stmt.sql();
        let got = engine.inspect_mut(|st| {
            st.execute_parsed(dt_sql::parse(&sql).unwrap(), &sql, "sysadmin", &[])
        });
        check(&sql, got, &want);
        assert_eq!(table(&session), sorted(model.clone()), "after: {sql}");
    }
}

/// The statements inside one transaction, interleaved with its own
/// inserts (including duplicates of base rows); a marker row is inserted,
/// updated twice and deleted again within the transaction. Every
/// in-transaction read must show the model; the commit must publish it.
fn run_transaction(rows: &[Row], chunk_seed: u64, stmts: &[Stmt], extra: &[Row]) {
    let engine = Engine::new(config());
    let session = engine.session();
    load(&session, rows, chunk_seed);
    let mut model = rows.to_vec();
    let mut txn = session.begin();
    let visible = |txn: &dt_core::Transaction| txn.query_sorted("SELECT * FROM t").unwrap();
    let marker = Stmt {
        predicate: Some("a = 100".into()),
        update: Some(0),
    };
    for (i, stmt) in stmts.iter().enumerate() {
        if let Some(r) = extra.get(i) {
            // Own inserts: a fresh row plus a copy of a base row, so
            // duplicates straddle the base and the write set.
            let mut batch = vec![r.clone()];
            batch.extend(rows.get(i).cloned());
            txn.execute(&values_sql(&batch)).unwrap();
            model.extend(batch);
        }
        if i == stmts.len() / 2 {
            txn.execute("INSERT INTO t VALUES (100, 0, 0)").unwrap();
            model.push(Row::new(vec![
                Value::Int(100),
                Value::Int(0),
                Value::Int(0),
            ]));
            for _ in 0..2 {
                let want = oracle(&mut model, &marker);
                check(&marker.sql(), txn.execute(&marker.sql()), &want);
            }
            let delete = Stmt {
                predicate: marker.predicate.clone(),
                update: None,
            };
            let want = oracle(&mut model, &delete);
            assert_eq!(want, Ok(1));
            check(&delete.sql(), txn.execute(&delete.sql()), &want);
        }
        let want = oracle(&mut model, stmt);
        check(&stmt.sql(), txn.execute(&stmt.sql()), &want);
        assert_eq!(
            visible(&txn),
            sorted(model.clone()),
            "in txn after: {}",
            stmt.sql()
        );
    }
    txn.commit().unwrap();
    assert_eq!(table(&session), sorted(model), "committed state diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn positional_dml_matches_the_row_interpreter(
        rows in table_rows(),
        chunk_seed in 0u64..u64::MAX,
        seeds in prop::collection::vec(0u64..u64::MAX, 16..64),
        extra in table_rows(),
    ) {
        let stmts = statements_from(&seeds, 6);
        run_autocommit(&rows, chunk_seed, &stmts);
        run_engine_state(&rows, chunk_seed, &stmts);
        run_transaction(&rows, chunk_seed, &stmts, &extra);
    }
}

#[test]
fn erroring_predicate_fails_like_the_row_interpreter() {
    // The division errors on a = 2 and the row interpreter evaluates it
    // first, before `a > 8` could reject the row. Pushing `a > 8` down
    // would prune the partition holding a = 2 and hide the error, so the
    // matcher must not prune here, and the error must surface on every
    // path.
    let rows: Vec<Row> = (0..12)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 3), Value::Null]))
        .collect();
    let stmt = Stmt {
        predicate: Some("10 / (a - 2) > 0 AND a > 8".into()),
        update: None,
    };
    let mut model = rows.clone();
    let want = oracle(&mut model, &stmt);
    assert_eq!(
        want,
        Err(DtError::Evaluation("division by zero".into()).to_string())
    );
    run_autocommit(&rows, 3, std::slice::from_ref(&stmt));
    run_engine_state(&rows, 3, std::slice::from_ref(&stmt));
    run_transaction(&rows, 3, std::slice::from_ref(&stmt), &[]);
}
