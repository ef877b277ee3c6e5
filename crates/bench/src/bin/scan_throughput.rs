//! Scan throughput: what do columnar batches, zone-map pushdown, and
//! morsel-parallel partition scans each buy on a selective read?
//!
//! One table, `rows` sequential-key rows committed in `partitions` equal
//! chunks so every storage partition carries a tight, disjoint `k` range
//! in its zone maps. The measured query selects a ~5% key band, and four
//! arms execute the identical bound plan:
//!
//! * `row` — the legacy row-at-a-time interpreter
//!   (`dt_exec::execute_rows`) with no pushdown: every partition is
//!   materialized to rows and the filter runs per row at the top.
//! * `columnar` — the batch pipeline (`dt_exec::execute`) without
//!   pushdown: scans still read everything, but the predicate runs as a
//!   vectorized selection mask and the projection is zero-copy.
//! * `columnar+pushdown` — the batch pipeline over
//!   `dt_plan::push_down_filters`: the `k` conjuncts travel to the scan,
//!   zone maps prune the ~95% of partitions whose ranges cannot match,
//!   and pruned partitions are never read at all.
//! * `parallel` — `columnar+pushdown` with the snapshot's morsel scan
//!   fanned out over all available cores (a shared atomic partition
//!   cursor; reassembled in partition order, so results stay identical).
//!
//! Report: per-query p50/p99/max latency (µs) and scan throughput in
//! source rows per second (table size ÷ latency — the work the scan is
//! responsible for, whatever the filter keeps). Every arm's result rows
//! are asserted equal to the `row` arm's before anything is timed.
//!
//! A fifth arm, `dml_point`, times the write side of the same columnar
//! path: `iters` autocommit one-row `UPDATE ... WHERE k = ?` and as many
//! one-row `DELETE ... WHERE k = ?` statements through
//! `Session::execute`, each on a distinct key spread over the table. The
//! predicate is matched through the zone-map-pruned columnar scan and
//! only the partition holding the row is rewritten, so the cost tracks
//! the partitions touched, not the table size. Each statement must
//! report exactly one row.
//!
//! A sixth arm, `group_agg`, times the columnar join and grouped
//! aggregate. A second fact table of `rows / 4` rows (an `Int` group
//! column with 100 values, in `partitions` commits) and a 100-row
//! dimension table mapping each group to one of 8 string regions back two
//! queries: a 100-group aggregate (`GROUP BY g`: count, sum, max) and a
//! dimension join aggregated by region. Each runs `iters` times on the row
//! interpreter and on the batch pipeline (one scan thread each); the
//! results must be equal.
//!
//! Gates (asserted, with one re-measure to absorb scheduler noise):
//! `columnar+pushdown` must beat `row` by ≥5x — pruning alone removes
//! ~95% of the data motion, so this holds on any host — and on hosts
//! with ≥2 cores `parallel` must additionally be no slower than ~0.7x
//! `columnar+pushdown` (parallelism may not help a pruned scan this
//! small, but it must not wreck it; on 1-core hosts the arm still runs,
//! exercising the cursor, and the gate is skipped). Both `dml_point`
//! statements must have a p50 of at most 1 ms. Both `group_agg` queries
//! must run at least 3x faster (p50) on the batch pipeline than on the
//! row interpreter.
//!
//! Run with: `cargo run --release -p dt-bench --bin scan_throughput`
//! Optional args: `[rows] [partitions] [iters] [--json PATH]`.
//! `--json` writes a `BENCH_scan.json`-style artifact for the perf
//! trajectory.

use std::time::Instant;

use dt_core::{DbConfig, Engine, ExecResult, ReadSnapshot};
use dt_plan::LogicalPlan;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Row,
    Columnar,
    Pushdown,
    Parallel,
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Row => "row",
            Arm::Columnar => "columnar",
            Arm::Pushdown => "columnar+pushdown",
            Arm::Parallel => "parallel",
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct ArmReport {
    arm: Arm,
    threads: usize,
    result_rows: usize,
    p50: u64,
    p99: u64,
    max: u64,
    rows_per_s: f64,
}

/// Build the engine: `rows` sequential keys in `partitions` separate
/// commits, so partition *i* holds keys `[i*chunk, (i+1)*chunk)` and its
/// zone map says so.
fn setup(rows: usize, partitions: usize) -> Engine {
    let engine = Engine::new(DbConfig::default());
    let session = engine.session();
    session
        .execute("CREATE TABLE scan_bench (k INT, v INT)")
        .unwrap();
    let chunk = rows / partitions;
    for p in 0..partitions {
        let values: Vec<String> = (0..chunk)
            .map(|i| {
                let k = p * chunk + i;
                format!("({k}, {})", k % 97)
            })
            .collect();
        session
            .execute(&format!("INSERT INTO scan_bench VALUES {}", values.join(", ")))
            .unwrap();
    }
    engine
}

/// Groups in the `group_agg` fact table and regions in its dimension.
const GROUPS: usize = 100;
const REGIONS: usize = 8;

/// Gate for the `group_agg` arm: batch pipeline speed-up over the row
/// interpreter, at p50.
const GROUP_AGG_MIN_SPEEDUP: f64 = 3.0;

/// Build the `group_agg` tables: `agg_fact(k, g, x)` with `rows` rows in
/// `partitions` commits and `agg_dim(g, region)` with one row per group.
fn setup_group_agg(engine: &Engine, rows: usize, partitions: usize) {
    let session = engine.session();
    session
        .execute("CREATE TABLE agg_fact (k INT, g INT, x INT)")
        .unwrap();
    session
        .execute("CREATE TABLE agg_dim (g INT, region STRING)")
        .unwrap();
    let chunk = rows / partitions;
    for p in 0..partitions {
        let values: Vec<String> = (0..chunk)
            .map(|i| {
                let k = p * chunk + i;
                format!("({k}, {}, {})", (k * 7) % GROUPS, k % 1000)
            })
            .collect();
        session
            .execute(&format!("INSERT INTO agg_fact VALUES {}", values.join(", ")))
            .unwrap();
    }
    let dims: Vec<String> = (0..GROUPS)
        .map(|g| format!("({g}, 'r{}')", g % REGIONS))
        .collect();
    session
        .execute(&format!("INSERT INTO agg_dim VALUES {}", dims.join(", ")))
        .unwrap();
}

struct GroupAggReport {
    query: &'static str,
    result_rows: usize,
    row_p50: u64,
    batch_p50: u64,
}

impl GroupAggReport {
    fn speedup(&self) -> f64 {
        self.row_p50 as f64 / self.batch_p50.max(1) as f64
    }
}

/// The `group_agg` arm: each query `iters` times on the row interpreter
/// (unpushed plan) and on the batch pipeline (pushed plan), after checking
/// that both return the same rows.
fn run_group_agg(snap: &ReadSnapshot, iters: usize) -> Vec<GroupAggReport> {
    let queries = [
        (
            "aggregate",
            "SELECT g, count(*) n, sum(x) s, max(x) m FROM agg_fact GROUP BY g",
        ),
        (
            "join",
            "SELECT d.region, count(*) n, sum(f.x) s FROM agg_fact f \
             JOIN agg_dim d ON f.g = d.g GROUP BY d.region",
        ),
    ];
    queries
        .iter()
        .map(|(name, sql)| {
            let query = match dt_sql::parse(sql).unwrap() {
                dt_sql::ast::Statement::Query(q) => q,
                _ => unreachable!(),
            };
            let plan = snap.bind_query(&query).unwrap().plan;
            let pushed = dt_plan::push_down_filters(&plan);
            let expected = dt_exec::execute_rows(&plan, snap).unwrap();
            assert_eq!(
                dt_exec::execute(&pushed, snap).unwrap(),
                expected,
                "group_agg {name}: batch pipeline differs from the row interpreter"
            );
            let time = |f: &dyn Fn() -> usize| {
                let mut lat: Vec<u64> = (0..iters)
                    .map(|_| {
                        let t0 = Instant::now();
                        assert_eq!(f(), expected.len());
                        t0.elapsed().as_micros() as u64
                    })
                    .collect();
                lat.sort_unstable();
                percentile(&lat, 0.50)
            };
            GroupAggReport {
                query: name,
                result_rows: expected.len(),
                row_p50: time(&|| dt_exec::execute_rows(&plan, snap).unwrap().len()),
                batch_p50: time(&|| dt_exec::execute(&pushed, snap).unwrap().len()),
            }
        })
        .collect()
}

/// Time one arm: `iters` executions of the prepared plan, per-query
/// latency distribution plus source-rows-per-second throughput.
fn run_arm(
    arm: Arm,
    snap: &mut ReadSnapshot,
    plan: &LogicalPlan,
    pushed: &LogicalPlan,
    table_rows: usize,
    iters: usize,
    cores: usize,
) -> ArmReport {
    let threads = match arm {
        Arm::Parallel => cores,
        _ => 1,
    };
    snap.set_scan_threads(threads);
    let exec = |snap: &ReadSnapshot| match arm {
        Arm::Row => dt_exec::execute_rows(plan, snap).unwrap(),
        Arm::Columnar => dt_exec::execute(plan, snap).unwrap(),
        Arm::Pushdown | Arm::Parallel => dt_exec::execute(pushed, snap).unwrap(),
    };
    let result_rows = exec(snap).len();
    let mut lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = exec(snap);
        lat.push(t0.elapsed().as_micros() as u64);
        assert_eq!(out.len(), result_rows, "unstable result for {}", arm.label());
    }
    lat.sort_unstable();
    let mean_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    ArmReport {
        arm,
        threads,
        result_rows,
        p50: percentile(&lat, 0.50),
        p99: percentile(&lat, 0.99),
        max: lat.last().copied().unwrap_or(0),
        rows_per_s: table_rows as f64 / (mean_us / 1_000_000.0),
    }
}

/// Gate for the `dml_point` arm: p50 of a one-row UPDATE / DELETE.
const DML_POINT_P50_US: u64 = 1_000;

struct DmlReport {
    stmt: &'static str,
    p50: u64,
    p99: u64,
    max: u64,
}

/// The `dml_point` arm: `iters` one-row UPDATEs and `iters` one-row
/// DELETEs by key, through autocommit `Session::execute`. Keys are
/// distinct and spread across the table; `round` shifts them so a
/// re-measure never revisits a deleted key.
fn run_dml_point(engine: &Engine, rows: usize, iters: usize, round: usize) -> [DmlReport; 2] {
    let session = engine.session();
    let gap = rows / (2 * iters);
    assert!(round < gap, "table too small for {iters} dml_point keys");
    let run = |sql: String| {
        let t0 = Instant::now();
        let out = session.execute(&sql).unwrap();
        let us = t0.elapsed().as_micros() as u64;
        assert!(
            matches!(out, ExecResult::Count(1)),
            "{sql} did not touch exactly one row"
        );
        us
    };
    let (mut update, mut delete) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for i in 0..iters {
        let key = 2 * i * gap + round;
        update.push(run(format!(
            "UPDATE scan_bench SET v = v + 1 WHERE k = {key}"
        )));
        delete.push(run(format!(
            "DELETE FROM scan_bench WHERE k = {}",
            key + gap
        )));
    }
    let report = |stmt, mut lat: Vec<u64>| {
        lat.sort_unstable();
        DmlReport {
            stmt,
            p50: percentile(&lat, 0.50),
            p99: percentile(&lat, 0.99),
            max: lat.last().copied().unwrap_or(0),
        }
    };
    [report("update", update), report("delete", delete)]
}

fn print_group_agg(reports: &[GroupAggReport]) {
    for r in reports {
        println!(
            "group_agg {:<9} result-rows {:>4}  row p50 {:>7} µs  batch p50 {:>6} µs  {:>5.1}x",
            r.query,
            r.result_rows,
            r.row_p50,
            r.batch_p50,
            r.speedup()
        );
    }
}

fn json_line(r: &ArmReport) -> String {
    format!(
        "    {{\"arm\": \"{}\", \"threads\": {}, \"result_rows\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
         \"rows_per_s\": {:.0}}}",
        r.arm.label(),
        r.threads,
        r.result_rows,
        r.p50,
        r.p99,
        r.max,
        r.rows_per_s,
    )
}

fn main() {
    let mut rows: usize = 200_000;
    let mut partitions: usize = 40;
    let mut iters: usize = 30;
    let mut json_path: Option<String> = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
            continue;
        }
        let v: usize = a.parse().unwrap_or_else(|_| panic!("bad argument {a}"));
        match positional {
            0 => rows = v,
            1 => partitions = v,
            2 => iters = v,
            _ => panic!("too many arguments"),
        }
        positional += 1;
    }
    assert!(rows >= partitions && partitions > 1, "need rows >= partitions > 1");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // The measured query: a ~5% key band in the middle of the table, so
    // pushdown prunes all but ~2 of the partitions.
    let lo = rows / 2;
    let hi = lo + rows / 20;
    let sql = format!("SELECT k, v FROM scan_bench WHERE k >= {lo} AND k < {hi}");

    println!(
        "# Scan throughput: row vs columnar vs pushdown vs parallel, plus dml_point \
         and group_agg"
    );
    println!(
        "# {rows} rows x {partitions} partitions, ~5% selective band \
         [{lo}, {hi}), {iters} iters/arm, {cores} core(s)\n"
    );

    let engine = setup(rows, partitions);
    setup_group_agg(&engine, rows / 4, partitions);
    let session = engine.session();
    let mut snap = session.snapshot();
    let mut agg_snap = session.snapshot();
    agg_snap.set_scan_threads(1);
    let query = match dt_sql::parse(&sql).unwrap() {
        dt_sql::ast::Statement::Query(q) => q,
        _ => unreachable!(),
    };
    let plan = snap.bind_query(&query).unwrap().plan;
    let pushed = dt_plan::push_down_filters(&plan);

    // Correctness before speed: all four arms must return the same rows.
    let baseline = dt_exec::execute_rows(&plan, &snap).unwrap();
    assert_eq!(baseline.len(), hi - lo, "fixture selectivity is off");
    assert_eq!(dt_exec::execute(&plan, &snap).unwrap(), baseline);
    assert_eq!(dt_exec::execute(&pushed, &snap).unwrap(), baseline);
    snap.set_scan_threads(cores.max(2));
    assert_eq!(dt_exec::execute(&pushed, &snap).unwrap(), baseline);

    println!(
        "{:<19} {:>8} {:>12} {:>9} {:>9} {:>9} {:>14}",
        "arm", "threads", "result-rows", "p50-µs", "p99-µs", "max-µs", "src-rows/s"
    );
    let arms = [Arm::Row, Arm::Columnar, Arm::Pushdown, Arm::Parallel];
    let mut measure = |iters: usize| -> Vec<ArmReport> {
        arms.iter()
            .map(|&arm| run_arm(arm, &mut snap, &plan, &pushed, rows, iters, cores))
            .collect()
    };
    let mut reports = measure(iters);
    for r in &reports {
        println!(
            "{:<19} {:>8} {:>12} {:>9} {:>9} {:>9} {:>14.0}",
            r.arm.label(),
            r.threads,
            r.result_rows,
            r.p50,
            r.p99,
            r.max,
            r.rows_per_s,
        );
    }

    let mut dml = run_dml_point(&engine, rows, iters, 0);
    for r in &dml {
        println!(
            "{:<19} {:>8} {:>12} {:>9} {:>9} {:>9} {:>14}",
            format!("dml_point {}", r.stmt),
            1,
            1,
            r.p50,
            r.p99,
            r.max,
            "-",
        );
    }

    let mut group_agg = run_group_agg(&agg_snap, iters);
    print_group_agg(&group_agg);

    if let Some(path) = &json_path {
        let body: Vec<String> = reports.iter().map(json_line).collect();
        let dml_body: Vec<String> = dml
            .iter()
            .map(|r| {
                format!(
                    "    {{\"stmt\": \"{}\", \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    r.stmt, r.p50, r.p99, r.max
                )
            })
            .collect();
        let agg_body: Vec<String> = group_agg
            .iter()
            .map(|r| {
                format!(
                    "    {{\"query\": \"{}\", \"result_rows\": {}, \"row_p50_us\": {}, \
                     \"batch_p50_us\": {}, \"speedup\": {:.1}}}",
                    r.query,
                    r.result_rows,
                    r.row_p50,
                    r.batch_p50,
                    r.speedup()
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"scan_throughput\",\n  \"rows\": {rows},\n  \
             \"partitions\": {partitions},\n  \"selectivity\": {:.3},\n  \
             \"iters\": {iters},\n  \"cores\": {cores},\n  \"arms\": [\n{}\n  ],\n  \
             \"dml_point\": [\n{}\n  ],\n  \"group_agg\": [\n{}\n  ]\n}}\n",
            (hi - lo) as f64 / rows as f64,
            body.join(",\n"),
            dml_body.join(",\n"),
            agg_body.join(",\n")
        );
        std::fs::write(path, json).unwrap();
        println!("\nwrote {path}");
    }

    // Gates, with one re-measure so a single preempted quantum cannot
    // fail CI. The 5x pushdown gate is structural: ~95% of partitions are
    // never read, so even a 1-core host clears it with margin.
    let tput = |rs: &[ArmReport], arm: Arm| {
        rs.iter().find(|r| r.arm == arm).map(|r| r.rows_per_s).unwrap()
    };
    let pushdown_ok =
        |rs: &[ArmReport]| tput(rs, Arm::Pushdown) >= 5.0 * tput(rs, Arm::Row);
    let parallel_ok = |rs: &[ArmReport]| {
        cores < 2 || tput(rs, Arm::Parallel) >= 0.7 * tput(rs, Arm::Pushdown)
    };
    let dml_ok = |rs: &[DmlReport; 2]| rs.iter().all(|r| r.p50 <= DML_POINT_P50_US);
    let agg_ok = |rs: &[GroupAggReport]| rs.iter().all(|r| r.speedup() >= GROUP_AGG_MIN_SPEEDUP);
    if !pushdown_ok(&reports) || !parallel_ok(&reports) || !dml_ok(&dml) || !agg_ok(&group_agg) {
        println!("\nnote: re-measuring gates once (first pass missed a bound)");
        reports = measure(iters);
        dml = run_dml_point(&engine, rows, iters, 1);
        group_agg = run_group_agg(&agg_snap, iters);
        print_group_agg(&group_agg);
    }
    assert!(
        pushdown_ok(&reports),
        "columnar+pushdown ({:.0} rows/s) is not 5x the row path ({:.0} rows/s)",
        tput(&reports, Arm::Pushdown),
        tput(&reports, Arm::Row),
    );
    assert!(
        parallel_ok(&reports),
        "parallel ({:.0} rows/s) fell below 0.7x columnar+pushdown ({:.0} rows/s) on {cores} cores",
        tput(&reports, Arm::Parallel),
        tput(&reports, Arm::Pushdown),
    );
    for r in &dml {
        assert!(
            r.p50 <= DML_POINT_P50_US,
            "dml_point {} p50 {} µs exceeds {DML_POINT_P50_US} µs",
            r.stmt,
            r.p50
        );
    }

    for r in &group_agg {
        assert!(
            r.speedup() >= GROUP_AGG_MIN_SPEEDUP,
            "group_agg {}: batch p50 {} µs is not {GROUP_AGG_MIN_SPEEDUP}x the row p50 {} µs",
            r.query,
            r.batch_p50,
            r.row_p50
        );
    }

    if cores < 2 {
        println!(
            "\nok: all arms agree; columnar+pushdown ≥5x row; dml_point p50 \
             ≤ {DML_POINT_P50_US} µs; group_agg batch ≥{GROUP_AGG_MIN_SPEEDUP}x row \
             (parallel gate skipped — 1 core)"
        );
    } else {
        println!(
            "\nok: all arms agree; columnar+pushdown ≥5x row; \
             parallel within bounds on {cores} cores; dml_point p50 ≤ {DML_POINT_P50_US} µs; \
             group_agg batch ≥{GROUP_AGG_MIN_SPEEDUP}x row"
        );
    }
}
