//! `scan_analytic`: one closed-loop connection over `dt-wire` sending
//! ad-hoc text queries, drawn from seeded templates, over a fact table and
//! a dimension table built at set-up. Read-only, so version history stays
//! flat and the second core is idle for intra-query parallelism.

use std::collections::HashMap;
use std::time::Instant;

use dt_client::Client;
use dt_common::{DtResult, EntityId, Row};
use dt_core::{DbConfig, Engine, ReadSnapshot};
use dt_server::{Server, ServerConfig};
use dt_sql::ast;
use dt_wire::{Request, Response};

use crate::trace::{Analysis, Trace};
use crate::util::{
    cpu_seconds, geomean, median, percentile, rss_peak_mb, tail_percentile, us_between, Outcome,
    Rng, SetupTimes,
};

/// Fact rows, loaded in `day` order so zone maps can prune day ranges.
const FACT_ROWS: i64 = 50_000;
const DAYS: i64 = 1000;
const STORES: i64 = 100;
const REGIONS: i64 = 8;
/// Queries per second of `--seconds`: a fixed query count.
const QUERIES_PER_SECOND: u64 = 50;
/// Set-up repetitions before the measured phase, and again after it.
const SETUPS: usize = 5;

const TEMPLATES: [&str; 4] = ["full_agg", "range_filter", "wide_project", "join_agg"];
const ORDER: [usize; 4] = [0, 3, 2, 1];

/// One query of template `t` with seeded parameters.
fn query(t: usize, rng: &mut Rng) -> String {
    match t {
        0 => format!(
            "SELECT store, count(*) AS n, sum(qty) AS q, sum(price) AS p FROM sales \
             WHERE qty >= {} GROUP BY store",
            1 + rng.int(2)
        ),
        1 => {
            let d = rng.int(DAYS - 3);
            format!(
                "SELECT id, store, qty, price FROM sales WHERE day BETWEEN {d} AND {}",
                d + 2
            )
        }
        2 => format!(
            "SELECT id, day, store, item, qty, price FROM sales WHERE price < {}",
            25 + rng.int(10)
        ),
        _ => {
            let d = rng.int(DAYS - DAYS / 10);
            format!(
                "SELECT s.region, count(*) AS n, sum(f.qty) AS q FROM sales f \
             JOIN stores s ON f.store = s.store WHERE f.day BETWEEN {d} AND {} \
             GROUP BY s.region",
                d + DAYS / 10
            )
        }
    }
}

/// The run's queries: the templates in turn, each with fresh seeded
/// parameters. A fixed order gives every template the same predecessor in
/// every run, so a template's cost does not depend on which heavy query
/// the seed happened to put before it.
fn queries(seed: u64, count: u64) -> Vec<(usize, String)> {
    let mut rng = Rng::new(seed, 20);
    (0..count as usize)
        .map(|i| {
            let t = ORDER[i % ORDER.len()];
            (t, query(t, &mut rng))
        })
        .collect()
}

fn setup(seed: u64) -> DtResult<(Engine, Server)> {
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    s.execute("CREATE TABLE sales (id INT, day INT, store INT, item INT, qty INT, price INT)")?;
    s.execute("CREATE TABLE stores (store INT, region STRING, tier INT)")?;
    let mut rng = Rng::new(seed, 21);
    let stores: Vec<String> = (0..STORES)
        .map(|st| format!("({st}, 'r{}', {})", st % REGIONS, rng.int(3)))
        .collect();
    s.execute(&format!("INSERT INTO stores VALUES {}", stores.join(", ")))?;
    let ids: Vec<i64> = (0..FACT_ROWS).collect();
    for chunk in ids.chunks(4096) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| {
                format!(
                    "({id}, {}, {}, {}, {}, {})",
                    id * DAYS / FACT_ROWS,
                    rng.int(STORES),
                    rng.int(1000),
                    1 + rng.int(10),
                    1 + rng.int(500)
                )
            })
            .collect();
        s.execute(&format!("INSERT INTO sales VALUES {}", rows.join(", ")))?;
    }
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| dt_common::DtError::Storage(format!("bind: {e}")))?;
    Ok((engine, server))
}

fn parse_query(sql: &str) -> DtResult<ast::Query> {
    match dt_sql::parse(sql)? {
        ast::Statement::Query(q) => Ok(q),
        _ => unreachable!("templates are SELECTs"),
    }
}

/// The row interpreter's answer on `snap`: the oracle for a wire result.
fn oracle(snap: &ReadSnapshot, sql: &str) -> DtResult<Vec<Row>> {
    let plan = dt_plan::push_down_filters(&snap.bind_query(&parse_query(sql)?)?.plan);
    let mut rows = dt_exec::execute_rows(&plan, snap)?;
    rows.sort();
    Ok(rows)
}

/// Per-query figures the traced run adds.
struct Shadowed {
    bytes: f64,
    inproc_us: f64,
    scanned_rows: f64,
    exec_us: f64,
    pruned: f64,
    partitions: f64,
}

/// Repeat in-process the layer calls the server makes for `sql`.
fn shadow(
    engine: &Engine,
    sizes: &HashMap<EntityId, (f64, f64)>,
    t: &mut Trace,
    req: u64,
    sql: &str,
    rows: &dt_wire::RemoteRows,
) -> DtResult<Shadowed> {
    let request = Request::Query {
        sql: sql.to_string(),
    };
    let response = Response::Rows(rows.clone());
    let bytes = t.time("wire.codec", req, None, || {
        let (a, b) = (request.encode(), response.encode());
        let _ = (Request::decode(&a), Response::decode(&b));
        a.len() + b.len() + 8
    });
    let t0 = Instant::now();
    let q = t.time("sql.parse", req, None, || parse_query(sql))?;
    let snap = t.time("core.pin", req, None, || engine.snapshot());
    let plan = t.time("plan.bind", req, None, || {
        snap.bind_query(&q)
            .map(|b| dt_plan::push_down_filters(&b.plan))
    })?;
    let (mut scanned_rows, mut partitions) = (0.0, 0.0);
    for e in plan.scanned_entities() {
        let (r, p) = sizes.get(&e).copied().unwrap_or_default();
        scanned_rows += r;
        partitions += p;
    }
    let pruned = dt_storage::zone_map_pruned_total();
    let t1 = Instant::now();
    t.time("exec.execute", req, None, || snap.execute_plan(&plan))?;
    let t2 = Instant::now();
    Ok(Shadowed {
        bytes: bytes as f64,
        inproc_us: us_between(t0, t2),
        scanned_rows,
        exec_us: us_between(t1, t2),
        pruned: (dt_storage::zone_map_pruned_total() - pruned) as f64,
        partitions,
    })
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> DtResult<(Outcome, Option<Analysis>)> {
    let mut setups = SetupTimes::default();
    let (engine, server) = setups.run(SETUPS, || setup(seed).expect("scan set-up"));
    let plan = queries(seed, QUERIES_PER_SECOND * seconds);
    let mut out = Outcome::default();
    let mut lat: [Vec<f64>; 4] = Default::default();
    let mut first: [Option<(String, Vec<Row>)>; 4] = Default::default();
    let mut trace = traced.then(Trace::default);
    let mut shadows: Vec<(u64, f64, Shadowed)> = Vec::new();
    let mut errors = Vec::new();

    // Rows and partitions per table; the workload never writes.
    let sizes: HashMap<EntityId, (f64, f64)> = engine.inspect(|st| {
        [("sales", FACT_ROWS), ("stores", STORES)]
            .iter()
            .map(|(name, rows)| {
                let id = st.catalog().resolve(name).expect("table exists").id;
                let parts = st.table_store(id).map_or(0, |s| s.partition_count());
                (id, (*rows as f64, parts as f64))
            })
            .collect()
    });
    let mut client = Client::connect(server.local_addr())
        .map_err(|e| dt_common::DtError::Storage(format!("connect: {e}")))?;
    let cpu_before = cpu_seconds();
    let t0 = Instant::now();
    for (i, (t, sql)) in plan.iter().enumerate() {
        let start = Instant::now();
        let result = client.query(sql);
        let end = Instant::now();
        match result {
            Ok(rows) => {
                lat[*t].push(us_between(start, end));
                if let Some(tr) = trace.as_mut() {
                    tr.push("op.query", i as u64, None, start, end);
                    let s = shadow(&engine, &sizes, tr, i as u64, sql, &rows)?;
                    shadows.push((i as u64, us_between(start, end), s));
                }
                if first[*t].is_none() {
                    first[*t] = Some((sql.clone(), rows.into_sorted_rows()));
                }
            }
            Err(e) => {
                lat[*t].push(f64::INFINITY);
                errors.push(format!("{sql}: {e}"));
            }
        }
    }
    let wall = t0.elapsed();
    let cpu_s = cpu_seconds() - cpu_before;
    if let Err(e) = client.close() {
        errors.push(format!("close: {e}"));
    }
    server.shutdown();
    // Set up again after the measured phase, so the smallest set-up time
    // is read over a longer stretch of the host's load.
    drop(setups.run(SETUPS, || setup(seed).expect("scan set-up")));

    out.attempted = plan.len() as u64;
    out.failed = errors.len() as u64;
    out.gate(errors.is_empty(), || {
        format!("{} queries failed, first: {}", errors.len(), errors[0])
    });
    // Every template's wire result equals the row interpreter's.
    let snap = engine.snapshot();
    for (name, f) in TEMPLATES.iter().zip(&first) {
        match f {
            None => out.gate(false, || format!("{name}: no successful query to check")),
            Some((sql, rows)) => {
                let expected = oracle(&snap, sql);
                out.gate(matches!(&expected, Ok(e) if e == rows), || {
                    format!("{name}: wire result differs from the row interpreter for {sql}")
                });
            }
        }
    }

    let p50s: Vec<f64> = lat.iter().map(|l| median(l)).collect();
    let tail = tail_percentile(lat.iter().map(|l| l.len()).min().unwrap_or(0));
    let tails: Vec<f64> = lat.iter().map(|l| percentile(l, tail)).collect();
    // Per query, failed or not, so work dropped by a failure never reads
    // as a gain.
    out.metric(
        "cpu_us_per_op",
        cpu_s * 1e6 / out.attempted.max(1) as f64,
        "us",
    );
    out.metric("rss_peak_mb", rss_peak_mb(), "MB");
    out.metric("setup_s", setups.cpu_s(), "s");
    out.metric("setup_wall_s", setups.wall_s(), "s");

    out.line(format!(
        "scan_analytic: {} queries over {FACT_ROWS} fact rows, one connection",
        plan.len()
    ));
    out.line(format!(
        "template tail {:.3} ms (geometric mean of each template's p{})",
        geomean(&tails) / 1e3,
        tail * 100.0
    ));
    let all: Vec<f64> = lat.iter().flatten().copied().collect();
    out.metric("template_p50_ms", geomean(&p50s) / 1e3, "ms");
    out.metric("read_p50_us", median(&all), "us");
    out.metric("read_p99_us", percentile(&all, 0.99), "us");
    out.metric(
        "req_per_s",
        (out.attempted - out.failed) as f64 / wall.as_secs_f64(),
        "1/s",
    );
    for (i, name) in TEMPLATES.iter().enumerate() {
        out.line(format!(
            "template {name:<13} n {:>5}  p50 {:>10.1} us  p{:.0} {:>10.1} us",
            lat[i].len(),
            p50s[i],
            tail * 100.0,
            tails[i]
        ));
    }

    let Some(trace) = trace else {
        return Ok((out, None));
    };
    let analysis = Analysis::new(vec![trace]);
    let sum = |f: fn(&Shadowed) -> f64| shadows.iter().map(|s| f(&s.2)).sum::<f64>();
    out.metric("wire.codec_us", analysis.p50_us("wire.codec"), "us");
    out.metric(
        "wire.bytes_per_request",
        sum(|s| s.bytes) / shadows.len() as f64,
        "B",
    );
    out.metric("sql.parse_us", analysis.p50_us("sql.parse"), "us");
    out.metric("plan.bind_us", analysis.p50_us("plan.bind"), "us");
    out.metric("core.pin_us", analysis.p50_us("core.pin"), "us");
    out.metric("exec.execute_us", analysis.p50_us("exec.execute"), "us");
    out.metric(
        "exec.rows_per_s",
        sum(|s| s.scanned_rows) / (sum(|s| s.exec_us) / 1e6),
        "1/s",
    );
    out.metric(
        "storage.pruned_ratio",
        sum(|s| s.pruned) / sum(|s| s.partitions),
        "ratio",
    );
    let overhead: Vec<f64> = shadows
        .iter()
        .map(|(_, lat, s)| lat - s.inproc_us)
        .collect();
    out.metric("server.roundtrip_overhead_us", median(&overhead), "us");
    let covered = analysis.covered_by_request(&["op.query"]);
    let lat_all: Vec<f64> = shadows.iter().map(|s| s.1).collect();
    let rest: Vec<f64> = shadows
        .iter()
        .map(|s| s.1 - covered.get(&s.0).copied().unwrap_or(0.0))
        .collect();
    out.metric(
        "trace.unattributed_p50_share",
        median(&rest) / median(&lat_all),
        "ratio",
    );
    Ok((out, Some(analysis)))
}
