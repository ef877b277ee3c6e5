//! `serve_mixed`: two closed-loop connections over `dt-wire` to an
//! in-process `dt-server` on an in-memory engine. Each request is a
//! prepared point read of the shared base table, a prepared read of a
//! pre-built DT, or a text-SQL write transaction (`BEGIN`, one-row
//! `INSERT`, one-row `UPDATE` by key, `COMMIT`) retried with `run_txn`.
//! No refresh runs and no WAL is written.

use std::sync::Barrier;
use std::time::Instant;

use dt_client::{Client, Prepared};
use dt_common::{DtResult, Value};
use dt_core::{DbConfig, Engine};
use dt_plan::LogicalPlan;
use dt_server::{Server, ServerConfig};
use dt_sql::ast;
use dt_wire::{RemoteRows, Request, Response};

use crate::trace::{Analysis, Trace};
use crate::util::{
    cpu_seconds, median, percentile, rss_peak_mb, us_between, Outcome, Rng, SetupTimes,
};

/// Rows of the shared base table at set-up.
const ACCOUNTS: i64 = 16_384;
/// Groups of the pre-built DT (one row each).
const GROUPS: i64 = 64;
/// Closed-loop connections: one per core of the 2-core reference host.
const CONNECTIONS: usize = 2;
/// Requests per second of `--seconds`, split evenly over the
/// connections: a fixed request count, so history depth does not depend
/// on how fast the build is.
const REQUESTS_PER_SECOND: u64 = 550;
/// Request mix, in percent: base-table point reads, DT reads, and the
/// rest write transactions. 70% reads / 30% write transactions is the mix
/// of the repository's `server_throughput` bench; its reads are split
/// evenly between the two read kinds, neither of which has a source that
/// weights it over the other.
const BASE_READ_PCT: u64 = 35;
const DT_READ_PCT: u64 = 35;
const TXN_ATTEMPTS: usize = 64;
/// Set-up repetitions before the measured phase, and again after it.
const SETUPS: usize = 9;

const POINT_SQL: &str = "SELECT balance FROM accounts WHERE id = ?";
const DT_SQL: &str = "SELECT n, total FROM grp_totals WHERE grp = ?";

#[derive(Clone, Copy)]
enum Req {
    BaseRead(i64),
    DtRead(i64),
    /// Insert a new row with this id, add 1 to this existing id's balance.
    Write(i64, i64),
}

/// One connection's requests: exactly the mix's share of each kind, in a
/// seeded order, so every seed does the same amount of each kind of work.
fn requests(seed: u64, conn: usize, count: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 10 + conn as u64);
    let base = count * BASE_READ_PCT / 100;
    let dt = count * DT_READ_PCT / 100;
    let mut kinds: Vec<u8> = (0..count)
        .map(|i| (i >= base) as u8 + (i >= base + dt) as u8)
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            0 => Req::BaseRead(rng.int(ACCOUNTS)),
            1 => Req::DtRead(rng.int(GROUPS)),
            _ => {
                // Ids above the loaded range, distinct per connection.
                let insert = ACCOUNTS + (conn as i64) * 1_000_000_000 + i as i64;
                Req::Write(insert, rng.int(ACCOUNTS))
            }
        })
        .collect()
}

fn write_sql(insert: i64, update: i64) -> [String; 2] {
    [
        format!(
            "INSERT INTO accounts VALUES ({insert}, {}, 0)",
            insert % GROUPS
        ),
        format!("UPDATE accounts SET balance = balance + 1 WHERE id = {update}"),
    ]
}

fn setup() -> DtResult<(Engine, Server)> {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4)?;
    let s = engine.session();
    s.execute("CREATE TABLE accounts (id INT, grp INT, balance INT)")?;
    let ids: Vec<i64> = (0..ACCOUNTS).collect();
    for chunk in ids.chunks(4096) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {}, 100)", id % GROUPS))
            .collect();
        s.execute(&format!("INSERT INTO accounts VALUES {}", rows.join(", ")))?;
    }
    s.execute(
        "CREATE DYNAMIC TABLE grp_totals TARGET_LAG = '1 minute' WAREHOUSE = wh AS \
         SELECT grp, count(*) AS n, sum(balance) AS total FROM accounts GROUP BY grp",
    )?;
    engine.run_scheduler_until(engine.now())?;
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| dt_common::DtError::Storage(format!("bind: {e}")))?;
    Ok((engine, server))
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Traced run, per read: `(request id, latency µs, in-process µs)`.
    reads: Vec<(u64, f64, f64)>,
    /// Traced run, per base read: pruned partitions / table partitions.
    pruned: Vec<f64>,
    committed: u64,
    retries: u64,
    /// Writes that used up every `run_txn` attempt on conflicts.
    exhausted: u64,
    inserted_id_sum: i64,
    failed: u64,
    protocol_errors: Vec<String>,
    wrong_row_counts: u64,
    trace: Option<Trace>,
}

/// The in-process twin of one connection, for the traced run: the same
/// statements, bound once against the same engine.
struct Shadow {
    engine: Engine,
    session: dt_core::Session,
    point: LogicalPlan,
    dt: LogicalPlan,
    accounts: dt_common::EntityId,
}

impl Shadow {
    fn new(engine: &Engine) -> DtResult<Shadow> {
        let snap = engine.snapshot();
        let bind = |sql: &str| -> DtResult<LogicalPlan> {
            let ast::Statement::Query(q) = dt_sql::parse(sql)? else {
                unreachable!("a SELECT parses as a query")
            };
            Ok(snap.bind_query(&q)?.plan)
        };
        Ok(Shadow {
            engine: engine.clone(),
            session: engine.session(),
            point: bind(POINT_SQL)?,
            dt: bind(DT_SQL)?,
            accounts: engine.inspect(|st| st.catalog().resolve("accounts").map(|e| e.id))?,
        })
    }

    /// Repeat a read's layer calls: codec of the exact messages, pin,
    /// execute. Returns the in-process time (pin and execute, µs) and, for
    /// a base read, the share of the table's partitions pruned.
    fn read(
        &self,
        t: &mut Trace,
        req: u64,
        stmt: Prepared,
        params: &[Value],
        rows: &RemoteRows,
        base: bool,
    ) -> DtResult<(f64, Option<f64>)> {
        let request = Request::ExecutePrepared {
            id: stmt.id(),
            params: params.to_vec(),
        };
        let response = Response::Rows(rows.clone());
        t.time("wire.codec", req, None, || {
            let r = Request::decode(&request.encode());
            let s = Response::decode(&response.encode());
            (r.is_ok(), s.is_ok())
        });
        let t0 = Instant::now();
        let snap = t.time("core.pin", req, None, || self.engine.snapshot());
        let pinned = us_between(t0, Instant::now());
        let plan = if base { &self.point } else { &self.dt }.bind_params(params)?;
        let partitions = base.then(|| {
            self.engine.inspect(|st| {
                st.table_store(self.accounts)
                    .map_or(0, |s| s.partition_count())
            })
        });
        let pruned = dt_storage::zone_map_pruned_total();
        let t1 = Instant::now();
        t.time("exec.execute", req, None, || snap.execute_plan(&plan))?;
        let executed = us_between(t1, Instant::now());
        let pruned = dt_storage::zone_map_pruned_total() - pruned;
        Ok((
            pinned + executed,
            partitions.map(|p| pruned as f64 / p.max(1) as f64),
        ))
    }

    /// Repeat a write's layer calls without committing: codec, parse, the
    /// DML inside a transaction, and its commit preparation, then abort.
    fn write(&self, t: &mut Trace, req: u64, sql: &[String; 2]) -> DtResult<()> {
        t.time("wire.codec", req, None, || {
            for r in [
                Request::Begin,
                Request::Query {
                    sql: sql[0].clone(),
                },
                Request::Query {
                    sql: sql[1].clone(),
                },
                Request::Commit,
            ] {
                let _ = Request::decode(&r.encode());
            }
            for r in [Response::Ok("ok".into()), Response::Count(1)] {
                let _ = Response::decode(&r.encode());
            }
        });
        for s in sql {
            t.time("sql.parse", req, None, || dt_sql::parse(s))?;
        }
        let mut txn = self.session.begin();
        t.time("core.dml", req, None, || txn.execute(&sql[0]))?;
        t.time("core.dml_update", req, None, || txn.execute(&sql[1]))?;
        let prepared = t.time("txn.prepare", req, None, || txn.prepare_commit());
        if let Ok(p) = prepared {
            p.abort();
        }
        Ok(())
    }
}

fn connection(
    engine: &Engine,
    addr: std::net::SocketAddr,
    conn: usize,
    reqs: &[Req],
    barrier: &Barrier,
    traced: bool,
) -> ConnResult {
    let mut r = ConnResult {
        trace: traced.then(Trace::default),
        ..ConnResult::default()
    };
    let shadow = traced.then(|| Shadow::new(engine).expect("bind the in-process twin"));
    let prepared = Client::connect(addr).and_then(|mut c| {
        let point = c.prepare(POINT_SQL)?;
        let dt = c.prepare(DT_SQL)?;
        Ok((c, point, dt))
    });
    barrier.wait();
    let (mut client, point, dt) = match prepared {
        Ok(p) => p,
        Err(e) => {
            r.protocol_errors.push(format!("connect: {e}"));
            r.failed = reqs.len() as u64;
            return r;
        }
    };
    for (i, req) in reqs.iter().enumerate() {
        let id = ((conn as u64) << 32) | i as u64;
        let start = Instant::now();
        match *req {
            Req::BaseRead(key) | Req::DtRead(key) => {
                let (stmt, base) = match req {
                    Req::BaseRead(_) => (point, true),
                    _ => (dt, false),
                };
                let params = [Value::Int(key)];
                let result = client.query_prepared(stmt, &params);
                let end = Instant::now();
                let lat = us_between(start, end);
                match result {
                    Ok(rows) => {
                        r.read_us.push(lat);
                        if rows.len() != 1 {
                            r.wrong_row_counts += 1;
                        }
                        if let (Some(t), Some(s)) = (r.trace.as_mut(), shadow.as_ref()) {
                            t.push("op.read", id, None, start, end);
                            let (inproc, pruned) = s
                                .read(t, id, stmt, &params, &rows, base)
                                .expect("in-process read");
                            r.reads.push((id, lat, inproc));
                            r.pruned.extend(pruned);
                        }
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.read_us.push(f64::INFINITY);
                        r.protocol_errors.push(e.to_string());
                    }
                }
            }
            Req::Write(insert, update) => {
                let sql = write_sql(insert, update);
                let mut attempts = 0u64;
                let result = client.run_txn(TXN_ATTEMPTS, |c| {
                    attempts += 1;
                    c.execute(&sql[0])?;
                    c.execute(&sql[1])?;
                    Ok(())
                });
                let end = Instant::now();
                match result {
                    Ok(()) => {
                        r.write_us.push(us_between(start, end));
                        r.committed += 1;
                        r.retries += attempts - 1;
                        r.inserted_id_sum += insert;
                        if let (Some(t), Some(s)) = (r.trace.as_mut(), shadow.as_ref()) {
                            t.push("op.write", id, None, start, end);
                            s.write(t, id, &sql).expect("in-process write");
                        }
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.write_us.push(f64::INFINITY);
                        // Retries used up on conflicts: not a protocol
                        // error, but a failed write all the same.
                        if e.is_conflict() {
                            r.exhausted += 1;
                        } else {
                            r.protocol_errors.push(e.to_string());
                        }
                    }
                }
            }
        }
    }
    if let Err(e) = client.close() {
        r.protocol_errors.push(format!("close: {e}"));
    }
    r
}

fn sum_int(engine: &Engine, sql: &str) -> DtResult<i64> {
    let rows = engine.snapshot().query(sql)?.into_rows();
    rows.first().map_or(Ok(0), |r| r.get(0).expect_int())
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> DtResult<(Outcome, Option<Analysis>)> {
    let mut setups = SetupTimes::default();
    let (engine, server) = setups.run(SETUPS, || setup().expect("serve set-up"));
    let addr = server.local_addr();
    let per_conn = REQUESTS_PER_SECOND * seconds / CONNECTIONS as u64;
    let plans: Vec<Vec<Req>> = (0..CONNECTIONS)
        .map(|c| requests(seed, c, per_conn))
        .collect();
    let locks_before = engine.lock_stats();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let cpu_before = cpu_seconds();
    let (results, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let (engine, barrier) = (&engine, &barrier);
                scope.spawn(move || connection(engine, addr, c, reqs, barrier, traced))
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect();
        (results, t0.elapsed())
    });
    let cpu_s = cpu_seconds() - cpu_before;
    let locks = engine.lock_stats();
    server.shutdown();
    // Set up again after the measured phase, so the smallest set-up time
    // is read over a longer stretch of the host's load.
    drop(setups.run(SETUPS, || setup().expect("serve set-up")));

    let mut out = Outcome::default();
    let read_us: Vec<f64> = results
        .iter()
        .flat_map(|r| r.read_us.iter().copied())
        .collect();
    let write_us: Vec<f64> = results
        .iter()
        .flat_map(|r| r.write_us.iter().copied())
        .collect();
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let errors: Vec<&String> = results
        .iter()
        .flat_map(|r| r.protocol_errors.iter())
        .collect();
    let wrong_rows: u64 = results.iter().map(|r| r.wrong_row_counts).sum();
    let exhausted: u64 = results.iter().map(|r| r.exhausted).sum();
    out.attempted = plans.iter().map(|p| p.len() as u64).sum();
    out.failed = results.iter().map(|r| r.failed).sum();

    out.gate(errors.is_empty(), || {
        format!("{} protocol errors, first: {}", errors.len(), errors[0])
    });
    out.gate(wrong_rows == 0, || {
        format!("{wrong_rows} reads did not return exactly one row")
    });
    // Every write must commit: writes that all abort would otherwise pass
    // the totals below with a smaller committed count.
    out.gate(exhausted == 0, || {
        format!("{exhausted} writes failed after {TXN_ATTEMPTS} conflicting attempts")
    });
    // The base table must hold exactly the committed writes.
    let inserted: i64 = results.iter().map(|r| r.inserted_id_sum).sum();
    let rows = sum_int(&engine, "SELECT count(*) FROM accounts")?;
    let balance = sum_int(&engine, "SELECT sum(balance) FROM accounts")?;
    let ids = sum_int(&engine, "SELECT sum(id) FROM accounts")?;
    let c = committed as i64;
    out.gate(rows == ACCOUNTS + c, || {
        format!("{rows} rows, expected {}", ACCOUNTS + c)
    });
    out.gate(balance == ACCOUNTS * 100 + c, || {
        format!("balance total {balance}, expected {}", ACCOUNTS * 100 + c)
    });
    let expected_ids = ACCOUNTS * (ACCOUNTS - 1) / 2 + inserted;
    out.gate(ids == expected_ids, || {
        format!("id total {ids}, expected {expected_ids}")
    });

    let completed = out.attempted - out.failed;
    // Per request, failed or not, so work dropped by a failure never reads
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
        "serve_mixed: {CONNECTIONS} connections x {per_conn} requests, {} reads, {} writes, {retries} conflict retries",
        read_us.len(),
        write_us.len()
    ));

    out.metric("read_p50_us", percentile(&read_us, 0.5), "us");
    out.metric("read_p99_us", percentile(&read_us, 0.99), "us");
    out.metric("write_p50_us", percentile(&write_us, 0.5), "us");
    out.metric("write_p99_us", percentile(&write_us, 0.99), "us");
    out.metric("req_per_s", completed as f64 / wall.as_secs_f64(), "1/s");

    if !traced {
        return Ok((out, None));
    }
    let (versions, partitions) = engine.inspect(|st| {
        let id = st.catalog().resolve("accounts").expect("accounts").id;
        let s = st.table_store(id).expect("accounts store");
        (s.version_count(), s.partition_count())
    });
    let pruned: Vec<f64> = results
        .iter()
        .flat_map(|r| r.pruned.iter().copied())
        .collect();
    let reads: Vec<(u64, f64, f64)> = results
        .iter()
        .flat_map(|r| r.reads.iter().copied())
        .collect();
    let analysis = Analysis::new(results.into_iter().filter_map(|r| r.trace).collect());
    let n = committed.max(1) as f64;
    out.metric("wire.codec_us", analysis.p50_us("wire.codec"), "us");
    out.metric("sql.parse_us", analysis.p50_us("sql.parse"), "us");
    out.metric("core.pin_us", analysis.p50_us("core.pin"), "us");
    out.metric("exec.execute_us", analysis.p50_us("exec.execute"), "us");
    out.metric(
        "storage.pruned_ratio",
        pruned.iter().sum::<f64>() / pruned.len().max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.dml_update_us",
        analysis.p50_us("core.dml_update"),
        "us",
    );
    out.metric("txn.prepare_us", analysis.p50_us("txn.prepare"), "us");
    out.metric("txn.retries_per_commit", retries as f64 / n, "count");
    out.metric(
        "txn.lock_wait_us_per_commit",
        (locks.wait_time_us - locks_before.wait_time_us) as f64 / n,
        "us",
    );
    out.metric("storage.versions_end", versions as f64, "count");
    out.metric("storage.partitions_end", partitions as f64, "count");
    // Round trip minus the in-process execution of the same statement.
    let covered = analysis.covered_by_request(&["op.read", "op.write"]);
    let overhead: Vec<f64> = reads.iter().map(|r| r.1 - r.2).collect();
    out.metric("server.roundtrip_overhead_us", median(&overhead), "us");
    let read_lat: Vec<f64> = reads.iter().map(|r| r.1).collect();
    let rest: Vec<f64> = reads
        .iter()
        .map(|r| r.1 - covered.get(&r.0).copied().unwrap_or(0.0))
        .collect();
    out.metric(
        "trace.unattributed_p50_share",
        median(&rest) / median(&read_lat),
        "ratio",
    );
    Ok((out, Some(analysis)))
}
