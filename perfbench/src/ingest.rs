//! `ingest_refresh`: the paper's pipeline on a durable engine.
//!
//! An open-loop writer commits pre-generated micro-batches into two base
//! tables on a fixed schedule while a refresher drives the scheduler over a
//! three-level DAG of incremental DTs, in back-to-back steps while a
//! commit is not yet visible, and reads the leaf DTs after each step. Every committed row carries the sequence
//! number of its batch, and every batch inserts one row that passes every
//! filter and join, so a leaf's `max(mseq)` is the newest batch it shows.
//! The run ends by closing the engine and reopening it from disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dt_common::{DtError, DtResult, DurabilityMode, EntityId, Row, Timestamp, Value};
use dt_core::{DbConfig, Engine, Session};
use dt_sql::ast;

use crate::trace::{Analysis, Trace};
use crate::util::{
    cpu_seconds, median, median_or_zero, ms, percentile, rss_peak_mb, tail_percentile, us_between,
    Outcome, Rng, SetupTimes,
};

/// Micro-batches committed per second of `--seconds`: the schedule is
/// fixed, so a faster build commits the same batches and carries the same
/// history. Sized against the commit cost at the end of a run, not the
/// start (per-commit cost grows with version history).
const BATCHES_PER_SECOND: u64 = 20;
/// Rows inserted into `events` per batch.
const ROWS_PER_BATCH: usize = 8;
/// Every this many batches one also updates a `dims` row by key, and one
/// other deletes an `events` row by id. The positions are fixed, not
/// drawn, so every seed carries the same mix of refresh work.
const UPDATE_EVERY: i64 = 8;
const DELETE_EVERY: i64 = 16;
/// `events` rows loaded at set-up.
const INITIAL_EVENTS: i64 = 2_000;
/// Distinct join keys (`dims` rows).
const KEYS: i64 = 128;
const REGIONS: i64 = 16;
/// Kinds of event; the filter DT drops `noise`.
const KINDS: [&str; 4] = ["click", "view", "buy", "noise"];
/// Every DT's target lag. Its canonical period is 48 s of simulated time,
/// so one scheduler step of one period refreshes every DT once.
const TARGET_LAG: &str = "1 minute";
const STEP: dt_common::Duration = dt_common::Duration::from_secs(48);
/// How long the refresher keeps stepping after the last commit before the
/// writes it has not shown yet count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Set-up repetitions before the measured phase, and again after it.
const SETUPS: usize = 25;

/// The DAG: (name, kind, defining query, the same query over base tables
/// only). Level 1 filters the base table, level 2 aggregates it alone and
/// joined with `dims`, level 3 reads a level-2 DT. `ja` and `top` are the
/// leaves. The base-table form is what the DT must equal at its data
/// timestamp: time travel resolves a DT upstream by commit time, not by
/// the refresh that a downstream refresh read.
const DTS: [(&str, &str, &str, &str); 4] = [
    (
        "ev_f",
        "filter",
        "SELECT id, seq, k, v FROM events WHERE kind <> 'noise'",
        "SELECT id, seq, k, v FROM events WHERE kind <> 'noise'",
    ),
    (
        "agg_k",
        "agg",
        "SELECT k, count(*) AS n, sum(v) AS total, max(seq) AS mseq FROM ev_f GROUP BY k",
        "SELECT k, count(*) AS n, sum(v) AS total, max(seq) AS mseq FROM events \
         WHERE kind <> 'noise' GROUP BY k",
    ),
    (
        "ja",
        "join_agg",
        "SELECT d.region, count(*) AS n, sum(f.v) AS total, max(f.seq) AS mseq \
         FROM ev_f f JOIN dims d ON f.k = d.k GROUP BY d.region",
        "SELECT d.region, count(*) AS n, sum(e.v) AS total, max(e.seq) AS mseq \
         FROM events e JOIN dims d ON e.k = d.k WHERE e.kind <> 'noise' GROUP BY d.region",
    ),
    (
        "top",
        "dt_on_dt",
        "SELECT k, n, total, mseq FROM agg_k WHERE n > 1",
        "SELECT k, count(*) AS n, sum(v) AS total, max(seq) AS mseq FROM events \
         WHERE kind <> 'noise' GROUP BY k HAVING count(*) > 1",
    ),
];
const LEAVES: [&str; 2] = ["ja", "top"];
const BASE_TABLES: [&str; 2] = ["events", "dims"];

struct Batch {
    seq: i64,
    /// Scheduled send time, as an offset from the start of the run.
    due: Duration,
    statements: Vec<String>,
    /// Bytes of row data the batch writes (8 per integer, string lengths).
    user_bytes: u64,
}

/// Generate the run's batches from the seed. Batch `i` is due at a seeded
/// random point of the `i`-th slot of `1 / BATCHES_PER_SECOND`: a strictly
/// periodic schedule would lock into step with the refresher and make
/// freshness depend on the phase between the two, and unbounded bursts
/// (a Poisson process) would make the tail depend on where a seed's
/// bursts fall.
fn batches(rng: &mut Rng, count: u64) -> Vec<Batch> {
    let mut next_id = INITIAL_EVENTS;
    let slot = 1.0 / BATCHES_PER_SECOND as f64;
    (1..=count as i64)
        .map(|seq| {
            let jitter = rng.below(1 << 53) as f64 / (1u64 << 53) as f64;
            let due = (seq - 1) as f64 * slot + jitter * slot;
            let mut rows = Vec::with_capacity(ROWS_PER_BATCH);
            let mut user_bytes = 0;
            for r in 0..ROWS_PER_BATCH {
                // Row 0 is the batch's marker: never filtered out.
                let kind = KINDS[rng.below(if r == 0 { 3 } else { 4 }) as usize];
                rows.push(format!(
                    "({next_id}, {seq}, {}, {}, '{kind}')",
                    rng.int(KEYS),
                    rng.int(1000)
                ));
                user_bytes += 32 + kind.len() as u64;
                next_id += 1;
            }
            let mut statements = vec![format!("INSERT INTO events VALUES {}", rows.join(", "))];
            if seq % UPDATE_EVERY == 0 {
                statements.push(format!(
                    "UPDATE dims SET region = 'r{}', seq = {seq} WHERE k = {}",
                    rng.int(REGIONS),
                    rng.int(KEYS)
                ));
                user_bytes += 19;
            }
            if seq % DELETE_EVERY == DELETE_EVERY / 2 {
                statements.push(format!(
                    "DELETE FROM events WHERE id = {}",
                    rng.int(INITIAL_EVENTS)
                ));
            }
            Batch {
                seq,
                due: Duration::from_secs_f64(due),
                statements,
                user_bytes,
            }
        })
        .collect()
}

fn config(dir: &Path) -> DbConfig {
    DbConfig {
        durability: DurabilityMode::wal(dir),
        ..DbConfig::default()
    }
}

/// Create the tables, load them, create the DAG and run its initial
/// refreshes. Returns the engine and the bytes of row data loaded.
fn setup(dir: &Path, seed: u64) -> DtResult<(Engine, u64)> {
    let io = |e: std::io::Error| DtError::Storage(format!("{}: {e}", dir.display()));
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let engine = Engine::open_with_config(config(dir))?;
    engine.create_warehouse("wh", 4)?;
    let s = engine.session();
    s.execute("CREATE TABLE events (id INT, seq INT, k INT, v INT, kind STRING)")?;
    s.execute("CREATE TABLE dims (k INT, region STRING, seq INT)")?;
    let mut rng = Rng::new(seed, 1);
    let mut user_bytes = 0;
    let dims: Vec<String> = (0..KEYS)
        .map(|k| format!("({k}, 'r{}', 0)", rng.int(REGIONS)))
        .collect();
    user_bytes += KEYS as u64 * 19;
    s.execute(&format!("INSERT INTO dims VALUES {}", dims.join(", ")))?;
    let ids: Vec<i64> = (0..INITIAL_EVENTS).collect();
    for chunk in ids.chunks(2000) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| {
                let kind = KINDS[rng.below(4) as usize];
                user_bytes += 32 + kind.len() as u64;
                format!("({id}, 0, {}, {}, '{kind}')", rng.int(KEYS), rng.int(1000))
            })
            .collect();
        s.execute(&format!("INSERT INTO events VALUES {}", rows.join(", ")))?;
    }
    for (name, _, sql, _) in DTS {
        s.execute(&format!(
            "CREATE DYNAMIC TABLE {name} TARGET_LAG = '{TARGET_LAG}' WAREHOUSE = wh AS {sql}"
        ))?;
    }
    engine.run_scheduler_until(engine.now())?;
    Ok((engine, user_bytes))
}

/// One commit as the writer saw it.
struct Commit {
    seq: i64,
    due: Instant,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// One refresher step: the scheduler call, then the leaf reads.
struct Step {
    start: Instant,
    scheduled: Instant,
    end: Instant,
    visible: i64,
    request: u64,
}

/// The newest batch every leaf shows.
fn visible_seq(engine: &Engine, mut trace: Option<(&mut Trace, u64)>) -> DtResult<i64> {
    let mut visible = i64::MAX;
    for leaf in LEAVES {
        let sql = format!("SELECT max(mseq) FROM {leaf}");
        let rows = match trace.as_mut() {
            None => engine.snapshot().query(&sql)?.into_rows(),
            Some((t, req)) => {
                // The same read as `ReadSnapshot::query`, one layer call at
                // a time.
                let req = *req;
                let snap = t.time("core.pin", req, None, || engine.snapshot());
                let stmt = t.time("sql.parse", req, None, || dt_sql::parse(&sql))?;
                let ast::Statement::Query(q) = stmt else {
                    unreachable!("a SELECT parses as a query")
                };
                let plan = t.time("plan.bind", req, None, || {
                    snap.bind_query(&q)
                        .map(|b| dt_plan::push_down_filters(&b.plan))
                })?;
                t.time("exec.execute", req, None, || snap.execute_plan(&plan))?
            }
        };
        let v = match rows.first().map(|r| r.get(0)) {
            Some(Value::Int(v)) => *v,
            _ => 0,
        };
        visible = visible.min(v);
    }
    Ok(visible)
}

fn contents(s: &Session, table: &str) -> DtResult<Vec<Row>> {
    s.query_sorted(&format!("SELECT * FROM {table}"))
}

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    dir: &Path,
) -> DtResult<(Outcome, Option<Analysis>)> {
    let db_dir: PathBuf = dir.join("ingest");
    let mut setups = SetupTimes::default();
    let (engine, setup_bytes) = setups.run(SETUPS, || setup(&db_dir, seed).expect("ingest set-up"));
    let rss_setup = rss_peak_mb();
    let count = BATCHES_PER_SECOND * seconds;
    let plan = batches(&mut Rng::new(seed, 2), count);
    let user_bytes = setup_bytes + plan.iter().map(|b| b.user_bytes).sum::<u64>();

    let ids: BTreeMap<EntityId, &str> = engine.inspect(|st| {
        DTS.iter()
            .map(|(name, kind, _, _)| (st.catalog().resolve(name).expect("DT exists").id, *kind))
            .collect()
    });
    let log_start = engine.refresh_log().len();
    let wal_before = engine.wal_stats();
    let commits_before = engine.commit_stats();

    // (newest committed batch, writer finished), and a wake-up for the
    // refresher when either changes.
    let progress = (Mutex::new((0i64, false)), Condvar::new());
    let cpu_before = cpu_seconds();
    let start = Instant::now() + Duration::from_millis(5);
    let (commits, steps, writer_trace, refresher_trace, refresher_error) =
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let session = engine.session();
                let mut trace = traced.then(Trace::default);
                let mut commits = Vec::with_capacity(plan.len());
                for batch in &plan {
                    let due = start + batch.due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let request = batch.seq as u64;
                    let began = Instant::now();
                    let root = trace.as_mut().map(|t| t.open("op.commit", request, None));
                    let result = (|| -> DtResult<Timestamp> {
                        let mut txn = session.begin();
                        for sql in &batch.statements {
                            match trace.as_mut() {
                                None => {
                                    txn.execute(sql)?;
                                }
                                Some(t) => {
                                    // The parse is repeated outside the call to
                                    // time it; `execute` parses again inside.
                                    t.time("sql.parse", request, root, || dt_sql::parse(sql))?;
                                    let name = if sql.starts_with("UPDATE") {
                                        "core.dml_update"
                                    } else {
                                        "core.dml"
                                    };
                                    t.time(name, request, root, || txn.execute(sql))?;
                                }
                            }
                        }
                        match trace.as_mut() {
                            None => txn.commit(),
                            Some(t) => {
                                let prepared =
                                    t.time("txn.prepare", request, root, || txn.prepare_commit())?;
                                t.time("txn.install", request, root, || prepared.commit())
                            }
                        }
                    })();
                    if let (Some(t), Some(root)) = (trace.as_mut(), root) {
                        t.close(root);
                    }
                    if result.is_ok() {
                        progress.0.lock().expect("progress lock").0 = batch.seq;
                        progress.1.notify_one();
                    }
                    commits.push(Commit {
                        seq: batch.seq,
                        due,
                        start: began,
                        end: Instant::now(),
                        ok: result.is_ok(),
                    });
                }
                progress.0.lock().expect("progress lock").1 = true;
                progress.1.notify_one();
                (commits, trace)
            });
            let refresher = scope.spawn(|| {
                let mut trace = traced.then(Trace::default);
                let mut steps: Vec<Step> = Vec::new();
                let mut drain_from: Option<Instant> = None;
                let result = (|| -> DtResult<()> {
                    loop {
                        let request = (1 << 40) + steps.len() as u64;
                        let t0 = Instant::now();
                        let end = engine.now().add(STEP);
                        match trace.as_mut() {
                            None => engine.run_scheduler_until(end)?,
                            Some(t) => t.time("scheduler.step", request, None, || {
                                engine.run_scheduler_until(end)
                            })?,
                        };
                        let t1 = Instant::now();
                        let visible = visible_seq(&engine, trace.as_mut().map(|t| (t, request)))?;
                        steps.push(Step {
                            start: t0,
                            scheduled: t1,
                            end: Instant::now(),
                            visible,
                            request,
                        });
                        // Step again at once while a committed batch is not
                        // visible yet; otherwise wait for the next commit. Steps
                        // are then bounded by commits, not by how fast an idle
                        // step is.
                        let state = progress.0.lock().expect("progress lock");
                        let (committed, done) = *progress
                            .1
                            .wait_while(state, |(c, done)| !*done && *c <= visible)
                            .expect("progress lock");
                        if done {
                            let drain = *drain_from.get_or_insert_with(Instant::now);
                            if committed <= visible || drain.elapsed() > DRAIN_LIMIT {
                                return Ok(());
                            }
                        }
                    }
                })();
                (steps, trace, result.err())
            });
            let (commits, wt) = writer.join().expect("writer thread");
            let (steps, rt, err) = refresher.join().expect("refresher thread");
            (commits, steps, wt, rt, err)
        });

    let cpu_s = cpu_seconds() - cpu_before;
    let mut out = Outcome::default();
    if let Some(e) = refresher_error {
        out.gate(false, || format!("refresher failed: {e}"));
    }

    // Freshness: from a batch's scheduled send time to the end of the
    // first step after which every leaf shows it. A failed or never-shown
    // batch misses every latency limit.
    let mut freshness_ms = Vec::with_capacity(commits.len());
    let mut visible_step: Vec<Option<usize>> = Vec::with_capacity(commits.len());
    let mut failed = 0u64;
    for c in &commits {
        let step = steps
            .iter()
            .position(|s| s.visible >= c.seq && s.end >= c.end);
        visible_step.push(step);
        match (c.ok, step) {
            (true, Some(j)) => freshness_ms.push(ms(steps[j].end.saturating_duration_since(c.due))),
            _ => {
                failed += 1;
                freshness_ms.push(f64::INFINITY);
            }
        }
    }
    let backwards = steps
        .windows(2)
        .filter(|w| w[1].visible < w[0].visible)
        .count();
    out.gate(backwards == 0, || {
        format!("leaf visibility went backwards in {backwards} steps")
    });
    let commit_us: Vec<f64> = commits
        .iter()
        .map(|c| {
            if c.ok {
                us_between(c.due, c.end)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let lateness_ms: Vec<f64> = commits
        .iter()
        .map(|c| ms(c.start.saturating_duration_since(c.due)))
        .collect();
    let committed = commits.iter().filter(|c| c.ok).count() as u64;

    // Per-layer counters, read before the engine closes.
    let wal = engine.wal_stats();
    let cs = engine.commit_stats();
    let log: Vec<_> = engine.refresh_log().entries().split_off(log_start);
    let (versions_end, partitions_end) = engine.inspect(|st| {
        BASE_TABLES.iter().fold((0, 0), |(v, p), name| {
            let id = st.catalog().resolve(name).expect("base table").id;
            let store = st.table_store(id).expect("base table store");
            (v + store.version_count(), p + store.partition_count())
        })
    });

    // Gate: every DT equals its defining query at its data timestamp.
    let session = engine.session();
    for (&id, kind) in &ids {
        let (name, _, _, sql) = DTS.iter().find(|d| d.1 == *kind).expect("known DT");
        let data_ts = engine
            .refresh_log()
            .entries()
            .iter()
            .rev()
            .find(|e| e.dt == id && e.action != "failed")
            .map(|e| e.refresh_ts);
        let Some(data_ts) = data_ts else {
            out.gate(false, || format!("{name} was never refreshed"));
            continue;
        };
        let expected = session.query_at(sql, data_ts).map(|r| r.into_sorted_rows());
        let stored = contents(&session, name);
        out.gate(
            matches!((&expected, &stored), (Ok(e), Ok(s)) if e == s),
            || format!("{name} differs from its defining query at its data timestamp {data_ts}"),
        );
    }

    // Close and reopen from disk: the recovered tables must be identical.
    let tables: Vec<&str> = BASE_TABLES
        .iter()
        .copied()
        .chain(DTS.iter().map(|d| d.0))
        .collect();
    let before: Vec<DtResult<Vec<Row>>> = tables.iter().map(|t| contents(&session, t)).collect();
    drop(session);
    drop(engine);
    let stored_bytes: u64 = std::fs::read_dir(&db_dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let t0 = Instant::now();
    let reopened = Engine::open_with_config(config(&db_dir));
    let recovery_s = t0.elapsed().as_secs_f64();
    match reopened {
        Ok(engine) => {
            let s = engine.session();
            for (t, b) in tables.iter().zip(&before) {
                let after = contents(&s, t);
                out.gate(matches!((b, &after), (Ok(b), Ok(a)) if a == b), || {
                    format!("{t} differs after reopening the engine")
                });
            }
        }
        Err(e) => out.gate(false, || format!("reopen failed: {e}")),
    }
    // Set up again after the measured phase, so the smallest set-up time
    // is read over a longer stretch of the host's load.
    drop(setups.run(SETUPS, || setup(&db_dir, seed).expect("ingest set-up")));
    std::fs::remove_dir_all(&db_dir).ok();

    // Every scheduled batch must commit and then show on every leaf: a
    // scheduler that stopped refreshing would leave the DTs equal to their
    // queries at an old timestamp, and only this gate sees it.
    let aborted = commits.len() as u64 - committed;
    out.gate(failed == 0, || {
        format!(
            "{aborted} batches failed to commit and {} committed batches never showed \
             on every leaf",
            failed - aborted
        )
    });
    out.attempted = commits.len() as u64;
    out.failed = failed;
    let tail = tail_percentile(freshness_ms.len());
    // Per scheduled batch, failed or not, so work dropped by a failure
    // never reads as a gain.
    out.metric(
        "cpu_us_per_op",
        cpu_s * 1e6 / out.attempted.max(1) as f64,
        "us",
    );
    out.metric("rss_peak_mb", rss_peak_mb(), "MB");
    out.metric("setup_s", setups.cpu_s(), "s");
    out.metric("setup_wall_s", setups.wall_s(), "s");

    out.line(format!(
        "ingest_refresh: {count} batches at {BATCHES_PER_SECOND}/s, {} steps, {} refreshes",
        steps.len(),
        log.len()
    ));
    out.metric("freshness_p50_ms", percentile(&freshness_ms, 0.5), "ms");
    out.metric("freshness_p99_ms", percentile(&freshness_ms, 0.99), "ms");
    out.metric("commit_p50_us", percentile(&commit_us, 0.5), "us");
    out.metric("commit_p99_us", percentile(&commit_us, 0.99), "us");
    out.metric("recovery_s", recovery_s, "s");
    out.line(format!("peak rss after set-up {rss_setup:.1} MB"));
    out.line(format!(
        "writer lateness behind schedule: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        percentile(&lateness_ms, 0.5),
        percentile(&lateness_ms, 0.99),
        percentile(&lateness_ms, 1.0)
    ));
    out.line(format!(
        "freshness tail {:.3} ms (p{} of {} writes)",
        percentile(&freshness_ms, tail),
        tail * 100.0,
        freshness_ms.len()
    ));

    if !traced {
        return Ok((out, None));
    }
    let analysis = Analysis::new(
        [writer_trace, refresher_trace]
            .into_iter()
            .flatten()
            .collect(),
    );
    let n = committed.max(1) as f64;
    out.metric("txn.prepare_us", analysis.p50_us("txn.prepare"), "us");
    out.metric("txn.install_us", analysis.p50_us("txn.install"), "us");
    out.metric("sql.parse_us", analysis.p50_us("sql.parse"), "us");
    out.metric(
        "core.dml_update_us",
        analysis.p50_us("core.dml_update"),
        "us",
    );
    out.metric("core.pin_us", analysis.p50_us("core.pin"), "us");
    out.metric("plan.bind_us", analysis.p50_us("plan.bind"), "us");
    out.metric("exec.execute_us", analysis.p50_us("exec.execute"), "us");
    out.metric(
        "txn.commits_per_batch",
        (cs.group_submitted - commits_before.group_submitted) as f64
            / (cs.install_lock_acquisitions - commits_before.install_lock_acquisitions).max(1)
                as f64,
        "count",
    );
    // Commits that overlap a scheduler step wait for its engine lock.
    let overlaps = |c: &Commit| {
        steps
            .iter()
            .any(|s| s.start < c.end && c.start < s.scheduled)
    };
    let (blocked, free): (Vec<&Commit>, Vec<&Commit>) = commits.iter().partition(|c| overlaps(c));
    let dur = |v: &[&Commit]| -> f64 {
        median_or_zero(
            &v.iter()
                .map(|c| us_between(c.start, c.end))
                .collect::<Vec<_>>(),
        )
    };
    out.metric("core.commit_blocked_us", dur(&blocked) - dur(&free), "us");
    out.metric("storage.versions_end", versions_end as f64, "count");
    out.metric("storage.partitions_end", partitions_end as f64, "count");
    let tenth = (commits.len() / 10).max(1);
    let own: Vec<f64> = commits.iter().map(|c| us_between(c.start, c.end)).collect();
    out.metric(
        "storage.commit_growth",
        median(&own[own.len() - tenth..]) / median(&own[..tenth]),
        "ratio",
    );
    out.metric(
        "wal.fsyncs_per_commit",
        (wal.fsyncs - wal_before.fsyncs) as f64 / n,
        "count",
    );
    out.metric(
        "wal.bytes_per_commit",
        (wal.bytes - wal_before.bytes) as f64 / n,
        "B",
    );
    out.metric(
        "wal.checkpoints",
        (wal.checkpoints - wal_before.checkpoints) as f64,
        "count",
    );
    out.metric(
        "wal.stored_bytes_per_user_byte",
        stored_bytes as f64 / user_bytes as f64,
        "ratio",
    );
    let step_ms: Vec<f64> = analysis
        .durations("scheduler.step")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    out.metric("scheduler.step_p50_ms", percentile(&step_ms, 0.5), "ms");
    out.metric("scheduler.step_p99_ms", percentile(&step_ms, 0.99), "ms");
    for (_, kind, _, _) in DTS {
        let d: Vec<f64> = log
            .iter()
            .filter(|e| ids.get(&e.dt) == Some(&kind) && e.action != "no_data")
            .map(|e| e.duration_micros as f64)
            .collect();
        let name = format!("core.refresh_us.{kind}");
        out.metric(&name, median_or_zero(&d), "us");
    }
    let incremental: Vec<_> = log.iter().filter(|e| e.action == "incremental").collect();
    out.metric(
        "ivm.us_per_source_row",
        incremental
            .iter()
            .map(|e| e.duration_micros as f64)
            .sum::<f64>()
            / incremental
                .iter()
                .map(|e| e.source_rows as f64)
                .sum::<f64>()
                .max(1.0),
        "us",
    );
    out.metric(
        "refresh.no_data_ratio",
        log.iter().filter(|e| e.action == "no_data").count() as f64 / log.len().max(1) as f64,
        "ratio",
    );
    out.metric("load.lateness_p99_ms", percentile(&lateness_ms, 0.99), "ms");

    // The part of freshness no span covers: per write, the spans of its
    // commit plus the step that made it visible.
    let covered = analysis.covered_by_request(&["op.commit"]);
    let rest: Vec<f64> = commits
        .iter()
        .zip(&visible_step)
        .filter_map(|(c, step)| {
            let s = &steps[(*step)?];
            let own = covered.get(&(c.seq as u64)).copied().unwrap_or(0.0);
            let step = covered.get(&s.request).copied().unwrap_or(0.0);
            Some(ms(s.end.saturating_duration_since(c.due)) - (own + step) / 1e3)
        })
        .collect();
    out.metric(
        "trace.unattributed_p50_share",
        median(&rest) / percentile(&freshness_ms, 0.5),
        "ratio",
    );
    Ok((out, Some(analysis)))
}
