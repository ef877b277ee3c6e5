//! The repository benchmark: three workloads run against the public
//! `dt-core` / `dt-server` / `dt-client` APIs from one process.
//!
//! ```text
//! dt-perfbench --workload <ingest_refresh|serve_mixed|scan_analytic>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload does a fixed amount of work derived from `--seconds`
//! (a fixed schedule or a fixed operation count), never "as much as fits
//! in the time": per-commit cost grows with version history, so a faster
//! build doing more work would carry a deeper history and be penalised.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs
//! twice, untraced and then traced, and the metrics are the per-layer
//! ones, including the tracing overhead (traced minus untraced). The
//! process exits non-zero when a correctness gate fails.

mod ingest;
mod scan;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};

use trace::Analysis;
use util::Outcome;

const WORKLOADS: [&str; 3] = ["ingest_refresh", "serve_mixed", "scan_analytic"];

/// End-to-end metrics, reported by every workload with `--trace 0`. Wall
/// clock latency and throughput (each workload's own names) are printed in
/// the report but not listed:
/// on a shared virtual machine their run-to-run spread exceeds any bound a
/// regression gate can use (see README.md).
const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("wire.codec_us", "us"),
    ("wire.bytes_per_request", "B"),
    ("server.roundtrip_overhead_us", "us"),
    ("sql.parse_us", "us"),
    ("plan.bind_us", "us"),
    ("core.pin_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_per_s", "1/s"),
    ("storage.pruned_ratio", "ratio"),
    ("core.dml_update_us", "us"),
    ("txn.prepare_us", "us"),
    ("txn.install_us", "us"),
    ("txn.retries_per_commit", "count"),
    ("txn.lock_wait_us_per_commit", "us"),
    ("txn.commits_per_batch", "count"),
    ("core.commit_blocked_us", "us"),
    ("storage.versions_end", "count"),
    ("storage.partitions_end", "count"),
    ("storage.commit_growth", "ratio"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.checkpoints", "count"),
    ("wal.stored_bytes_per_user_byte", "ratio"),
    ("scheduler.step_p50_ms", "ms"),
    ("scheduler.step_p99_ms", "ms"),
    ("core.refresh_us.filter", "us"),
    ("core.refresh_us.agg", "us"),
    ("core.refresh_us.join_agg", "us"),
    ("core.refresh_us.dt_on_dt", "us"),
    ("ivm.us_per_source_row", "us"),
    ("refresh.no_data_ratio", "ratio"),
    ("load.lateness_p99_ms", "ms"),
    ("trace.unattributed_p50_share", "ratio"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_ops_pct", "%"),
    ("trace.overhead_cpu_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, traced: bool, dir: &Path) -> (Outcome, Option<Analysis>) {
    let result = match args.workload.as_str() {
        "ingest_refresh" => ingest::run(args.seed, args.seconds, traced, dir),
        "serve_mixed" => serve::run(args.seed, args.seconds, traced),
        "scan_analytic" => scan::run(args.seed, args.seconds, traced),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    result.unwrap_or_else(|e| panic!("{} failed: {e}", args.workload))
}

fn json_result(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = out.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn print_report(label: &str, out: &Outcome) {
    println!("== {label}");
    for line in &out.report {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    for v in &out.violations {
        println!("CORRECTNESS GATE FAILED: {v}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Scratch space inside the working directory (the checkout).
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} cores {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (plain, _) = run(&args, false, &dir);
    print_report("untraced run", &plain);
    let result = if args.trace {
        let (mut traced, analysis) = run(&args, true, &dir);
        let analysis = analysis.expect("a traced run returns its spans");
        // Slowdown in percent: how much worse the traced run reads.
        let worse = |name: &str, higher_is_better: bool| {
            let (t, u) = (
                traced.get(name).unwrap_or(f64::NAN),
                plain.get(name).unwrap_or(f64::NAN),
            );
            if higher_is_better {
                (u / t - 1.0) * 100.0
            } else {
                (t / u - 1.0) * 100.0
            }
        };
        // Each workload's own latency p50 and, where the load is not a
        // fixed schedule, its throughput; `ingest_refresh` commits on a
        // fixed schedule, so its rate cannot slow down (0: not exercised).
        let (p50, ops) = match args.workload.as_str() {
            "ingest_refresh" => (worse("freshness_p50_ms", false), 0.0),
            "serve_mixed" => (worse("read_p50_us", false), worse("req_per_s", true)),
            _ => (worse("template_p50_ms", false), worse("req_per_s", true)),
        };
        let cpu = worse("cpu_us_per_op", false);
        traced.metric("trace.overhead_p50_pct", p50, "%");
        traced.metric("trace.overhead_ops_pct", ops, "%");
        traced.metric("trace.overhead_cpu_pct", cpu, "%");
        print_report("traced run", &traced);
        println!("span self times (name, calls, total ms, median us):");
        for (name, calls, total_ms, med_us) in analysis.self_times() {
            println!("  {name:<22} {calls:>8} {total_ms:>12.3} {med_us:>12.3}");
        }
        let out_dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&out_dir).ok();
        let path = out_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match analysis.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("could not write spans to {}: {e}", path.display()),
        }
        traced.violations.extend(plain.violations.iter().cloned());
        json_result(&traced, &PER_LAYER)
    } else {
        json_result(&plain, &END_TO_END)
    };
    std::fs::remove_dir_all(&dir).ok();
    let correct = result.contains("\"correct\": true");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
