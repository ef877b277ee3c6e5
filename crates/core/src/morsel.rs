//! Morsel-style parallel partition scans.
//!
//! A pinned [`TableSnapshot`] is a list of immutable `Arc`'d partitions, so
//! scanning parallelizes trivially: worker threads pull partition indices
//! from a shared atomic cursor (the "morsel" dispenser — no pre-chunking,
//! so a thread that drew cheap, heavily filtered partitions just pulls
//! more) and each produces that partition's filtered batch. Zone-map pruning happens
//! before any worker starts and before any column data is touched, so
//! workers only draw partitions the filter may match. Results are
//! reassembled in partition order, so a parallel scan returns
//! byte-identical batches to a sequential one.
//!
//! Scoped threads keep this dependency-free and borrow-friendly: workers
//! borrow the snapshot and filter straight off the caller's stack.

use std::sync::atomic::{AtomicUsize, Ordering};

use dt_common::{Batch, PredicateSet};
use dt_storage::TableSnapshot;

/// Scan `snap` as columnar batches (zone-map-pruned by `filter`), fanning
/// the partitions out over up to `threads` workers. Zone maps are checked
/// once, up front, and the fan-out is sized by the partitions that survive
/// them: a selective filter that leaves one partition (or none) scans
/// sequentially and starts no thread.
pub fn scan_batches_parallel(
    snap: &TableSnapshot,
    filter: Option<&PredicateSet>,
    threads: usize,
) -> Vec<Batch> {
    let survivors = snap.surviving_partitions(filter);
    let threads = threads.min(survivors.len());
    if threads <= 1 {
        return survivors
            .iter()
            .filter_map(|&i| snap.partition_batch(i, filter))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut found: Vec<(usize, Batch)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&p) = survivors.get(i) else {
                            break;
                        };
                        if let Some(b) = snap.partition_batch(p, filter) {
                            got.push((i, b));
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    // Partition order == scan order; reassemble it.
    found.sort_by_key(|(i, _)| *i);
    found.into_iter().map(|(_, b)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, CmpOp, Column, ColumnPredicate, DataType, Schema, Timestamp, TxnId, Value};
    use dt_storage::TableStore;

    fn snapshot_with(n: i64) -> TableSnapshot {
        let t = TableStore::with_partition_capacity(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            Timestamp::EPOCH,
            TxnId(0),
            8,
        );
        t.commit_change(
            (0..n).map(|i| row!(i)).collect(),
            vec![],
            Timestamp::from_secs(1),
            TxnId(1),
        )
        .unwrap();
        t.snapshot_latest()
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        let snap = snapshot_with(100);
        assert!(snap.partition_count() > 1);
        for threads in [1, 2, 4, 16] {
            let rows: Vec<_> = scan_batches_parallel(&snap, None, threads)
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            assert_eq!(rows, snap.scan(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_scan_prunes_and_filters_like_sequential() {
        let snap = snapshot_with(100);
        let f = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::GtEq,
            literal: Value::Int(90),
        }]);
        let expect: Vec<_> = (90..100i64).map(|i| row!(i)).collect();
        for threads in [1, 3, 8] {
            let rows: Vec<_> = scan_batches_parallel(&snap, Some(&f), threads)
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            assert_eq!(rows, expect, "threads={threads}");
        }
    }

    #[test]
    fn fan_out_follows_surviving_partitions() {
        // 100 rows in partitions of 8: 13 partitions, keys ascending.
        let snap = snapshot_with(100);
        let n = snap.partition_count();
        let ge = |lit: i64| {
            PredicateSet::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::GtEq,
                literal: Value::Int(lit),
            }])
        };
        // Prunes none, all but one (only the last partition holds 99), all.
        for (f, pruned) in [(ge(0), 0), (ge(99), n - 1), (ge(1000), n)] {
            assert_eq!(snap.count_pruned(&f), pruned);
            let sequential: Vec<_> = snap
                .scan_batches(Some(&f))
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            for threads in [2, 4] {
                let reads = |s: &TableSnapshot| -> Vec<u64> {
                    s.partitions().iter().map(|p| p.data_reads()).collect()
                };
                let reads_before = reads(&snap);
                let before = dt_storage::zone_map_pruned_total();
                let rows: Vec<_> = scan_batches_parallel(&snap, Some(&f), threads)
                    .iter()
                    .flat_map(|b| b.to_rows())
                    .collect();
                let counted = dt_storage::zone_map_pruned_total() - before;
                assert_eq!(rows, sequential, "pruned={pruned} threads={threads}");
                // Every partition is visited once: survivors read once,
                // pruned ones never.
                let read: u64 = reads(&snap)
                    .iter()
                    .zip(&reads_before)
                    .map(|(a, b)| a - b)
                    .sum();
                assert_eq!(
                    read,
                    (n - pruned) as u64,
                    "pruned={pruned} threads={threads}"
                );
                // Other tests scan concurrently and bump the same global
                // counter, so it can only be checked from below.
                assert!(
                    counted >= pruned as u64,
                    "pruned={pruned}: counted {counted}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_partitions_is_fine() {
        let snap = snapshot_with(3); // single partition
        let rows: Vec<_> = scan_batches_parallel(&snap, None, 64)
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows.len(), 3);
    }
}
