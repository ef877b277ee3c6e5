//! Plan execution.
//!
//! A vectorized batch-at-a-time pipeline over
//! [`LogicalPlan`](dt_plan::LogicalPlan)s, mirroring the optimized
//! vectorized plans the production system runs on a virtual warehouse
//! (§5.1). Operators exchange columnar [`Batch`](dt_common::Batch)es:
//! scans hand back shared column vectors (zero-copy from columnar
//! storage), filters evaluate into selection bitmaps with typed fast
//! paths, and projections of bare columns are column permutations. Rows
//! materialize once at the top of the plan, so results are row-shaped
//! exactly as before. The original row-at-a-time interpreter survives as
//! [`execute_rows`], the differential baseline the batch pipeline is
//! tested against.
//!
//! Batches are fetched through a [`TableProvider`], which the database
//! façade implements by resolving each scanned entity to the table version
//! dictated by the query's snapshot (§5.3) — the executor itself is
//! snapshot-agnostic. Providers with columnar storage also see the scan's
//! pushed-down predicates, letting them skip whole partitions via zone
//! maps before any data is read.
//!
//! Join execution extracts conjunctive equi-join keys from the ON condition
//! and hash-joins on them: the table is built on the right input's key
//! columns and probed by each left batch's key columns, and the output is
//! gathered column by column. Non-equi predicates fall back to a
//! nested-loop; outer joins pad unmatched sides with NULLs. Grouped
//! aggregates likewise hash group keys read from column slots and fold
//! accumulators straight off the argument columns.

pub mod aggregate;
pub mod batch;
pub mod executor;
pub mod join;
mod keys;
pub mod window;

pub use batch::{execute_batches, filter_batch, vectorizes};
pub use executor::{execute, execute_rows, execute_sorted, MapProvider, TableProvider};
