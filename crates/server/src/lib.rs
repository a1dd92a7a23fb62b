#![warn(missing_docs)]

//! # sparkline-server
//!
//! A multi-tenant query service in front of the sparkline engine: a
//! long-lived process accepting concurrent SQL over a line-based TCP
//! wire protocol (std-only — the build environment vendors its few
//! external crates, so no async runtime or protocol library is pulled
//! in). Every connection gets its own session over one shared catalog;
//! queries are admitted onto a bounded worker pool with per-query
//! memory budgets, deadlines, and cancel-by-id.
//!
//! ## Wire protocol
//!
//! Requests are single lines, `\n`-terminated, of at most
//! [`MAX_REQUEST_BYTES`] (1 MiB); a longer line is answered with one
//! `ERR - request line exceeds …` and its connection is closed. The verb
//! is case-insensitive. Responses are lines too; multi-line responses end
//! with a terminator line so a client never needs length-prefix
//! framing.
//!
//! ```text
//! request   := query | cancel | insert | delete | drop | tables | stats
//!            | ping | quit
//! query     := "QUERY" SP sql-text
//! cancel    := "CANCEL" SP query-id
//! insert    := "INSERT" SP table SP row *( ";" row )
//! row       := literal *( "," literal )       ; NULL | int | float | 'text'
//! delete    := "DELETE" SP table [SP predicate] ; SQL WHERE expression
//! drop      := "DROP" SP table
//! tables    := "TABLES"
//! stats     := "STATS"
//! ping      := "PING"
//! quit      := "QUIT"
//! ```
//!
//! A `QUERY` is answered with **two** messages: an immediate
//! `ACK <id>` carrying the query id (so another connection can
//! `CANCEL <id>` while it runs), then the outcome —
//!
//! ```text
//! ACK <id>
//! OK <id> rows=<n> result=<hit|miss>
//! <tab-separated row> × n
//! END
//! ```
//!
//! or `ERR <id> <message>` on failure. All other verbs answer with a
//! single `OK ...` / `ERR - <message>` line. Row payloads render each
//! value with its canonical `Display` form, so a response body is
//! byte-identical to the same query executed directly on a
//! [`sparkline::SessionContext`], regardless of concurrency or cache
//! hits.
//!
//! ## Admission, budgets, cancellation
//!
//! Executing queries hold one of `max_concurrent_queries` admission
//! permits (result-cache hits are served without a permit — they do no
//! planning or execution). The wait for a permit is sliced and
//! cancel-aware, so a queued query can be cancelled without ever
//! occupying a worker. Each query runs on a session clone sharing the
//! catalog but owning a **fresh cancel flag** — `CANCEL <id>` reaches
//! exactly that query instead of poisoning the connection's session
//! with the sticky session-wide flag — and gets its own
//! `QueryControl` deadline and memory budget from the service's
//! session configuration. Every operator checks that flag per batch,
//! and the dominance loops check it every `CONTROL_CHECK_ROWS` (1024)
//! rows, so cancellation lands within milliseconds even mid-skyline.
//!
//! ## Caching and invalidation
//!
//! One bounded **result cache** sits in front of the pipeline, keyed on
//! `(normalized SQL, catalog version)`. It stores fully rendered
//! response bodies — a skyline is tiny relative to its input and
//! changes only when the table does, so repeated dashboard-style
//! queries are served without touching the engine at all. A miss runs
//! the whole pipeline (parse, one analysis, optimize, plan, execute).
//!
//! The catalog version is a monotone mutation counter bumped by every
//! `register_table` / `register_disk_table` / `drop_table` / insert /
//! delete / foreign-key path (`SessionCatalog::version`), which makes
//! invalidation implicit: any mutation changes the key under every
//! cached entry. A result is only cached when the version observed
//! *after* execution equals the one the lookup was keyed on, so a
//! mutation racing a query can never pin a stale result under a live
//! key.
//!
//! Views are always maintained: a cached query of maintainable shape (a
//! non-DISTINCT skyline over plain columns of one in-memory table, with
//! complete dimensions) installs a view on its miss, and a service
//! INSERT/DELETE refreshes its entry under the new version, so dashboard
//! queries stay on the hit path across mutations. Any other query
//! (filters, joins, aggregates, expressions) is recomputed on the first
//! miss after a mutation.
//!
//! Normalization lowercases and collapses whitespace **outside** string
//! literals and quoted identifiers, both of which are copied verbatim
//! (`''` escapes respected): `SELECT * FROM t` and `select  *  from  t`
//! share one entry, while `'Graz'` and `'graz'` do not, and neither do
//! `"a b"` and `"a  b"`.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{QueryResponse, ServerClient};
pub use protocol::{normalize_sql, render_rows, Request};
pub use server::{SkylineServer, MAX_REQUEST_BYTES};
pub use service::{CacheOutcome, QueryService, ServerConfig, ServiceStats};
