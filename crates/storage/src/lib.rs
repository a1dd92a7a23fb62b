#![warn(missing_docs)]

//! # sparkline-storage
//!
//! A persistent columnar table format of fixed-size blocks, built so the
//! scan can skip whole blocks **before any I/O or decode happens** — the
//! Extensible-Data-Skipping framing with dominance-aware metadata.
//!
//! ## File layout (version 1)
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header   | magic "SPKB" (4) | format version u32 LE          |
//! | schema   | ncols u32; per column:                            |
//! |          |   name_len u32 | name bytes | dtype u8 | null u8  |
//! | blocks   | block 0 payload | block 1 payload | ...           |
//! | footer   | total_rows u64 | block_rows u32 | nblocks u32     |
//! |          | per block: offset u64 | bytes u64 | rows u32      |
//! |          |   per column: null_count u32 | non_numeric u32    |
//! |          |     has_bounds u8 | min f64 | max f64             |
//! |          | sample_seed u64 | sample_bytes u64 | sample block |
//! | trailer  | footer_offset u64 | magic "SPKF" (4)              |
//! +--------------------------------------------------------------+
//! ```
//!
//! Every block payload is self-contained column storage for up to
//! `block_rows` rows: a row count, then per column a NULL bitmap (one bit
//! per row) followed by a type-specific buffer. `Float64` buffers are
//! stored **sign-normalized** — the same order-preserving
//! float-bits-to-integer map the `ColumnarBlock` kernel uses, so integer
//! comparisons over the raw buffer agree with IEEE-754 order and the
//! round trip is bit-exact (NaN payloads included). `Int64`/`Boolean`
//! buffers are fixed-width little-endian; `Utf8` stores per-row lengths
//! plus concatenated bytes.
//!
//! The footer is written last and located through a fixed-size trailer,
//! so a table is opened by reading the header and footer only — block
//! payloads stay untouched until a scan actually needs them.
//!
//! ## Row order
//!
//! Block metadata only skips blocks whose rows share a region of the
//! space, so [`write_table`] (and the session's COPY, which calls it)
//! chooses the row order; [`TableWriter`] keeps the order rows arrive in.
//! `write_table` reads the rows twice, once for each Int64/Float64
//! column's finite min and max and once for each row's Z cell: the
//! column is quantized linearly between its min and max (±inf clamp to
//! the edge slots; NULL and NaN take slot 0), and the slots are
//! bit-interleaved into a Morton cell, the bits dealt round-robin over
//! the columns so the grid has about eight cells per block. A stable
//! counting sort by cell gives the permutation, and consecutive runs of
//! `block_rows` rows form the blocks (only the last may be short),
//! written in Z rank.
//!
//! The Morton cell is monotone in every column, so under all-MIN
//! dimensions a row's dominators sit in its own cell or an earlier one:
//! the file is a presorted input in the SFS sense, and a scan split into
//! contiguous runs of blocks hands each executor rows that mostly arrive
//! after their dominators. (Writing the blocks in bit-reversed rank, so
//! that every run samples the whole space, loses that order; the
//! `disk_filter` benchmark workload ran slower with it.)
//!
//! The order depends only on the rows and `block_rows`, so the same input
//! writes the same bytes. It leaves every skip decision sound: the two
//! predicates described next read only a block's own min/max, NULL and
//! non-numeric counts, which hold whatever rows the block contains; the
//! layout only decides how many blocks they can refute.
//!
//! ## Skipping metadata and its soundness
//!
//! Each block footer entry carries, per column: the row count, NULL
//! count, the count of non-null values without a numeric interpretation
//! (strings, NaN), and the numeric min/max. Two skipping predicates
//! consume this:
//!
//! 1. **Static min/max pruning** for pushed-down filters: a conjunct
//!    `col <op> literal` can discard a block when the column's `[min,
//!    max]` range proves no value satisfies it. NULL rows never satisfy
//!    a comparison predicate (SQL three-valued logic — the filter keeps
//!    only `TRUE`), so NULLs in the block do not block pruning; values
//!    *without* a numeric interpretation do, and such blocks are never
//!    pruned (`non_numeric > 0` disables the predicate for that column).
//!
//! 2. **Dominance pruning** for skyline queries: the per-column min/max
//!    give the block's **best corner** (`ColumnMeta::best_corner`, one
//!    value per ranked dimension: a `MIN` dimension contributes `min`, a
//!    `MAX` dimension `max`, typed as the column). By construction the best corner is at least as good
//!    as every row of the block in every ranked dimension. The points
//!    come from the footer sample (below): the planner keeps the sample
//!    rows that pass the filters between the skyline and the scan —
//!    *real rows* of the skyline operator's input — and takes their
//!    skyline. If such a point `p` strictly dominates the corner `c`,
//!    then `p` is at least as good as `c`, hence as every row `r` of the
//!    block, in every dimension, and strictly better than `c`, hence than
//!    `r`, in the strict one: `p` strictly dominates every `r`. Since the
//!    complete dominance relation is transitive and `p` survives to the
//!    skyline operator's input, no skipped row can be a skyline member —
//!    the block is discarded without being read. Keeping only the
//!    sample's skyline loses nothing: a sample row that dominates a
//!    corner is a skyline member or is dominated by one. The argument
//!    needs every row comparable in every ranked dimension, so a block is
//!    only eligible when its ranked columns have `null_count == 0` and
//!    `non_numeric == 0`. It also needs the corner to be the block's true
//!    extreme, so the block's bounds must be below 2^53 in magnitude
//!    (`ColumnMeta::exact_bounds`; min/max pruning needs the same): the
//!    footer stores them as `f64`, and an Int64 extreme beyond that may
//!    have rounded past the row it stands for. The §5.7 incomplete
//!    relation is not transitive, so dominance skipping is never applied
//!    to it (the planner only installs the gate for the complete family).
//!
//! The footer additionally stores a seeded reservoir sample of the whole
//! table, drawn over the rows' input positions, so it does not depend on
//! the row order the file uses. The planner draws
//! the dominance gate's points from this sample, so planning a query over
//! a 10-GB file costs zero file I/O beyond the footer.

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{sign_normalize_f64, sign_restore_f64, FOOTER_MAGIC, FORMAT_VERSION, MAGIC};
pub use reader::{AggregateColumnStats, BlockDecoder, BlockMeta, ColumnMeta, DiskTable};
pub use writer::{write_table, DiskTableSummary, TableWriter, WriterOptions};
