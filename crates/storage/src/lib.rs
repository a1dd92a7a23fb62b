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
//! payloads stay untouched until a scan actually needs them. Opening
//! trusts no count in the file: a column or block count reserves at most
//! what the bytes left could hold, and the blocks' row counts must add up
//! to the footer's total. Reading a block checks its payload's own row
//! count against its footer entry ([`DiskTable::block_decoder`]).
//!
//! ## Publishing and re-reading a file
//!
//! Every writer writes to a temporary file beside the destination, syncs
//! it and renames it over the destination once the footer is written, and
//! removes it when the write fails. A reader therefore sees the old file
//! or the new one, whole, and a failed write (a row outside the schema,
//! a full disk) leaves the old file as it was.
//!
//! A [`DiskTable`] keeps the footer it was opened with, and skips blocks
//! on its bounds, its sample and its corners. So a scan opens the file
//! once ([`DiskTable::open_file`]) and checks that its length, footer and
//! trailer bytes are the ones the table read; a file truncated, removed
//! or replaced (by a COPY to the same path, say) since fails the query
//! with a typed `storage:` error instead of being read with another file's
//! metadata. The scan then reads every block through that one handle with
//! positional reads. Registering the path again reads the new footer.
//!
//! A block decodes into column buffers, one batch of rows at a time
//! ([`BlockDecoder::decode_columns`], a `sparkline_common::ColumnBatch`):
//! `Float64` words sign-restored into an `f64` vector, `Int64` words into
//! an `i64` vector, the other types into values, and the NULL bitmap
//! into per-row flags. That is the only decoder; `DiskTable::decode_block`,
//! `DiskTable::decode_all` and the footer sample build their rows from
//! it, and the disk scan hands the buffers on without building any. The
//! one encoder reads the same buffers back: a `Float64` or `Int64` field
//! from its typed buffer, any other from its values, each value checked
//! against its field. A numeric field held as values (an in-memory column
//! a value of another type turned into values) fails the write.
//!
//! ## Row order
//!
//! Block metadata only skips blocks whose rows share a region of the
//! space, so [`write_mem_table`] (the session's COPY) chooses the row
//! order; [`write_table`] checks a slice of rows, builds the in-memory
//! table and writes it the same way, and [`TableWriter`] keeps the order
//! rows arrive in.
//! `write_mem_table` reads each Int64/Float64 column of the table's
//! column chunks twice, once for its finite min and max and once for each
//! row's Z cell: the
//! column is quantized linearly between its min and max (±inf clamp to
//! the edge slots; NULL and NaN take slot 0), and the slots are
//! bit-interleaved into a Morton cell, the bits dealt round-robin over
//! the columns so the grid has about eight cells per block. A stable
//! counting sort by cell gives the permutation, and consecutive runs of
//! `block_rows` rows form the blocks (only the last may be short),
//! written in Z rank. Each block, and the footer sample, is gathered out
//! of the chunks by table position into column buffers
//! (`MemTable::take`) and encoded from them, so no row is built.
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
//!    Only `Int64` and `Float64` columns take part: their bounds are
//!    their values'. A `Boolean` column's bounds are 0/1, but comparing a
//!    boolean with a number fails, and a block refuted on those bounds
//!    would hide that error.
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
//!    corner is a skyline member or is dominated by one.
//!
//!    The blocks add **corner points** of their own. Take a block `B`
//!    whose rows all reach the skyline operator: it holds a row, every
//!    conjunct of the scan's filter is *implied* by its bounds (the mirror
//!    of refuting it: e.g. `max < v` for `col < v`, `min == max == v` for
//!    `col = v`, on an `Int64` or `Float64` column with no NULL and no
//!    non-numeric value), and no other filter stands between the scan and
//!    the skyline. For each ranked dimension `k`, `B`'s point is its
//!    **worst corner** with dimension `k` set to its best value. The row
//!    `r` of `B` that attains that best value is at least as good as the
//!    point in every dimension: equal in `k`, and no worse than `B`'s
//!    worst value anywhere else. So if the point strictly dominates
//!    another block's best corner, `r` — a real input row — strictly
//!    dominates every row of that block, and the argument above applies.
//!    A block's own points never skip it: each is no better than its
//!    best corner in any dimension. Two blocks never skip each other:
//!    strict dominance is irreflexive and transitive. The gate's points
//!    are the skyline of the sample rows and the corner points together.
//!    Both arguments need every row comparable in every ranked dimension,
//!    so a block is only eligible — to be skipped or to add points — when
//!    its ranked columns have `null_count == 0` and `non_numeric == 0`.
//!    They also need the corners to be the block's true extremes, so the
//!    block's bounds must be below 2^53 in magnitude
//!    (`ColumnMeta::exact_bounds`; min/max pruning needs the same): the
//!    footer stores them as `f64`, and an Int64 extreme beyond that may
//!    have rounded past the row it stands for. The §5.7 incomplete
//!    relation is not transitive, so dominance skipping is never applied
//!    to it (the planner only installs the gate for the complete family).
//!
//! Both arguments are about rows, not errors: a NaN compared by a filter
//! fails the query, even where a later `AND` conjunct is refuted (Kleene
//! `AND` evaluates left to right). So neither tier skips a block with
//! `non_numeric > 0` in a `Float64` column a filter above the scan reads.
//!
//! The footer additionally stores a seeded reservoir sample of the whole
//! table, drawn over the rows' input positions, so it does not depend on
//! the row order the file uses. The planner draws
//! the dominance gate's points from this sample and the blocks' own
//! bounds, so planning a query over a 10-GB file costs zero file I/O
//! beyond the footer.

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{sign_normalize_f64, sign_restore_f64, FOOTER_MAGIC, FORMAT_VERSION, MAGIC};
pub use reader::{BlockDecoder, BlockMeta, ColumnMeta, DiskTable, TableFile};
pub use writer::{write_mem_table, write_table, DiskTableSummary, TableWriter, WriterOptions};
