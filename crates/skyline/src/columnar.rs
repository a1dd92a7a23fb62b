//! Columnar (struct-of-arrays) dominance kernel.
//!
//! The paper treats the number of dominance tests as the main cost factor
//! of skyline computation (§2), but the *per-test constant* matters just as
//! much once the test count is fixed: the scalar [`DominanceChecker`] walks
//! a `Vec<Value>` enum per row, re-matching on type tags and re-resolving
//! `dim.index` for every pair. This module batches that work: the skyline
//! dimensions of a row window are transposed into contiguous,
//! sign-normalized column buffers once, and a candidate tuple is then
//! tested against the window in tight loops over flat `i64`/`f64` slices:
//! one fused 4-row step, run by two loops — the cross-filter's "first
//! strict dominator" walk ([`ColumnarBlock::first_dominator`]) and the
//! scan, "every row from here on that this point strictly dominates" or,
//! turned round, "that strictly dominates this point"
//! ([`ColumnarBlock::mark`]).
//!
//! # Compare tiers and runtime dispatch
//!
//! The step ships in two tiers. Every block runs on
//! the one the CPU offers, found once by `is_x86_feature_detected!`-based
//! runtime dispatch ([`KernelTier::detect`]); only the kernel's own API
//! pins a tier ([`ColumnarBlock::with_tier`], and the builders'
//! `vectorized: false`), for the differential tests and benchmarks:
//!
//! * **`simd(avx2)`** — explicit `core::arch::x86_64` intrinsics, four
//!   64-bit lanes per instruction: `_mm256_cmpgt_epi64` both directions
//!   for integer columns, `_mm256_cmp_pd` (ordered, non-signalling) for
//!   float columns, sign-extracted with `movemask`. Float buffers never
//!   contain NaN (NaN is NULL-like and becomes a placeholder plus an
//!   `any_null` bit), so the ordered compares are exact.
//! * **`chunked`** — the portable loop, four rows per step like the SIMD
//!   one (the tier keeps its EXPLAIN name). It is both the fallback for
//!   hosts without AVX2 and the differential oracle the SIMD tier is
//!   tested against: both tiers produce the same 4-row dominance masks,
//!   hence the same first dominators, cleared flags and test counts.
//!
//! # The fused step: the walk and the scan
//!
//! [`ColumnarBlock::first_dominator`] answers one question for a
//! candidate: which block row, if any, is the first to strictly dominate
//! it. It asks nothing else, so it needs no three-way verdict: the walk
//! resolves the candidate's compared dimensions once ([`WalkTests`]: a
//! column buffer and the candidate's value each, `Skip` dimensions and
//! unmaterialized columns left out) and walks the rows four at a time.
//! Per step it ANDs "row `<=` candidate" and ORs "row `<` candidate" over
//! every dimension (a `DIFF` dimension ANDs equality instead), so "this
//! row strictly dominates" is one mask, four rows wide — in registers on
//! the SIMD tier. The walk stops at the first step holding a dominator,
//! and counts the rows up to that step as its tests. The cross-filter
//! (BNL batch admission, the pairwise merge, the incomplete class
//! cross-pass) and the disk scan's dominance gate walk each candidate in
//! turn; they consume only *strict* `DominatedBy` outcomes, which under a
//! transitive relation are stable against any later window evolution.
//!
//! [`ColumnarBlock::mark`] is the scan: it runs the same step over every
//! row from a start row on, with no early exit, and clears a keep flag for
//! each hit; it counts every row it passes. Its direction is the one const
//! parameter of the step body: `mark::<true>` turns the comparison round —
//! "point `<=` row" ANDed, "point `<` row" ORed — and clears the rows the
//! *point* strictly dominates; `mark::<false>` asks the walk's question
//! and clears the rows that strictly dominate the point. Step 3 of the BNL
//! fold (`crate::bnl`) runs one `mark::<true>` per row of a batch's
//! survivor skyline, reading the point from that block's own columns
//! ([`ColumnarBlock::encode_member_into`]); BNL's per-row step runs one
//! for its tuple after the walk; the maintained views (`crate::maintain`)
//! run both directions per mutation. Under the complete relation both
//! loops mask NULL-like rows out of every hit.
//!
//! # Score keys and the bounded walk
//!
//! Every block row carries a *member key* ([`ColumnarBlock::keys`]) and
//! every encoded candidate a *candidate key* ([`EncodedCandidate::key`]):
//! the `f64` sum, in column order, of the sign-normalized values of the
//! ranked (`MIN`/`MAX`) dimensions the kernel actually compares — `DIFF`
//! columns, unmaterialized (all-NULL) columns and skipped dimensions are
//! left out. The keys satisfy
//!
//! > row `a` of the block strictly dominates candidate `b`
//! > ⇒ `key_member(a) <= key_cand(b)`
//!
//! because the kernel's verdict requires `a_i <= b_i` on every summed
//! dimension, integer-to-float conversion and IEEE addition both round
//! monotonically, and both sides add in the same order. Rounding can
//! collapse a strict inequality, so the bound is *inclusive*: equal keys
//! prove nothing. Rows and candidates without a usable sum are *unscorable*
//! and get the keys that make the implication vacuous — member key `-inf`,
//! candidate key `+inf`: sums that come out NaN (`+inf + -inf`), and,
//! under the incomplete relation, a candidate that skips a dimension the
//! block has materialized (the block row's key counts a value the
//! candidate's cannot). NULL-like rows under the complete relation need no
//! such care: they dominate nothing and nothing dominates them, so the sum
//! over their placeholders is as good a key as any.
//!
//! A block whose keys are ascending ([`ColumnarBlock::is_ordered`] — kept
//! up to date by every mutation) lets [`ColumnarBlock::first_dominator`]
//! exploit the implication: low-key rows, the likeliest dominators, are
//! probed first, and a walk ends exactly at the last row whose key does
//! not exceed its candidate key (one binary search over the keys),
//! since every later row's key exceeds the bound too. Blocks filled in
//! arbitrary order simply never bound. A `mark::<true>` scan is bounded
//! from below instead: its caller starts it at the first row whose member
//! key reaches the point's own key.
//!
//! # Block layout and encode rules
//!
//! A [`ColumnarBlock`] holds one column per skyline dimension plus one
//! `any_null` bit per row:
//!
//! * **Sign normalization** — `MIN` dimensions are stored as-is, `MAX`
//!   dimensions are stored negated, so the kernel only ever asks "is
//!   smaller better"; the MIN/MAX branch disappears from the inner loop.
//!   (`i64::MIN` cannot be negated; a row carrying it in a `MAX` dimension
//!   demotes the block to scalar fallback.)
//! * **Column classes** — a column materializes as `i64` (all `Int64`, or
//!   all `Boolean` encoded 0/1), or `f64` (all `Float64`, or a mix of
//!   `Float64` and `Int64` where every integer round-trips through `f64`
//!   exactly — otherwise the lossless integer comparison of
//!   `Value::sql_compare` could not be reproduced and the block falls back
//!   to scalar). `Utf8` values and class mixes whose scalar comparison is
//!   not a plain numeric ordering (e.g. `Boolean` vs `Int64`) mark the
//!   block scalar-fallback.
//! * **Null mask semantics** — under the complete-data relation a NULL (or
//!   NaN, which compares like NULL under `sql_compare`) in *any* dimension
//!   of *either* tuple makes the pair incomparable, so the block only
//!   tracks one `any_null` bit per row: such a row is masked out of every
//!   hit, and such a candidate walks and scans nothing. Under the incomplete relation a NULL restricts the comparison
//!   to the shared non-NULL dimensions instead; the kernel supports the
//!   case that arises in practice — the local phase runs per null-bitmap
//!   class, where a dimension is NULL either in *every* row (the column
//!   stays unmaterialized and is skipped) or in *none* — and demotes mixed
//!   columns to scalar fallback.
//! * **`DIFF` dimensions** are stored un-negated; dominance additionally
//!   requires *equality* on them, which the fused step ANDs into its
//!   "`<=`" mask, so a mismatch rules the pair out as the scalar checker's
//!   immediate exit on a `DIFF` mismatch does. Non-numeric `DIFF` values
//!   demote the block through the same class rules as ranked dimensions.
//!
//! Fallback is never an error: callers keep the row window authoritative
//! and simply route comparisons through the scalar checker when
//! [`ColumnarBlock::is_fallback`] reports `true` (whole-block) or
//! [`ColumnarBlock::encode`] returns `None` (single candidate). The
//! batched and scalar paths produce byte-identical *skylines*; the test
//! counters differ — a walk counts whole 4-row steps up to its dominator
//! and a scan every row it passes, more (much cheaper) tests than the
//! scalar loop's per-pair exit, which
//! `batched_tests` / `scalar_tests` make visible per path, and the
//! `simd_tests` counter additionally splits out tests performed on a SIMD
//! tier.

use std::borrow::Borrow;

use sparkline_common::{ColumnBatch, Row, SkylineSpec, SkylineType, Value};

use crate::dominance::DominanceChecker;

/// Compare tier a block dispatches its compare loops to: the host CPU's
/// ([`detect`](KernelTier::detect)) unless pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Portable scalar loops: the fallback for hosts without AVX2 and the
    /// differential oracle the SIMD tier is tested against.
    Chunked,
    /// Four-lane AVX2 integer and float compares.
    Avx2,
}

impl KernelTier {
    /// [`Avx2`](KernelTier::Avx2) where the host CPU supports it,
    /// [`Chunked`](KernelTier::Chunked) everywhere else.
    pub fn detect() -> KernelTier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelTier::Avx2;
            }
        }
        KernelTier::Chunked
    }

    /// Every tier runnable on this CPU, for differential tests and
    /// benchmarks.
    pub fn available() -> Vec<KernelTier> {
        let mut tiers = vec![KernelTier::Chunked];
        if KernelTier::detect() == KernelTier::Avx2 {
            tiers.push(KernelTier::Avx2);
        }
        tiers
    }

    /// Whether the tier runs explicit SIMD intrinsics (feeds the
    /// `simd_tests` metric).
    pub fn is_simd(self) -> bool {
        !matches!(self, KernelTier::Chunked)
    }

    /// EXPLAIN label of the tier.
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Chunked => "chunked",
            KernelTier::Avx2 => "simd(avx2)",
        }
    }
}

/// EXPLAIN description of the compare tier detected on this CPU:
/// `chunked` or `simd(avx2)`.
pub fn kernel_label() -> &'static str {
    KernelTier::detect().label()
}

/// The explicit-SIMD step: the fused loop gives the same verdicts as
/// `fused_from`; the differential suites assert that equivalence on every
/// tier the CPU offers. Buffers never contain NaN (NaN is NULL-like and
/// encodes as a placeholder plus an `any_null` bit), so the ordered float
/// compares are exact.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// The fused loop of `ColumnarBlock::first_dominator` (the walk) and
    /// `ColumnarBlock::mark` (the scan) over rows `[start, end)`; the rows
    /// behind the last whole 4-row vector take the portable loop,
    /// `super::fused_from`, so every verdict is the portable loop's.
    ///
    /// # Safety
    /// AVX2 must be available — callers dispatch on `KernelTier::Avx2`,
    /// which is only produced after `is_x86_feature_detected!("avx2")` —
    /// and every buffer in `tests` must hold at least `end` rows.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fused_avx2<const POINT_DOMINATES: bool>(
        tests: &super::WalkTests,
        nulls: Option<&[bool]>,
        start: usize,
        end: usize,
        hit: impl FnMut(usize, u32) -> bool,
    ) {
        match tests.ranked_f64.len() {
            0 => walk::<0, POINT_DOMINATES>(tests, nulls, start, end, hit),
            1 => walk::<1, POINT_DOMINATES>(tests, nulls, start, end, hit),
            2 => walk::<2, POINT_DOMINATES>(tests, nulls, start, end, hit),
            3 => walk::<3, POINT_DOMINATES>(tests, nulls, start, end, hit),
            4 => walk::<4, POINT_DOMINATES>(tests, nulls, start, end, hit),
            5 => walk::<5, POINT_DOMINATES>(tests, nulls, start, end, hit),
            6 => walk::<6, POINT_DOMINATES>(tests, nulls, start, end, hit),
            7 => walk::<7, POINT_DOMINATES>(tests, nulls, start, end, hit),
            _ => walk::<8, POINT_DOMINATES>(tests, nulls, start, end, hit),
        }
    }

    /// [`fused_avx2`] with the first `N` ranked float columns — every
    /// column of the common shape — held in registers: their column
    /// pointers and point splats are set up once, outside the row loop.
    /// Any other column (ranked floats past `N`, integers and booleans,
    /// `DIFF`) is read from `tests` in the same step. Reading every column
    /// from `tests` instead made the benchmark's `mem_anti` 35% slower end
    /// to end (10 pairs on a 2-core x86 VM); eight splats leave half of
    /// the 16 `ymm` registers to the step's loads and masks. The direction
    /// is the one const parameter, so the walk and the scan share this
    /// step body.
    ///
    /// # Safety
    /// As [`fused_avx2`]; `tests` holds at least `N` ranked float tests.
    #[target_feature(enable = "avx2")]
    unsafe fn walk<const N: usize, const POINT_DOMINATES: bool>(
        tests: &super::WalkTests,
        nulls: Option<&[bool]>,
        start: usize,
        end: usize,
        mut hit: impl FnMut(usize, u32) -> bool,
    ) {
        let (regs, more_f64) = tests.ranked_f64.split_at(N);
        let cols: [*const f64; N] = std::array::from_fn(|d| regs[d].0.as_ptr());
        let vals: [__m256d; N] = std::array::from_fn(|d| _mm256_set1_pd(regs[d].1));
        let rest = !more_f64.is_empty()
            || !tests.ranked_i64.is_empty()
            || !tests.diff_f64.is_empty()
            || !tests.diff_i64.is_empty();
        let ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let mut base = start;
        while base + 4 <= end {
            let mut le = ones;
            let mut lt = _mm256_setzero_pd();
            for d in 0..N {
                let (a, b) =
                    super::sides::<POINT_DOMINATES, _>(_mm256_loadu_pd(cols[d].add(base)), vals[d]);
                le = _mm256_and_pd(le, _mm256_cmp_pd::<_CMP_LE_OQ>(a, b));
                lt = _mm256_or_pd(lt, _mm256_cmp_pd::<_CMP_LT_OQ>(a, b));
            }
            if rest {
                for &(buf, v) in more_f64 {
                    let x = _mm256_loadu_pd(buf.as_ptr().add(base));
                    let (a, b) = super::sides::<POINT_DOMINATES, _>(x, _mm256_set1_pd(v));
                    le = _mm256_and_pd(le, _mm256_cmp_pd::<_CMP_LE_OQ>(a, b));
                    lt = _mm256_or_pd(lt, _mm256_cmp_pd::<_CMP_LT_OQ>(a, b));
                }
                for &(buf, v) in &tests.ranked_i64 {
                    let x = _mm256_loadu_si256(buf.as_ptr().add(base) as *const __m256i);
                    let (a, b) = super::sides::<POINT_DOMINATES, _>(x, _mm256_set1_epi64x(v));
                    le = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b)), le);
                    lt = _mm256_or_pd(lt, _mm256_castsi256_pd(_mm256_cmpgt_epi64(b, a)));
                }
                for &(buf, v) in &tests.diff_f64 {
                    let x = _mm256_loadu_pd(buf.as_ptr().add(base));
                    le = _mm256_and_pd(le, _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_set1_pd(v)));
                }
                for &(buf, v) in &tests.diff_i64 {
                    let x = _mm256_loadu_si256(buf.as_ptr().add(base) as *const __m256i);
                    let eq = _mm256_cmpeq_epi64(x, _mm256_set1_epi64x(v));
                    le = _mm256_and_pd(le, _mm256_castsi256_pd(eq));
                }
            }
            let dom = _mm256_movemask_pd(_mm256_and_pd(le, lt)) as u32;
            if dom != 0 {
                let dom = super::without_nulls(dom, nulls, base);
                if dom != 0 && hit(base, dom) {
                    return;
                }
            }
            base += 4;
        }
        super::fused_from::<POINT_DOMINATES>(tests, nulls, base, end, hit)
    }
}

/// A point's compared dimensions — an encoded candidate's — resolved
/// against the block columns they read and grouped by kind, so that each
/// step of the fused loops runs one tight loop per kind: one tuple
/// strictly dominates another when it is `<=` on every ranked dimension,
/// `<` on some one, and equal on every `DIFF` one. `Skip` dimensions and
/// unmaterialized columns are left out.
///
/// [`ColumnarBlock::first_dominator`] and [`ColumnarBlock::mark`] refill
/// it for every point; a caller
/// keeps one per block, so a run of walks or scans allocates nothing.
#[derive(Debug, Default)]
pub struct WalkTests<'a> {
    ranked_f64: Vec<(&'a [f64], f64)>,
    /// Integer and boolean columns.
    ranked_i64: Vec<(&'a [i64], i64)>,
    diff_f64: Vec<(&'a [f64], f64)>,
    diff_i64: Vec<(&'a [i64], i64)>,
}

impl WalkTests<'_> {
    /// Whether the dominator side — row `i` in the walk, the point in the
    /// scan (`POINT_DOMINATES`) — is no worse than the other on every
    /// dimension, and whether it is strictly better on some ranked one.
    fn row<const POINT_DOMINATES: bool>(&self, i: usize) -> (bool, bool) {
        let (mut le, mut lt) = (true, false);
        for &(buf, v) in &self.ranked_f64 {
            let (a, b) = sides::<POINT_DOMINATES, _>(buf[i], v);
            (le, lt) = (le & (a <= b), lt | (a < b));
        }
        for &(buf, v) in &self.ranked_i64 {
            let (a, b) = sides::<POINT_DOMINATES, _>(buf[i], v);
            (le, lt) = (le & (a <= b), lt | (a < b));
        }
        for &(buf, v) in &self.diff_f64 {
            le &= buf[i] == v;
        }
        for &(buf, v) in &self.diff_i64 {
            le &= buf[i] == v;
        }
        (le, lt)
    }
}

/// `(dominator, dominated)` of a comparison between a row's value `x` and
/// the point's value `v`: the row dominates in the walk, the point in the
/// scan (`POINT_DOMINATES`).
#[inline(always)]
fn sides<const POINT_DOMINATES: bool, T>(x: T, v: T) -> (T, T) {
    if POINT_DOMINATES {
        (v, x)
    } else {
        (x, v)
    }
}

/// The portable fused loop over rows `[base, end)`, four rows per step:
/// bit `k` of a step is set where row `base + k` strictly dominates the
/// point (the walk) or, with `POINT_DOMINATES`, where the point strictly
/// dominates the row (the scan), NULL-like rows excepted. Each step with a
/// bit set goes to `hit(base, bits)`, and the loop stops where `hit`
/// returns `true`. The `Chunked` tier runs it alone; the SIMD tier runs
/// it on its tail, and is tested against it.
fn fused_from<const POINT_DOMINATES: bool>(
    tests: &WalkTests,
    nulls: Option<&[bool]>,
    mut base: usize,
    end: usize,
    mut hit: impl FnMut(usize, u32) -> bool,
) {
    while base < end {
        let m = (end - base).min(4);
        let mut dom = 0u32;
        for k in 0..m {
            let (le, lt) = tests.row::<POINT_DOMINATES>(base + k);
            dom |= u32::from(le & lt) << k;
        }
        let dom = without_nulls(dom, nulls, base);
        if dom != 0 && hit(base, dom) {
            return;
        }
        base += m;
    }
}

/// `dom` (one bit per row from `base`, at most four) less the rows whose
/// `nulls` bit is set: under the complete relation a NULL-like row
/// dominates nothing and nothing dominates it, whatever its placeholders
/// say.
fn without_nulls(dom: u32, nulls: Option<&[bool]>, base: usize) -> u32 {
    let Some(nulls) = nulls else {
        return dom;
    };
    let null_bits = (nulls[base..].iter().take(4).enumerate())
        .fold(0u32, |bits, (k, &null)| bits | u32::from(null) << k);
    dom & !null_bits
}

/// One encoded skyline dimension of a candidate tuple, matched against the
/// corresponding block column's class.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CandDim {
    /// Dimension contributes nothing for any row (unmaterialized column, or
    /// a NULL-like value under the incomplete relation).
    Skip,
    /// Sign-normalized integer compared against an `i64` column.
    Int(i64),
    /// Sign-normalized float compared against an `f64` column.
    Float(f64),
}

/// A candidate tuple's skyline dimensions, encoded once and then compared
/// against every row of the block.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedCandidate {
    dims: Vec<CandDim>,
    /// Complete relation only: the candidate has a NULL-like value (NULL,
    /// NaN, or a class mismatch) in some dimension, so it is incomparable
    /// with every row regardless of the buffers.
    all_incomparable: bool,
    /// Candidate score key (module docs): no block row whose member key
    /// exceeds it can dominate the candidate. `+inf` when unscorable.
    key: f64,
}

impl EncodedCandidate {
    /// Empty buffer for [`ColumnarBlock::encode_into`] reuse.
    pub fn new() -> Self {
        EncodedCandidate {
            dims: Vec::new(),
            all_incomparable: false,
            key: f64::INFINITY,
        }
    }

    /// The candidate's score key against the block that encoded it (module
    /// docs, "Score keys and the bounded walk").
    pub fn key(&self) -> f64 {
        self.key
    }

    /// Whether the candidate is incomparable with every row whatever the
    /// buffers hold: NULL-like under the complete relation.
    pub(crate) fn is_incomparable(&self) -> bool {
        self.all_incomparable
    }
}

impl Default for EncodedCandidate {
    fn default() -> Self {
        EncodedCandidate::new()
    }
}

/// Result of one first-dominator walk
/// ([`ColumnarBlock::first_dominator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchResult {
    /// Pairwise dominance tests performed: the rows up to the 4-row step
    /// holding the dominator, or up to the walk's end (the key bound, or
    /// the block's end).
    pub tested: u64,
    /// Index of the first row that strictly dominates the candidate.
    pub dominated_at: Option<usize>,
}

/// Storage of one dimension column.
#[derive(Debug, Clone)]
enum ColumnData {
    /// No non-NULL value seen yet; rows are tracked only through the null
    /// machinery until a value fixes the class.
    Pending,
    /// All-`Int64` (or all-`Boolean`, encoded 0/1) column.
    Ints(Vec<i64>),
    /// `Float64` column, possibly holding exactly-converted integers.
    Floats(Vec<f64>),
    /// All-`Boolean` column, encoded 0/1. Kept distinct from [`Ints`]
    /// because `Boolean` and `Int64` are *not* comparable under
    /// `sql_compare`.
    Bools(Vec<i64>),
}

#[derive(Debug, Clone)]
struct Column {
    /// Column position in the input rows.
    index: usize,
    /// Sign normalization: negate values of `MAX` dimensions on encode.
    /// `DIFF` columns are stored un-negated.
    negate: bool,
    /// `DIFF` dimension: compared for equality instead of order.
    is_diff: bool,
    /// NULL (or NaN) seen in this column.
    saw_null: bool,
    data: ColumnData,
}

impl Column {
    /// Bring this column and `other` — the same dimension in two blocks of
    /// `len` and `other_len` rows — to one storage class, the way pushing
    /// `other`'s rows into this block one by one would: an all-NULL side
    /// takes the other side's class with placeholders (complete relation;
    /// under the incomplete one that is a NULL/non-NULL mix), integers
    /// meeting floats convert when exact. `Err` is the demotion reason.
    fn reconcile(
        &mut self,
        other: &mut Column,
        len: usize,
        other_len: usize,
        incomplete: bool,
    ) -> Result<(), &'static str> {
        use ColumnData::{Bools, Floats, Ints, Pending};
        let like = |data: &ColumnData, n: usize| match data {
            Pending => Pending,
            Ints(_) => Ints(vec![0; n]),
            Bools(_) => Bools(vec![0; n]),
            Floats(_) => Floats(vec![0.0; n]),
        };
        match (&self.data, &other.data) {
            (Pending, Pending) => {}
            (Pending, _) | (_, Pending) if incomplete && len > 0 && other_len > 0 => {
                return Err("NULL mixed into a materialized column (incomplete relation)");
            }
            (Pending, data) => self.data = like(data, len),
            (data, Pending) => other.data = like(data, other_len),
            (Ints(ints), Floats(_)) => self.data = Floats(ints_as_floats(ints)?),
            (Floats(_), Ints(ints)) => other.data = Floats(ints_as_floats(ints)?),
            (Bools(_), Bools(_)) | (Ints(_), Ints(_)) | (Floats(_), Floats(_)) => {}
            (Bools(_), _) | (_, Bools(_)) => return Err("BOOLEAN mixed with numeric values"),
        }
        self.saw_null |= other.saw_null;
        Ok(())
    }

    fn fold_i64(&self, v: i64) -> Option<i64> {
        fold_i64(v, self.negate)
    }

    fn fold_f64(&self, v: f64) -> f64 {
        fold_f64(v, self.negate)
    }
}

fn fold_i64(v: i64, negate: bool) -> Option<i64> {
    if negate {
        v.checked_neg()
    } else {
        Some(v)
    }
}

fn fold_f64(v: f64, negate: bool) -> f64 {
    if negate {
        -v
    } else {
        v
    }
}

/// Whether an `i64` survives the round trip through `f64` unchanged, i.e.
/// comparisons performed in the `f64` domain are exact for it.
///
/// `i64::MAX` must be rejected explicitly: `i64::MAX as f64` rounds *up*
/// to 2^63 and the saturating `f64 -> i64` cast folds that back to
/// `i64::MAX`, so the round-trip alone would falsely report exactness.
fn int_is_f64_exact(v: i64) -> bool {
    v != i64::MAX && (v as f64) as i64 == v
}

/// An integer buffer as floats, or why the conversion would lose the
/// lossless comparison of `Value::sql_compare`.
fn ints_as_floats(ints: &[i64]) -> Result<Vec<f64>, &'static str> {
    if ints.iter().any(|&i| !int_is_f64_exact(i)) {
        return Err("integer column not exactly convertible to f64");
    }
    Ok(ints.iter().map(|&i| i as f64).collect())
}

/// A value that behaves like NULL under `sql_compare`: NULL, or a NaN
/// float (NaN compares `None` against every value, including itself).
/// Every skyline operator treats both alike.
pub fn is_null_like(v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Float64(f) => f.is_nan(),
        _ => false,
    }
}

/// Struct-of-arrays window of the skyline dimensions of a row batch.
///
/// The block mirrors a caller-owned `Vec<Row>` window: encode rows once
/// with [`push`](Self::push), keep evictions in sync with
/// [`remove`](Self::remove), and test a candidate against the rows with
/// the walk ([`first_dominator`](Self::first_dominator)) or the scan
/// ([`mark`](Self::mark)). See the module docs for the encode rules and
/// the fallback contract.
#[derive(Debug, Clone)]
pub struct ColumnarBlock {
    cols: Vec<Column>,
    /// Complete relation: per-row "has a NULL-like value in some skyline
    /// dimension" bit (forces `Incomparable` against everything).
    any_null: Vec<bool>,
    /// Per-row member score key (module docs); never NaN.
    keys: Vec<f64>,
    /// Whether `keys` is ascending, which arms the score bound of
    /// [`first_dominator`](Self::first_dominator).
    ordered: bool,
    incomplete: bool,
    len: usize,
    fallback: Option<&'static str>,
    tier: KernelTier,
}

/// Run `$body` on every per-row buffer of the block — the materialized
/// column buffers, the null bits and the keys — bound to `$buf` (a
/// `&mut Vec<_>` of whatever element type the buffer has).
macro_rules! each_buffer {
    ($block:expr, |$buf:ident| $body:expr) => {{
        for col in &mut $block.cols {
            match &mut col.data {
                ColumnData::Pending => {}
                ColumnData::Ints($buf) | ColumnData::Bools($buf) => $body,
                ColumnData::Floats($buf) => $body,
            }
        }
        {
            let $buf = &mut $block.any_null;
            $body
        }
        {
            let $buf = &mut $block.keys;
            $body
        }
    }};
}

/// Keep `buf[i]` iff `keep[i]`, preserving order.
pub(crate) fn retain_mask<T>(buf: &mut Vec<T>, keep: &[bool]) {
    let mut i = 0;
    buf.retain(|_| {
        i += 1;
        keep[i - 1]
    });
}

/// `buf[i] = old buf[perm[i]]`.
fn gather<T: Copy>(buf: &mut Vec<T>, perm: &[usize]) {
    *buf = perm.iter().map(|&i| buf[i]).collect();
}

impl ColumnarBlock {
    /// Empty block for `spec` under the chosen dominance relation, on the
    /// detected compare tier ([`KernelTier::detect`]).
    ///
    /// A spec with no dimensions starts in scalar fallback; pushes and
    /// encodes are then inert and the caller must use the scalar checker.
    pub fn new(spec: &SkylineSpec, incomplete: bool) -> Self {
        ColumnarBlock::with_tier(spec, incomplete, KernelTier::detect())
    }

    /// Empty block pinned to an explicit tier (differential tests and
    /// benchmarks; [`new`](Self::new) otherwise). Panics on a SIMD tier
    /// this CPU lacks.
    pub fn with_tier(spec: &SkylineSpec, incomplete: bool, tier: KernelTier) -> Self {
        assert!(
            !tier.is_simd() || tier == KernelTier::detect(),
            "compare tier {} is not available on this CPU",
            tier.label()
        );
        let fallback = if spec.dims.is_empty() {
            Some("no skyline dimensions")
        } else {
            None
        };
        ColumnarBlock {
            cols: spec
                .dims
                .iter()
                .map(|d| Column {
                    index: d.index,
                    negate: d.ty == SkylineType::Max,
                    is_diff: d.ty == SkylineType::Diff,
                    saw_null: false,
                    data: ColumnData::Pending,
                })
                .collect(),
            any_null: Vec::new(),
            keys: Vec::new(),
            ordered: true,
            incomplete,
            len: 0,
            fallback,
            tier,
        }
    }

    /// Block matching a checker's spec and relation, tier detected.
    pub fn for_checker(checker: &DominanceChecker) -> Self {
        ColumnarBlock::new(checker.spec(), checker.is_incomplete())
    }

    /// Compare tier of this block.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Whether comparisons run on a SIMD tier (feeds the `simd_tests`
    /// metric).
    pub fn is_simd(&self) -> bool {
        self.tier.is_simd()
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the block has been demoted to scalar fallback.
    pub fn is_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// Per-row member score keys (module docs, "Score keys and the bounded
    /// walk"); `-inf` where the sum would be NaN.
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// Whether the rows are in ascending key order, so that
    /// [`first_dominator`](Self::first_dominator) bounds its walks.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Why the block fell back to scalar comparisons, if it did.
    pub fn fallback_reason(&self) -> Option<&'static str> {
        self.fallback
    }

    fn demote(&mut self, reason: &'static str) {
        self.fallback = Some(reason);
    }

    /// Append a row's skyline dimensions to the column buffers.
    ///
    /// May demote the block to scalar fallback (non-numeric value, class
    /// mix, inexact int↔float conversion, `i64::MIN` under `MAX`, or a
    /// partially-NULL column under the incomplete relation); the push is
    /// then abandoned and the block must no longer be consulted.
    pub fn push(&mut self, row: &Row) {
        if self.is_fallback() {
            return;
        }
        let mut row_null = false;
        let mut key = 0.0f64;
        for c in 0..self.cols.len() {
            let value = row.get(self.cols[c].index).clone();
            match self.push_value(c, &value) {
                Ok(part) => key += part,
                Err(reason) => {
                    self.demote(reason);
                    return;
                }
            }
            if is_null_like(&value) {
                row_null = true;
            }
        }
        // An unscorable row sorts first: whatever it dominates it is
        // probed for.
        if key.is_nan() {
            key = f64::NEG_INFINITY;
        }
        self.ordered &= self.keys.last().is_none_or(|&last| last <= key);
        self.keys.push(key);
        self.any_null.push(row_null);
        self.len += 1;
    }

    /// [`push`](Self::push) into an ordered block, keeping it ordered: the
    /// row is rotated into place behind every row with a key `<=` its own.
    /// Returns its index, or `None` when the push demoted the block.
    pub fn push_ordered(&mut self, row: &Row) -> Option<usize> {
        debug_assert!(self.ordered, "push_ordered on an unordered block");
        self.push(row);
        if self.is_fallback() {
            return None;
        }
        let last = self.len - 1;
        let key = self.keys[last];
        let at = self.keys[..last].partition_point(|&k| k <= key);
        each_buffer!(self, |buf| buf[at..].rotate_right(1));
        self.ordered = true;
        Some(at)
    }

    /// Append one value to column `c`; returns what it adds to the row's
    /// score key (its sign-normalized value on a ranked column, else 0).
    fn push_value(&mut self, c: usize, value: &Value) -> Result<f64, &'static str> {
        let len = self.len;
        let incomplete = self.incomplete;
        let col = &mut self.cols[c];
        let negate = col.negate;
        let ranked = !col.is_diff;
        if is_null_like(value) {
            // Incomplete relation: a column mixing NULL and non-NULL rows
            // would need per-dimension restriction; demote. (All-NULL
            // columns stay `Pending` and are simply skipped.)
            if incomplete && !matches!(col.data, ColumnData::Pending) {
                return Err("NULL mixed into a materialized column (incomplete relation)");
            }
            col.saw_null = true;
            // Complete relation: keep indices aligned with a placeholder;
            // the row's `any_null` bit makes every comparison against it
            // incomparable before the buffers are consulted.
            match &mut col.data {
                ColumnData::Pending => {}
                ColumnData::Ints(b) | ColumnData::Bools(b) => b.push(0),
                ColumnData::Floats(b) => b.push(0.0),
            }
            return Ok(0.0);
        }
        if incomplete && col.saw_null {
            return Err("non-NULL mixed into a NULL column (incomplete relation)");
        }
        let folded = match (value, &mut col.data) {
            (Value::Boolean(v), ColumnData::Bools(b)) => {
                let folded = fold_i64(i64::from(*v), negate).expect("0/1 negation is safe");
                b.push(folded);
                folded as f64
            }
            (Value::Boolean(v), ColumnData::Pending) => {
                let folded = fold_i64(i64::from(*v), negate).expect("0/1 negation is safe");
                let mut b = vec![0i64; len];
                b.push(folded);
                col.data = ColumnData::Bools(b);
                folded as f64
            }
            (Value::Int64(v), ColumnData::Ints(b)) => {
                let folded = fold_i64(*v, negate).ok_or("i64::MIN under a MAX dimension")?;
                b.push(folded);
                folded as f64
            }
            (Value::Int64(v), ColumnData::Pending) => {
                let folded = fold_i64(*v, negate).ok_or("i64::MIN under a MAX dimension")?;
                let mut b = vec![0i64; len];
                b.push(folded);
                col.data = ColumnData::Ints(b);
                folded as f64
            }
            (Value::Int64(v), ColumnData::Floats(b)) => {
                if !int_is_f64_exact(*v) {
                    return Err("integer not exactly representable as f64");
                }
                let folded = fold_f64(*v as f64, negate);
                b.push(folded);
                folded
            }
            (Value::Float64(v), ColumnData::Floats(b)) => {
                let folded = fold_f64(*v, negate);
                b.push(folded);
                folded
            }
            (Value::Float64(v), ColumnData::Pending) => {
                let folded = fold_f64(*v, negate);
                let mut b = vec![0.0f64; len];
                b.push(folded);
                col.data = ColumnData::Floats(b);
                folded
            }
            (Value::Float64(v), ColumnData::Ints(ints)) => {
                // Upgrade the integer column to floats; every stored value
                // must convert exactly or lossless comparison is lost.
                let mut b = ints_as_floats(ints)?;
                let folded = fold_f64(*v, negate);
                b.push(folded);
                col.data = ColumnData::Floats(b);
                folded
            }
            (Value::Utf8(_), _) => return Err("non-numeric skyline dimension"),
            (Value::Boolean(_), _) | (_, ColumnData::Bools(_)) => {
                return Err("BOOLEAN mixed with numeric values")
            }
            (Value::Null, _) => unreachable!("handled above"),
        };
        Ok(if ranked { folded } else { 0.0 })
    }

    /// Remove row `i`, shifting later rows down — the exact (order-
    /// preserving) eviction of the BNL window's `Vec::remove`, keeping
    /// block and row window index-aligned. Ordered eviction is what makes
    /// the BNL output "skyline members in arrival order" independently of
    /// which dominated tuples transiently entered the window — the
    /// property the pairwise merge's byte-identity guarantee rests on.
    pub fn remove(&mut self, i: usize) {
        if self.is_fallback() {
            return;
        }
        debug_assert!(i < self.len);
        each_buffer!(self, |buf| {
            buf.remove(i);
        });
        self.len -= 1;
    }

    /// Keep only the rows with `keep[i]` set, preserving order — the
    /// batched equivalent of one [`remove`](Self::remove) per evicted
    /// row, but with a single compaction pass over every buffer instead
    /// of one tail shift per eviction.
    pub fn retain_mask(&mut self, keep: &[bool]) {
        if self.is_fallback() {
            return;
        }
        debug_assert_eq!(keep.len(), self.len);
        each_buffer!(self, |buf| retain_mask(buf, keep));
        self.len = self.keys.len();
    }

    /// Stable-sort the rows by member key, arming the score bound of
    /// [`first_dominator`](Self::first_dominator). Returns the applied
    /// permutation (`new row i` = `old row perm[i]`) so a caller can
    /// reorder what it keeps index-aligned with the block; `None` when the
    /// rows were already in order (or the block is in fallback).
    pub fn sort_by_key(&mut self) -> Option<Vec<usize>> {
        if self.ordered || self.is_fallback() {
            return None;
        }
        let mut perm: Vec<usize> = (0..self.len).collect();
        perm.sort_by(|&a, &b| self.keys[a].total_cmp(&self.keys[b]));
        each_buffer!(self, |buf| gather(buf, &perm));
        self.ordered = true;
        Some(perm)
    }

    /// Bring both blocks (same spec, relation and tier) to common column
    /// classes, so that their member keys sum the same dimensions and
    /// [`append`](Self::append) can move buffers across; what a row-by-row
    /// [`push`](Self::push) of `other`'s rows would refuse — and a fallback
    /// `other` — demotes this block. Returns whether it is still live.
    pub fn reconcile(&mut self, other: &mut ColumnarBlock) -> bool {
        if self.is_fallback() {
            return false;
        }
        if let Some(reason) = other.fallback {
            self.demote(reason);
            return false;
        }
        let (len, other_len, incomplete) = (self.len, other.len, self.incomplete);
        for (col, from) in self.cols.iter_mut().zip(&mut other.cols) {
            if let Err(reason) = col.reconcile(from, len, other_len, incomplete) {
                self.demote(reason);
                return false;
            }
        }
        true
    }

    /// Move every row of `other` behind this block's rows without
    /// re-encoding them ([`reconcile`](Self::reconcile)s first, so it may
    /// demote this block).
    pub fn append(&mut self, mut other: ColumnarBlock) {
        if !self.reconcile(&mut other) {
            return;
        }
        for (col, from) in self.cols.iter_mut().zip(&mut other.cols) {
            match (&mut col.data, &mut from.data) {
                (ColumnData::Ints(a), ColumnData::Ints(b))
                | (ColumnData::Bools(a), ColumnData::Bools(b)) => a.append(b),
                (ColumnData::Floats(a), ColumnData::Floats(b)) => a.append(b),
                (ColumnData::Pending, ColumnData::Pending) => {}
                mismatch => unreachable!("reconciled columns differ: {mismatch:?}"),
            }
        }
        self.ordered &=
            other.ordered && (self.keys.last().zip(other.keys.first())).is_none_or(|(a, b)| a <= b);
        self.any_null.append(&mut other.any_null);
        self.keys.append(&mut other.keys);
        self.len += other.len;
    }

    /// Encode a candidate tuple against this block's column classes.
    ///
    /// `None` means this one tuple needs the scalar path (e.g. a
    /// non-integral float against an integer column); the block itself
    /// stays valid.
    pub fn encode(&self, row: &Row) -> Option<EncodedCandidate> {
        let mut cand = EncodedCandidate::new();
        self.encode_into(row, &mut cand).then_some(cand)
    }

    /// [`encode`](Self::encode) into a caller-owned buffer, avoiding the
    /// per-candidate allocation on the hot BNL loops. Returns `false`
    /// when this tuple needs the scalar path (`cand` is then unspecified).
    pub fn encode_into(&self, row: &Row, cand: &mut EncodedCandidate) -> bool {
        self.encode_with(|index| row.get(index), cand)
    }

    /// [`encode_into`](Self::encode_into) for physical row `row` of a
    /// column batch, read straight from its buffers — the same encoder,
    /// with no `Row` built.
    pub fn encode_columns_into(
        &self,
        batch: &ColumnBatch,
        row: usize,
        cand: &mut EncodedCandidate,
    ) -> bool {
        self.encode_with(|index| batch.value(index, row), cand)
    }

    /// The encoder behind both entry points: `value(index)` is the
    /// candidate's value in input column `index`.
    fn encode_with<V: Borrow<Value>>(
        &self,
        value: impl Fn(usize) -> V,
        cand: &mut EncodedCandidate,
    ) -> bool {
        cand.dims.clear();
        cand.all_incomparable = false;
        cand.key = f64::INFINITY;
        if self.is_fallback() {
            return false;
        }
        let mut key = 0.0f64;
        for col in &self.cols {
            let value = value(col.index);
            let value = value.borrow();
            let dim = if is_null_like(value) {
                if self.incomplete {
                    // Restricted relation: the dimension is skipped for
                    // every pair.
                    CandDim::Skip
                } else {
                    cand.all_incomparable = true;
                    return true;
                }
            } else {
                match (value, &col.data) {
                    // Unmaterialized column: all rows are NULL there, so
                    // the dimension never differentiates (complete mode
                    // forces Incomparable through `any_null` anyway).
                    (_, ColumnData::Pending) => CandDim::Skip,
                    (Value::Boolean(v), ColumnData::Bools(_)) => {
                        CandDim::Int(col.fold_i64(i64::from(*v)).expect("0/1 negation is safe"))
                    }
                    (Value::Int64(v), ColumnData::Ints(_)) => match col.fold_i64(*v) {
                        Some(folded) => CandDim::Int(folded),
                        None => return false,
                    },
                    (Value::Int64(v), ColumnData::Floats(_)) => {
                        if !int_is_f64_exact(*v) {
                            return false;
                        }
                        CandDim::Float(col.fold_f64(*v as f64))
                    }
                    (Value::Float64(v), ColumnData::Floats(_)) => CandDim::Float(col.fold_f64(*v)),
                    (Value::Float64(v), ColumnData::Ints(_)) => {
                        // Exact only when the float is an in-range integer;
                        // otherwise fall back to the scalar comparison.
                        if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v < i64::MAX as f64 + 1.0 {
                            match col.fold_i64(*v as i64) {
                                Some(folded) => CandDim::Int(folded),
                                None => return false,
                            }
                        } else {
                            return false;
                        }
                    }
                    // Any remaining combination compares `None` under
                    // `sql_compare` (Utf8 vs numeric, Boolean vs Int64, …):
                    // NULL-like for the pair, for every row of the column.
                    _ => {
                        if self.incomplete {
                            CandDim::Skip
                        } else {
                            cand.all_incomparable = true;
                            return true;
                        }
                    }
                }
            };
            if !col.is_diff {
                match dim {
                    CandDim::Int(v) => key += v as f64,
                    CandDim::Float(v) => key += v,
                    // The member keys count this column, the candidate
                    // cannot: unscorable (incomplete relation only).
                    CandDim::Skip if !matches!(col.data, ColumnData::Pending) => key = f64::NAN,
                    CandDim::Skip => {}
                }
            }
            cand.dims.push(dim);
        }
        if !key.is_nan() {
            cand.key = key;
        }
        true
    }

    /// The first block row that strictly dominates `cand`
    /// (`DominatedBy`, never `Equal`), in block order. The walk resolves
    /// the candidate's compared dimensions into `tests` once and walks
    /// the rows four at a time, deciding "this row strictly dominates the
    /// candidate" over all of them per step, and stops at the first step
    /// that holds a dominator. In a key-ordered block
    /// ([`is_ordered`](Self::is_ordered)) the walk ends, undominated, at
    /// the last row whose member key does not exceed the candidate key
    /// (module docs). `tested` counts the rows up to the dominator's
    /// 4-row step, or up to the walk's end; a NULL-like candidate under
    /// the complete relation walks nothing.
    ///
    /// Callers that filter on the verdict must only rely on strict
    /// dominance being stable, which holds under a transitive relation
    /// (the complete relation, or the incomplete relation within one
    /// null-bitmap class).
    pub fn first_dominator<'a>(
        &'a self,
        cand: &EncodedCandidate,
        tests: &mut WalkTests<'a>,
    ) -> BatchResult {
        debug_assert!(!self.is_fallback(), "first_dominator on a fallback block");
        if cand.all_incomparable {
            return BatchResult {
                tested: 0,
                dominated_at: None,
            };
        }
        let end = if self.ordered {
            self.keys.partition_point(|&key| key <= cand.key)
        } else {
            self.len
        };
        self.resolve(cand, tests);
        let mut hit = None;
        self.fused::<false>(tests, 0, end, |base, dom| {
            hit = Some(base + dom.trailing_zeros() as usize);
            true
        });
        BatchResult {
            tested: hit.map_or(end, |at| end.min((at | 3) + 1)) as u64,
            dominated_at: hit,
        }
    }

    /// The scan: clear `keep[i]` for every row `i >= start` that `point`
    /// strictly dominates (`POINT_DOMINATES`), or that strictly dominates
    /// `point` (`!POINT_DOMINATES`) — never for an equal row — and return
    /// the number of rows it passed. The scan resolves the point's compared
    /// dimensions into `tests` once, as the walk does, and runs the walk's
    /// 4-row step in the chosen direction over every row from `start` to
    /// the end, with no early exit. Flags already cleared stay cleared. A
    /// NULL-like point under the complete relation is incomparable with
    /// every row and passes none.
    ///
    /// An ordered block bounds a `mark::<true>` scan from below: a row
    /// whose member key is less than the point's key cannot be dominated by
    /// it, so a caller starts at the first row whose key reaches the
    /// point's. (The invariant of the module docs; with member keys on
    /// both sides, an unscorable row's NaN sum holds a `-inf` that each of
    /// its dominators shares, which gives the dominator key `-inf` too.)
    /// The point is read from a block of the same column classes
    /// ([`encode_member_into`](Self::encode_member_into) after
    /// [`reconcile`](Self::reconcile)) or encoded against this block.
    pub fn mark<'a, const POINT_DOMINATES: bool>(
        &'a self,
        point: &EncodedCandidate,
        start: usize,
        keep: &mut [bool],
        tests: &mut WalkTests<'a>,
    ) -> u64 {
        debug_assert!(!self.is_fallback(), "mark on a fallback block");
        debug_assert_eq!(keep.len(), self.len);
        if point.all_incomparable || start >= self.len {
            return 0;
        }
        self.resolve(point, tests);
        self.fused::<POINT_DOMINATES>(tests, start, self.len, |base, dom| {
            for (k, keep) in keep[base..].iter_mut().take(4).enumerate() {
                *keep &= dom & (1 << k) == 0;
            }
            false
        });
        (self.len - start) as u64
    }

    /// Row `i` of this block as a point: what [`encode_into`](Self::encode_into)
    /// makes of the row pushed as row `i`, read from the column buffers
    /// instead of a `Row`. A NULL-like row under the complete relation
    /// becomes an all-incomparable point.
    pub fn encode_member_into(&self, i: usize, point: &mut EncodedCandidate) {
        debug_assert!(!self.is_fallback() && i < self.len);
        point.dims.clear();
        point.all_incomparable = !self.incomplete && self.any_null[i];
        point.key = f64::INFINITY;
        if point.all_incomparable {
            return;
        }
        let mut key = 0.0f64;
        for col in &self.cols {
            let dim = match &col.data {
                ColumnData::Pending => CandDim::Skip,
                ColumnData::Ints(buf) | ColumnData::Bools(buf) => CandDim::Int(buf[i]),
                ColumnData::Floats(buf) => CandDim::Float(buf[i]),
            };
            if !col.is_diff {
                match dim {
                    CandDim::Int(v) => key += v as f64,
                    CandDim::Float(v) => key += v,
                    CandDim::Skip => {}
                }
            }
            point.dims.push(dim);
        }
        if !key.is_nan() {
            point.key = key;
        }
    }

    /// The fused loop of [`first_dominator`](Self::first_dominator) and
    /// [`mark`](Self::mark) over rows `[start, end)` of
    /// the resolved `tests`, on the block's tier: `hit(base, bits)` gets
    /// each 4-row step holding a strict dominance in the loop's direction,
    /// and stops the loop by returning `true`.
    fn fused<const POINT_DOMINATES: bool>(
        &self,
        tests: &WalkTests,
        start: usize,
        end: usize,
        hit: impl FnMut(usize, u32) -> bool,
    ) {
        // Complete relation: rows with NULL-like values neither dominate
        // nor are dominated, whatever their placeholder buffers say.
        let nulls = (!self.incomplete).then_some(&self.any_null[..]);
        match self.tier {
            // SAFETY: a block only gets the `Avx2` tier after
            // `is_x86_feature_detected!("avx2")` (`with_tier`), and every
            // resolved buffer holds `len >= end` rows.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe {
                simd::fused_avx2::<POINT_DOMINATES>(tests, nulls, start, end, hit)
            },
            _ => fused_from::<POINT_DOMINATES>(tests, nulls, start, end, hit),
        }
    }

    /// Resolve `cand`'s compared dimensions against this block's buffers
    /// into `tests`.
    fn resolve<'a>(&'a self, cand: &EncodedCandidate, tests: &mut WalkTests<'a>) {
        tests.ranked_f64.clear();
        tests.ranked_i64.clear();
        tests.diff_f64.clear();
        tests.diff_i64.clear();
        for (col, dim) in self.cols.iter().zip(&cand.dims) {
            match (&col.data, *dim) {
                (ColumnData::Floats(buf), CandDim::Float(v)) if col.is_diff => {
                    tests.diff_f64.push((buf, v))
                }
                (ColumnData::Floats(buf), CandDim::Float(v)) => tests.ranked_f64.push((buf, v)),
                (ColumnData::Ints(buf) | ColumnData::Bools(buf), CandDim::Int(v))
                    if col.is_diff =>
                {
                    tests.diff_i64.push((buf, v))
                }
                (ColumnData::Ints(buf) | ColumnData::Bools(buf), CandDim::Int(v)) => {
                    tests.ranked_i64.push((buf, v))
                }
                (_, CandDim::Skip) | (ColumnData::Pending, _) => {}
                mismatch => unreachable!("encode/class invariant violated: {mismatch:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::Dominance;
    use sparkline_common::SkylineDim;

    fn spec_mm() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::max(1)])
    }

    fn block_of(rows: &[Row], incomplete: bool) -> ColumnarBlock {
        let mut b = ColumnarBlock::new(&spec_mm(), incomplete);
        for r in rows {
            b.push(r);
        }
        b
    }

    fn int_row(a: i64, b: i64) -> Row {
        Row::new(vec![Value::Int64(a), Value::Int64(b)])
    }

    /// What the two scans clear for `cand` from row 0, one flag per row:
    /// the rows that strictly dominate it (`mark::<false>`), the rows it
    /// strictly dominates (`mark::<true>`), and the rows each scan passed.
    fn scans(block: &ColumnarBlock, cand: &EncodedCandidate) -> (Vec<bool>, Vec<bool>, u64) {
        let mut tests = WalkTests::default();
        let (mut dominators, mut dominated) = (vec![true; block.len()], vec![true; block.len()]);
        let passed = block.mark::<false>(cand, 0, &mut dominators, &mut tests);
        assert_eq!(
            block.mark::<true>(cand, 0, &mut dominated, &mut tests),
            passed
        );
        let cleared = |keep: Vec<bool>| keep.into_iter().map(|k| !k).collect();
        (cleared(dominators), cleared(dominated), passed)
    }

    /// Oracle: each scan clears exactly the rows where the scalar
    /// checker's `compare(cand, row)` is `DominatedBy` (`mark::<false>`)
    /// or `Dominates` (`mark::<true>`), and passes every row.
    fn assert_scans_agree(
        block: &ColumnarBlock,
        rows: &[Row],
        cand: &Row,
        checker: &DominanceChecker,
    ) {
        let enc = block.encode(cand).expect("encodable candidate");
        let (dominators, dominated, passed) = scans(block, &enc);
        assert_eq!(passed, rows.len() as u64);
        for (i, row) in rows.iter().enumerate() {
            let verdict = checker.compare(cand, row);
            assert_eq!(
                (dominators[i], dominated[i]),
                (
                    verdict == Dominance::DominatedBy,
                    verdict == Dominance::Dominates
                ),
                "tier {:?}, row {i}: cand={cand} row={row}",
                block.tier()
            );
        }
    }

    /// [`assert_scans_agree`] on a block of `rows` under the `spec_mm`
    /// relation.
    fn assert_agrees(rows: &[Row], cand: &Row, incomplete: bool) {
        let checker = if incomplete {
            DominanceChecker::incomplete(spec_mm())
        } else {
            DominanceChecker::complete(spec_mm())
        };
        let block = block_of(rows, incomplete);
        assert!(!block.is_fallback(), "{:?}", block.fallback_reason());
        assert_scans_agree(&block, rows, cand, &checker);
    }

    #[test]
    fn batch_matches_scalar_on_ints() {
        let rows: Vec<Row> = (0..10).map(|i| int_row(i, 10 - i)).collect();
        for c in [int_row(0, 10), int_row(5, 5), int_row(9, 9), int_row(4, 2)] {
            assert_agrees(&rows, &c, false);
        }
    }

    #[test]
    fn batch_matches_scalar_on_floats_and_mixed() {
        let rows = vec![
            Row::new(vec![Value::Float64(1.5), Value::Int64(3)]),
            Row::new(vec![Value::Int64(2), Value::Int64(9)]),
            Row::new(vec![Value::Float64(0.25), Value::Float64(-2.0)]),
        ];
        let c = Row::new(vec![Value::Float64(1.0), Value::Float64(3.0)]);
        assert_agrees(&rows, &c, false);
    }

    #[test]
    fn complete_null_rows_are_incomparable() {
        let rows = vec![
            int_row(1, 1),
            Row::new(vec![Value::Null, Value::Int64(99)]),
            Row::new(vec![Value::Int64(0), Value::Float64(f64::NAN)]),
        ];
        // NaN promotes the second column to floats before the NaN row; use
        // a float column from the start.
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|r| {
                Row::new(
                    r.values()
                        .iter()
                        .map(|v| match v {
                            Value::Int64(i) => Value::Float64(*i as f64),
                            other => other.clone(),
                        })
                        .collect(),
                )
            })
            .collect();
        assert_agrees(
            &rows,
            &Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)]),
            false,
        );
    }

    #[test]
    fn null_candidate_is_incomparable_to_everything() {
        let rows: Vec<Row> = (0..70).map(|i| int_row(i, i)).collect();
        let block = block_of(&rows, false);
        let cand = Row::new(vec![Value::Null, Value::Int64(5)]);
        let enc = block.encode(&cand).unwrap();
        let res = block.first_dominator(&enc, &mut WalkTests::default());
        assert_eq!(
            res,
            BatchResult {
                tested: 0,
                dominated_at: None
            }
        );
        let (dominators, dominated, passed) = scans(&block, &enc);
        assert_eq!(passed, 0);
        assert!(!dominators.contains(&true) && !dominated.contains(&true));
    }

    #[test]
    fn early_exit_stops_at_dominator_chunk() {
        // Row 3 dominates the candidate; with 204 rows, the walk must stop
        // after the first 4-row step.
        let mut rows: Vec<Row> = vec![int_row(9, 1), int_row(8, 2), int_row(9, 3), int_row(0, 99)];
        rows.extend((0..200).map(|i| int_row(50 + i, 50)));
        let block = block_of(&rows, false);
        assert!(!block.is_ordered());
        let enc = block.encode(&int_row(5, 5)).unwrap();
        let res = block.first_dominator(&enc, &mut WalkTests::default());
        assert_eq!(res.dominated_at, Some(3));
        assert_eq!(res.tested, 4);
        // Without the early exit the whole window is tested.
        let (dominators, _, passed) = scans(&block, &enc);
        assert_eq!(passed, rows.len() as u64);
        let hits: Vec<usize> = (0..rows.len()).filter(|&i| dominators[i]).collect();
        assert_eq!(hits, [3]);
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let rows: Vec<Row> = (0..5).map(|i| int_row(i, i)).collect();
        let block = block_of(&rows, false);
        let mut cand = EncodedCandidate::new();
        assert!(block.encode_into(&int_row(2, 2), &mut cand));
        // Rows `(i, i)` under MIN/MAX trade off against `(2, 2)`, and
        // the equal row 2 is cleared by neither scan.
        let (dominators, dominated, passed) = scans(&block, &cand);
        assert_eq!(passed, 5);
        assert!(!dominators.contains(&true) && !dominated.contains(&true));
        // A NULL candidate flips the buffer to all-incomparable.
        assert!(block.encode_into(&Row::new(vec![Value::Null, Value::Int64(1)]), &mut cand));
        let (dominators, dominated, passed) = scans(&block, &cand);
        assert_eq!(passed, 0);
        assert!(!dominators.contains(&true) && !dominated.contains(&true));
    }

    #[test]
    fn retain_mirrors_vec_semantics() {
        let mut rows: Vec<Row> = (0..6).map(|i| int_row(i, 5 - i)).collect();
        let mut block = block_of(&rows, false);
        let mut k = 0;
        rows.retain(|_| {
            let keep = k % 2 == 0;
            k += 1;
            keep
        });
        block.retain_mask(&[true, false, true, false, true, false]);
        assert_eq!(block.len(), rows.len());
        let checker = DominanceChecker::complete(spec_mm());
        assert_scans_agree(&block, &rows, &int_row(3, 3), &checker);
    }

    #[test]
    fn remove_mirrors_vec_semantics() {
        let mut rows: Vec<Row> = (0..5).map(|i| int_row(i, i)).collect();
        let mut block = block_of(&rows, false);
        rows.remove(1);
        block.remove(1);
        let checker = DominanceChecker::complete(spec_mm());
        assert_scans_agree(&block, &rows, &int_row(2, 2), &checker);
    }

    #[test]
    fn empty_spec_falls_back() {
        let block = ColumnarBlock::new(&SkylineSpec::new(vec![]), false);
        assert!(block.is_fallback());
    }

    #[test]
    fn diff_dims_stay_on_fast_path() {
        let spec = SkylineSpec::new(vec![SkylineDim::diff(0), SkylineDim::min(1)]);
        let checker = DominanceChecker::complete(spec.clone());
        for tier in KernelTier::available() {
            let mut block = ColumnarBlock::with_tier(&spec, false, tier);
            let rows: Vec<Row> = (0..70)
                .map(|i| Row::new(vec![Value::Int64(i % 3), Value::Int64(70 - i)]))
                .collect();
            for r in &rows {
                block.push(r);
            }
            assert!(!block.is_fallback(), "{:?}", block.fallback_reason());
            for c in 0..6 {
                let cand = Row::new(vec![Value::Int64(c % 3), Value::Int64(30 + c)]);
                assert_scans_agree(&block, &rows, &cand, &checker);
            }
        }
    }

    #[test]
    fn float_diff_dims_match_scalar() {
        let spec = SkylineSpec::new(vec![SkylineDim::diff(0), SkylineDim::min(1)]);
        let checker = DominanceChecker::complete(spec.clone());
        for tier in KernelTier::available() {
            let mut block = ColumnarBlock::with_tier(&spec, false, tier);
            let rows: Vec<Row> = (0..9)
                .map(|i| {
                    Row::new(vec![
                        Value::Float64(f64::from(i % 2) * 0.5),
                        Value::Float64(f64::from(9 - i)),
                    ])
                })
                .collect();
            for r in &rows {
                block.push(r);
            }
            assert!(!block.is_fallback());
            let cand = Row::new(vec![Value::Float64(0.5), Value::Float64(4.0)]);
            assert_scans_agree(&block, &rows, &cand, &checker);
        }
    }

    #[test]
    fn non_numeric_diff_demotes_block() {
        let spec = SkylineSpec::new(vec![SkylineDim::diff(0), SkylineDim::min(1)]);
        let mut block = ColumnarBlock::new(&spec, false);
        block.push(&Row::new(vec![Value::str("group-a"), Value::Int64(1)]));
        assert!(block.is_fallback());
    }

    /// Deterministic pseudo-random mixed dataset exercising ints, floats,
    /// NULLs, and ties across > 64 rows.
    fn mixed_rows(n: usize) -> Vec<Row> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let a = next();
                let b = next();
                let v0 = if a % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float64((a % 100) as f64 / 4.0)
                };
                let v1 = Value::Float64((b % 50) as f64);
                Row::new(vec![v0, v1])
            })
            .collect()
    }

    #[test]
    fn all_tiers_produce_identical_outcomes() {
        let rows = mixed_rows(150);
        let cands = mixed_rows(40);
        let checker = DominanceChecker::complete(spec_mm());
        let mut oracle = None;
        for tier in KernelTier::available() {
            let mut block = ColumnarBlock::with_tier(&spec_mm(), false, tier);
            for r in &rows {
                block.push(r);
            }
            assert!(!block.is_fallback());
            let mut all = Vec::new();
            for c in &cands {
                let enc = block.encode(c).unwrap();
                all.push(scans(&block, &enc));
                if !is_null_like(c.get(0)) {
                    assert_scans_agree(&block, &rows, c, &checker);
                }
            }
            match &oracle {
                None => oracle = Some(all),
                Some(expected) => assert_eq!(expected, &all, "tier {tier:?} diverged"),
            }
        }
    }

    #[test]
    fn first_dominators_matches_single_candidate_scans() {
        let rows = mixed_rows(200);
        let cands = mixed_rows(20);
        for tier in KernelTier::available() {
            let mut block = ColumnarBlock::with_tier(&spec_mm(), false, tier);
            for r in &rows {
                block.push(r);
            }
            let checker = DominanceChecker::complete(spec_mm());
            let (mut tests, mut tested) = (WalkTests::default(), 0);
            for (i, c) in cands.iter().enumerate() {
                let enc = block.encode(c).unwrap();
                let res = block.first_dominator(&enc, &mut tests);
                tested += res.tested;
                let expected =
                    (rows.iter()).position(|r| checker.compare(c, r) == Dominance::DominatedBy);
                assert_eq!(res.dominated_at, expected, "tier {tier:?} candidate {i}");
            }
            assert!(tested > 0);
        }
    }

    #[test]
    fn first_dominators_early_exits_when_all_lanes_die() {
        // Every candidate is dominated by row 0; each walk must stop after
        // the first 4-row step instead of scanning all 1001 rows.
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&int_row(0, 100));
        for i in 0..1000 {
            block.push(&int_row(50 + i, 50));
        }
        // The rows happen to be in key order: candidate `i` (key `i`)
        // ends at the `i + 2` rows keyed `<= i` (row 0 is keyed -100), and
        // stops with the 4-row step holding its dominator.
        assert!(block.is_ordered());
        let mut tests = WalkTests::default();
        for i in 0..8 {
            let cand = block.encode(&int_row(10 + i, 10)).unwrap();
            let res = block.first_dominator(&cand, &mut tests);
            assert_eq!(res.dominated_at, Some(0));
            assert_eq!(res.tested, (i as u64 + 2).min(4));
        }
    }

    fn min_min_spec() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)])
    }

    #[test]
    fn keys_sum_the_ranked_dims_and_track_order() {
        let spec = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::max(1),
            SkylineDim::diff(2),
        ]);
        let row = |a: f64, b: f64, c: i64| {
            Row::new(vec![Value::Float64(a), Value::Float64(b), Value::Int64(c)])
        };
        let mut block = ColumnarBlock::new(&spec, false);
        block.push(&row(3.0, 1.5, 900));
        block.push(&row(4.0, 0.5, -900));
        assert_eq!(block.keys(), &[1.5, 3.5], "MAX negated, DIFF left out");
        assert!(block.is_ordered());
        // A NULL-like row sums its placeholders; a NaN sum is unscorable.
        block.push(&Row::new(vec![
            Value::Null,
            Value::Float64(-4.0),
            Value::Int64(0),
        ]));
        block.push(&row(f64::INFINITY, f64::INFINITY, 0));
        assert_eq!(block.keys()[2..], [4.0, f64::NEG_INFINITY]);
        assert!(!block.is_ordered());
        let cand = block.encode(&row(2.0, 2.5, 7)).unwrap();
        assert_eq!(cand.key(), -0.5);
        let nan = row(f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
        assert_eq!(block.encode(&nan).unwrap().key(), f64::INFINITY);
        // Sorting restores the order (stable, unscorable rows first) and
        // reports the permutation; an ordered block is left alone.
        assert_eq!(block.sort_by_key(), Some(vec![3, 0, 1, 2]));
        assert!(block.is_ordered());
        assert_eq!(block.keys(), &[f64::NEG_INFINITY, 1.5, 3.5, 4.0]);
        assert_eq!(block.sort_by_key(), None);
        // Ordered pushes land behind the rows with a key `<=` their own.
        assert_eq!(block.push_ordered(&row(0.0, -1.5, 1)), Some(2));
        assert_eq!(block.push_ordered(&row(9.0, 0.0, 1)), Some(5));
        assert!(block.is_ordered());
        assert_eq!(block.keys()[1..], [1.5, 1.5, 3.5, 4.0, 9.0]);
        assert_eq!(block.push_ordered(&Row::new(vec![Value::str("x")])), None);
    }

    #[test]
    fn incomplete_candidate_skipping_a_materialized_dim_is_unscorable() {
        let mut block = ColumnarBlock::new(&min_min_spec(), true);
        block.push(&int_row(1, 2));
        let cand = Row::new(vec![Value::Int64(1), Value::Float64(f64::NAN)]);
        assert_eq!(block.encode(&cand).unwrap().key(), f64::INFINITY);
        // An all-NULL column counts for neither side.
        let mut block = ColumnarBlock::new(&min_min_spec(), true);
        block.push(&Row::new(vec![Value::Int64(4), Value::Null]));
        assert_eq!(block.keys(), &[4.0]);
        assert_eq!(block.encode(&int_row(5, -100)).unwrap().key(), 5.0);
    }

    #[test]
    fn ordered_walk_matches_the_unordered_one_and_tests_less() {
        let rows = mixed_rows(300);
        let cands = mixed_rows(64);
        let spec = min_min_spec();
        for tier in KernelTier::available() {
            let mut plain = ColumnarBlock::with_tier(&spec, false, tier);
            rows.iter().for_each(|r| plain.push(r));
            assert!(!plain.is_ordered());
            let mut sorted = plain.clone();
            let perm = sorted.sort_by_key().expect("mixed rows are unordered");
            let (mut plain_tests, mut sorted_tests) = (WalkTests::default(), WalkTests::default());
            let (mut full, mut bounded) = (0, 0);
            for (i, c) in cands.iter().enumerate() {
                let enc = plain.encode(c).unwrap();
                let hit = plain.first_dominator(&enc, &mut plain_tests);
                let sorted_hit = sorted.first_dominator(&enc, &mut sorted_tests);
                assert_eq!(
                    hit.dominated_at.is_some(),
                    sorted_hit.dominated_at.is_some(),
                    "tier {tier:?} candidate {i}"
                );
                if let Some(at) = sorted_hit.dominated_at {
                    let checker = DominanceChecker::complete(spec.clone());
                    assert!(checker.dominates(&rows[perm[at]], c));
                }
                full += hit.tested;
                bounded += sorted_hit.tested;
            }
            assert!(bounded < full, "tier {tier:?}");
        }
    }

    #[test]
    fn append_moves_columns_and_reconciles_classes() {
        let spec = min_min_spec();
        let float_row = |a: f64, b: f64| Row::new(vec![Value::Float64(a), Value::Float64(b)]);
        // Integers meet floats: the integer side converts.
        let mut ints = ColumnarBlock::new(&spec, false);
        ints.push(&int_row(1, 8));
        ints.push(&int_row(2, 9));
        let mut floats = ColumnarBlock::new(&spec, false);
        floats.push(&float_row(0.5, 0.25));
        ints.append(floats);
        assert!(!ints.is_fallback());
        assert_eq!(ints.len(), 3);
        assert_eq!(ints.keys(), &[9.0, 11.0, 0.75]);
        assert!(!ints.is_ordered());
        let enc = ints.encode(&float_row(1.5, 9.5)).unwrap();
        let (dominators, dominated, _) = scans(&ints, &enc);
        assert_eq!(dominators, [true, false, true]);
        assert_eq!(dominated, [false; 3]);
        // An all-NULL column takes the other side's class (complete
        // relation) but is a NULL/non-NULL mix under the incomplete one.
        for incomplete in [false, true] {
            let mut nulls = ColumnarBlock::new(&spec, incomplete);
            nulls.push(&Row::new(vec![Value::Int64(1), Value::Null]));
            let mut values = ColumnarBlock::new(&spec, incomplete);
            values.push(&int_row(2, 2));
            nulls.append(values);
            assert_eq!(nulls.is_fallback(), incomplete);
            if !incomplete {
                assert_eq!(nulls.keys(), &[1.0, 4.0]);
                assert!(nulls.is_ordered());
            }
        }
        // What a push would refuse demotes: inexact integers, booleans, a
        // fallback source.
        let mut floats = ColumnarBlock::new(&spec, false);
        floats.push(&float_row(0.5, 0.5));
        let mut huge = ColumnarBlock::new(&spec, false);
        huge.push(&int_row((1 << 60) + 1, 0));
        floats.append(huge);
        assert!(floats.is_fallback());
        let mut ints = ColumnarBlock::new(&spec, false);
        ints.push(&int_row(1, 1));
        let mut bools = ColumnarBlock::new(&spec, false);
        bools.push(&Row::new(vec![Value::Boolean(true), Value::Int64(1)]));
        assert!(!ints.reconcile(&mut bools));
        let mut ints = ColumnarBlock::new(&spec, false);
        ints.push(&int_row(1, 1));
        let mut dead = ColumnarBlock::new(&spec, false);
        dead.push(&Row::new(vec![Value::str("x"), Value::Int64(1)]));
        ints.append(dead);
        assert!(ints.is_fallback());
    }

    #[test]
    fn first_dominators_never_reports_equal_rows() {
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&int_row(5, 5));
        let cand = block.encode(&int_row(5, 5)).unwrap();
        let res = block.first_dominator(&cand, &mut WalkTests::default());
        assert_eq!(res.dominated_at, None);
    }

    #[test]
    fn first_dominators_ignores_null_rows_and_null_candidates() {
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let mut block = ColumnarBlock::new(&spec, false);
        block.push(&Row::new(vec![Value::Null, Value::Float64(0.0)]));
        block.push(&Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)]));
        let cands = [
            block
                .encode(&Row::new(vec![Value::Float64(5.0), Value::Float64(5.0)]))
                .unwrap(),
            block
                .encode(&Row::new(vec![Value::Null, Value::Float64(9.0)]))
                .unwrap(),
        ];
        let mut tests = WalkTests::default();
        let dominated: Vec<Option<usize>> = cands
            .iter()
            .map(|c| block.first_dominator(c, &mut tests).dominated_at)
            .collect();
        // The NULL row (index 0) dominates nothing; row 1 dominates the
        // first candidate. The NULL candidate is incomparable to all.
        assert_eq!(dominated, vec![Some(1), None]);
    }

    #[test]
    fn kernel_labels_are_stable() {
        assert_eq!(KernelTier::Chunked.label(), "chunked");
        assert_eq!(KernelTier::Avx2.label(), "simd(avx2)");
        let auto = kernel_label();
        if KernelTier::detect().is_simd() {
            assert_eq!(auto, "simd(avx2)");
        } else {
            assert_eq!(auto, "chunked");
        }
    }

    #[test]
    fn utf8_demotes_block() {
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&Row::new(vec![Value::str("x"), Value::Int64(1)]));
        assert!(block.is_fallback());
    }

    #[test]
    fn bool_int_mix_demotes_block() {
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&Row::new(vec![Value::Boolean(true), Value::Int64(1)]));
        block.push(&int_row(3, 4));
        assert!(block.is_fallback());
    }

    #[test]
    fn huge_int_in_float_column_demotes_block() {
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&Row::new(vec![Value::Float64(1.0), Value::Int64(0)]));
        block.push(&Row::new(vec![
            Value::Int64((1i64 << 60) + 1),
            Value::Int64(0),
        ]));
        assert!(block.is_fallback());
    }

    #[test]
    fn i64_max_in_float_column_demotes_block() {
        // `i64::MAX as f64` rounds up to 2^63 and the saturating cast back
        // hides it; the kernel must treat i64::MAX as inexact or it would
        // compare equal to Float64(2^63) where the scalar checker says
        // Incomparable-breaking Greater.
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&Row::new(vec![Value::Float64(1.0e10), Value::Int64(0)]));
        block.push(&Row::new(vec![Value::Int64(i64::MAX), Value::Int64(0)]));
        assert!(block.is_fallback());
        // Same as an already-float column's candidate.
        let block = block_of(
            &[Row::new(vec![
                Value::Float64(9_223_372_036_854_775_808.0),
                Value::Int64(0),
            ])],
            false,
        );
        assert!(block
            .encode(&Row::new(vec![Value::Int64(i64::MAX), Value::Int64(0)]))
            .is_none());
        // End to end, batched must still equal the definition via the
        // fallback.
        let rows = vec![
            Row::new(vec![Value::Float64(1.0e10), Value::Int64(100)]),
            Row::new(vec![Value::Int64(i64::MAX), Value::Int64(3)]),
            Row::new(vec![
                Value::Float64(9_223_372_036_854_775_808.0),
                Value::Int64(2),
            ]),
        ];
        let checker = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
        ]));
        let expected = crate::naive_skyline(&rows, &checker);
        let mut stats = crate::SkylineStats::default();
        let batched = crate::bnl_skyline(rows, &checker, &mut stats);
        assert_eq!(expected, batched);
    }

    #[test]
    fn i64_min_under_max_dim_demotes_block() {
        let mut block = ColumnarBlock::new(&spec_mm(), false);
        block.push(&Row::new(vec![Value::Int64(0), Value::Int64(i64::MIN)]));
        assert!(block.is_fallback());
    }

    #[test]
    fn incomplete_mixed_null_column_demotes_block() {
        let mut block = ColumnarBlock::new(&spec_mm(), true);
        block.push(&Row::new(vec![Value::Null, Value::Int64(1)]));
        block.push(&int_row(1, 2));
        assert!(block.is_fallback());
    }

    #[test]
    fn incomplete_all_null_column_is_skipped() {
        // One null-bitmap class: dim 0 NULL everywhere, dim 1 ranked MAX.
        let rows = vec![
            Row::new(vec![Value::Null, Value::Int64(5)]),
            Row::new(vec![Value::Null, Value::Int64(9)]),
        ];
        let checker = DominanceChecker::incomplete(spec_mm());
        let mut block = ColumnarBlock::new(&spec_mm(), true);
        for r in &rows {
            block.push(r);
        }
        assert!(!block.is_fallback());
        let cand = Row::new(vec![Value::Null, Value::Int64(7)]);
        assert_scans_agree(&block, &rows, &cand, &checker);
    }

    #[test]
    fn non_integral_float_candidate_on_int_column_needs_scalar() {
        let block = block_of(&[int_row(1, 1)], false);
        let cand = Row::new(vec![Value::Float64(1.5), Value::Int64(0)]);
        assert!(block.encode(&cand).is_none());
    }

    /// A block of float points — the disk scan's dominance gate — and
    /// the first point strictly dominating one candidate (a block's best
    /// corner), through the first-dominator walk.
    fn point_block(points: &[[f64; 2]], tier: KernelTier) -> ColumnarBlock {
        let mut block = ColumnarBlock::with_tier(&min_min_spec(), false, tier);
        for p in points {
            block.push(&Row::new(vec![Value::Float64(p[0]), Value::Float64(p[1])]));
        }
        assert!(!block.is_fallback());
        block
    }

    fn first_point_dominator(block: &ColumnarBlock, corner: [f64; 2]) -> (u64, Option<usize>) {
        let row = Row::new(vec![Value::Float64(corner[0]), Value::Float64(corner[1])]);
        let cand = block.encode(&row).unwrap();
        let res = block.first_dominator(&cand, &mut WalkTests::default());
        (res.tested, res.dominated_at)
    }

    #[test]
    fn point_block_finds_first_dominator() {
        let pb = point_block(
            &[
                [5.0, 5.0], // incomparable corner
                [2.0, 2.0], // dominator
                [0.0, 0.0], // also a dominator, but later
            ],
            KernelTier::detect(),
        );
        let (tested, hit) = first_point_dominator(&pb, [3.0, 3.0]);
        assert_eq!(hit, Some(1));
        // The dominator's 4-row step is cut at the block's three rows.
        assert_eq!(tested, 3);
        // Equal corner is not a strict dominator.
        let (_, none) = first_point_dominator(&pb, [0.0, 0.0]);
        assert_eq!(none, None);
    }

    #[test]
    fn point_block_early_exits_between_chunks() {
        let mut points: Vec<[f64; 2]> = (0..70).map(|i| [100.0 + i as f64, 100.0]).collect();
        points.push([0.0, 0.0]);
        points.extend(std::iter::repeat_n([100.0, 100.0], 70));
        let pb = point_block(&points, KernelTier::detect());
        // Arrival order is not key order, so no bound: the walk ends with
        // the 4-row step holding the dominator (rows 68..72).
        assert!(!pb.is_ordered());
        let (tested, hit) = first_point_dominator(&pb, [50.0, 50.0]);
        assert_eq!(hit, Some(70));
        assert_eq!(tested, 72);
    }

    #[test]
    fn point_block_tiers_and_multi_agree() {
        let mut points: Vec<[f64; 2]> = Vec::new();
        let mut state = 1u64;
        for _ in 0..150 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) % 100;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let y = (state >> 33) % 100;
            points.push([x as f64, y as f64]);
        }
        let queries: Vec<[f64; 2]> = points
            .iter()
            .take(30)
            .map(|p| [p[0] + 1.0, p[1] + 1.0])
            .collect();
        let mut oracle: Option<Vec<Option<usize>>> = None;
        for tier in KernelTier::available() {
            let mut pb = point_block(&points, tier);
            // Single-corner passes agree across tiers...
            let singles: Vec<Option<usize>> = queries
                .iter()
                .map(|&q| first_point_dominator(&pb, q).1)
                .collect();
            match &oracle {
                None => oracle = Some(singles.clone()),
                Some(expected) => assert_eq!(expected, &singles, "tier {tier:?} diverged"),
            }
            // ...one reused `WalkTests` over every corner matches them...
            let mut tests = WalkTests::default();
            let reused: Vec<Option<usize>> = queries
                .iter()
                .map(|q| {
                    let row = Row::new(vec![Value::Float64(q[0]), Value::Float64(q[1])]);
                    let cand = pb.encode(&row).unwrap();
                    pb.first_dominator(&cand, &mut tests).dominated_at
                })
                .collect();
            assert_eq!(reused, singles, "tier {tier:?}");
            // ...and the key-sorted block gives every corner the same
            // verdict (strict dominance is all the gate reads).
            pb.sort_by_key();
            for (q, single) in queries.iter().zip(&singles) {
                let (_, sorted) = first_point_dominator(&pb, *q);
                assert_eq!(
                    sorted.is_some(),
                    single.is_some(),
                    "tier {tier:?} corner {q:?}"
                );
            }
        }
    }
}
