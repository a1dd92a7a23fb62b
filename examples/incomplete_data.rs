//! Skylines over incomplete data (paper §3, §5.7, Appendix A): cyclic
//! dominance, the null-bitmap-partitioned algorithm, and the `COMPLETE`
//! keyword override.
//!
//! ```bash
//! cargo run --example incomplete_data
//! ```

use sparkline::{DataType, Field, Row, Schema, SessionContext, Value};

fn main() -> sparkline::Result<()> {
    let ctx = SessionContext::new();

    // The paper's cyclic example (§3): a=(1,*,10), b=(3,2,*), c=(*,5,3).
    // Under the incomplete dominance relation a ≺ b ≺ c ≺ a: every tuple
    // is dominated, so the skyline is EMPTY. The algorithm of Gulzar et
    // al. [20] returns {c} here — Appendix A shows why deferred deletion
    // is required.
    ctx.register_table(
        "points",
        Schema::new(vec![
            Field::new("name", DataType::Utf8, false),
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ]),
        vec![
            Row::new(vec![Value::str("a"), 1.into(), Value::Null, 10.into()]),
            Row::new(vec![Value::str("b"), 3.into(), 2.into(), Value::Null]),
            Row::new(vec![Value::str("c"), Value::Null, 5.into(), 3.into()]),
        ],
    )?;

    let df = ctx.sql("SELECT * FROM points SKYLINE OF x MIN, y MIN, z MIN")?;
    let result = df.collect()?;
    println!(
        "Cyclic dominance example: skyline has {} rows (expected 0)",
        result.num_rows()
    );
    assert_eq!(result.num_rows(), 0);

    // The physical plan shows the incomplete pipeline: per-class local
    // skylines on the scan's partitions, then the class-block merge.
    println!("\n{}", df.explain()?);

    // A dataset that *could* contain NULLs but doesn't: without COMPLETE
    // the engine must be conservative; with COMPLETE the user unlocks the
    // faster algorithm (§5.5, Listing 8).
    ctx.register_table(
        "measurements",
        Schema::new(vec![
            Field::new("latency", DataType::Int64, true), // nullable column!
            Field::new("throughput", DataType::Int64, true),
        ]),
        (0..1000i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(100 + (i * 37) % 900),
                    Value::Int64(10 + (i * 91) % 490),
                ])
            })
            .collect(),
    )?;

    let without = ctx.sql("SELECT * FROM measurements SKYLINE OF latency MIN, throughput MAX")?;
    let with =
        ctx.sql("SELECT * FROM measurements SKYLINE OF COMPLETE latency MIN, throughput MAX")?;
    println!(
        "Without COMPLETE: {}",
        first_skyline_node(&without.explain()?)
    );
    println!("With COMPLETE:    {}", first_skyline_node(&with.explain()?));
    let a = without.collect()?;
    let b = with.collect()?;
    assert_eq!(a.sorted_display(), b.sorted_display());
    println!(
        "\nSame {} skyline rows either way; the COMPLETE variant ran {} \
         dominance tests, the incomplete plan {}.",
        a.num_rows(),
        b.metrics.dominance_tests,
        a.metrics.dominance_tests,
    );
    Ok(())
}

fn first_skyline_node(explain: &str) -> &str {
    explain
        .lines()
        .find(|l| l.contains("SkylineExec"))
        .map(str::trim)
        .unwrap_or("<none>")
}
