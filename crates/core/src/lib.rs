#![warn(missing_docs)]

//! # sparkline
//!
//! A distributed SQL query engine with **native skyline-query support**,
//! reproducing *"Integration of Skyline Queries into Spark SQL"*
//! (Grasmann, Pichler, Selzer — EDBT 2023) in Rust.
//!
//! The engine mirrors Spark SQL's pipeline (the paper's Figure 2): a SQL
//! parser with the `SKYLINE OF [DISTINCT] [COMPLETE] dim MIN|MAX|DIFF, ...`
//! clause, an analyzer with the paper's skyline resolution rules, a
//! rule-based optimizer with the §5.4 skyline rewrites, and a physical
//! planner that performs the Listing 8 algorithm selection over a
//! partitioned, multi-threaded executor runtime.
//!
//! ## Quickstart
//!
//! ```
//! use sparkline::{SessionContext, Row, Schema, Field, DataType, Value};
//!
//! let ctx = SessionContext::new();
//! ctx.register_table(
//!     "hotels",
//!     Schema::new(vec![
//!         Field::new("price", DataType::Int64, false),
//!         Field::new("user_rating", DataType::Int64, false),
//!     ]),
//!     vec![
//!         Row::new(vec![Value::Int64(50), Value::Int64(7)]),
//!         Row::new(vec![Value::Int64(80), Value::Int64(9)]),
//!         Row::new(vec![Value::Int64(90), Value::Int64(6)]), // dominated
//!     ],
//! ).unwrap();
//!
//! // Listing 2 of the paper:
//! let result = ctx
//!     .sql("SELECT price, user_rating FROM hotels \
//!           SKYLINE OF price MIN, user_rating MAX")
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! assert_eq!(result.num_rows(), 2);
//! ```
//!
//! The same query through the DataFrame API (paper §5.8):
//!
//! ```
//! use sparkline::{SessionContext, Row, Schema, Field, DataType, Value};
//! use sparkline::functions::{col, smin, smax};
//!
//! let ctx = SessionContext::new();
//! ctx.register_table(
//!     "hotels",
//!     Schema::new(vec![
//!         Field::new("price", DataType::Int64, false),
//!         Field::new("user_rating", DataType::Int64, false),
//!     ]),
//!     vec![Row::new(vec![Value::Int64(50), Value::Int64(7)])],
//! ).unwrap();
//! let df = ctx.table("hotels").unwrap()
//!     .skyline(vec![smin(col("price")), smax(col("user_rating"))]);
//! assert_eq!(df.collect().unwrap().num_rows(), 1);
//! ```

pub mod catalog;
pub mod dataframe;
pub mod functions;
pub mod reference;
pub mod result;
pub mod session;

pub use catalog::SessionCatalog;
pub use dataframe::DataFrame;
pub use reference::rewrite_to_reference;
pub use result::QueryResult;
pub use session::SessionContext;

// Re-export the vocabulary users need without digging into sub-crates.
pub use sparkline_common::{
    Algorithm, DataType, Error, Field, MemTable, Result, Row, Schema, SchemaRef, SessionConfig,
    SkylineType, Value, CHUNK_ROWS,
};
pub use sparkline_plan::{Expr, JoinCondition, JoinType, LogicalPlan, SkylineDimension, SortExpr};

#[cfg(test)]
mod tests {
    use super::functions::*;
    use super::*;

    fn hotel_session() -> SessionContext {
        let ctx = SessionContext::new();
        ctx.register_table(
            "hotels",
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("price", DataType::Int64, false),
                Field::new("rating", DataType::Int64, false),
            ]),
            vec![
                Row::new(vec![1.into(), 50.into(), 7.into()]),
                Row::new(vec![2.into(), 80.into(), 9.into()]),
                Row::new(vec![3.into(), 90.into(), 6.into()]), // dominated by 1 & 2
                Row::new(vec![4.into(), 50.into(), 7.into()]), // tie with 1
                Row::new(vec![5.into(), 40.into(), 3.into()]),
            ],
        )
        .unwrap();
        ctx
    }

    #[test]
    fn sql_skyline_end_to_end() {
        let ctx = hotel_session();
        let result = ctx
            .sql("SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(result.num_rows(), 4);
        assert!(result.metrics.dominance_tests > 0);
        assert!(result.peak_memory_bytes > 0);
    }

    #[test]
    fn sql_skyline_distinct() {
        let ctx = hotel_session();
        let result = ctx
            .sql(
                "SELECT price, rating FROM hotels \
                 SKYLINE OF DISTINCT price MIN, rating MAX",
            )
            .unwrap()
            .collect()
            .unwrap();
        // The (50,7) tie collapses to one representative.
        assert_eq!(result.num_rows(), 3);
    }

    #[test]
    fn dataframe_skyline_matches_sql() {
        let ctx = hotel_session();
        let sql = ctx
            .sql("SELECT * FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap()
            .collect()
            .unwrap();
        let df = ctx
            .table("hotels")
            .unwrap()
            .skyline(vec![smin(col("price")), smax(col("rating"))])
            .collect()
            .unwrap();
        assert_eq!(sql.sorted_display(), df.sorted_display());
    }

    #[test]
    fn dataframe_using_join_is_desugared_like_sql() {
        let ctx = hotel_session();
        let sql = ctx
            .sql("SELECT * FROM hotels AS a JOIN hotels AS b USING (id)")
            .unwrap();
        let df = ctx.table("hotels").unwrap().alias("a").join(
            &ctx.table("hotels").unwrap().alias("b"),
            JoinType::Inner,
            JoinCondition::Using(vec!["id".into()]),
        );
        // Built from resolved tables, the USING join still needs the
        // analyzer: it is not resolved until desugared.
        assert!(!df.logical_plan().resolved());
        assert_eq!(df.schema().unwrap(), sql.schema().unwrap());
        assert_eq!(
            df.collect().unwrap().sorted_display(),
            sql.collect().unwrap().sorted_display()
        );
    }

    #[test]
    fn integrated_equals_reference_listing_1_vs_2() {
        let ctx = hotel_session();
        // Listing 2 (integrated).
        let integrated = ctx
            .sql("SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap()
            .collect()
            .unwrap();
        // Listing 1 (hand-written plain SQL).
        let reference = ctx
            .sql(
                "SELECT price, rating FROM hotels AS o WHERE NOT EXISTS( \
                   SELECT * FROM hotels AS i WHERE \
                     i.price <= o.price AND i.rating >= o.rating \
                     AND (i.price < o.price OR i.rating > o.rating))",
            )
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(integrated.sorted_display(), reference.sorted_display());
    }

    #[test]
    fn all_four_algorithms_agree_on_complete_data() {
        let ctx = hotel_session();
        let df = ctx
            .sql("SELECT * FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap();
        let auto = df.collect().unwrap().sorted_display();
        for algorithm in Algorithm::paper_algorithms() {
            let result = df.collect_with_algorithm(algorithm).unwrap();
            assert_eq!(
                result.sorted_display(),
                auto,
                "algorithm {} disagrees",
                algorithm.label()
            );
        }
    }

    #[test]
    fn executor_count_does_not_change_results() {
        let base = hotel_session();
        let df_sql = "SELECT * FROM hotels SKYLINE OF price MIN, rating MAX";
        let expected = base
            .sql(df_sql)
            .unwrap()
            .collect()
            .unwrap()
            .sorted_display();
        for executors in [1usize, 2, 3, 5, 10] {
            let ctx = base.with_shared_catalog(SessionConfig::default().with_executors(executors));
            let got = ctx.sql(df_sql).unwrap().collect().unwrap().sorted_display();
            assert_eq!(got, expected, "{executors} executors");
        }
    }

    #[test]
    fn explain_shows_all_stages() {
        let ctx = hotel_session();
        let df = ctx
            .sql("SELECT price FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap();
        let explain = df.explain().unwrap();
        assert!(explain.contains("== Analyzed Logical Plan =="), "{explain}");
        assert!(
            explain.contains("== Optimized Logical Plan =="),
            "{explain}"
        );
        assert!(explain.contains("== Physical Plan =="), "{explain}");
        assert!(explain.contains("GlobalSkylineExec"), "{explain}");
        let reference = df.explain_with(Algorithm::Reference).unwrap();
        assert!(
            reference.contains("NestedLoopJoinExec [LeftAnti"),
            "{reference}"
        );
    }

    #[test]
    fn timeout_surfaces_as_error() {
        let ctx = hotel_session()
            .with_shared_catalog(SessionConfig::default().with_timeout(std::time::Duration::ZERO));
        let err = ctx
            .sql("SELECT * FROM hotels SKYLINE OF price MIN, rating MAX")
            .unwrap()
            .collect()
            .unwrap_err();
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn single_dimension_skyline_via_minmax() {
        let ctx = hotel_session();
        let df = ctx
            .sql("SELECT * FROM hotels SKYLINE OF price MIN")
            .unwrap();
        let explain = df.explain().unwrap();
        assert!(explain.contains("MinMaxFilterExec"), "{explain}");
        let result = df.collect().unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.rows[0].get(1), &Value::Int64(40));
    }

    #[test]
    fn group_by_skyline_on_aggregate() {
        let ctx = SessionContext::new();
        ctx.register_table(
            "sales",
            Schema::new(vec![
                Field::new("store", DataType::Int64, false),
                Field::new("amount", DataType::Int64, false),
            ]),
            vec![
                Row::new(vec![1.into(), 10.into()]),
                Row::new(vec![1.into(), 20.into()]),
                Row::new(vec![2.into(), 40.into()]),
                Row::new(vec![3.into(), 5.into()]),
                Row::new(vec![3.into(), 5.into()]),
            ],
        )
        .unwrap();
        // Stores on the Pareto front of (few sales, high revenue).
        let result = ctx
            .sql(
                "SELECT store, sum(amount) AS revenue FROM sales GROUP BY store \
                 SKYLINE OF count(*) MIN, sum(amount) MAX ORDER BY store",
            )
            .unwrap()
            .collect()
            .unwrap();
        // store 1: (2, 30); store 2: (1, 40); store 3: (2, 10).
        // Store 2 dominates both others (fewer sales, more revenue).
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.rows[0].get(0), &Value::Int64(2));
    }

    #[test]
    fn table_management() {
        let ctx = hotel_session();
        assert_eq!(ctx.table_names(), vec!["hotels"]);
        assert_eq!(ctx.table_row_count("hotels"), Some(5));
        assert!(ctx.deregister_table("hotels"));
        assert!(ctx.table_row_count("hotels").is_none());
    }

    #[test]
    fn dataframe_composition() {
        let ctx = hotel_session();
        let df = ctx
            .table("hotels")
            .unwrap()
            .filter(col("price").lt(lit(85i64)))
            .select(vec![col("price"), col("rating")])
            .skyline(vec![smin(col("price")), smax(col("rating"))])
            .sort(vec![asc(col("price"))])
            .limit(10);
        let result = df.collect().unwrap();
        // Survivors of the filter: (50,7) twice (ties both kept), (80,9),
        // and (40,3) — all Pareto-optimal.
        assert_eq!(result.num_rows(), 4);
        assert_eq!(result.rows[0].get(0), &Value::Int64(40));
        let schema = df.schema().unwrap();
        assert_eq!(schema.len(), 2);
    }

    #[test]
    fn incomplete_data_auto_selects_incomplete_algorithm() {
        let ctx = SessionContext::new();
        ctx.register_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64, true),
                Field::new("b", DataType::Int64, true),
                Field::new("c", DataType::Int64, true),
            ]),
            vec![
                // The Appendix A cycle: skyline must be empty.
                Row::new(vec![1.into(), Value::Null, 10.into()]),
                Row::new(vec![3.into(), 2.into(), Value::Null]),
                Row::new(vec![Value::Null, 5.into(), 3.into()]),
            ],
        )
        .unwrap();
        let df = ctx
            .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
            .unwrap();
        let explain = df.explain().unwrap();
        assert!(
            explain.contains("GlobalSkylineExec [3 dims, incomplete, pairwise merge"),
            "{explain}"
        );
        assert_eq!(df.collect().unwrap().num_rows(), 0);
    }

    #[test]
    fn complete_keyword_forces_complete_algorithm() {
        let ctx = SessionContext::new();
        ctx.register_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64, true),
                Field::new("b", DataType::Int64, true),
            ]),
            vec![Row::new(vec![1.into(), 2.into()])],
        )
        .unwrap();
        let df = ctx
            .sql("SELECT * FROM t SKYLINE OF COMPLETE a MIN, b MIN")
            .unwrap();
        let explain = df.explain().unwrap();
        assert!(
            explain.contains("GlobalSkylineExec") && !explain.contains("Incomplete"),
            "{explain}"
        );
    }
}
