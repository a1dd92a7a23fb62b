//! End-to-end SQL feature coverage of the engine substrate: projections,
//! filters, joins, aggregates, sorting, limits, distinct, subqueries —
//! the machinery the paper's complex queries (Appendix E) rely on.

use sparkline::{DataType, Field, Row, Schema, SessionContext, Value};

fn session() -> SessionContext {
    let ctx = SessionContext::new();
    ctx.register_table(
        "orders",
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("customer", DataType::Utf8, false),
            Field::new("amount", DataType::Float64, false),
            Field::new("region", DataType::Utf8, true),
        ]),
        vec![
            Row::new(vec![1.into(), "ada".into(), 10.0.into(), "eu".into()]),
            Row::new(vec![2.into(), "ada".into(), 30.0.into(), "eu".into()]),
            Row::new(vec![3.into(), "bob".into(), 20.0.into(), "us".into()]),
            Row::new(vec![4.into(), "bob".into(), 5.5.into(), Value::Null]),
            Row::new(vec![5.into(), "eve".into(), 99.0.into(), "us".into()]),
        ],
    )
    .unwrap();
    ctx.register_table(
        "customers",
        Schema::new(vec![
            Field::new("name", DataType::Utf8, false),
            Field::new("tier", DataType::Int64, false),
        ]),
        vec![
            Row::new(vec!["ada".into(), 1.into()]),
            Row::new(vec!["bob".into(), 2.into()]),
            // eve has no customer record (exercises outer joins).
        ],
    )
    .unwrap();
    ctx
}

fn run(ctx: &SessionContext, sql: &str) -> Vec<String> {
    ctx.sql(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .collect()
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .sorted_display()
}

#[test]
fn projection_arithmetic_aliases() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT id, amount * 2 AS double_amount FROM orders WHERE id = 1",
    );
    assert_eq!(rows, vec!["(1, 20.0)"]);
}

#[test]
fn where_with_string_and_null_predicates() {
    let ctx = session();
    assert_eq!(
        run(&ctx, "SELECT id FROM orders WHERE region = 'us'").len(),
        2
    );
    assert_eq!(
        run(&ctx, "SELECT id FROM orders WHERE region IS NULL"),
        vec!["(4)"]
    );
    assert_eq!(
        run(&ctx, "SELECT id FROM orders WHERE region IS NOT NULL").len(),
        4
    );
}

#[test]
fn group_by_having_order_limit() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT customer, count(*) AS n, sum(amount) AS total FROM orders \
         GROUP BY customer HAVING count(*) > 1 ORDER BY total DESC LIMIT 1",
    );
    assert_eq!(rows, vec!["(ada, 2, 40.0)"]);
}

#[test]
fn global_aggregates() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT count(*), min(amount), max(amount), avg(amount), count(region) FROM orders",
    );
    assert_eq!(rows, vec!["(5, 5.5, 99.0, 32.9, 4)"]);
}

#[test]
fn inner_join_and_qualified_stars() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT orders.id, customers.tier FROM orders \
         JOIN customers ON orders.customer = customers.name ORDER BY orders.id",
    );
    assert_eq!(rows.len(), 4, "eve's orders drop out");
}

#[test]
fn left_outer_join_pads_missing_partner() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT orders.id, customers.tier FROM orders \
         LEFT OUTER JOIN customers ON orders.customer = customers.name \
         WHERE orders.id = 5",
    );
    assert_eq!(rows, vec!["(5, NULL)"]);
}

#[test]
fn using_join_merges_columns() {
    let ctx = session();
    ctx.register_table(
        "regions",
        Schema::new(vec![
            Field::new("region", DataType::Utf8, false),
            Field::new("vat", DataType::Float64, false),
        ]),
        vec![
            Row::new(vec!["eu".into(), 0.2.into()]),
            Row::new(vec!["us".into(), 0.1.into()]),
        ],
    )
    .unwrap();
    let rows = run(
        &ctx,
        "SELECT id, region, vat FROM orders JOIN regions USING (region) ORDER BY id",
    );
    assert_eq!(rows.len(), 4);
    assert!(rows[0].starts_with("(1, eu, 0.2"));
}

#[test]
fn derived_table_aggregation() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT t.customer FROM (SELECT customer, sum(amount) AS s FROM orders \
         GROUP BY customer) t WHERE t.s > 30 ORDER BY t.customer",
    );
    assert_eq!(rows, vec!["(ada)", "(eve)"]);
}

#[test]
fn exists_and_not_exists_subqueries() {
    let ctx = session();
    let with_customer = run(
        &ctx,
        "SELECT id FROM orders AS o WHERE EXISTS( \
           SELECT * FROM customers AS c WHERE c.name = o.customer)",
    );
    assert_eq!(with_customer.len(), 4);
    let without_customer = run(
        &ctx,
        "SELECT id FROM orders AS o WHERE NOT EXISTS( \
           SELECT * FROM customers AS c WHERE c.name = o.customer)",
    );
    assert_eq!(without_customer, vec!["(5)"]);
}

#[test]
fn select_distinct() {
    let ctx = session();
    assert_eq!(run(&ctx, "SELECT DISTINCT customer FROM orders").len(), 3);
}

#[test]
fn order_by_unselected_column() {
    let ctx = session();
    let rows = run(&ctx, "SELECT id FROM orders ORDER BY amount DESC LIMIT 2");
    assert_eq!(rows.len(), 2);
    assert!(rows.contains(&"(5)".to_string()));
    assert!(rows.contains(&"(2)".to_string()));
}

#[test]
fn ifnull_and_coalesce_functions() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT id, ifnull(region, 'unknown') FROM orders WHERE id = 4",
    );
    assert_eq!(rows, vec!["(4, unknown)"]);
    let rows = run(
        &ctx,
        "SELECT coalesce(NULL, region, 'x') FROM orders WHERE id = 1",
    );
    assert_eq!(rows, vec!["(eu)"]);
}

#[test]
fn cast_expression() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT CAST(amount AS BIGINT) FROM orders WHERE id = 3",
    );
    assert_eq!(rows, vec!["(20)"]);
}

#[test]
fn cross_join_cardinality() {
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT orders.id, customers.name FROM orders, customers",
    );
    assert_eq!(rows.len(), 10);
}

#[test]
fn table_less_select() {
    let ctx = session();
    assert_eq!(run(&ctx, "SELECT 1 + 1 AS two"), vec!["(2)"]);
}

#[test]
fn values_rows_of_the_wrong_width_are_a_plan_error() {
    use sparkline_plan::LogicalPlanBuilder;
    let ctx = session();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
    ])
    .into_ref();
    let good = Row::new(vec![1.into(), 2.into()]);
    for bad in [
        Row::new(vec![3.into()]),
        Row::new(vec![3.into(), 4.into(), 5.into()]),
    ] {
        let plan = LogicalPlanBuilder::values(schema.clone(), vec![good.clone(), bad.clone()])
            .build()
            .unwrap();
        let err = ctx.execute_plan(&plan).unwrap_err();
        assert!(err.to_string().contains("values"), "{bad:?}: {err}");
    }
    assert_eq!(run(&ctx, "SELECT 1 + 1 AS two"), vec!["(2)"]);
}

#[test]
fn division_by_zero_yields_null() {
    let ctx = session();
    assert_eq!(run(&ctx, "SELECT 1 / 0"), vec!["(NULL)"]);
}

#[test]
fn skyline_composes_with_every_feature() {
    // Skyline over a join + aggregate + having, below order by / limit.
    let ctx = session();
    let rows = run(
        &ctx,
        "SELECT customer, sum(amount) AS total FROM orders \
         GROUP BY customer HAVING count(*) >= 1 \
         SKYLINE OF count(*) MIN, sum(amount) MAX \
         ORDER BY customer LIMIT 10",
    );
    // (ada: n=2,total=40), (bob: n=2,total=25.5), (eve: n=1,total=99):
    // eve dominates both (fewer orders, higher total).
    assert_eq!(rows, vec!["(eve, 99.0)"]);
}
