//! Differential suite for incremental skyline maintenance (the PR 10
//! tentpole) and its satellite bugfixes.
//!
//! The core property: after ANY interleaving of inserts and deletes, a
//! [`MaintainedSkyline`]'s skyline is byte-identical to a cold BNL
//! recompute over the surviving rows — exercised across the shared
//! Börzsönyi matrix (3 distributions × dims {2, 4, 8}), under a
//! proptest over random mutation sequences (including the k=0
//! worst case, where every tracked delete forces a rebuild), and
//! end-to-end through the server's maintained-view cache path, where a
//! mutation refreshes a skyline query's result-cache entry by delta and
//! the served bytes must still equal direct engine execution.
//!
//! Regression coverage for the three satellite bugfixes rides along:
//! quote-aware wire INSERT splitting (round-trip of literals containing
//! `,`/`;`/`''`), cancel-vs-error counters, and validated foreign-key
//! registration that no longer bumps the catalog version on failure.

mod common;

use common::{distribution_rows, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_server::{render_rows, QueryService, ServerClient, ServerConfig, SkylineServer};
use sparkline_skyline::{naive_skyline, DominanceChecker, MaintainedSkyline};

/// All-MIN spec over `dims` columns.
fn min_spec(dims: usize) -> SkylineSpec {
    SkylineSpec::new((0..dims).map(SkylineDim::min).collect())
}

/// The cold-recompute oracle: the skyline members of the live rows, in
/// order.
fn recompute(rows: &[Row], dims: usize) -> Vec<Row> {
    naive_skyline(rows, &DominanceChecker::complete(min_spec(dims)))
}

/// Assert the maintained skyline is byte-identical (rows AND order) to
/// a cold recompute over `live`.
fn assert_matches_recompute(sky: &MaintainedSkyline, live: &[Row], dims: usize, at: &str) {
    let maintained: Vec<String> = sky.skyline_rows().iter().map(|r| r.to_string()).collect();
    let cold: Vec<String> = recompute(live, dims)
        .iter()
        .map(|r| r.to_string())
        .collect();
    assert_eq!(maintained, cold, "maintained != recompute {at}");
}

/// Drive one matrix cell through a deterministic insert/delete
/// interleaving, checking byte-identity with the recompute oracle after
/// every single mutation.
fn drive_cell(dist: &str, dims: usize, k: u32, seed: u64) {
    let rows = distribution_rows(dist, seed, 300, dims);
    let (base, tail) = rows.split_at(200);
    let mut sky = MaintainedSkyline::new(min_spec(dims), k, base).unwrap();
    let mut live: Vec<Row> = base.to_vec();
    assert_matches_recompute(&sky, &live, dims, &format!("{dist}/{dims}d seed"));

    // Interleave: two inserts, then one delete from a rolling position.
    let mut next_delete = 7usize;
    for (i, row) in tail.iter().enumerate() {
        sky.apply_insert(row.clone());
        live.push(row.clone());
        if i % 2 == 1 && !live.is_empty() {
            let pos = next_delete % live.len();
            next_delete = next_delete.wrapping_mul(31).wrapping_add(11);
            sky.apply_delete(pos).unwrap();
            live.remove(pos);
        }
        assert_matches_recompute(&sky, &live, dims, &format!("{dist}/{dims}d step {i}"));
    }
    // Drain the table to empty: the delete path must stay exact all the
    // way down (this crosses the erosion budget repeatedly).
    while !live.is_empty() {
        let pos = next_delete % live.len();
        next_delete = next_delete.wrapping_mul(31).wrapping_add(11);
        sky.apply_delete(pos).unwrap();
        live.remove(pos);
        assert_matches_recompute(&sky, &live, dims, &format!("{dist}/{dims}d drain"));
    }
    assert!(sky.is_empty());
}

#[test]
fn maintained_skyline_matches_recompute_across_the_matrix() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            drive_cell(dist, dims, 8, 0xB0E5);
        }
    }
}

#[test]
fn zero_skyband_depth_rebuilds_but_stays_exact() {
    // k = 0 tracks only the skyline itself: every tracked delete
    // exhausts the erosion budget and forces a rebuild — the worst case
    // for the maintenance path, still required to be exact.
    for dist in DISTRIBUTIONS {
        drive_cell(dist, 3, 0, 0xD1CE);
    }
}

/// A view value: mostly small integers and halves (ties and dominance),
/// sometimes NULL, NaN, an infinity or a signed zero.
fn view_value() -> BoxedStrategy<Value> {
    prop_oneof![
        6 => (0i64..12).prop_map(Value::Int64),
        4 => (0i64..24).prop_map(|v| Value::Float64(v as f64 / 2.0)),
        1 => Just(Value::Null),
        1 => Just(Value::Float64(f64::NAN)),
        1 => Just(Value::Float64(f64::INFINITY)),
        1 => Just(Value::Float64(f64::NEG_INFINITY)),
        1 => Just(Value::Float64(-0.0)),
        1 => Just(Value::Float64(0.0)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small datasets and random mutation programs: after every
    /// operation the maintained skyline equals a cold recompute under the
    /// same spec — MIN, MAX and DIFF dimensions over `Float64` columns
    /// (integers mixed in) with NULL, NaN, ±inf and −0.0, or over `Int64`
    /// columns with NULLs.
    #[test]
    fn random_mutation_sequences_stay_exact(
        base in prop::collection::vec(prop::collection::vec(view_value(), 3), 0..40),
        ops in prop::collection::vec((0u8..3, prop::collection::vec(view_value(), 3), 0usize..64), 1..60),
        k in 0u32..4,
        types in prop::collection::vec(0u8..3, 3),
        int_columns in 0u8..2,
    ) {
        let spec = SkylineSpec::new(
            (types.iter().enumerate())
                .map(|(d, ty)| match ty {
                    0 => SkylineDim::min(d),
                    1 => SkylineDim::max(d),
                    _ => SkylineDim::diff(d),
                })
                .collect(),
        );
        let checker = DominanceChecker::complete(spec.clone());
        // `Int64` columns: every value an integer or NULL.
        let to_row = |vals: &Vec<Value>| {
            Row::new(
                vals.iter()
                    .map(|v| match v {
                        Value::Float64(f) if int_columns == 1 && f.is_finite() => {
                            Value::Int64(f.floor() as i64)
                        }
                        Value::Float64(_) if int_columns == 1 => Value::Null,
                        v => v.clone(),
                    })
                    .collect(),
            )
        };
        let base_rows: Vec<Row> = base.iter().map(to_row).collect();
        let mut sky = MaintainedSkyline::new(spec, k, &base_rows).unwrap();
        let mut live = base_rows;
        for (kind, vals, pick) in &ops {
            // kind 0 → insert; 1/2 → delete (when non-empty) so the
            // program is delete-heavy enough to cross erosion budgets.
            if *kind == 0 || live.is_empty() {
                let row = to_row(vals);
                sky.apply_insert(row.clone());
                live.push(row);
            } else {
                let pos = pick % live.len();
                sky.apply_delete(pos).unwrap();
                live.remove(pos);
            }
            let maintained: Vec<String> =
                sky.skyline_rows().iter().map(|r| r.to_string()).collect();
            let cold: Vec<String> =
                naive_skyline(&live, &checker).iter().map(|r| r.to_string()).collect();
            prop_assert_eq!(maintained, cold);
        }
    }
}

// ---------------------------------------------------------------------
// Server integration: the maintained-view cache path
// ---------------------------------------------------------------------

fn hotel_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("price", DataType::Int64, false),
        Field::new("rating", DataType::Int64, false),
    ])
}

fn hotel_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let price = (i * 37) % 1000;
            let rating = ((999 - price) + (i * 13) % 200 - 100).max(0);
            Row::new(vec![
                Value::Int64(i),
                Value::Int64(price),
                Value::Int64(rating),
            ])
        })
        .collect()
}

const SKY: &str = "SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX";

/// A server whose session runs single-executor (one partition keeps the
/// engine's skyline output in arrival order, the order the maintained
/// view reproduces — the view layer validates this at install time and
/// simply declines to install otherwise).
fn view_server(n: i64) -> SkylineServer {
    let session = SessionConfig::default().with_executors(1);
    let ctx = SessionContext::with_config(session.clone());
    ctx.register_table("hotels", hotel_schema(), hotel_rows(n))
        .unwrap();
    let config = ServerConfig {
        session,
        ..ServerConfig::default()
    };
    SkylineServer::start_with_service(QueryService::with_session(ctx, config)).unwrap()
}

#[test]
fn served_results_after_mutations_match_direct_execution() {
    let server = view_server(240);
    let mut client = ServerClient::connect(server.addr()).unwrap();

    let cold = client.query(SKY).unwrap();
    assert_eq!(cold.result_cache, "miss");
    assert_eq!(
        server.service().view_count(),
        1,
        "skyline query must install a maintained view"
    );

    // A mix of inserts (front-joining and dominated) and deletes; after
    // each mutation the served bytes must equal a direct execution on
    // the same catalog, AND be served from the refreshed cache entry.
    let mutations: &[(&str, &str)] = &[
        ("insert", "9001,3,996"),          // joins the front
        ("insert", "9002,999,0"),          // dominated, band only
        ("delete", "price = 3"),           // remove the new champion
        ("insert", "9003,1,1;9004,2,990"), // two at once
        ("delete", "rating < 50"),         // bulk delete
        ("delete", "price = 123456"),      // matches nothing
    ];
    for (kind, arg) in mutations {
        match *kind {
            "insert" => {
                client.insert("hotels", arg).unwrap();
            }
            _ => {
                client.delete("hotels", Some(arg)).unwrap();
            }
        }
        let served = client.query(SKY).unwrap();
        let direct = render_rows(
            &server
                .service()
                .session()
                .sql(SKY)
                .unwrap()
                .collect()
                .unwrap(),
        );
        assert_eq!(
            served.rows, direct,
            "served bytes diverged after {kind} {arg}"
        );
        assert_eq!(
            served.result_cache, "hit",
            "mutation should refresh, not invalidate ({kind} {arg})"
        );
    }
}

#[test]
fn delete_verb_end_to_end() {
    let server = view_server(50);
    let mut client = ServerClient::connect(server.addr()).unwrap();

    // Predicate delete, no-match delete, and delete-all.
    let removed = client.delete("hotels", Some("id < 10")).unwrap();
    assert_eq!(removed, 10);
    assert_eq!(client.delete("hotels", Some("id < 10")).unwrap(), 0);
    let rest = client.delete("hotels", None).unwrap();
    assert_eq!(rest, 40);
    let empty = client.query("SELECT id FROM hotels").unwrap();
    assert!(empty.rows.is_empty());

    // Errors surface cleanly and keep the connection alive.
    assert!(client.delete("nowhere", None).is_err());
    assert!(client.delete("hotels", Some("no_such_col = 1")).is_err());
    client.ping().unwrap();
}

// ---------------------------------------------------------------------
// Satellite bugfix regressions
// ---------------------------------------------------------------------

#[test]
fn quoted_literals_survive_the_wire_round_trip() {
    // Regression: INSERT row splitting used to tear on ',' and ';'
    // inside string literals.
    let session = SessionConfig::default().with_executors(1);
    let ctx = SessionContext::with_config(session.clone());
    ctx.register_table(
        "guests",
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, true),
        ]),
        vec![],
    )
    .unwrap();
    let config = ServerConfig {
        session,
        ..ServerConfig::default()
    };
    let server =
        SkylineServer::start_with_service(QueryService::with_session(ctx, config)).unwrap();
    let mut client = ServerClient::connect(server.addr()).unwrap();

    let count = client
        .insert("guests", "1,'Hotel, The';2,'semi;colon';3,'it''s, fine'")
        .unwrap();
    assert_eq!(count, 3, "three rows, not torn into more");
    let all = client.query("SELECT id, name FROM guests").unwrap();
    assert_eq!(
        all.rows,
        vec![
            "1\tHotel, The".to_string(),
            "2\tsemi;colon".to_string(),
            "3\tit's, fine".to_string(),
        ]
    );

    // The same literal-aware scanning guards the DELETE predicate.
    let removed = client
        .delete("guests", Some("name = 'Hotel, The';"))
        .unwrap();
    assert_eq!(removed, 1);
    assert!(client.insert("guests", "4,'oops").is_err(), "unterminated");
    client.ping().unwrap();
}

#[test]
fn cancelled_queries_do_not_count_as_errors() {
    let ctx = SessionContext::new();
    ctx.register_table("t", hotel_schema(), hotel_rows(50))
        .unwrap();
    let svc = QueryService::with_session(ctx, ServerConfig::default());

    // Cancel delivered before execution: cancelled, not an error.
    let id = svc.register_query();
    assert!(svc.cancel_query(id));
    assert!(svc
        .run_query(id, "SELECT id FROM t")
        .unwrap_err()
        .is_cancelled());

    // A real failure still lands in `errors`.
    let id = svc.register_query();
    assert!(svc.run_query(id, "SELECT nope FROM missing").is_err());

    let stats = svc.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.errors, 1, "{stats:?}");
    let line = svc.stats_line();
    assert!(line.contains("cancelled=1"), "{line}");
    assert!(line.contains("errors=1"), "{line}");
}

#[test]
fn foreign_key_validation_rejects_and_never_bumps() {
    let ctx = SessionContext::new();
    ctx.register_table("t", hotel_schema(), vec![]).unwrap();
    ctx.register_table("u", hotel_schema(), vec![]).unwrap();
    let before = ctx.catalog_version();

    // Unknown table, then unknown column: both plan errors, and the
    // catalog version must not move (no cached generation retired).
    let err = ctx
        .register_foreign_key("t", "id", "missing", "id")
        .unwrap_err();
    assert!(err.to_string().contains("unknown table"), "{err}");
    let err = ctx
        .register_foreign_key("t", "no_such_col", "u", "id")
        .unwrap_err();
    assert!(err.to_string().contains("unknown column"), "{err}");
    assert_eq!(ctx.catalog_version(), before, "failed FK bumped version");

    // A valid declaration registers and bumps exactly once.
    ctx.register_foreign_key("t", "id", "u", "id").unwrap();
    assert_eq!(ctx.catalog_version(), before + 1);
}
