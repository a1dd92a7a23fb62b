//! Integration tests for the multi-tenant query service: concurrent
//! wire clients against direct `SessionContext` execution
//! (byte-identity), cache invalidation across table mutations, and
//! mid-query cancel-by-id from a second connection.

use std::time::{Duration, Instant};

use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_server::{render_rows, QueryService, ServerClient, ServerConfig, SkylineServer};

/// A deterministic anti-correlated-ish dataset (no RNG needed: a fixed
/// recurrence), large enough that queries do real skyline work.
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

fn hotel_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("price", DataType::Int64, false),
        Field::new("rating", DataType::Int64, false),
    ])
}

fn session_with_hotels(config: SessionConfig, n: i64) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    ctx.register_table("hotels", hotel_schema(), hotel_rows(n))
        .unwrap();
    ctx
}

const SKY: &str = "SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX";

#[test]
fn concurrent_clients_match_direct_execution_byte_for_byte() {
    let ctx = session_with_hotels(SessionConfig::default(), 600);
    // The reference: the same query executed directly on the session,
    // rendered by the same row renderer the server uses.
    let direct = render_rows(&ctx.sql(SKY).unwrap().collect().unwrap());
    assert!(!direct.is_empty());

    let service = QueryService::with_session(ctx, ServerConfig::default());
    let server = SkylineServer::start_with_service(service).unwrap();
    let addr = server.addr();

    // Several spellings that normalize to one cache entry, plus queries
    // issued concurrently from many tenants: every response body must
    // equal the direct rendering, hit or miss.
    let spellings = [
        SKY.to_string(),
        SKY.to_lowercase(),
        format!("  {}  ;", SKY.replace(' ', "  ")),
    ];
    let n_clients = 6;
    let queries_per_client = 4;
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let direct = &direct;
            let spellings = &spellings;
            scope.spawn(move || {
                let mut client = ServerClient::connect(addr).unwrap();
                client.ping().unwrap();
                for q in 0..queries_per_client {
                    let sql = &spellings[(c + q) % spellings.len()];
                    let response = client.query(sql).unwrap();
                    assert_eq!(
                        &response.rows, direct,
                        "client {c} query {q} diverged (result={})",
                        response.result_cache
                    );
                }
                client.quit().unwrap();
            });
        }
    });

    let stats = server.service().stats();
    assert_eq!(stats.queries, (n_clients * queries_per_client) as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.active, 0);
    // All spellings share one key, so at most one cold miss per catalog
    // version can exist; everything else was served from a cache.
    assert!(
        stats.result_hits >= stats.queries - stats.result_misses,
        "{stats:?}"
    );
    assert!(stats.result_hits > 0, "{stats:?}");
}

#[test]
fn result_cache_misses_after_each_table_mutation() {
    let ctx = session_with_hotels(SessionConfig::default(), 200);
    // Maintained views off: this test pins the *baseline* invalidation
    // path, where every mutation discards the cached generation. (With
    // views on, a skyline query's entry is refreshed by delta instead —
    // covered by tests/incremental_skyline.rs.)
    let config = ServerConfig {
        maintained_views: false,
        ..ServerConfig::default()
    };
    let service = QueryService::with_session(ctx, config);
    let server = SkylineServer::start_with_service(service).unwrap();
    let mut client = ServerClient::connect(server.addr()).unwrap();

    let cold = client.query(SKY).unwrap();
    assert_eq!(cold.result_cache, "miss");
    let hot = client.query(SKY).unwrap();
    assert_eq!(hot.result_cache, "hit");
    assert_eq!(hot.rows, cold.rows);

    // An INSERT bumps the catalog version: the next query must re-run,
    // and (0, 1000) beats every existing point into the skyline.
    let count = client.insert("hotels", "9001,0,1000").unwrap();
    assert_eq!(count, 201);
    let after_insert = client.query(SKY).unwrap();
    assert_eq!(after_insert.result_cache, "miss", "stale hit after insert");
    assert!(after_insert.rows.contains(&"0\t1000".to_string()));
    assert_ne!(after_insert.rows, hot.rows);

    // Re-registering the table (another mutation path) invalidates too.
    server
        .service()
        .session()
        .register_table("hotels", hotel_schema(), hotel_rows(10))
        .unwrap();
    let after_replace = client.query(SKY).unwrap();
    assert_eq!(after_replace.result_cache, "miss");

    // DROP: the table is gone — later queries fail, TABLES is empty.
    assert!(client.drop_table("hotels").unwrap());
    assert!(client.query(SKY).is_err());
    assert!(client.tables().unwrap().is_empty());
}

#[test]
fn cancel_by_id_reaches_a_mid_query_backoff_from_another_connection() {
    // Deterministic slow query: full-rate fault injection makes the
    // first scan attempt fail with a retryable fault, and a huge retry
    // backoff parks the query in QueryControl::backoff_wait — exactly
    // where a cancel must land without waiting out the backoff.
    let session_config = SessionConfig::default()
        .with_fault_injection(0xC0FFEE, 1.0)
        .with_max_retries(3)
        .with_retry_backoff(Duration::from_secs(30));
    let config = ServerConfig {
        session: session_config.clone(),
        ..ServerConfig::default()
    };
    let ctx = session_with_hotels(session_config, 200);
    let service = QueryService::with_session(ctx, config);
    let server = SkylineServer::start_with_service(service).unwrap();

    let mut runner = ServerClient::connect(server.addr()).unwrap();
    let mut canceller = ServerClient::connect(server.addr()).unwrap();

    let started = Instant::now();
    let id = runner.send_query(SKY).unwrap();
    // Give the query a moment to hit the injected fault and enter the
    // backoff wait, then cancel it from the second connection.
    std::thread::sleep(Duration::from_millis(100));
    assert!(canceller.cancel(id).unwrap(), "query {id} not found");
    let err = runner.finish_query(id).unwrap_err();
    let message = err.to_string().to_lowercase();
    assert!(message.contains("cancel"), "{err}");
    // Far less than the 30 s backoff: the wait observed the cancel.
    assert!(started.elapsed() < Duration::from_secs(10));

    // The id was deregistered with the query: a second cancel reports
    // not-delivered, and the server keeps answering.
    assert!(!canceller.cancel(id).unwrap());
    canceller.ping().unwrap();
}

#[test]
fn wire_errors_are_single_line_and_connection_survives() {
    let ctx = session_with_hotels(SessionConfig::default(), 50);
    let service = QueryService::with_session(ctx, ServerConfig::default());
    let server = SkylineServer::start_with_service(service).unwrap();
    let mut client = ServerClient::connect(server.addr()).unwrap();

    // Bad SQL errors but keeps the connection usable.
    assert!(client.query("SELECT nope FROM missing").is_err());
    client.ping().unwrap();
    // Bad insert literal errors cleanly.
    assert!(client.insert("hotels", "not-a-number,2,3").is_err());
    // Insert into a missing table errors cleanly.
    assert!(client.insert("nowhere", "1,2,3").is_err());
    // Valid traffic still flows afterwards.
    assert_eq!(client.tables().unwrap(), vec!["hotels".to_string()]);
    let response = client.query(SKY).unwrap();
    assert!(!response.rows.is_empty());
    let stats = client.stats().unwrap();
    assert!(stats.contains("queries=2"), "{stats}");
    assert!(stats.contains("errors=1"), "{stats}");
    assert!(!stats.contains("plan_"), "{stats}");
    client.quit().unwrap();
}
