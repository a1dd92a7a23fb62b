//! Integration tests for the multi-tenant query service: concurrent
//! wire clients against direct `SessionContext` execution
//! (byte-identity), cache invalidation across table mutations,
//! mid-query cancel-by-id from a second connection, the bound on a
//! request line, and a memory-budget denial over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_server::{
    render_rows, QueryService, ServerClient, ServerConfig, SkylineServer, MAX_REQUEST_BYTES,
};

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
    // The WHERE conjunct puts a filter under the skyline, which the view
    // matcher declines, so this test pins the invalidation path: every
    // mutation discards the cached generation. (A maintainable query's
    // entry is refreshed by delta instead — covered by
    // tests/incremental_skyline.rs.)
    const FILTERED_SKY: &str = "SELECT price, rating FROM hotels WHERE price >= 0 \
                       SKYLINE OF price MIN, rating MAX";
    let service = QueryService::with_session(ctx, ServerConfig::default());
    let server = SkylineServer::start_with_service(service).unwrap();
    let mut client = ServerClient::connect(server.addr()).unwrap();

    let cold = client.query(FILTERED_SKY).unwrap();
    assert_eq!(cold.result_cache, "miss");
    assert_eq!(server.service().view_count(), 0, "view installed");
    let hot = client.query(FILTERED_SKY).unwrap();
    assert_eq!(hot.result_cache, "hit");
    assert_eq!(hot.rows, cold.rows);

    // An INSERT bumps the catalog version: the next query must re-run,
    // and (0, 1000) beats every existing point into the skyline.
    let count = client.insert("hotels", "9001,0,1000").unwrap();
    assert_eq!(count, 201);
    let after_insert = client.query(FILTERED_SKY).unwrap();
    assert_eq!(after_insert.result_cache, "miss", "stale hit after insert");
    assert!(after_insert.rows.contains(&"0\t1000".to_string()));
    assert_ne!(after_insert.rows, hot.rows);

    // Re-registering the table (another mutation path) invalidates too.
    server
        .service()
        .session()
        .register_table("hotels", hotel_schema(), hotel_rows(10))
        .unwrap();
    let after_replace = client.query(FILTERED_SKY).unwrap();
    assert_eq!(after_replace.result_cache, "miss");

    // DROP: the table is gone — later queries fail, TABLES is empty.
    assert!(client.drop_table("hotels").unwrap());
    assert!(client.query(FILTERED_SKY).is_err());
    assert!(client.tables().unwrap().is_empty());
}

/// `n` hotels on a staircase: price and rating both rise with the id, so
/// under `SKY` (price MIN, rating MAX) no hotel dominates another. The
/// whole table is the skyline, and computing it costs n² dominance tests.
fn staircase_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i), Value::Int64(i)]))
        .collect()
}

#[test]
fn cancel_by_id_reaches_a_running_query_from_another_connection() {
    // 300 000 incomparable rows: 9e10 dominance tests, about 70 s of
    // release-build work on a 2-core x86-64 VM (and far more in a debug
    // build), so the query is still running when the cancel lands. The
    // skyline loops check the control every 1024 candidates, so the
    // cancel is observed within one chunk.
    let ctx = SessionContext::with_config(SessionConfig::default());
    ctx.register_table("hotels", hotel_schema(), staircase_rows(300_000))
        .unwrap();
    let service = QueryService::with_session(ctx, ServerConfig::default());
    let server = SkylineServer::start_with_service(service).unwrap();

    let mut runner = ServerClient::connect(server.addr()).unwrap();
    let mut canceller = ServerClient::connect(server.addr()).unwrap();

    let started = Instant::now();
    let id = runner.send_query(SKY).unwrap();
    // Give the query a moment to get deep into its dominance loops, then
    // cancel it from the second connection.
    std::thread::sleep(Duration::from_millis(100));
    assert!(canceller.cancel(id).unwrap(), "query {id} not found");
    let err = runner.finish_query(id).unwrap_err();
    let message = err.to_string().to_lowercase();
    assert!(message.contains("cancel"), "{err}");
    // Far less than the uncancelled run: the running loops observed it.
    assert!(started.elapsed() < Duration::from_secs(5));

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

#[test]
fn an_over_long_request_line_is_refused_and_its_connection_closed() {
    let server = SkylineServer::start(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One byte past the bound and no newline: a server that buffers
    // until `\n` would wait here forever, growing the line.
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line,
        format!("ERR - request line exceeds {MAX_REQUEST_BYTES} bytes\n")
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "not closed: {line}"
    );

    // The server itself keeps serving new connections.
    let mut client = ServerClient::connect(server.addr()).unwrap();
    client.ping().unwrap();
}

#[test]
fn a_budget_denial_is_one_err_line_and_is_not_cached() {
    let ctx = session_with_hotels(SessionConfig::default(), 200);
    let config = ServerConfig {
        session: SessionConfig::default().with_memory_budget(1),
        ..ServerConfig::default()
    };
    let server =
        SkylineServer::start_with_service(QueryService::with_session(ctx, config)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut request = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
    };
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    for attempt in 1..=2 {
        request(&format!("QUERY {SKY}"));
        let ack = read_line();
        let id = ack
            .strip_prefix("ACK ")
            .unwrap_or_else(|| panic!("attempt {attempt}: {ack:?}"))
            .trim()
            .to_string();
        let err = read_line();
        assert!(
            err.starts_with(&format!("ERR {id} memory budget exhausted")),
            "attempt {attempt}: {err:?}"
        );
        // The next line answers STATS: the query wrote exactly one line
        // after its ACK. Each attempt is a miss that errors again, so the
        // failure was not cached.
        request("STATS");
        let stats = read_line();
        assert!(
            stats.starts_with("OK stats "),
            "attempt {attempt}: {stats:?}"
        );
        for pair in [
            format!("queries={attempt} "),
            "result_hits=0 ".to_string(),
            format!("result_misses={attempt} "),
            format!("errors={attempt} "),
        ] {
            assert!(stats.contains(&pair), "attempt {attempt}: {stats:?}");
        }
    }
    request("PING");
    assert_eq!(read_line(), "OK pong\n");
}
