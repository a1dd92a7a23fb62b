//! A query runs on the tables it planned against, outside the catalog
//! lock: while a long skyline executes, a write to another table and a
//! query over that table go through at once, instead of queueing behind
//! the long query's read lock.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use sparkline::{DataType, Error, Field, Row, Schema, SessionConfig, SessionContext, Value};

/// A table of two `Int64` columns `a` and `b`.
fn pairs(rows: &[(i64, i64)]) -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
    ]);
    let rows = (rows.iter())
        .map(|&(a, b)| Row::new(vec![Value::Int64(a), Value::Int64(b)]))
        .collect();
    (schema, rows)
}

#[test]
fn a_running_query_blocks_no_writer_or_reader() {
    let ctx = SessionContext::new();
    // A staircase: every row is a skyline member, so the skyline's window
    // holds every row and the query runs for many seconds uncancelled.
    let n = 160_000i64;
    let stairs: Vec<(i64, i64)> = (0..n).map(|i| (i, n - i)).collect();
    let (schema, rows) = pairs(&stairs);
    ctx.register_table("big", schema, rows).unwrap();
    let (schema, rows) = pairs(&[(5, 5), (6, 6)]);
    ctx.register_table("small", schema, rows).unwrap();

    // The long query runs on a session sharing the catalog, with its own
    // cancellation flag.
    let long = ctx.with_shared_catalog(SessionConfig::default());
    let (long_tx, long_rx) = mpsc::channel();
    let long_query = {
        let long = long.clone();
        thread::spawn(move || {
            let result =
                (long.sql("SELECT * FROM big SKYLINE OF a MIN, b MIN")).and_then(|df| df.collect());
            long_tx.send(()).ok();
            result
        })
    };
    thread::sleep(Duration::from_millis(500));

    let (tx, rx) = mpsc::channel();
    let writer = ctx.clone();
    thread::spawn(move || {
        let answer = (writer.insert_rows("small", vec![Row::new(vec![1.into(), 1.into()])]))
            .and_then(|_| writer.sql("SELECT * FROM small SKYLINE OF a MIN, b MIN"))
            .and_then(|df| df.collect());
        tx.send(answer).ok();
    });
    let answer = rx.recv_timeout(Duration::from_secs(5));
    let long_was_running = long_rx.try_recv().is_err();
    long.cancel();
    let long_result = long_query.join().expect("the long query panicked");

    let answer = answer.expect("the INSERT and the skyline over `small` waited for the long query");
    assert!(
        long_was_running,
        "the long query ended before the small one answered"
    );
    assert_eq!(answer.unwrap().sorted_display(), vec!["(1, 1)".to_string()]);
    assert!(
        matches!(long_result, Err(Error::Cancelled)),
        "{:?}",
        long_result.map(|r| r.num_rows())
    );
}
