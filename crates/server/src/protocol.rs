//! Request parsing, SQL normalization, and row rendering — the pure
//! (socket-free) half of the wire protocol, unit-testable without a
//! server.

use sparkline::{DataType, Error, QueryResult, Result, Row, Schema, Value};

/// A parsed client request (one wire line).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `QUERY <sql>` — execute SQL, answered with `ACK <id>` then the
    /// outcome.
    Query(String),
    /// `CANCEL <id>` — request cancellation of a running query.
    Cancel(u64),
    /// `INSERT <table> <row>[;<row>...]` — append literal rows.
    Insert {
        /// Target table name.
        table: String,
        /// Rows as unparsed literal strings (parsed against the table
        /// schema by the service).
        rows: Vec<Vec<String>>,
    },
    /// `DELETE <table> [<predicate>]` — delete the rows matching the
    /// predicate (all rows when absent).
    Delete {
        /// Target table name.
        table: String,
        /// Predicate text (parsed as a SQL expression by the service);
        /// `None` deletes every row.
        predicate: Option<String>,
    },
    /// `DROP <table>` — drop a table.
    Drop(String),
    /// `TABLES` — list registered tables.
    Tables,
    /// `STATS` — service counters.
    Stats,
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — close the connection.
    Quit,
}

/// Parse one request line. Errors are client-facing messages.
pub fn parse_request(line: &str) -> Result<Request> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            if rest.is_empty() {
                return Err(Error::plan("QUERY requires SQL text"));
            }
            Ok(Request::Query(rest.to_string()))
        }
        "CANCEL" => {
            let id = rest.parse::<u64>().map_err(|_| {
                Error::plan(format!("CANCEL requires a numeric query id, got '{rest}'"))
            })?;
            Ok(Request::Cancel(id))
        }
        "INSERT" => {
            let (table, rows_text) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| Error::plan("INSERT requires a table name and rows"))?;
            let rows = split_outside_literals(rows_text, ';')?
                .iter()
                .map(|row| {
                    Ok(split_outside_literals(row, ',')?
                        .iter()
                        .map(|v| v.trim().to_string())
                        .collect())
                })
                .collect::<Result<Vec<Vec<String>>>>()?;
            Ok(Request::Insert {
                table: table.to_string(),
                rows,
            })
        }
        "DELETE" => {
            if rest.is_empty() {
                return Err(Error::plan("DELETE requires a table name"));
            }
            let (table, predicate_text) = match rest.split_once(char::is_whitespace) {
                Some((t, p)) => (t, p.trim()),
                None => (rest, ""),
            };
            // The same literal-aware scanner that splits INSERT rows
            // validates the predicate: quotes must balance, and a
            // trailing `;` outside any literal is tolerated (stray text
            // after it is not).
            let parts = split_outside_literals(predicate_text, ';')?;
            if parts[1..].iter().any(|p| !p.trim().is_empty()) {
                return Err(Error::plan(
                    "DELETE predicate must be a single expression (stray ';')",
                ));
            }
            let predicate = parts[0].trim();
            Ok(Request::Delete {
                table: table.to_string(),
                predicate: (!predicate.is_empty()).then(|| predicate.to_string()),
            })
        }
        "DROP" => {
            if rest.is_empty() {
                return Err(Error::plan("DROP requires a table name"));
            }
            Ok(Request::Drop(rest.to_string()))
        }
        "TABLES" => Ok(Request::Tables),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        other => Err(Error::plan(format!("unknown request verb '{other}'"))),
    }
}

/// Split `text` on the occurrences of `sep` *outside* single-quoted
/// string literals, with doubled-quote `''` escapes kept inside their
/// literal — the same literal scanning as [`normalize_sql`], so a value
/// like `'Hotel, The'` or `'a;b'` survives `INSERT` row splitting
/// intact. Always returns at least one (possibly empty) part; an
/// unterminated literal is a client error.
fn split_outside_literals(text: &str, sep: char) -> Result<Vec<String>> {
    let mut parts = vec![String::new()];
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == sep {
            parts.push(String::new());
        } else if c == '\'' {
            let part = parts.last_mut().expect("parts is never empty");
            part.push('\'');
            let mut closed = false;
            while let Some(lc) = chars.next() {
                part.push(lc);
                if lc == '\'' {
                    if chars.peek() == Some(&'\'') {
                        // Escaped quote: consume the second half and
                        // stay inside the literal.
                        part.push(chars.next().expect("peeked"));
                    } else {
                        closed = true;
                        break;
                    }
                }
            }
            if !closed {
                return Err(Error::plan(format!(
                    "unterminated string literal in '{text}'"
                )));
            }
        } else {
            parts.last_mut().expect("parts is never empty").push(c);
        }
    }
    Ok(parts)
}

/// Normalize SQL for cache keying: lowercase and collapse whitespace
/// runs *outside* string literals and quoted identifiers, trim, and drop
/// trailing semicolons. Quoted text is copied verbatim (a doubled `''`
/// inside a literal stays part of it, so `'it''s'` is one literal). Two
/// spellings of the same query share one cache entry; queries differing
/// only inside a literal or a `"quoted identifier"` do not collide.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c == '\'' || c == '"' {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(c);
            while let Some(lc) = chars.next() {
                out.push(lc);
                if lc == c {
                    if chars.peek() == Some(&c) {
                        // Doubled quote: consume the second half and
                        // stay inside the quoted text.
                        out.push(chars.next().unwrap());
                    } else {
                        break;
                    }
                }
            }
        } else if c.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.extend(c.to_lowercase());
        }
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

/// Render result rows as the wire body: one line per row, values
/// tab-separated in their canonical `Display` form. The single
/// rendering used for live results, cached results, and the direct
/// `SessionContext` comparison in tests — byte-identity across cache
/// hits and misses holds by construction.
pub fn render_rows(result: &QueryResult) -> Vec<String> {
    render_plain_rows(&result.rows)
}

/// Render bare rows with the same formatting as [`render_rows`] — the
/// maintained-view layer uses this so a delta-refreshed cache entry is
/// rendered identically to an engine-produced one.
pub fn render_plain_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

/// Parse `INSERT` literal rows against a table schema. Literals:
/// `NULL` (case-insensitive), integers, floats, `'quoted text'` (with
/// `''` escapes) or bare text for string columns, `true`/`false` for
/// booleans.
pub fn parse_literal_rows(table: &str, schema: &Schema, rows: &[Vec<String>]) -> Result<Vec<Row>> {
    rows.iter()
        .map(|literals| {
            if literals.len() != schema.len() {
                return Err(Error::plan(format!(
                    "table '{table}': INSERT row has {} values, schema has {} columns",
                    literals.len(),
                    schema.len()
                )));
            }
            let values = literals
                .iter()
                .zip(schema.fields())
                .map(|(lit, field)| parse_literal(lit, field.data_type(), field.name()))
                .collect::<Result<Vec<Value>>>()?;
            Ok(Row::new(values))
        })
        .collect()
}

fn parse_literal(lit: &str, ty: DataType, column: &str) -> Result<Value> {
    if lit.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    let parse_err =
        |lit: &str| Error::plan(format!("column '{column}': cannot parse '{lit}' as {ty}"));
    match ty {
        DataType::Int64 => lit
            .parse::<i64>()
            .map(Value::Int64)
            .map_err(|_| parse_err(lit)),
        DataType::Float64 => lit
            .parse::<f64>()
            .map(Value::Float64)
            .map_err(|_| parse_err(lit)),
        DataType::Boolean => match lit.to_ascii_lowercase().as_str() {
            "true" => Ok(Value::Boolean(true)),
            "false" => Ok(Value::Boolean(false)),
            _ => Err(parse_err(lit)),
        },
        DataType::Utf8 => {
            let text = if lit.len() >= 2 && lit.starts_with('\'') && lit.ends_with('\'') {
                lit[1..lit.len() - 1].replace("''", "'")
            } else {
                lit.to_string()
            };
            Ok(Value::str(text))
        }
        DataType::Null => Ok(Value::Null),
    }
}

/// Fold a (possibly multi-line) error message onto one wire line.
pub fn sanitize_line(message: &str) -> String {
    message.replace(['\r', '\n'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline::Field;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("query SELECT 1 FROM t").unwrap(),
            Request::Query("SELECT 1 FROM t".to_string())
        );
        assert_eq!(parse_request("CANCEL 42").unwrap(), Request::Cancel(42));
        assert_eq!(
            parse_request("INSERT hotels 1,2.5,'x';3,NULL,'y'").unwrap(),
            Request::Insert {
                table: "hotels".to_string(),
                rows: vec![
                    vec!["1".into(), "2.5".into(), "'x'".into()],
                    vec!["3".into(), "NULL".into(), "'y'".into()],
                ],
            }
        );
        assert_eq!(
            parse_request("DROP hotels").unwrap(),
            Request::Drop("hotels".to_string())
        );
        assert_eq!(parse_request("tables").unwrap(), Request::Tables);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        assert!(parse_request("EXPLODE now").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("CANCEL abc").is_err());
    }

    #[test]
    fn insert_splitting_is_quote_aware() {
        // Regression: a Utf8 literal containing ',' or ';' must not be
        // torn into extra values or rows.
        assert_eq!(
            parse_request("INSERT hotels 1,'Hotel, The';2,'a;b'").unwrap(),
            Request::Insert {
                table: "hotels".to_string(),
                rows: vec![
                    vec!["1".into(), "'Hotel, The'".into()],
                    vec!["2".into(), "'a;b'".into()],
                ],
            }
        );
        // Escaped quotes stay inside their literal.
        assert_eq!(
            parse_request("INSERT t 1,'it''s, fine'").unwrap(),
            Request::Insert {
                table: "t".to_string(),
                rows: vec![vec!["1".into(), "'it''s, fine'".into()]],
            }
        );
        // An unterminated literal is a client error, not a silent tear.
        assert!(parse_request("INSERT t 1,'oops").is_err());
    }

    #[test]
    fn delete_verb_parses() {
        assert_eq!(
            parse_request("DELETE hotels price > 100;").unwrap(),
            Request::Delete {
                table: "hotels".to_string(),
                predicate: Some("price > 100".to_string()),
            }
        );
        assert_eq!(
            parse_request("delete hotels").unwrap(),
            Request::Delete {
                table: "hotels".to_string(),
                predicate: None,
            }
        );
        // The predicate scanner is literal-aware: ';' inside a literal
        // is fine, a stray one outside is not, unbalanced quotes error.
        assert_eq!(
            parse_request("DELETE t name = 'a;b'").unwrap(),
            Request::Delete {
                table: "t".to_string(),
                predicate: Some("name = 'a;b'".to_string()),
            }
        );
        assert!(parse_request("DELETE t a = 1; b = 2").is_err());
        assert!(parse_request("DELETE t name = 'oops").is_err());
        assert!(parse_request("DELETE").is_err());
    }

    #[test]
    fn normalization_collapses_outside_literals_only() {
        assert_eq!(
            normalize_sql("  SELECT  *\n FROM   Hotels ; "),
            "select * from hotels"
        );
        // Literal content (case, spacing) is preserved.
        assert_eq!(
            normalize_sql("SELECT * FROM t WHERE city = 'Graz  AT'"),
            "select * from t where city = 'Graz  AT'"
        );
        // Doubled-quote escape does not end the literal: the AND here is
        // literal text and must keep its case.
        assert_eq!(
            normalize_sql("SELECT 'it''s  AND' FROM t"),
            "select 'it''s  AND' from t"
        );
        // Distinct literals must not collide after normalization.
        assert_ne!(
            normalize_sql("SELECT 'A' FROM t"),
            normalize_sql("SELECT 'a' FROM t")
        );
        // Quoted identifiers are copied verbatim too: "a b" and "a  b"
        // name different columns.
        assert_eq!(
            normalize_sql(r#"SELECT  "a  B" FROM T"#),
            r#"select "a  B" from t"#
        );
        assert_ne!(
            normalize_sql(r#"SELECT "a b" FROM t"#),
            normalize_sql(r#"SELECT "a  b" FROM t"#)
        );
    }

    #[test]
    fn literal_row_parsing() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("price", DataType::Float64, true),
            Field::new("name", DataType::Utf8, true),
        ]);
        let rows = parse_literal_rows(
            "t",
            &schema,
            &[vec!["7".into(), "null".into(), "'it''s'".into()]],
        )
        .unwrap();
        assert_eq!(
            rows[0].values(),
            &[Value::Int64(7), Value::Null, Value::str("it's")]
        );
        assert!(parse_literal_rows("t", &schema, &[vec!["7".into()]]).is_err());
        assert!(
            parse_literal_rows("t", &schema, &[vec!["x".into(), "1".into(), "y".into()]]).is_err()
        );
    }
}
