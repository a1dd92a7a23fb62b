//! A small blocking client for the wire protocol, used by the
//! integration tests and the ext10 bench harness (and handy from
//! examples). One `ServerClient` wraps one connection; it is not
//! thread-safe — open one per client thread, as a real tenant would.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use sparkline::{Error, Result};

/// A successful `QUERY` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// Server-assigned query id (from the `ACK`).
    pub id: u64,
    /// Rendered result rows (tab-separated values, one string per
    /// row) — the byte-identity payload.
    pub rows: Vec<String>,
    /// Result-cache outcome: `hit` or `miss`.
    pub result_cache: String,
}

/// One blocking protocol connection.
pub struct ServerClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServerClient {
    /// Connect to a running [`crate::SkylineServer`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<ServerClient> {
        let stream = TcpStream::connect(addr)?;
        // Line-protocol writes are small; without nodelay each one can
        // stall ~40 ms behind the peer's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ServerClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send_line(&mut self, line: &str) -> Result<()> {
        writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .map_err(|e| Error::execution(format!("client write failed: {e}")))
    }

    fn read_line(&mut self) -> Result<String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| Error::execution(format!("client read failed: {e}")))?;
        if n == 0 {
            return Err(Error::execution("server closed the connection"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Send `QUERY <sql>` and read only the `ACK`, returning the query
    /// id while the query still runs. Pair with
    /// [`finish_query`](Self::finish_query); between the two, another
    /// connection may `CANCEL` this id.
    pub fn send_query(&mut self, sql: &str) -> Result<u64> {
        self.send_line(&format!("QUERY {sql}"))?;
        let ack = self.read_line()?;
        match ack.strip_prefix("ACK ") {
            Some(id) => id
                .trim()
                .parse::<u64>()
                .map_err(|_| Error::execution(format!("malformed ACK line: '{ack}'"))),
            None => Err(Error::execution(format!("expected ACK, got '{ack}'"))),
        }
    }

    /// Read the outcome of a query begun with
    /// [`send_query`](Self::send_query).
    pub fn finish_query(&mut self, id: u64) -> Result<QueryResponse> {
        let header = self.read_line()?;
        if let Some(rest) = header.strip_prefix("ERR ") {
            let message = rest.split_once(' ').map(|(_, m)| m).unwrap_or(rest);
            return Err(Error::execution(message.to_string()));
        }
        let fields: Vec<&str> = header.split_whitespace().collect();
        // "OK <id> rows=<n> result=<r>"
        if fields.len() != 4 || fields[0] != "OK" {
            return Err(Error::execution(format!("malformed header: '{header}'")));
        }
        let field = |prefix: &str, s: &str| -> Result<String> {
            s.strip_prefix(prefix)
                .map(str::to_string)
                .ok_or_else(|| Error::execution(format!("malformed header field: '{s}'")))
        };
        let n: usize = field("rows=", fields[2])?
            .parse()
            .map_err(|_| Error::execution(format!("malformed row count: '{header}'")))?;
        let result_cache = field("result=", fields[3])?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.read_line()?);
        }
        let end = self.read_line()?;
        if end != "END" {
            return Err(Error::execution(format!("expected END, got '{end}'")));
        }
        Ok(QueryResponse {
            id,
            rows,
            result_cache,
        })
    }

    /// Execute SQL and wait for the full response.
    pub fn query(&mut self, sql: &str) -> Result<QueryResponse> {
        let id = self.send_query(sql)?;
        self.finish_query(id)
    }

    /// `CANCEL <id>`: returns whether the server found the query live.
    pub fn cancel(&mut self, id: u64) -> Result<bool> {
        self.send_line(&format!("CANCEL {id}"))?;
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        Ok(line.ends_with("delivered=true"))
    }

    /// `INSERT <table> <rows>`: returns the table's new row count.
    pub fn insert(&mut self, table: &str, rows: &str) -> Result<usize> {
        self.send_line(&format!("INSERT {table} {rows}"))?;
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        line.rsplit_once("rows=")
            .and_then(|(_, n)| n.parse().ok())
            .ok_or_else(|| Error::execution(format!("malformed insert response: '{line}'")))
    }

    /// `DELETE <table> [<predicate>]`: returns the number of removed
    /// rows. `None` deletes every row.
    pub fn delete(&mut self, table: &str, predicate: Option<&str>) -> Result<usize> {
        match predicate {
            Some(pred) => self.send_line(&format!("DELETE {table} {pred}"))?,
            None => self.send_line(&format!("DELETE {table}"))?,
        }
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        line.rsplit_once("rows=")
            .and_then(|(_, n)| n.parse().ok())
            .ok_or_else(|| Error::execution(format!("malformed delete response: '{line}'")))
    }

    /// `DROP <table>`: returns whether the table existed.
    pub fn drop_table(&mut self, table: &str) -> Result<bool> {
        self.send_line(&format!("DROP {table}"))?;
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        Ok(line.ends_with("existed=true"))
    }

    /// `TABLES`: the registered table names.
    pub fn tables(&mut self) -> Result<Vec<String>> {
        self.send_line("TABLES")?;
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        let names = line.strip_prefix("OK tables ").unwrap_or("");
        Ok(names
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect())
    }

    /// `STATS`: the raw counter payload (`key=value` pairs).
    pub fn stats(&mut self) -> Result<String> {
        self.send_line("STATS")?;
        let line = self.read_line()?;
        self.expect_ok(&line)?;
        Ok(line.strip_prefix("OK stats ").unwrap_or(&line).to_string())
    }

    /// `PING` → pong.
    pub fn ping(&mut self) -> Result<()> {
        self.send_line("PING")?;
        let line = self.read_line()?;
        if line == "OK pong" {
            Ok(())
        } else {
            Err(Error::execution(format!("expected pong, got '{line}'")))
        }
    }

    /// `QUIT`: say goodbye and drop the connection.
    pub fn quit(mut self) -> Result<()> {
        self.send_line("QUIT")?;
        let line = self.read_line()?;
        self.expect_ok(&line)
    }

    fn expect_ok(&self, line: &str) -> Result<()> {
        if line.starts_with("OK") {
            Ok(())
        } else {
            let message = line
                .strip_prefix("ERR - ")
                .or_else(|| line.strip_prefix("ERR "))
                .unwrap_or(line);
            Err(Error::execution(message.to_string()))
        }
    }
}
