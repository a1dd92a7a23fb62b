//! The TCP layer: an accept loop handing each connection its own
//! thread, speaking the line protocol over buffered reads/writes. All
//! semantics (admission, caches, cancellation) live in
//! [`QueryService`]; this module only frames bytes.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::protocol::{parse_request, sanitize_line, Request};
use crate::service::{QueryService, ServerConfig};

/// Longest request line the server reads, excluding its `\n`. A longer
/// line is answered with one `ERR - request line exceeds …` and its
/// connection is closed, so a client that never sends a newline cannot
/// grow the server's memory without limit.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A running server: an accept-loop thread plus one thread per live
/// connection. Dropping it shuts the listener down.
pub struct SkylineServer {
    service: Arc<QueryService>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SkylineServer {
    /// Bind a loopback listener on an OS-chosen port and start serving
    /// a fresh service built from `config`.
    pub fn start(config: ServerConfig) -> std::io::Result<SkylineServer> {
        Self::start_with_service(QueryService::new(config))
    }

    /// Bind and serve an existing service (whose catalog may already
    /// hold tables).
    pub fn start_with_service(service: Arc<QueryService>) -> std::io::Result<SkylineServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_service = Arc::clone(&service);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // A line protocol sends many small writes (ACK, header,
                // rows); Nagle would hold each behind the peer's delayed
                // ACK, adding ~40 ms per flush.
                let _ = stream.set_nodelay(true);
                let service = Arc::clone(&accept_service);
                std::thread::spawn(move || {
                    // A vanished client is not a server error; any other
                    // I/O failure also just ends this connection.
                    let _ = handle_connection(&service, stream);
                });
            }
        });
        Ok(SkylineServer {
            service,
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (e.g. to register tables or read stats).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Stop accepting connections and join the accept loop. Existing
    /// connections finish on their own threads as their clients
    /// disconnect.
    pub fn shutdown(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SkylineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection until `QUIT`, EOF, an over-long request line,
/// or an I/O error.
fn handle_connection(service: &QueryService, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            writeln!(
                writer,
                "ERR - request line exceeds {MAX_REQUEST_BYTES} bytes"
            )?;
            writer.flush()?;
            break;
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Ok(Request::Query(sql)) => {
                let id = service.register_query();
                // ACK first: the id must reach the client while the
                // query runs, or cancel-by-id could never race it.
                writeln!(writer, "ACK {id}")?;
                writer.flush()?;
                match service.run_query(id, &sql) {
                    Ok(reply) => {
                        writeln!(
                            writer,
                            "OK {id} rows={} result={}",
                            reply.rows.len(),
                            reply.result.label()
                        )?;
                        for row in reply.rows.iter() {
                            writeln!(writer, "{row}")?;
                        }
                        writeln!(writer, "END")?;
                    }
                    Err(e) => writeln!(writer, "ERR {id} {}", sanitize_line(&e.to_string()))?,
                }
            }
            Ok(Request::Cancel(id)) => {
                let delivered = service.cancel_query(id);
                writeln!(writer, "OK cancel {id} delivered={delivered}")?;
            }
            Ok(Request::Insert { table, rows }) => match service.insert(&table, &rows) {
                Ok(count) => writeln!(writer, "OK insert {table} rows={count}")?,
                Err(e) => writeln!(writer, "ERR - {}", sanitize_line(&e.to_string()))?,
            },
            Ok(Request::Delete { table, predicate }) => {
                match service.delete(&table, predicate.as_deref()) {
                    Ok(count) => writeln!(writer, "OK delete {table} rows={count}")?,
                    Err(e) => writeln!(writer, "ERR - {}", sanitize_line(&e.to_string()))?,
                }
            }
            Ok(Request::Drop(table)) => {
                let existed = service.drop_table(&table);
                writeln!(writer, "OK drop {table} existed={existed}")?;
            }
            Ok(Request::Tables) => {
                writeln!(writer, "OK tables {}", service.table_names().join(","))?;
            }
            Ok(Request::Stats) => writeln!(writer, "OK stats {}", service.stats_line())?,
            Ok(Request::Ping) => writeln!(writer, "OK pong")?,
            Ok(Request::Quit) => {
                writeln!(writer, "OK bye")?;
                writer.flush()?;
                break;
            }
            Err(e) => writeln!(writer, "ERR - {}", sanitize_line(&e.to_string()))?,
        }
        writer.flush()?;
    }
    Ok(())
}
