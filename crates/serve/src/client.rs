//! A minimal blocking HTTP/1.1 client — just enough to talk to
//! [`Server`](crate::server::Server) from the integration tests and the
//! `plurality-load` generator, with keep-alive reuse of one connection.

use crate::http::percent_encode;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// The body, sized by `Content-Length`.
    pub body: String,
}

impl ClientResponse {
    /// The `X-Cache` header, if the server sent one.
    pub fn cache_disposition(&self) -> Option<&str> {
        self.headers.get("x-cache").map(String::as_str)
    }
}

/// One keep-alive connection to a server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            addr,
        })
    }

    /// Sets (or clears) the read timeout on the underlying socket.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends `GET target` and reads the response. On a transport error
    /// the connection is re-established once and the request retried —
    /// the server may have closed an idle keep-alive connection.
    ///
    /// # Errors
    ///
    /// Propagates transport errors after the one reconnect attempt.
    pub fn get(&mut self, target: &str) -> io::Result<ClientResponse> {
        match self.try_get(target) {
            Ok(response) => Ok(response),
            Err(_) => {
                *self = Self::connect(self.addr)?;
                self.try_get(target)
            }
        }
    }

    fn try_get(&mut self, target: &str) -> io::Result<ClientResponse> {
        // One buffer, one write: `write!` on the raw socket would send
        // each format fragment as its own tiny segment.
        let request = format!(
            "GET {target} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr
        );
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = BTreeMap::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing Content-Length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body =
            String::from_utf8(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut buf = Vec::new();
        let n = self.reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Builds the `/run` request target for a spec string and optional seed
/// override, percent-encoding the spec's own grammar characters.
pub fn run_target(spec: &str, seed: Option<u64>) -> String {
    match seed {
        Some(seed) => format!("/run?spec={}&seed={seed}", percent_encode(spec)),
        None => format!("/run?spec={}", percent_encode(spec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_target_escapes_the_spec_grammar() {
        let target = run_target("sync?n=100&k=2", Some(7));
        assert_eq!(target, "/run?spec=sync%3Fn%3D100%26k%3D2&seed=7");
        assert_eq!(run_target("sync", None), "/run?spec=sync");
    }
}
