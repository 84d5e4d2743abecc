//! Application-protocol payload builders.
//!
//! OLDI requests "have a predefined format, following a standardized
//! universal protocol" (paper §4.1) — that is what makes them detectable
//! from their first bytes. This module builds realistic-enough payloads
//! for two protocols:
//!
//! * HTTP/1.1 request lines (`GET`, `HEAD`, `POST`, `PUT`) for the
//!   Apache-like workload;
//! * the Memcached text protocol (`get`, `set`) for the Memcached-like
//!   workload.

use crate::bytes::Bytes;
use std::fmt::Display;
use std::io::Write;

/// Appends an HTTP/1.1 request line and minimal headers for `method` and
/// `path` to `out`. [`HttpRequest::to_payload`] and the simulated clients
/// both write through this, so their bytes cannot drift apart.
pub fn write_http_request(out: &mut Vec<u8>, method: HttpMethod, path: impl Display) {
    write!(
        out,
        "{} {path} HTTP/1.1\r\nHost: server\r\nUser-Agent: ncap-sim\r\nAccept: */*\r\n\r\n",
        method.token(),
    )
    .expect("writing to a Vec cannot fail");
}

/// Appends a Memcached text-protocol command for `key` to `out`: `get`
/// when `set_value_len` is `None`, else `set` carrying that many value
/// bytes. [`MemcachedRequest::to_payload`] and the simulated clients both
/// write through this.
pub fn write_memcached_request(out: &mut Vec<u8>, key: impl Display, set_value_len: Option<usize>) {
    match set_value_len {
        None => write!(out, "get {key}\r\n").expect("writing to a Vec cannot fail"),
        Some(len) => {
            write!(out, "set {key} 0 0 {len}\r\n").expect("writing to a Vec cannot fail");
            out.extend(std::iter::repeat_n(b'v', len));
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// HTTP request methods the model understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpMethod {
    /// Latency-critical content fetch.
    Get,
    /// Latency-critical metadata fetch.
    Head,
    /// Content creation; treated as latency-critical by default templates.
    Post,
    /// Content update — the paper's example of a *non*-latency-critical
    /// request type (§4.1).
    Put,
}

impl HttpMethod {
    /// The method token as it appears on the wire.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            HttpMethod::Get => "GET",
            HttpMethod::Head => "HEAD",
            HttpMethod::Post => "POST",
            HttpMethod::Put => "PUT",
        }
    }

    /// First two payload bytes for this method — the template ReqMonitor
    /// registers (paper §4.1 compares two bytes).
    #[must_use]
    pub fn template(self) -> [u8; 2] {
        let b = self.token().as_bytes();
        [b[0], b[1]]
    }
}

/// A buildable HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    method: HttpMethod,
    path: String,
}

impl HttpRequest {
    /// A `GET` request for `path`.
    #[must_use]
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            method: HttpMethod::Get,
            path: path.into(),
        }
    }

    /// A `PUT` request for `path` (non-latency-critical update traffic).
    #[must_use]
    pub fn put(path: impl Into<String>) -> Self {
        HttpRequest {
            method: HttpMethod::Put,
            path: path.into(),
        }
    }

    /// A request with an explicit method.
    #[must_use]
    pub fn with_method(method: HttpMethod, path: impl Into<String>) -> Self {
        HttpRequest {
            method,
            path: path.into(),
        }
    }

    /// The request method.
    #[must_use]
    pub fn method(&self) -> HttpMethod {
        self.method
    }

    /// Serializes the request line + minimal headers to payload bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use netsim::http::HttpRequest;
    /// let p = HttpRequest::get("/a").to_payload();
    /// assert!(p.starts_with(b"GET /a HTTP/1.1\r\n"));
    /// ```
    #[must_use]
    pub fn to_payload(&self) -> Bytes {
        let mut out = Vec::new();
        write_http_request(&mut out, self.method, &self.path);
        Bytes::from(out)
    }
}

/// A buildable Memcached text-protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemcachedRequest {
    key: String,
    set_value_len: Option<usize>,
}

impl MemcachedRequest {
    /// A `get <key>` request (latency-critical).
    #[must_use]
    pub fn get(key: impl Into<String>) -> Self {
        MemcachedRequest {
            key: key.into(),
            set_value_len: None,
        }
    }

    /// A `set <key>` request carrying `value_len` bytes (update traffic).
    #[must_use]
    pub fn set(key: impl Into<String>, value_len: usize) -> Self {
        MemcachedRequest {
            key: key.into(),
            set_value_len: Some(value_len),
        }
    }

    /// `true` for `get` requests.
    #[must_use]
    pub fn is_get(&self) -> bool {
        self.set_value_len.is_none()
    }

    /// Serializes the command to payload bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use netsim::http::MemcachedRequest;
    /// let p = MemcachedRequest::get("user:42").to_payload();
    /// assert!(p.starts_with(b"get user:42\r\n"));
    /// ```
    #[must_use]
    pub fn to_payload(&self) -> Bytes {
        let mut out = Vec::new();
        write_memcached_request(&mut out, &self.key, self.set_value_len);
        Bytes::from(out)
    }

    /// First two payload bytes: `ge` for get, `se` for set.
    #[must_use]
    pub fn template(&self) -> [u8; 2] {
        if self.is_get() {
            *b"ge"
        } else {
            *b"se"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_templates_are_first_two_bytes() {
        for m in [
            HttpMethod::Get,
            HttpMethod::Head,
            HttpMethod::Post,
            HttpMethod::Put,
        ] {
            let payload = HttpRequest::with_method(m, "/x").to_payload();
            assert_eq!([payload[0], payload[1]], m.template());
        }
    }

    #[test]
    fn get_and_put_differ_in_leading_bytes() {
        assert_ne!(HttpMethod::Get.template(), HttpMethod::Put.template());
    }

    #[test]
    fn http_request_is_wellformed() {
        let p = HttpRequest::get("/index.html").to_payload();
        let text = std::str::from_utf8(&p).unwrap();
        assert!(text.starts_with("GET /index.html HTTP/1.1\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn memcached_get_payload() {
        let r = MemcachedRequest::get("k1");
        assert!(r.is_get());
        assert_eq!(r.template(), *b"ge");
        assert_eq!(&r.to_payload()[..], b"get k1\r\n");
    }

    #[test]
    fn memcached_set_carries_value() {
        let r = MemcachedRequest::set("k1", 8);
        assert!(!r.is_get());
        assert_eq!(r.template(), *b"se");
        let p = r.to_payload();
        assert!(p.starts_with(b"set k1 0 0 8\r\n"));
        assert_eq!(p.len(), b"set k1 0 0 8\r\n".len() + 8 + 2);
    }
}
