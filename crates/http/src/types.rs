//! Shared HTTP-layer types: versions, requests, response catalog, events.

use std::collections::HashMap;
use std::sync::Arc;

use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::{CloseReason, MsgTag};

/// HTTP protocol versions distinguished by the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HttpVersion {
    /// HTTP/1.1 (the paper's "Others" row, together with 1.0/0.9).
    H1,
    /// HTTP/2 over TLS/TCP.
    H2,
    /// HTTP/3 over QUIC.
    H3,
}

impl std::fmt::Display for HttpVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpVersion::H1 => write!(f, "http/1.1"),
            HttpVersion::H2 => write!(f, "h2"),
            HttpVersion::H3 => write!(f, "h3"),
        }
    }
}

/// A request as the client sees it: a globally unique id plus the
/// compressed request-header size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMeta {
    /// Globally unique request id (also the HAR entry id).
    pub id: u64,
    /// Compressed request-header bytes (HPACK/QPACK output size).
    pub header_bytes: u64,
}

/// Scheduling priority of a response: lower values are served first
/// (Chrome's urgency scale collapsed to three classes).
pub mod priority {
    /// Render-blocking: documents, scripts, stylesheets, fonts.
    pub const HIGH: u8 = 0;
    /// Default: XHR/fetch and everything unclassified.
    pub const NORMAL: u8 = 1;
    /// Late visual content: images and media.
    pub const LOW: u8 = 2;
}

/// What the server returns for one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseSpec {
    /// Compressed response-header bytes.
    pub header_bytes: u64,
    /// Response body bytes.
    pub body_bytes: u64,
    /// Server processing time before the first response byte (the "wait"
    /// component, excluding propagation).
    pub processing: SimDuration,
    /// Scheduling priority (see [`priority`]); concurrent responses of a
    /// lower class are served only when no higher class has data.
    pub priority: u8,
}

/// Immutable lookup table from request id to [`ResponseSpec`]; one per
/// server, shared by all of its connections.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: HashMap<u64, ResponseSpec>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers the response for a request id, replacing any previous
    /// registration.
    pub fn register(&mut self, id: u64, spec: ResponseSpec) {
        self.entries.insert(id, spec);
    }

    /// Looks up the response for a request id.
    pub fn get(&self, id: u64) -> Option<ResponseSpec> {
        self.entries.get(&id).copied()
    }

    /// Number of registered responses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wraps the catalog for sharing across a server's connections.
    pub fn into_shared(self) -> Arc<Catalog> {
        Arc::new(self)
    }
}

/// Events surfaced by HTTP client connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpEvent {
    /// The connection is ready for requests (handshake complete).
    Connected {
        /// Completion time.
        at: SimTime,
    },
    /// Response headers for `id` arrived (first byte of the response).
    ResponseHeaders {
        /// Request id.
        id: u64,
        /// Arrival time.
        at: SimTime,
    },
    /// The full response body for `id` arrived.
    ResponseComplete {
        /// Request id.
        id: u64,
        /// Arrival time.
        at: SimTime,
    },
    /// The server issued a session ticket for this connection's domain.
    TicketIssued {
        /// Receipt time.
        at: SimTime,
    },
    /// The transport under this connection closed itself (handshake or
    /// idle timeout). Any response still outstanding on it is stranded
    /// and must be re-dispatched elsewhere by the browser.
    ConnectionClosed {
        /// Close time.
        at: SimTime,
        /// Why the transport gave up.
        reason: CloseReason,
    },
}

/// Per-message framing overhead added by HTTP/2 and HTTP/3 (frame header
/// plus field-section framing).
pub(crate) const FRAME_OVERHEAD: u64 = 9;

// Message-tag encoding: each request id owns four tags.
const KIND_REQUEST: u64 = 0;
const KIND_RESP_HEADERS: u64 = 1;
const KIND_RESP_DONE: u64 = 2;
const KIND_RESP_CHUNK: u64 = 3;

/// What a delivered message tag means at the HTTP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TagKind {
    /// A request's header block.
    Request(u64),
    /// A response's header block.
    ResponseHeaders(u64),
    /// The final chunk of a response body.
    ResponseDone(u64),
    /// An intermediate body chunk (progress only).
    ResponseChunk(u64),
}

/// Encodes the request-headers tag for `id`.
pub(crate) fn request_tag(id: u64) -> MsgTag {
    MsgTag(id * 4 + KIND_REQUEST)
}

/// Encodes the response-headers tag for `id`.
pub(crate) fn response_headers_tag(id: u64) -> MsgTag {
    MsgTag(id * 4 + KIND_RESP_HEADERS)
}

/// Encodes the final-body-chunk tag for `id`.
pub(crate) fn response_done_tag(id: u64) -> MsgTag {
    MsgTag(id * 4 + KIND_RESP_DONE)
}

/// Encodes an intermediate-body-chunk tag for `id`.
pub(crate) fn response_chunk_tag(id: u64) -> MsgTag {
    MsgTag(id * 4 + KIND_RESP_CHUNK)
}

/// Decodes a message tag back to its HTTP meaning.
pub(crate) fn decode_tag(tag: MsgTag) -> TagKind {
    let id = tag.0 / 4;
    match tag.0 % 4 {
        KIND_REQUEST => TagKind::Request(id),
        KIND_RESP_HEADERS => TagKind::ResponseHeaders(id),
        KIND_RESP_DONE => TagKind::ResponseDone(id),
        _ => TagKind::ResponseChunk(id),
    }
}

/// The client-side event a delivered response tag stands for: headers
/// or completion; an intermediate body chunk is progress only.
pub(crate) fn response_event(tag: MsgTag, at: SimTime) -> Option<HttpEvent> {
    match decode_tag(tag) {
        TagKind::ResponseHeaders(id) => Some(HttpEvent::ResponseHeaders { id, at }),
        TagKind::ResponseDone(id) => Some(HttpEvent::ResponseComplete { id, at }),
        TagKind::ResponseChunk(_) => None,
        TagKind::Request(id) => {
            debug_assert!(false, "request {id} echoed to client");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for id in [0u64, 1, 7, 123_456] {
            assert_eq!(decode_tag(request_tag(id)), TagKind::Request(id));
            assert_eq!(
                decode_tag(response_headers_tag(id)),
                TagKind::ResponseHeaders(id)
            );
            assert_eq!(decode_tag(response_done_tag(id)), TagKind::ResponseDone(id));
            assert_eq!(
                decode_tag(response_chunk_tag(id)),
                TagKind::ResponseChunk(id)
            );
        }
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        cat.register(
            5,
            ResponseSpec {
                header_bytes: 200,
                body_bytes: 10_000,
                processing: SimDuration::from_millis(2),
                priority: crate::types::priority::NORMAL,
            },
        );
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get(5).unwrap().body_bytes, 10_000);
        assert!(cat.get(6).is_none());
    }

    #[test]
    fn version_display() {
        assert_eq!(HttpVersion::H1.to_string(), "http/1.1");
        assert_eq!(HttpVersion::H2.to_string(), "h2");
        assert_eq!(HttpVersion::H3.to_string(), "h3");
    }
}
