//! A blocking client for the wire protocol.
//!
//! [`NetClient`] owns one TCP connection. The low-level [`NetClient::send`]
//! / [`NetClient::recv`] pair supports pipelining (several requests in
//! flight, replies matched by correlation id by the caller); the
//! high-level helpers ([`NetClient::query`], [`NetClient::query_in_session`],
//! [`NetClient::stats_json`], [`NetClient::reset_stats`]) are strictly
//! request-reply and surface load shedding as [`NetError::Busy`].

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::proto::{BusyScope, NetRequest, NetResponse, ProtoError};
use qkb_serve::{QueryRequest, Served};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The connection failed (or the server closed it).
    Io(io::Error),
    /// A response frame was malformed.
    Frame(FrameError),
    /// A response payload did not decode.
    Proto(ProtoError),
    /// The server shed the request — back off and retry.
    Busy(BusyScope),
    /// The server reported a request-level error.
    Server(String),
    /// The server replied with a different message type (or id) than
    /// the request called for.
    UnexpectedResponse,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "connection error: {e}"),
            NetError::Frame(e) => write!(f, "bad response frame: {e}"),
            NetError::Proto(e) => write!(f, "bad response payload: {e}"),
            NetError::Busy(BusyScope::Connection) => write!(f, "shed: connection budget full"),
            NetError::Busy(BusyScope::Global) => write!(f, "shed: server watermark reached"),
            NetError::Server(m) => write!(f, "server error: {m}"),
            NetError::UnexpectedResponse => write!(f, "response did not match the request"),
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

/// A successful query reply.
#[derive(Clone, Debug)]
pub struct NetAnswer {
    /// How the backing KB was obtained.
    pub served: Served,
    /// Documents behind the answering KB.
    pub n_docs: u64,
    /// Facts in the answering KB.
    pub n_facts: u64,
    /// Ranked answers (or rendered facts for entity seeds).
    pub answers: Vec<String>,
}

/// One connection to a [`crate::QkbNetServer`].
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    max_frame: u32,
}

impl NetClient {
    /// Connects with the default frame-size bound.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are whole frames flushed at once; pipelined ones must
        // not wait for the server's ACK of the previous one.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
            max_frame: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Sends one request (flushes immediately) and returns its
    /// correlation id, without waiting for the reply — the pipelining
    /// primitive.
    pub fn send(&mut self, req: &NetRequest) -> Result<u64, NetError> {
        let (kind, payload) = req.encode();
        frame::write_frame(&mut self.writer, kind, &payload)?;
        self.writer.flush()?;
        Ok(req.id())
    }

    /// Reads the next response frame, whatever request it answers.
    pub fn recv(&mut self) -> Result<NetResponse, NetError> {
        let f = frame::read_frame(&mut self.reader, self.max_frame)?;
        Ok(NetResponse::decode(
            f.kind,
            &f.payload,
            self.max_frame as usize,
        )?)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Strict request-reply: send, then receive the matching response.
    fn call(&mut self, req: NetRequest) -> Result<NetResponse, NetError> {
        let id = self.send(&req)?;
        let resp = self.recv()?;
        let got = match &resp {
            NetResponse::Answer { id, .. }
            | NetResponse::StatsJson { id, .. }
            | NetResponse::Ok { id }
            | NetResponse::Busy { id, .. }
            | NetResponse::Error { id, .. } => *id,
        };
        if got != id {
            return Err(NetError::UnexpectedResponse);
        }
        match resp {
            NetResponse::Busy { scope, .. } => Err(NetError::Busy(scope)),
            NetResponse::Error { message, .. } => Err(NetError::Server(message)),
            other => Ok(other),
        }
    }

    fn expect_answer(resp: NetResponse) -> Result<NetAnswer, NetError> {
        match resp {
            NetResponse::Answer {
                served,
                n_docs,
                n_facts,
                answers,
                ..
            } => Ok(NetAnswer {
                served,
                n_docs,
                n_facts,
                answers,
            }),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Stateless query.
    pub fn query(&mut self, request: QueryRequest) -> Result<NetAnswer, NetError> {
        let id = self.fresh_id();
        Self::expect_answer(self.call(NetRequest::Query { id, request })?)
    }

    /// Session-scoped query (the session is created on first use and
    /// its KB grows monotonically across calls).
    pub fn query_in_session(
        &mut self,
        session: &str,
        request: QueryRequest,
    ) -> Result<NetAnswer, NetError> {
        let id = self.fresh_id();
        Self::expect_answer(self.call(NetRequest::QueryInSession {
            id,
            session: session.to_string(),
            request,
        })?)
    }

    /// The server's stats snapshot as a JSON document.
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        let id = self.fresh_id();
        match self.call(NetRequest::Stats { id })? {
            NetResponse::StatsJson { json, .. } => Ok(json),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Zeroes the server's monotonic counters (benchmark phase boundary).
    pub fn reset_stats(&mut self) -> Result<(), NetError> {
        let id = self.fresh_id();
        match self.call(NetRequest::ResetStats { id })? {
            NetResponse::Ok { .. } => Ok(()),
            _ => Err(NetError::UnexpectedResponse),
        }
    }
}
