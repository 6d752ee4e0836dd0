//! The protocol's message vocabulary and its wire format.
//!
//! [`WireRequest`] and [`WireResponse`] are every message a site's server
//! process understands and every answer it gives. Both message-passing
//! runtimes speak them: [`LiveCluster`](crate::LiveCluster) hands the values
//! over its channels unencoded, and [`TcpCluster`](crate::TcpCluster) frames
//! them onto sockets in the compact, hand-rolled binary encoding below.
//! Either way one dispatch, [`Replica::handle`](crate::Replica::handle),
//! serves them. The typed readings of a reply (`into_*`) and the mapping
//! of a [`ScatterRequest`] onto the wire also live here, so both runtimes
//! parse answers the same way. No serialization framework: the messages
//! are a few shapes of integers, byte blocks and site sets, and a fuzzed
//! round-trip property pins the format down.

use crate::backend::{RepairBlocks, RepairPayload, ScatterReply, ScatterRequest};
use blockrep_storage::StorageFault;
use blockrep_types::{BlockData, BlockIndex, SiteId, VersionNumber, VersionVector};
use bytes::{Buf, BufMut};
use std::collections::BTreeSet;
use std::io::{self, Read, Write};

/// Upper bound on a frame, to fail fast on corrupt length prefixes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A request to a site's server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Liveness probe.
    Probe,
    /// Request the site's vote (version number) for a block.
    Vote(BlockIndex),
    /// Fetch a block with its version.
    Fetch(BlockIndex),
    /// Install a block at a version (if newer).
    ApplyWrite(BlockIndex, VersionNumber, BlockData),
    /// Read a block off the local disk.
    ReadLocal(BlockIndex),
    /// Request the full version vector.
    VersionVector,
    /// Figure 5's exchange: here is my vector; send yours plus my missing
    /// blocks.
    RepairPayload(VersionVector),
    /// Install a repair payload.
    ApplyRepair(RepairBlocks),
    /// Request the was-available set.
    GetW,
    /// Replace the was-available set.
    SetW(BTreeSet<SiteId>),
    /// Add one member to the was-available set.
    AddW(SiteId),
    /// Stop serving and exit.
    Shutdown,
    /// Fault injection: install a block but leave it in the broken on-disk
    /// state the fault describes (crash mid-install).
    ApplyWriteFaulty(BlockIndex, VersionNumber, BlockData, StorageFault),
    /// Fault injection: run the restart-time integrity scrub.
    Scrub,
    /// Request the site's votes for a whole run of blocks in one frame.
    VoteMany(Vec<BlockIndex>),
    /// Install a batch of blocks at their versions (each if newer) in one
    /// frame. Same payload shape as [`WireRequest::ApplyRepair`].
    ApplyWriteMany(RepairBlocks),
    /// Read a run of blocks off the local disk in one frame.
    ReadLocalMany(Vec<BlockIndex>),
    /// A trace envelope: the inner request plus the coordinator's causal
    /// identifiers, so the serving site's phase spans stitch into the
    /// coordinator's trace tree. Sent whenever tracing is on and a span
    /// context is live; on TCP it wraps the [`WireRequest::Mux`] envelope.
    Traced {
        /// The coordinator's trace id.
        trace_id: u64,
        /// The span the remote work should be parented under.
        parent_span: u64,
        /// The request being carried (never itself `Traced`).
        inner: Box<WireRequest>,
    },
    /// Fetch a block with its version to serve a read lease. Same payload
    /// and reply shape as [`WireRequest::Fetch`], but a distinct tag so the
    /// chaos suite can fault lease validation without touching quorum
    /// reads.
    FetchLease(BlockIndex),
    /// A multiplexing envelope: the inner request plus a per-connection
    /// request id. The server echoes the id on the matching
    /// [`WireResponse::Mux`] reply, which is what lets a coordinator keep a
    /// window of requests in flight on one connection and demultiplex the
    /// replies by id instead of by arrival order.
    Mux {
        /// Per-connection request id, echoed on the reply.
        id: u64,
        /// The request being carried (never itself `Mux` or `Traced`).
        inner: Box<WireRequest>,
    },
}

/// A site's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Acknowledgement with no payload.
    Ack,
    /// A version number.
    Version(VersionNumber),
    /// A block with its version.
    Block(VersionNumber, BlockData),
    /// Raw block data.
    Data(BlockData),
    /// A version vector.
    Vector(VersionVector),
    /// A repair payload.
    Payload(VersionVector, RepairBlocks),
    /// A was-available set.
    W(BTreeSet<SiteId>),
    /// A plain count (e.g. blocks reset by a scrub).
    Count(u64),
    /// Votes for a batch of blocks, in request order.
    Versions(Vec<VersionNumber>),
    /// Raw data for a batch of blocks, in request order.
    DataMany(Vec<BlockData>),
    /// A multiplexed reply: the inner response tagged with the id of the
    /// [`WireRequest::Mux`] envelope it answers.
    Mux {
        /// The request id this reply answers.
        id: u64,
        /// The response being carried (never itself `Mux`).
        inner: Box<WireResponse>,
    },
}

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn bad(what: &str) -> DecodeError {
    DecodeError(what.to_string())
}

fn need(raw: &[u8], bytes: usize, what: &str) -> Result<(), DecodeError> {
    if raw.len() < bytes {
        Err(bad(what))
    } else {
        Ok(())
    }
}

fn put_data(buf: &mut Vec<u8>, data: &BlockData) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data.as_slice());
}

fn get_data(raw: &mut &[u8]) -> Result<BlockData, DecodeError> {
    need(raw, 4, "data length")?;
    let len = raw.get_u32_le() as usize;
    need(raw, len, "data body")?;
    let mut body = vec![0u8; len];
    raw.copy_to_slice(&mut body);
    Ok(BlockData::from(body))
}

fn put_vv(buf: &mut Vec<u8>, vv: &VersionVector) {
    buf.put_u64_le(vv.len() as u64);
    for (_, v) in vv.iter() {
        buf.put_u64_le(v.as_u64());
    }
}

fn get_vv(raw: &mut &[u8]) -> Result<VersionVector, DecodeError> {
    need(raw, 8, "vector length")?;
    let len = raw.get_u64_le() as usize;
    need(
        raw,
        len.checked_mul(8).ok_or_else(|| bad("vector overflow"))?,
        "vector body",
    )?;
    Ok((0..len)
        .map(|_| VersionNumber::new(raw.get_u64_le()))
        .collect())
}

fn put_blocks(buf: &mut Vec<u8>, blocks: &RepairBlocks) {
    buf.put_u32_le(blocks.len() as u32);
    for (k, v, data) in blocks {
        buf.put_u64_le(k.as_u64());
        buf.put_u64_le(v.as_u64());
        put_data(buf, data);
    }
}

fn get_blocks(raw: &mut &[u8]) -> Result<RepairBlocks, DecodeError> {
    need(raw, 4, "block count")?;
    let count = raw.get_u32_le() as usize;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        need(raw, 16, "block header")?;
        let k = BlockIndex::new(raw.get_u64_le());
        let v = VersionNumber::new(raw.get_u64_le());
        out.push((k, v, get_data(raw)?));
    }
    Ok(out)
}

fn put_sites(buf: &mut Vec<u8>, sites: &BTreeSet<SiteId>) {
    buf.put_u32_le(sites.len() as u32);
    for s in sites {
        buf.put_u32_le(s.as_u32());
    }
}

fn get_sites(raw: &mut &[u8]) -> Result<BTreeSet<SiteId>, DecodeError> {
    need(raw, 4, "site count")?;
    let count = raw.get_u32_le() as usize;
    need(
        raw,
        count.checked_mul(4).ok_or_else(|| bad("site overflow"))?,
        "site body",
    )?;
    Ok((0..count).map(|_| SiteId::new(raw.get_u32_le())).collect())
}

impl WireRequest {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WireRequest::Probe => buf.put_u8(0),
            WireRequest::Vote(k) => {
                buf.put_u8(1);
                buf.put_u64_le(k.as_u64());
            }
            WireRequest::Fetch(k) => {
                buf.put_u8(2);
                buf.put_u64_le(k.as_u64());
            }
            WireRequest::ApplyWrite(k, v, data) => {
                buf.put_u8(3);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(&mut buf, data);
            }
            WireRequest::ReadLocal(k) => {
                buf.put_u8(4);
                buf.put_u64_le(k.as_u64());
            }
            WireRequest::VersionVector => buf.put_u8(5),
            WireRequest::RepairPayload(vv) => {
                buf.put_u8(6);
                put_vv(&mut buf, vv);
            }
            WireRequest::ApplyRepair(blocks) => {
                buf.put_u8(7);
                put_blocks(&mut buf, blocks);
            }
            WireRequest::GetW => buf.put_u8(8),
            WireRequest::SetW(w) => {
                buf.put_u8(9);
                put_sites(&mut buf, w);
            }
            WireRequest::AddW(s) => {
                buf.put_u8(10);
                buf.put_u32_le(s.as_u32());
            }
            WireRequest::Shutdown => buf.put_u8(11),
            WireRequest::ApplyWriteFaulty(k, v, data, fault) => {
                buf.put_u8(12);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(&mut buf, data);
                match fault {
                    StorageFault::Torn { keep } => {
                        buf.put_u8(0);
                        buf.put_u64_le(*keep as u64);
                    }
                    StorageFault::StaleVersion => buf.put_u8(1),
                    StorageFault::WalTorn { keep } => {
                        buf.put_u8(2);
                        buf.put_u64_le(*keep as u64);
                    }
                }
            }
            WireRequest::Scrub => buf.put_u8(13),
            WireRequest::VoteMany(ks) => {
                buf.put_u8(14);
                buf.put_u32_le(ks.len() as u32);
                for k in ks {
                    buf.put_u64_le(k.as_u64());
                }
            }
            WireRequest::ApplyWriteMany(blocks) => {
                buf.put_u8(15);
                put_blocks(&mut buf, blocks);
            }
            WireRequest::ReadLocalMany(ks) => {
                buf.put_u8(16);
                buf.put_u32_le(ks.len() as u32);
                for k in ks {
                    buf.put_u64_le(k.as_u64());
                }
            }
            WireRequest::Traced {
                trace_id,
                parent_span,
                inner,
            } => {
                buf.put_u8(17);
                buf.put_u64_le(*trace_id);
                buf.put_u64_le(*parent_span);
                buf.extend_from_slice(&inner.encode());
            }
            WireRequest::FetchLease(k) => {
                buf.put_u8(18);
                buf.put_u64_le(k.as_u64());
            }
            WireRequest::Mux { id, inner } => {
                buf.put_u8(19);
                buf.put_u64_le(*id);
                buf.extend_from_slice(&inner.encode());
            }
        }
        buf
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing garbage, or an unknown tag.
    pub fn decode(mut raw: &[u8]) -> Result<WireRequest, DecodeError> {
        need(raw, 1, "request tag")?;
        let tag = raw.get_u8();
        let request = match tag {
            0 => WireRequest::Probe,
            1 | 2 | 4 => {
                need(raw, 8, "block index")?;
                let k = BlockIndex::new(raw.get_u64_le());
                match tag {
                    1 => WireRequest::Vote(k),
                    2 => WireRequest::Fetch(k),
                    _ => WireRequest::ReadLocal(k),
                }
            }
            3 => {
                need(raw, 16, "write header")?;
                let k = BlockIndex::new(raw.get_u64_le());
                let v = VersionNumber::new(raw.get_u64_le());
                WireRequest::ApplyWrite(k, v, get_data(&mut raw)?)
            }
            5 => WireRequest::VersionVector,
            6 => WireRequest::RepairPayload(get_vv(&mut raw)?),
            7 => WireRequest::ApplyRepair(get_blocks(&mut raw)?),
            8 => WireRequest::GetW,
            9 => WireRequest::SetW(get_sites(&mut raw)?),
            10 => {
                need(raw, 4, "site id")?;
                WireRequest::AddW(SiteId::new(raw.get_u32_le()))
            }
            11 => WireRequest::Shutdown,
            12 => {
                need(raw, 16, "write header")?;
                let k = BlockIndex::new(raw.get_u64_le());
                let v = VersionNumber::new(raw.get_u64_le());
                let data = get_data(&mut raw)?;
                need(raw, 1, "fault tag")?;
                let fault = match raw.get_u8() {
                    0 => {
                        need(raw, 8, "torn keep")?;
                        StorageFault::Torn {
                            keep: raw.get_u64_le() as usize,
                        }
                    }
                    1 => StorageFault::StaleVersion,
                    2 => {
                        need(raw, 8, "wal-torn keep")?;
                        StorageFault::WalTorn {
                            keep: raw.get_u64_le() as usize,
                        }
                    }
                    other => return Err(bad(&format!("unknown fault tag {other}"))),
                };
                WireRequest::ApplyWriteFaulty(k, v, data, fault)
            }
            13 => WireRequest::Scrub,
            14 => {
                need(raw, 4, "index count")?;
                let count = raw.get_u32_le() as usize;
                need(
                    raw,
                    count.checked_mul(8).ok_or_else(|| bad("index overflow"))?,
                    "index body",
                )?;
                WireRequest::VoteMany(
                    (0..count)
                        .map(|_| BlockIndex::new(raw.get_u64_le()))
                        .collect(),
                )
            }
            15 => WireRequest::ApplyWriteMany(get_blocks(&mut raw)?),
            17 => {
                need(raw, 16, "trace envelope")?;
                let trace_id = raw.get_u64_le();
                let parent_span = raw.get_u64_le();
                // The inner decode consumes the remainder and performs its
                // own trailing-bytes check, so return directly.
                let inner = WireRequest::decode(raw)?;
                if matches!(inner, WireRequest::Traced { .. }) {
                    return Err(bad("nested trace envelope"));
                }
                return Ok(WireRequest::Traced {
                    trace_id,
                    parent_span,
                    inner: Box::new(inner),
                });
            }
            16 => {
                need(raw, 4, "index count")?;
                let count = raw.get_u32_le() as usize;
                need(
                    raw,
                    count.checked_mul(8).ok_or_else(|| bad("index overflow"))?,
                    "index body",
                )?;
                WireRequest::ReadLocalMany(
                    (0..count)
                        .map(|_| BlockIndex::new(raw.get_u64_le()))
                        .collect(),
                )
            }
            18 => {
                need(raw, 8, "block index")?;
                WireRequest::FetchLease(BlockIndex::new(raw.get_u64_le()))
            }
            19 => {
                need(raw, 8, "mux envelope")?;
                let id = raw.get_u64_le();
                // The inner decode consumes the remainder and performs its
                // own trailing-bytes check, so return directly.
                let inner = WireRequest::decode(raw)?;
                if matches!(inner, WireRequest::Mux { .. } | WireRequest::Traced { .. }) {
                    return Err(bad("nested mux envelope"));
                }
                return Ok(WireRequest::Mux {
                    id,
                    inner: Box::new(inner),
                });
            }
            other => return Err(bad(&format!("unknown request tag {other}"))),
        };
        if raw.has_remaining() {
            return Err(bad("trailing bytes after request"));
        }
        Ok(request)
    }
}

impl WireResponse {
    /// Serializes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WireResponse::Ack => buf.put_u8(0),
            WireResponse::Version(v) => {
                buf.put_u8(1);
                buf.put_u64_le(v.as_u64());
            }
            WireResponse::Block(v, data) => {
                buf.put_u8(2);
                buf.put_u64_le(v.as_u64());
                put_data(&mut buf, data);
            }
            WireResponse::Data(data) => {
                buf.put_u8(3);
                put_data(&mut buf, data);
            }
            WireResponse::Vector(vv) => {
                buf.put_u8(4);
                put_vv(&mut buf, vv);
            }
            WireResponse::Payload(vv, blocks) => {
                buf.put_u8(5);
                put_vv(&mut buf, vv);
                put_blocks(&mut buf, blocks);
            }
            WireResponse::W(w) => {
                buf.put_u8(6);
                put_sites(&mut buf, w);
            }
            WireResponse::Count(n) => {
                buf.put_u8(7);
                buf.put_u64_le(*n);
            }
            WireResponse::Versions(vs) => {
                buf.put_u8(8);
                buf.put_u32_le(vs.len() as u32);
                for v in vs {
                    buf.put_u64_le(v.as_u64());
                }
            }
            WireResponse::DataMany(ds) => {
                buf.put_u8(9);
                buf.put_u32_le(ds.len() as u32);
                for d in ds {
                    put_data(&mut buf, d);
                }
            }
            WireResponse::Mux { id, inner } => {
                buf.put_u8(10);
                buf.put_u64_le(*id);
                buf.extend_from_slice(&inner.encode());
            }
        }
        buf
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing garbage, or an unknown tag.
    pub fn decode(mut raw: &[u8]) -> Result<WireResponse, DecodeError> {
        need(raw, 1, "response tag")?;
        let tag = raw.get_u8();
        let response = match tag {
            0 => WireResponse::Ack,
            1 => {
                need(raw, 8, "version")?;
                WireResponse::Version(VersionNumber::new(raw.get_u64_le()))
            }
            2 => {
                need(raw, 8, "version")?;
                let v = VersionNumber::new(raw.get_u64_le());
                WireResponse::Block(v, get_data(&mut raw)?)
            }
            3 => WireResponse::Data(get_data(&mut raw)?),
            4 => WireResponse::Vector(get_vv(&mut raw)?),
            5 => {
                let vv = get_vv(&mut raw)?;
                WireResponse::Payload(vv, get_blocks(&mut raw)?)
            }
            6 => WireResponse::W(get_sites(&mut raw)?),
            7 => {
                need(raw, 8, "count")?;
                WireResponse::Count(raw.get_u64_le())
            }
            8 => {
                need(raw, 4, "version count")?;
                let count = raw.get_u32_le() as usize;
                need(
                    raw,
                    count
                        .checked_mul(8)
                        .ok_or_else(|| bad("version overflow"))?,
                    "version body",
                )?;
                WireResponse::Versions(
                    (0..count)
                        .map(|_| VersionNumber::new(raw.get_u64_le()))
                        .collect(),
                )
            }
            9 => {
                need(raw, 4, "data count")?;
                let count = raw.get_u32_le() as usize;
                let mut out = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    out.push(get_data(&mut raw)?);
                }
                WireResponse::DataMany(out)
            }
            10 => {
                need(raw, 8, "mux envelope")?;
                let id = raw.get_u64_le();
                // The inner decode consumes the remainder and performs its
                // own trailing-bytes check, so return directly.
                let inner = WireResponse::decode(raw)?;
                if matches!(inner, WireResponse::Mux { .. }) {
                    return Err(bad("nested mux envelope"));
                }
                return Ok(WireResponse::Mux {
                    id,
                    inner: Box::new(inner),
                });
            }
            other => return Err(bad(&format!("unknown response tag {other}"))),
        };
        if raw.has_remaining() {
            return Err(bad("trailing bytes after response"));
        }
        Ok(response)
    }
}

impl WireResponse {
    /// The vote a [`WireResponse::Version`] reply carries.
    pub fn into_version(self) -> Option<VersionNumber> {
        let WireResponse::Version(v) = self else {
            return None;
        };
        Some(v)
    }

    /// The versioned block a [`WireResponse::Block`] reply carries.
    pub fn into_block(self) -> Option<(VersionNumber, BlockData)> {
        let WireResponse::Block(v, data) = self else {
            return None;
        };
        Some((v, data))
    }

    /// The raw block a [`WireResponse::Data`] reply carries.
    pub fn into_data(self) -> Option<BlockData> {
        let WireResponse::Data(data) = self else {
            return None;
        };
        Some(data)
    }

    /// The version vector a [`WireResponse::Vector`] reply carries.
    pub fn into_vector(self) -> Option<VersionVector> {
        let WireResponse::Vector(vv) = self else {
            return None;
        };
        Some(vv)
    }

    /// The repair payload a [`WireResponse::Payload`] reply carries.
    pub fn into_payload(self) -> Option<RepairPayload> {
        let WireResponse::Payload(vv, blocks) = self else {
            return None;
        };
        Some((vv, blocks))
    }

    /// The was-available set a [`WireResponse::W`] reply carries.
    pub fn into_was_available(self) -> Option<BTreeSet<SiteId>> {
        let WireResponse::W(w) = self else {
            return None;
        };
        Some(w)
    }

    /// The count a [`WireResponse::Count`] reply carries.
    pub fn into_count(self) -> Option<u64> {
        let WireResponse::Count(n) = self else {
            return None;
        };
        Some(n)
    }

    /// The votes a [`WireResponse::Versions`] reply carries, if it answers
    /// all `n` blocks asked about.
    pub fn into_versions(self, n: usize) -> Option<Vec<VersionNumber>> {
        match self {
            WireResponse::Versions(vs) if vs.len() == n => Some(vs),
            _ => None,
        }
    }

    /// The blocks a [`WireResponse::DataMany`] reply carries, if it answers
    /// all `n` blocks asked about.
    pub fn into_data_many(self, n: usize) -> Option<Vec<BlockData>> {
        match self {
            WireResponse::DataMany(ds) if ds.len() == n => Some(ds),
            _ => None,
        }
    }

    /// Whether this is a plain acknowledgement.
    pub fn is_ack(&self) -> bool {
        matches!(self, WireResponse::Ack)
    }

    /// This reply read as one target's answer to the scatter `req`; `None`
    /// when it has the wrong shape.
    pub fn into_scatter_reply(self, req: &ScatterRequest) -> Option<ScatterReply> {
        match req {
            ScatterRequest::Vote(_) => self.into_version().map(ScatterReply::Version),
            ScatterRequest::VersionVector => self.into_vector().map(ScatterReply::Vector),
            ScatterRequest::VoteMany(ks) => {
                self.into_versions(ks.len()).map(ScatterReply::Versions)
            }
            ScatterRequest::Install { .. }
            | ScatterRequest::InstallIfAvailable { .. }
            | ScatterRequest::InstallMany(_)
            | ScatterRequest::InstallIfAvailableMany(_) => {
                self.is_ack().then_some(ScatterReply::Delivered)
            }
            ScatterRequest::ProbeState => None,
        }
    }
}

impl ScatterRequest {
    /// The request every target of this scatter is sent. `None` for
    /// [`ScatterRequest::ProbeState`], a coordination-layer state read that
    /// sends nothing.
    pub fn wire_request(&self) -> Option<WireRequest> {
        Some(match self {
            ScatterRequest::Vote(k) => WireRequest::Vote(*k),
            ScatterRequest::VersionVector => WireRequest::VersionVector,
            ScatterRequest::Install { k, v, data }
            | ScatterRequest::InstallIfAvailable { k, v, data } => {
                WireRequest::ApplyWrite(*k, *v, data.clone())
            }
            ScatterRequest::VoteMany(ks) => WireRequest::VoteMany(ks.clone()),
            ScatterRequest::InstallMany(writes)
            | ScatterRequest::InstallIfAvailableMany(writes) => {
                WireRequest::ApplyWriteMany(writes.clone())
            }
            ScatterRequest::ProbeState => return None,
        })
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the writer, or `InvalidInput` for an oversized frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the reader (including clean EOF as `UnexpectedEof`), or
/// `InvalidData` for an oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_data() -> impl Strategy<Value = BlockData> {
        prop::collection::vec(any::<u8>(), 0..256).prop_map(BlockData::from)
    }

    fn arb_vv() -> impl Strategy<Value = VersionVector> {
        prop::collection::vec(any::<u32>(), 0..16).prop_map(|vs| {
            vs.into_iter()
                .map(|v| VersionNumber::new(v as u64))
                .collect()
        })
    }

    fn arb_sites() -> impl Strategy<Value = BTreeSet<SiteId>> {
        prop::collection::btree_set((0u32..32).prop_map(SiteId::new), 0..8)
    }

    fn arb_blocks() -> impl Strategy<Value = RepairBlocks> {
        prop::collection::vec(
            (any::<u16>(), any::<u32>(), arb_data())
                .prop_map(|(k, v, d)| (BlockIndex::new(k as u64), VersionNumber::new(v as u64), d)),
            0..8,
        )
    }

    fn arb_plain_request() -> impl Strategy<Value = WireRequest> {
        prop_oneof![
            Just(WireRequest::Probe),
            any::<u16>().prop_map(|k| WireRequest::Vote(BlockIndex::new(k as u64))),
            any::<u16>().prop_map(|k| WireRequest::Fetch(BlockIndex::new(k as u64))),
            (any::<u16>(), any::<u32>(), arb_data()).prop_map(|(k, v, d)| WireRequest::ApplyWrite(
                BlockIndex::new(k as u64),
                VersionNumber::new(v as u64),
                d
            )),
            any::<u16>().prop_map(|k| WireRequest::ReadLocal(BlockIndex::new(k as u64))),
            Just(WireRequest::VersionVector),
            arb_vv().prop_map(WireRequest::RepairPayload),
            arb_blocks().prop_map(WireRequest::ApplyRepair),
            Just(WireRequest::GetW),
            arb_sites().prop_map(WireRequest::SetW),
            (0u32..32).prop_map(|s| WireRequest::AddW(SiteId::new(s))),
            Just(WireRequest::Shutdown),
            (any::<u16>(), any::<u32>(), arb_data(), arb_fault()).prop_map(|(k, v, d, f)| {
                WireRequest::ApplyWriteFaulty(
                    BlockIndex::new(k as u64),
                    VersionNumber::new(v as u64),
                    d,
                    f,
                )
            }),
            Just(WireRequest::Scrub),
            prop::collection::vec(any::<u16>(), 0..8).prop_map(|ks| WireRequest::VoteMany(
                ks.into_iter().map(|k| BlockIndex::new(k as u64)).collect()
            )),
            arb_blocks().prop_map(WireRequest::ApplyWriteMany),
            prop::collection::vec(any::<u16>(), 0..8).prop_map(|ks| WireRequest::ReadLocalMany(
                ks.into_iter().map(|k| BlockIndex::new(k as u64)).collect()
            )),
            any::<u16>().prop_map(|k| WireRequest::FetchLease(BlockIndex::new(k as u64))),
        ]
    }

    fn arb_request() -> impl Strategy<Value = WireRequest> {
        prop_oneof![
            3 => arb_plain_request(),
            1 => (any::<u64>(), any::<u64>(), arb_plain_request()).prop_map(
                |(trace_id, parent_span, inner)| WireRequest::Traced {
                    trace_id,
                    parent_span,
                    inner: Box::new(inner),
                }
            ),
            1 => (any::<u64>(), arb_plain_request()).prop_map(|(id, inner)| WireRequest::Mux {
                id,
                inner: Box::new(inner),
            }),
        ]
    }

    fn arb_fault() -> impl Strategy<Value = StorageFault> {
        prop_oneof![
            (0usize..512).prop_map(|keep| StorageFault::Torn { keep }),
            Just(StorageFault::StaleVersion),
            (0usize..512).prop_map(|keep| StorageFault::WalTorn { keep }),
        ]
    }

    fn arb_plain_response() -> impl Strategy<Value = WireResponse> {
        prop_oneof![
            Just(WireResponse::Ack),
            any::<u32>().prop_map(|v| WireResponse::Version(VersionNumber::new(v as u64))),
            (any::<u32>(), arb_data())
                .prop_map(|(v, d)| WireResponse::Block(VersionNumber::new(v as u64), d)),
            arb_data().prop_map(WireResponse::Data),
            arb_vv().prop_map(WireResponse::Vector),
            (arb_vv(), arb_blocks()).prop_map(|(vv, b)| WireResponse::Payload(vv, b)),
            arb_sites().prop_map(WireResponse::W),
            any::<u64>().prop_map(WireResponse::Count),
            prop::collection::vec(any::<u32>(), 0..8).prop_map(|vs| WireResponse::Versions(
                vs.into_iter()
                    .map(|v| VersionNumber::new(v as u64))
                    .collect()
            )),
            prop::collection::vec(arb_data(), 0..8).prop_map(WireResponse::DataMany),
        ]
    }

    fn arb_response() -> impl Strategy<Value = WireResponse> {
        prop_oneof![
            3 => arb_plain_response(),
            1 => (any::<u64>(), arb_plain_response()).prop_map(|(id, inner)| WireResponse::Mux {
                id,
                inner: Box::new(inner),
            }),
        ]
    }

    proptest! {
        #[test]
        fn request_roundtrip(req in arb_request()) {
            let encoded = req.encode();
            prop_assert_eq!(WireRequest::decode(&encoded).unwrap(), req);
        }

        #[test]
        fn response_roundtrip(resp in arb_response()) {
            let encoded = resp.encode();
            prop_assert_eq!(WireResponse::decode(&encoded).unwrap(), resp);
        }

        #[test]
        fn truncated_frames_never_panic(req in arb_request(), cut in 0usize..64) {
            let encoded = req.encode();
            if cut < encoded.len() {
                // Any prefix must error or decode to something — never panic.
                let _ = WireRequest::decode(&encoded[..cut]);
            }
        }

        #[test]
        fn random_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = WireRequest::decode(&raw);
            let _ = WireResponse::decode(&raw);
        }
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(
            read_frame(&mut cursor).is_err(),
            "clean EOF surfaces as error"
        );
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = WireRequest::Probe.encode();
        encoded.push(0xFF);
        assert!(WireRequest::decode(&encoded).is_err());
    }

    #[test]
    fn traced_envelope_roundtrips_and_rejects_nesting() {
        let inner = WireRequest::Vote(BlockIndex::new(7));
        let traced = WireRequest::Traced {
            trace_id: u64::MAX,
            parent_span: 42,
            inner: Box::new(inner.clone()),
        };
        let encoded = traced.encode();
        assert_eq!(WireRequest::decode(&encoded).unwrap(), traced);

        // A traced frame is exactly 17 bytes of envelope plus the inner
        // frame.
        assert_eq!(encoded.len(), 17 + inner.encode().len());
        assert_eq!(encoded[0], 17);

        let nested = WireRequest::Traced {
            trace_id: 1,
            parent_span: 2,
            inner: Box::new(traced),
        };
        let err = WireRequest::decode(&nested.encode()).unwrap_err();
        assert!(err.0.contains("nested"), "unexpected error: {err}");

        // The TCP transport's nesting: the trace envelope around a mux one.
        let traced_mux = WireRequest::Traced {
            trace_id: 3,
            parent_span: 4,
            inner: Box::new(WireRequest::Mux {
                id: 5,
                inner: Box::new(inner),
            }),
        };
        assert_eq!(
            WireRequest::decode(&traced_mux.encode()).unwrap(),
            traced_mux
        );

        // Trailing garbage after the inner frame is still rejected.
        let mut trailing = encoded;
        trailing.push(0xAB);
        assert!(WireRequest::decode(&trailing).is_err());
    }

    #[test]
    fn mux_envelope_roundtrips_and_rejects_nesting() {
        let inner = WireRequest::FetchLease(BlockIndex::new(3));
        let mux = WireRequest::Mux {
            id: 99,
            inner: Box::new(inner.clone()),
        };
        let encoded = mux.encode();
        assert_eq!(WireRequest::decode(&encoded).unwrap(), mux);
        // Tag byte + 8-byte id + the inner frame, nothing more.
        assert_eq!(encoded.len(), 9 + inner.encode().len());
        assert_eq!(encoded[0], 19);

        let nested = WireRequest::Mux {
            id: 1,
            inner: Box::new(mux),
        };
        assert!(WireRequest::decode(&nested.encode()).is_err());

        let reply = WireResponse::Mux {
            id: 99,
            inner: Box::new(WireResponse::Block(
                VersionNumber::new(4),
                BlockData::from(vec![1, 2]),
            )),
        };
        assert_eq!(WireResponse::decode(&reply.encode()).unwrap(), reply);
        let nested_reply = WireResponse::Mux {
            id: 1,
            inner: Box::new(reply),
        };
        assert!(WireResponse::decode(&nested_reply.encode()).is_err());
    }
}
