//! The TCP cluster: server processes behind real sockets.
//!
//! The paper's deployment is "a set of server processes on several sites" of
//! a network. [`TcpCluster`] is that, minus the machine room: every site is
//! an OS thread owning its replica behind a loopback `TcpListener`, and
//! every protocol exchange is a length-prefixed [`wire`](crate::wire) frame
//! over a real socket — serialization, framing and all. The server answers
//! each frame with [`Replica::handle`], the dispatch the live runtime's
//! server threads run too, and the protocol logic is the one shared
//! implementation (this type implements [`Backend`](crate::backend::Backend)),
//! so the three runtimes — deterministic, channel-threaded, TCP — are
//! interchangeable and must agree, which the integration tests check.
//!
//! The coordinator holds one multiplexed connection per site: requests go
//! out in [`WireRequest::Mux`] envelopes under per-connection ids, inside
//! a [`WireRequest::Traced`] envelope while tracing, and a reader thread
//! per connection routes the replies back by id. A connection that dies —
//! a torn frame, a server hangup — is redialed on the next call to its
//! site.
//!
//! Fail-stop is enforced at the coordination layer (a failed site is not
//! contacted), keeping failure injection deterministic; the site's server
//! keeps its socket and its disk, exactly like a halted machine keeps both.
//! Partitions are not modeled on this transport — the available copy
//! schemes assume none, and the deterministic runtimes cover the
//! partition experiments.

use crate::backend::{
    self, Backend, Gather, ScatterReplies, ScatterRequest, ScatterSpec, WriteBatch,
};
use crate::locks::{BlockLockTable, LeaseTable};
use crate::replica::Replica;
use crate::wire::{self, WireRequest, WireResponse};
use crate::{protocol, RepairBlocks};
use blockrep_net::{DeliveryMode, FanoutMode, TrafficCounter};
use blockrep_obs::event;
use blockrep_obs::trace::TraceContext;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// In-flight request budget per multiplexed connection.
const MUX_WINDOW: usize = 32;

fn serve(mut replica: Replica, listener: TcpListener, latency_ns: Arc<AtomicU64>) {
    // Single-coordinator design: one connection drives the replica at a
    // time, but the coordinator may replace it — after a torn frame it
    // shuts the dead stream down and redials — so connections are served
    // in sequence until a Shutdown frame arrives.
    while let Ok((mut conn, _)) = listener.accept() {
        // Request/response over one socket: Nagle + delayed ACK would add
        // ~40ms to every round trip.
        let _ = conn.set_nodelay(true);
        if serve_conn(&mut replica, &mut conn, &latency_ns) == Served::Shutdown {
            return;
        }
    }
}

/// Why [`serve_conn`] stopped serving a connection.
#[derive(PartialEq, Eq)]
enum Served {
    /// The coordinator hung up or sent garbage; await a reconnect.
    Hangup,
    /// A Shutdown frame arrived; the cluster is going down.
    Shutdown,
}

fn serve_conn(replica: &mut Replica, conn: &mut TcpStream, latency_ns: &AtomicU64) -> Served {
    loop {
        let Ok(frame) = wire::read_frame(conn) else {
            return Served::Hangup; // hung up (or reconnected elsewhere)
        };
        let Ok(request) = WireRequest::decode(&frame) else {
            return Served::Hangup; // corrupt peer: drop the connection
        };
        // Unwrap the trace envelope, if any, then the multiplexing one,
        // whose id is echoed on the reply so the coordinator's reader
        // thread can route it. Decode rejects any other nesting.
        let (request, remote_ctx) = match request {
            WireRequest::Traced {
                trace_id,
                parent_span,
                inner,
            } => (*inner, Some((trace_id, parent_span))),
            request => (request, None),
        };
        let WireRequest::Mux { id, inner: request } = request else {
            return Served::Hangup; // not this transport's framing
        };
        if matches!(*request, WireRequest::Shutdown) {
            return Served::Shutdown;
        }
        // Emulated one-way link delay (see `TcpCluster::set_link_latency`).
        // Deliberately outside the remote span: transit time is the
        // coordinator's gather wait, not this site's apply work.
        let delay = latency_ns.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        let remote = remote_ctx.map(|(trace_id, parent_span)| {
            blockrep_obs::trace::start_remote(
                trace_id,
                parent_span,
                crate::obs_hooks::phase_remote_apply(),
                replica.id().as_u32(),
            )
        });
        let inner = Box::new(replica.handle(*request));
        drop(remote);
        let response = WireResponse::Mux { id, inner };
        if wire::write_frame(conn, &response.encode()).is_err() {
            return Served::Hangup;
        }
    }
}

/// Coordinator half of one multiplexed connection: requests go out under a
/// per-connection id with a bounded in-flight window, and a dedicated
/// reader thread (see [`mux_reader`]) demultiplexes the replies by id, so
/// concurrent operations share the socket without waiting on each other's
/// round trips.
///
/// Lock order within one `MuxConn`: window semaphore → `writer` →
/// `pending`. The reader thread takes only `pending`, so it can never
/// participate in a cycle.
struct MuxConn {
    /// Write half plus the next request id; a frame is written whole under
    /// this lock, so frames from concurrent clients never interleave.
    writer: Mutex<(TcpStream, u64)>,
    /// Reply slots for in-flight requests, keyed by request id.
    pending: Mutex<HashMap<u64, crossbeam::channel::Sender<Option<WireResponse>>>>,
    /// Counting semaphore bounding in-flight requests on this connection:
    /// remaining slots plus the condvar submitters wait on.
    window: (Mutex<usize>, Condvar),
    /// Set when the stream dies; submissions fail fast and the next call
    /// to the site redials.
    dead: AtomicBool,
    /// The reader thread, joined when the connection is closed.
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl MuxConn {
    /// Connects to `addr` and starts the connection's reader thread.
    fn dial(addr: SocketAddr) -> io::Result<Arc<MuxConn>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let conn = Arc::new(MuxConn {
            writer: Mutex::new((stream, 0)),
            pending: Mutex::new(HashMap::new()),
            window: (Mutex::new(MUX_WINDOW), Condvar::new()),
            dead: AtomicBool::new(false),
            reader: Mutex::new(None),
        });
        let reader_conn = Arc::clone(&conn);
        let reader = std::thread::spawn(move || mux_reader(read_half, &reader_conn));
        *conn.reader.lock() = Some(reader);
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Kills the connection: shuts the stream down, so the server's read
    /// loop falls back to `accept`, and joins the reader thread.
    fn close(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.writer.lock().0.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.lock().take() {
            let _ = reader.join();
        }
    }

    /// Claims one window slot, blocking while the window is full.
    fn acquire_slot(&self) {
        let (slots, cvar) = &self.window;
        let mut slots = slots.lock();
        while *slots == 0 {
            slots = cvar.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        *slots -= 1;
    }

    /// Returns one window slot and wakes a waiting submitter.
    fn release_slot(&self) {
        let (slots, cvar) = &self.window;
        *slots.lock() += 1;
        cvar.notify_one();
    }

    /// Sends `request` under a fresh id — inside the trace envelope when
    /// `trace` is set — and returns the channel its reply will arrive on.
    /// The caller owns a window slot until it calls
    /// [`release_slot`](Self::release_slot) (after receiving). `None` means
    /// the connection is dead — the site is unreachable to this frame.
    fn submit(
        &self,
        request: WireRequest,
        trace: Option<TraceContext>,
    ) -> Option<Receiver<Option<WireResponse>>> {
        if self.is_dead() {
            return None;
        }
        self.acquire_slot();
        let (tx, rx) = bounded(1);
        let sent = {
            let mut writer = self.writer.lock();
            let (stream, next_id) = &mut *writer;
            let id = *next_id;
            *next_id += 1;
            // Park the reply slot before the frame hits the wire so the
            // reader can never see a reply to an unknown id.
            self.pending.lock().insert(id, tx);
            let mut frame = WireRequest::Mux {
                id,
                inner: Box::new(request),
            };
            if let Some(ctx) = trace {
                frame = WireRequest::Traced {
                    trace_id: ctx.trace_id,
                    parent_span: ctx.span_id,
                    inner: Box::new(frame),
                };
            }
            let ok = wire::write_frame(stream, &frame.encode()).is_ok()
                // The reader may have died and drained `pending` before the
                // insert above; in that window the request would never be
                // answered, so check the flag after parking the slot.
                && !self.is_dead();
            if !ok {
                self.dead.store(true, Ordering::Relaxed);
                self.pending.lock().remove(&id);
            }
            ok
        };
        if !sent {
            self.release_slot();
            return None;
        }
        Some(rx)
    }
}

/// The demux loop: reads [`WireResponse::Mux`] frames off the socket and
/// routes each inner reply to the submitter that parked its id. Any I/O or
/// framing error kills the connection: every in-flight submitter is handed
/// "no reply", which the protocol treats exactly like an unreachable site,
/// and the next call to the site redials.
fn mux_reader(mut stream: TcpStream, conn: &MuxConn) {
    while let Ok(frame) = wire::read_frame(&mut stream) {
        let Ok(WireResponse::Mux { id, inner }) = WireResponse::decode(&frame) else {
            break;
        };
        let Some(tx) = conn.pending.lock().remove(&id) else {
            break; // a reply nobody asked for: the stream is desynced
        };
        let _ = tx.send(Some(*inner));
    }
    conn.dead.store(true, Ordering::Relaxed);
    for (_, tx) in conn.pending.lock().drain() {
        let _ = tx.send(None);
    }
}

/// A cluster of replica servers behind loopback TCP sockets.
///
/// # Examples
///
/// ```
/// use blockrep_core::TcpCluster;
/// use blockrep_net::DeliveryMode;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
///     .sites(3).num_blocks(4).block_size(16).build()?;
/// let cluster = TcpCluster::spawn(cfg, DeliveryMode::Multicast)?;
/// let k = BlockIndex::new(0);
/// cluster.write(SiteId::new(0), k, BlockData::from(vec![7; 16]))?;
/// cluster.fail_site(SiteId::new(0));
/// assert_eq!(cluster.read(SiteId::new(1), k)?.as_slice(), &[7; 16]);
/// # Ok(())
/// # }
/// ```
pub struct TcpCluster {
    cfg: DeviceConfig,
    states: RwLock<Vec<SiteState>>,
    counter: TrafficCounter,
    mode: DeliveryMode,
    addrs: Vec<SocketAddr>,
    /// Per-site multiplexed connections; a dead one is replaced on the
    /// next call to its site.
    conns: Vec<RwLock<Arc<MuxConn>>>,
    /// Whether scatters pipeline their requests (submit to every target,
    /// then gather) instead of one blocking RPC per target.
    parallel: AtomicBool,
    /// Whether vote collection stops building on replies past quorum weight.
    early_quorum: AtomicBool,
    /// Emulated one-way link delay in nanoseconds, shared with the servers.
    latency_ns: Arc<AtomicU64>,
    /// Per-block lock shards serializing same-block coordinations.
    locks: BlockLockTable,
    /// Read-lease registry for the offload fast path.
    leases: LeaseTable,
    handles: Vec<JoinHandle<()>>,
}

impl TcpCluster {
    /// Binds one loopback listener per site, spawns the server threads, and
    /// dials one multiplexed connection to each.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or connecting the loopback sockets.
    pub fn spawn(cfg: DeviceConfig, mode: DeliveryMode) -> io::Result<TcpCluster> {
        let n = cfg.num_sites();
        let latency_ns = Arc::new(AtomicU64::new(0));
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for s in cfg.site_ids() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let replica = Replica::new(s, &cfg);
            let latency = Arc::clone(&latency_ns);
            handles.push(std::thread::spawn(move || {
                serve(replica, listener, latency)
            }));
        }
        let conns = addrs
            .iter()
            .map(|&addr| MuxConn::dial(addr).map(RwLock::new))
            .collect::<io::Result<_>>()?;
        Ok(TcpCluster {
            states: RwLock::new(vec![SiteState::Available; n]),
            counter: TrafficCounter::new(),
            mode,
            addrs,
            conns,
            parallel: AtomicBool::new(true),
            early_quorum: AtomicBool::new(false),
            latency_ns,
            locks: BlockLockTable::new(),
            leases: LeaseTable::new(),
            handles,
            cfg,
        })
    }
    /// The socket address of site `s`'s server.
    pub fn addr(&self, s: SiteId) -> SocketAddr {
        self.addrs[s.index()]
    }

    /// Reads block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::read`](crate::Cluster::read).
    pub fn read(&self, origin: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        protocol::read(self, origin, k)
    }

    /// Writes block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::write`](crate::Cluster::write).
    pub fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        protocol::write(self, origin, k, &data)
    }

    /// Reads a run of distinct blocks in one batched protocol round — one
    /// request frame per site for the whole run.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read); the quorum check covers the batch.
    pub fn read_many(&self, origin: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(self, origin, ks)
    }

    /// Writes a run of distinct blocks in one batched protocol round — one
    /// request frame per site for the whole run.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write); the quorum check covers the batch.
    pub fn write_many(
        &self,
        origin: SiteId,
        writes: &[(BlockIndex, BlockData)],
    ) -> DeviceResult<()> {
        protocol::write_many(self, origin, writes)
    }

    /// Fail-stops site `s` (it stops being contacted; its server and disk
    /// survive, like a halted machine).
    pub fn fail_site(&self, s: SiteId) {
        assert!(self.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
    }

    /// Restarts site `s` and runs the scheme's recovery.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not currently failed.
    pub fn repair_site(&self, s: SiteId) {
        assert!(self.cfg.contains_site(s), "unknown site {s}");
        assert_eq!(
            self.site_state(s),
            SiteState::Failed,
            "repairing a site that is not failed"
        );
        protocol::repair(self, s);
    }

    /// The state of site `s`.
    pub fn site_state(&self, s: SiteId) -> SiteState {
        self.states.read()[s.index()]
    }

    /// Whether the device is available under the scheme's criterion.
    pub fn is_available(&self) -> bool {
        protocol::is_available(self)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The §5 transmission counter.
    pub fn counter(&self) -> &TrafficCounter {
        &self.counter
    }

    /// Selects the fan-out mode for scatter exchanges. The default is
    /// [`FanoutMode::Parallel`] (requests for the whole batch are
    /// pipelined: all submitted, then all replies gathered — one round trip
    /// instead of one per target); [`FanoutMode::Sequential`] restores the
    /// historical blocking per-target loop. The §5 message counts are
    /// identical either way.
    pub fn set_fanout(&self, mode: FanoutMode) {
        self.parallel
            .store(mode == FanoutMode::Parallel, Ordering::Relaxed);
    }

    /// The current fan-out mode.
    pub fn fanout(&self) -> FanoutMode {
        if self.parallel.load(Ordering::Relaxed) {
            FanoutMode::Parallel
        } else {
            FanoutMode::Sequential
        }
    }

    /// Enables or disables early-quorum vote collection. Since a pipelined
    /// batch already costs a single round trip, every reply in the batch is
    /// still read (and charged) synchronously — the toggle only narrows the
    /// voter set the coordinator builds on, exactly as on the other
    /// runtimes.
    pub fn set_early_quorum(&self, on: bool) {
        self.early_quorum.store(on, Ordering::Relaxed);
    }

    /// Emulates a one-way network link delay: every server sleeps `delay`
    /// before serving a frame (Shutdown is exempt). Zero — the default —
    /// disables the emulation. Under a nonzero delay a sequential fan-out
    /// pays one delay per target while a pipelined batch overlaps them on
    /// the servers; message counts are unaffected.
    pub fn set_link_latency(&self, delay: Duration) {
        self.latency_ns.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Asks for multiplexed connections, which are the only kind: requests
    /// carry per-connection ids under a bounded in-flight window
    /// ([`MUX_WINDOW`]) and a reader thread demultiplexes replies, so
    /// concurrent clients of one `TcpCluster` share each socket. `true` is
    /// a no-op, accepted so callers that opt in keep working.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] for `false`: there is no other
    /// transport to switch to.
    pub fn set_multiplexing(&self, on: bool) -> io::Result<()> {
        if on {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "multiplexed connections are the only TCP transport",
            ))
        }
    }

    /// Enables or disables coordinator-granted read leases (see
    /// [`crate::locks::LeaseTable`]). Off by default.
    pub fn set_leases(&self, on: bool) {
        self.leases.set_enabled(on);
    }

    /// Site `to`'s connection, redialed first if it died. The first caller
    /// to find it dead closes it — so the server's `accept` loop takes the
    /// new stream — and dials. `None` if the dial fails; the next call
    /// retries.
    fn conn(&self, to: SiteId) -> Option<Arc<MuxConn>> {
        {
            let conn = self.conns[to.index()].read();
            if !conn.is_dead() {
                return Some(Arc::clone(&conn));
            }
        }
        let mut slot = self.conns[to.index()].write();
        if slot.is_dead() {
            slot.close();
            *slot = MuxConn::dial(self.addrs[to.index()]).ok()?;
            event!("tcp.conn.reopened", site = to.as_u32());
        }
        Some(Arc::clone(&slot))
    }

    /// One request/response exchange with `to` on `from`'s behalf: submit
    /// under a fresh id, block on the demuxed reply, return the window
    /// slot. `None` is "site unreachable": `to` is failed or cut off from
    /// `from`, or the connection died mid-exchange.
    fn rpc(&self, from: SiteId, to: SiteId, request: WireRequest) -> Option<WireResponse> {
        if !self.reachable(from, to) {
            return None;
        }
        let _timer = crate::obs_hooks::timer(crate::obs_hooks::tcp_rpc_latency);
        let conn = self.conn(to)?;
        let rx = conn.submit(request, crate::obs_hooks::propagated())?;
        let reply = rx.recv().ok().flatten();
        conn.release_slot();
        reply
    }

    /// Whether the coordinator will contact `to` on behalf of `from`.
    fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        let states = self.states.read();
        from == to || (states[from.index()].is_operational() && states[to.index()].is_operational())
    }

    /// Pipelined scatter: submits `request` to every reachable target —
    /// claiming window slots in ascending site order, so a scatter blocked
    /// on site `j`'s full window holds slots only on sites `< j` and
    /// concurrent scatters cannot form a wait cycle — then gathers the
    /// demuxed replies in target order. Every held slot is released once
    /// its server, which always replies in order, answers. Early-quorum
    /// stragglers are still received (and charged) here and truncated
    /// after the fact; the batch already costs a single round trip, so
    /// there is nobody to unblock. §5 message counts are identical to the
    /// sequential fan-out.
    fn pipelined(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest,
        request: WireRequest,
    ) -> ScatterReplies {
        // One `enabled()` load decides whether any obs work happens in this
        // batch; the disabled path records nothing.
        let obs_on = blockrep_obs::enabled();
        if obs_on {
            crate::obs_hooks::scatter_batch().record(targets.len() as u64);
        }
        let tracing = obs_on && crate::obs_hooks::tracing();
        let probe = matches!(
            req,
            ScatterRequest::InstallIfAvailable { .. } | ScatterRequest::InstallIfAvailableMany(_)
        );
        type Slot = Option<(Arc<MuxConn>, Receiver<Option<WireResponse>>)>;
        let mut in_flight: Vec<(SiteId, Slot)> = Vec::with_capacity(targets.len());
        for &t in targets {
            debug_assert!(
                in_flight.last().is_none_or(|(prev, _)| *prev < t),
                "scatter targets must ascend (window-slot order)"
            );
            // The availability probe is a coordination-layer state read (no
            // socket traffic), exactly as in the sequential body.
            let send = self.reachable(origin, t)
                && (!probe || self.probe_state(origin, t) == Some(SiteState::Available));
            let slot = if send {
                let send_span = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_scatter_send(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                // The send span is the wire parent, so the server's
                // remote_apply span lands under this site's send leg (a
                // grandchild of the op — attribution sums direct children
                // only and must not double-count it).
                let trace = send_span.as_ref().map(|s| s.context());
                self.conn(t).and_then(|conn| {
                    let rx = conn.submit(request.clone(), trace)?;
                    Some((conn, rx))
                })
            } else {
                None
            };
            in_flight.push((t, slot));
        }
        let mut replies: ScatterReplies = Vec::with_capacity(targets.len());
        for (t, slot) in in_flight {
            let reply = slot.and_then(|(conn, rx)| {
                let gather_span = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_gather_wait(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                let response = rx.recv().ok().flatten();
                drop(gather_span);
                conn.release_slot();
                response.and_then(|r| r.into_scatter_reply(req))
            });
            replies.push((t, reply));
        }
        if let Some(kind) = spec.reply_charge {
            let gathered = replies.iter().filter(|(_, r)| r.is_some()).count() as u64;
            self.counter
                .add_many(spec.op, kind, spec.reply_units, gathered);
        }
        backend::truncate_to_threshold(&self.cfg, &mut replies, spec.gather);
        // On this runtime the whole batch is one round trip, so the "cut"
        // is the post-hoc truncation above; mark where it landed.
        if tracing && matches!(spec.gather, Gather::EarlyQuorum { .. }) {
            blockrep_obs::trace::instant(
                crate::obs_hooks::phase_early_quorum_cut(),
                origin.as_u32(),
            );
        }
        replies
    }
}

impl Backend for TcpCluster {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn delivery_mode(&self) -> DeliveryMode {
        self.mode
    }

    fn counter(&self) -> &TrafficCounter {
        &self.counter
    }

    fn early_quorum(&self) -> bool {
        self.early_quorum.load(Ordering::Relaxed)
    }

    fn local_state(&self, s: SiteId) -> SiteState {
        self.states.read()[s.index()]
    }

    fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.states.write()[s.index()] = state;
    }

    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        if !self.reachable(from, to) {
            return None;
        }
        let state = self.states.read()[to.index()];
        state.is_operational().then_some(state)
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        self.rpc(from, to, WireRequest::Vote(k))?.into_version()
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.rpc(from, to, WireRequest::Fetch(k))?.into_block()
    }

    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.rpc(from, to, WireRequest::FetchLease(k))?.into_block()
    }

    fn block_locks(&self) -> &BlockLockTable {
        &self.locks
    }

    fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    fn apply_write(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
    ) -> bool {
        self.rpc(from, to, WireRequest::ApplyWrite(k, v, data.clone()))
            .is_some_and(|r| r.is_ack())
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> BlockData {
        self.rpc(s, s, WireRequest::ReadLocal(k))
            .and_then(WireResponse::into_data)
            .expect("a site can always read its own disk")
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> Vec<BlockData> {
        self.rpc(s, s, WireRequest::ReadLocalMany(ks.to_vec()))
            .and_then(|r| r.into_data_many(ks.len()))
            .expect("a site can always read its own disk")
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        self.rpc(from, to, WireRequest::VersionVector)?
            .into_vector()
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<(VersionVector, RepairBlocks)> {
        self.rpc(from, to, WireRequest::RepairPayload(vv.clone()))?
            .into_payload()
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        let n = blocks.len();
        match self.rpc(s, s, WireRequest::ApplyRepair(blocks)) {
            Some(r) if r.is_ack() => n,
            _ => 0,
        }
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        self.rpc(from, to, WireRequest::GetW)?.into_was_available()
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &BTreeSet<SiteId>) -> bool {
        self.rpc(from, to, WireRequest::SetW(w.clone()))
            .is_some_and(|r| r.is_ack())
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.rpc(from, to, WireRequest::AddW(member))
            .is_some_and(|r| r.is_ack())
    }

    fn apply_write_faulty(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
        fault: blockrep_storage::StorageFault,
    ) -> bool {
        let request = WireRequest::ApplyWriteFaulty(k, v, data.clone(), fault);
        self.rpc(from, to, request).is_some_and(|r| r.is_ack())
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        self.rpc(s, s, WireRequest::Scrub)
            .and_then(WireResponse::into_count)
            .map_or(0, |n| n as usize)
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        self.rpc(from, to, WireRequest::VoteMany(ks.to_vec()))?
            .into_versions(ks.len())
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        self.rpc(from, to, WireRequest::ApplyWriteMany(writes.clone()))
            .is_some_and(|r| r.is_ack())
    }

    fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest,
    ) -> ScatterReplies {
        match req.wire_request() {
            Some(request) if self.parallel.load(Ordering::Relaxed) => {
                self.pipelined(spec, origin, targets, req, request)
            }
            // Pure state probes never touch a socket; the sequential body
            // is already instantaneous.
            _ => backend::scatter_sequential(self, spec, origin, targets, req),
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        // Deliver Shutdown to every server — the server stops without
        // replying — then close the connections, joining their readers.
        for site in self.cfg.site_ids() {
            if let Some(conn) = self.conn(site) {
                let _ = conn.submit(WireRequest::Shutdown, None);
            }
        }
        for conn in &self.conns {
            conn.read().close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("sites", &self.cfg.num_sites())
            .field("scheme", &self.cfg.scheme())
            .field("addrs", &self.addrs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn tcp(scheme: Scheme, n: usize) -> TcpCluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(n)
            .num_blocks(4)
            .block_size(32)
            .build()
            .unwrap();
        TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap()
    }

    #[test]
    fn tcp_write_read_roundtrip_all_schemes() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(1);
            c.write(sid(0), k, BlockData::from(vec![9; 32])).unwrap();
            for i in 0..3 {
                assert_eq!(c.read(sid(i), k).unwrap().as_slice(), &[9; 32], "{scheme}");
            }
        }
    }

    #[test]
    fn tcp_failure_and_recovery() {
        let c = tcp(Scheme::AvailableCopy, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 32])).unwrap();
        c.fail_site(sid(2));
        c.write(sid(0), k, BlockData::from(vec![2; 32])).unwrap();
        c.repair_site(sid(2));
        assert_eq!(c.site_state(sid(2)), SiteState::Available);
        assert_eq!(c.read(sid(2), k).unwrap().as_slice(), &[2; 32]);
    }

    #[test]
    fn tcp_total_failure_naive_waits_for_all() {
        let c = tcp(Scheme::NaiveAvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![7; 32]))
            .unwrap();
        for i in 0..3 {
            c.fail_site(sid(i));
        }
        c.repair_site(sid(2));
        assert!(!c.is_available());
        c.repair_site(sid(0));
        c.repair_site(sid(1));
        assert!(c.is_available());
        assert_eq!(
            c.read(sid(0), BlockIndex::new(0)).unwrap().as_slice(),
            &[7; 32]
        );
    }

    #[test]
    fn tcp_voting_quorum() {
        let c = tcp(Scheme::Voting, 3);
        c.fail_site(sid(1));
        c.fail_site(sid(2));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_err());
        c.repair_site(sid(1));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_ok());
    }

    #[test]
    fn shutdown_is_clean() {
        let c = tcp(Scheme::Voting, 4);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 32]))
            .unwrap();
        drop(c); // joins all server threads without hanging
    }

    #[test]
    fn addresses_are_distinct_loopback_ports() {
        let c = tcp(Scheme::Voting, 3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3 {
            let addr = c.addr(sid(i));
            assert!(addr.ip().is_loopback());
            assert!(seen.insert(addr), "duplicate {addr}");
        }
    }

    #[test]
    fn torn_frame_poisons_the_connection_and_the_next_rpc_reconnects() {
        let c = tcp(Scheme::Voting, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
        // Corrupt the conversation with site 1: the server rejects the
        // frame and hangs up, which kills the connection.
        let torn = Arc::clone(&c.conns[1].read());
        wire::write_frame(&mut torn.writer.lock().0, &[0xFF]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !torn.is_dead() {
            assert!(
                std::time::Instant::now() < deadline,
                "the server never hung up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every later exchange goes over a redialed connection instead of
        // failing forever while writes quietly lose a vote.
        assert_eq!(c.vote(sid(0), sid(1), k), Some(VersionNumber::new(1)));
        assert_eq!(c.vote(sid(0), sid(1), k), Some(VersionNumber::new(1)));
        assert!(!Arc::ptr_eq(&torn, &c.conns[1].read()));
        // End-to-end traffic over the recovered connection still works.
        c.write(sid(2), k, BlockData::from(vec![4; 32])).unwrap();
        assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[4; 32]);
    }

    #[test]
    fn multiplexing_is_the_only_transport() {
        let c = tcp(Scheme::Voting, 3);
        c.set_multiplexing(true).unwrap();
        let err = c.set_multiplexing(false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn mux_serves_concurrent_clients() {
        let c = Arc::new(tcp(Scheme::Voting, 3));
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 32])).unwrap();
        // Many clients share the multiplexed sockets; every read must see a
        // committed value (one of the concurrently written ones).
        let writers: Vec<_> = (0..4u8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..8u8 {
                        let k = BlockIndex::new(u64::from(i % 4));
                        let fill = i.wrapping_mul(16).wrapping_add(round);
                        c.write(sid(u32::from(i) % 3), k, BlockData::from(vec![fill; 32]))
                            .unwrap();
                        let got = c.read(sid((u32::from(i) + 1) % 3), k).unwrap();
                        assert_eq!(got.len(), 32);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn parallel_and_sequential_fanout_agree_on_results_and_traffic() {
        for scheme in Scheme::ALL {
            let par = tcp(scheme, 4);
            let seq = tcp(scheme, 4);
            seq.set_fanout(FanoutMode::Sequential);
            assert_eq!(par.fanout(), FanoutMode::Parallel);
            for c in [&par, &seq] {
                let k = BlockIndex::new(2);
                c.write(sid(0), k, BlockData::from(vec![8; 32])).unwrap();
                c.fail_site(sid(1));
                c.write(sid(2), k, BlockData::from(vec![9; 32])).unwrap();
                c.repair_site(sid(1));
                assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[9; 32], "{scheme}");
            }
            assert_eq!(
                par.counter().snapshot(),
                seq.counter().snapshot(),
                "{scheme}: fan-out mode must not change §5 counts"
            );
        }
    }
}
