//! Outside-in tracing: timing shims around the public seams.
//!
//! [`TracedDevice`] wraps any [`BlockDevice`] (it sits between fs and cache
//! and between cache and device) and [`TracedBackend`] wraps any cluster
//! [`Backend`]. Each forwards every method to the wrapped value, the
//! overridden defaults included, so the system runs the same code paths
//! with or without the shims. A shim counts every call per kind and, when
//! its [`Recorder`] is timed, records a [`Span`] in memory.
//!
//! The parent of a span is the benchmark op running on the calling thread
//! ([`set_current_op`]). Threads the system spawns itself (the sharded
//! device's fan-out) have no current op; [`crate::analysis`] attributes
//! their spans afterwards.

use blockrep_core::backend::{
    Backend, RepairBlocks, RepairPayload, ScatterReplies, ScatterRequest, ScatterSpec, WriteBatch,
};
use blockrep_core::locks::{BlockLockTable, LeaseTable};
use blockrep_net::{DeliveryMode, TrafficCounter};
use blockrep_storage::{BlockDevice, StorageFault};
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The seam a span was recorded at, named after the layer being called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Calls from the file system into the cache.
    Cache,
    /// Calls from the cache into the reliable device.
    Device,
    /// Calls from the protocol into the cluster runtime (the transport).
    Backend,
}

const LAYERS: usize = 3;

macro_rules! calls {
    ($($v:ident),* $(,)?) => {
        /// The kind of a shimmed call.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Call { $($v),* }

        impl Call {
            /// Every kind, in declaration order.
            pub const ALL: &'static [Call] = &[$(Call::$v),*];

            /// The kind's name.
            pub fn name(self) -> &'static str {
                match self { $(Call::$v => stringify!($v)),* }
            }
        }
    };
}

calls!(
    ReadBlock,
    WriteBlock,
    ReadBlocks,
    WriteBlocks,
    Flush,
    LocalState,
    SetLocalState,
    ProbeState,
    Vote,
    FetchBlock,
    ApplyWrite,
    ReadLocal,
    ReadLocalMany,
    VersionVector,
    RepairPayload,
    ApplyRepairLocal,
    WasAvailable,
    SetWasAvailable,
    AddWasAvailable,
    ApplyWriteFaulty,
    ScrubLocal,
    VoteMany,
    ApplyWriteMany,
    FetchLease,
    ScatterVote,
    ScatterProbe,
    ScatterInstall,
    ScatterInstallIfAvailable,
    ScatterVersionVector,
    ScatterVoteMany,
    ScatterInstallMany,
    ScatterInstallIfAvailableMany,
);

impl Call {
    /// Whether this is a one-to-many fan-out.
    pub fn is_scatter(self) -> bool {
        self.name().starts_with("Scatter")
    }

    /// Whether this call collects votes.
    pub fn is_vote(self) -> bool {
        matches!(
            self,
            Call::Vote | Call::VoteMany | Call::ScatterVote | Call::ScatterVoteMany
        )
    }

    fn of_scatter(req: &ScatterRequest) -> Call {
        match req {
            ScatterRequest::Vote(_) => Call::ScatterVote,
            ScatterRequest::ProbeState => Call::ScatterProbe,
            ScatterRequest::Install { .. } => Call::ScatterInstall,
            ScatterRequest::InstallIfAvailable { .. } => Call::ScatterInstallIfAvailable,
            ScatterRequest::VersionVector => Call::ScatterVersionVector,
            ScatterRequest::VoteMany(_) => Call::ScatterVoteMany,
            ScatterRequest::InstallMany(_) => Call::ScatterInstallMany,
            ScatterRequest::InstallIfAvailableMany(_) => Call::ScatterInstallIfAvailableMany,
        }
    }
}

/// A block set in compact form: its size and an order-insensitive hash,
/// enough to tell which op's sub-batch a fan-out thread was serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockSet {
    /// Number of blocks.
    pub len: u32,
    /// Wrapping sum of the mixed block indices.
    pub fp: u64,
}

impl BlockSet {
    /// The set of `ks`.
    pub fn of(ks: impl IntoIterator<Item = u64>) -> BlockSet {
        ks.into_iter().fold(BlockSet::default(), |s, k| BlockSet {
            len: s.len + 1,
            fp: s.fp.wrapping_add(crate::rng::mix(k)),
        })
    }

    fn of_writes(writes: &[(BlockIndex, VersionNumber, BlockData)]) -> BlockSet {
        BlockSet::of(writes.iter().map(|(k, _, _)| k.as_u64()))
    }

    fn of_scatter(req: &ScatterRequest) -> BlockSet {
        match req {
            ScatterRequest::Vote(k)
            | ScatterRequest::Install { k, .. }
            | ScatterRequest::InstallIfAvailable { k, .. } => BlockSet::of([k.as_u64()]),
            ScatterRequest::VoteMany(ks) => BlockSet::of(ks.iter().map(|k| k.as_u64())),
            ScatterRequest::InstallMany(w) | ScatterRequest::InstallIfAvailableMany(w) => {
                BlockSet::of_writes(w)
            }
            ScatterRequest::ProbeState | ScatterRequest::VersionVector => BlockSet::default(),
        }
    }
}

/// One shimmed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The seam.
    pub layer: Layer,
    /// What was called.
    pub call: Call,
    /// Whether the call stayed on the coordinator (`from == to`, or a
    /// local action); fan-outs and calls to other sites are remote.
    pub local: bool,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// The parent op, or 0 when the calling thread was running none.
    pub op: u64,
    /// The calling thread (a per-process sequence number).
    pub thread: u64,
    /// Which shard's cluster was called (0 without sharding).
    pub shard: u32,
    /// The blocks the call carried.
    pub blocks: BlockSet,
}

thread_local! {
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Declares the op the calling thread runs from now on (0 for none).
pub fn set_current_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// The calling thread's sequence number.
pub fn thread_no() -> u64 {
    THREAD_NO.with(|t| *t)
}

/// Collects call counts and, when timed, spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    timed: bool,
    spans: Mutex<Vec<Span>>,
    counts: Vec<AtomicU64>,
}

impl Recorder {
    /// A recorder measuring from `epoch`; an untimed one only counts.
    pub fn new(epoch: Instant, timed: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            timed,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            counts: (0..LAYERS * Call::ALL.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn count(&self, layer: Layer, call: Call) {
        self.counts[layer as usize * Call::ALL.len() + call as usize]
            .fetch_add(1, Ordering::Relaxed);
    }

    fn call<T>(
        &self,
        layer: Layer,
        call: Call,
        local: bool,
        shard: u32,
        blocks: impl FnOnce() -> BlockSet,
        f: impl FnOnce() -> T,
    ) -> T {
        self.count(layer, call);
        if !self.timed {
            return f();
        }
        let blocks = blocks();
        let start = self.now();
        let out = f();
        let end = self.now();
        let span = Span {
            layer,
            call,
            local,
            start,
            end,
            op: CURRENT_OP.with(Cell::get),
            thread: thread_no(),
            shard,
            blocks,
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
        out
    }

    /// Drops everything recorded so far (set-up traffic).
    pub fn clear(&self) {
        self.spans.lock().expect("a span recorder panicked").clear();
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Takes the recorded spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span recorder panicked"))
    }

    /// Nonzero call counts as `(layer.call, count)`, in a fixed order.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let layers = [Layer::Cache, Layer::Device, Layer::Backend];
        let mut out = Vec::new();
        for layer in layers {
            for &call in Call::ALL {
                let n = self.counts[layer as usize * Call::ALL.len() + call as usize]
                    .load(Ordering::Relaxed);
                if n > 0 {
                    out.push((format!("{layer:?}.{}", call.name()), n));
                }
            }
        }
        out
    }
}

/// A [`BlockDevice`] shim recording every call into the wrapped device.
#[derive(Debug)]
pub struct TracedDevice<D> {
    inner: D,
    rec: Arc<Recorder>,
    layer: Layer,
}

impl<D> TracedDevice<D> {
    /// Wraps `inner`; its calls are recorded as `layer`.
    pub fn new(inner: D, rec: Arc<Recorder>, layer: Layer) -> Self {
        TracedDevice { inner, rec, layer }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn call<T>(&self, call: Call, blocks: impl FnOnce() -> BlockSet, f: impl FnOnce() -> T) -> T {
        self.rec.call(self.layer, call, true, 0, blocks, f)
    }
}

impl<D: BlockDevice> BlockDevice for TracedDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.call(
            Call::ReadBlock,
            || BlockSet::of([k.as_u64()]),
            || self.inner.read_block(k),
        )
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.call(
            Call::WriteBlock,
            || BlockSet::of([k.as_u64()]),
            || self.inner.write_block(k, data),
        )
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.call(
            Call::ReadBlocks,
            || BlockSet::of(ks.iter().map(|k| k.as_u64())),
            || self.inner.read_blocks(ks),
        )
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.call(
            Call::WriteBlocks,
            || BlockSet::of(writes.iter().map(|(k, _)| k.as_u64())),
            || self.inner.write_blocks(writes),
        )
    }

    fn flush(&self) -> DeviceResult<()> {
        self.call(Call::Flush, BlockSet::default, || self.inner.flush())
    }
}

/// A [`Backend`] shim recording every call into the wrapped cluster.
#[derive(Debug)]
pub struct TracedBackend<C> {
    inner: Arc<C>,
    rec: Arc<Recorder>,
    shard: u32,
}

impl<C> TracedBackend<C> {
    /// Wraps `inner`, the cluster of shard `shard`.
    pub fn new(inner: Arc<C>, rec: Arc<Recorder>, shard: u32) -> Self {
        TracedBackend { inner, rec, shard }
    }

    fn call<T>(
        &self,
        call: Call,
        local: bool,
        blocks: impl FnOnce() -> BlockSet,
        f: impl FnOnce() -> T,
    ) -> T {
        self.rec
            .call(Layer::Backend, call, local, self.shard, blocks, f)
    }
}

fn one(k: BlockIndex) -> impl FnOnce() -> BlockSet {
    move || BlockSet::of([k.as_u64()])
}

fn many(ks: &[BlockIndex]) -> impl FnOnce() -> BlockSet + '_ {
    move || BlockSet::of(ks.iter().map(|k| k.as_u64()))
}

impl<C: Backend> Backend for TracedBackend<C> {
    fn config(&self) -> &DeviceConfig {
        self.inner.config()
    }

    fn delivery_mode(&self) -> DeliveryMode {
        self.inner.delivery_mode()
    }

    fn counter(&self) -> &TrafficCounter {
        self.inner.counter()
    }

    fn local_state(&self, s: SiteId) -> SiteState {
        self.rec.count(Layer::Backend, Call::LocalState);
        self.inner.local_state(s)
    }

    fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.rec.count(Layer::Backend, Call::SetLocalState);
        self.inner.set_local_state(s, state);
    }

    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        self.call(Call::ProbeState, from == to, BlockSet::default, || {
            self.inner.probe_state(from, to)
        })
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        self.call(Call::Vote, from == to, one(k), || {
            self.inner.vote(from, to, k)
        })
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.call(Call::FetchBlock, from == to, one(k), || {
            self.inner.fetch_block(from, to, k)
        })
    }

    fn apply_write(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
    ) -> bool {
        self.call(Call::ApplyWrite, from == to, one(k), || {
            self.inner.apply_write(from, to, k, data, v)
        })
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> BlockData {
        self.call(Call::ReadLocal, true, one(k), || {
            self.inner.read_local(s, k)
        })
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> Vec<BlockData> {
        self.call(Call::ReadLocalMany, true, many(ks), || {
            self.inner.read_local_many(s, ks)
        })
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        self.call(Call::VersionVector, from == to, BlockSet::default, || {
            self.inner.version_vector(from, to)
        })
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<RepairPayload> {
        self.call(Call::RepairPayload, from == to, BlockSet::default, || {
            self.inner.repair_payload(from, to, vv)
        })
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        self.call(Call::ApplyRepairLocal, true, BlockSet::default, || {
            self.inner.apply_repair_local(s, blocks)
        })
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        self.call(Call::WasAvailable, from == to, BlockSet::default, || {
            self.inner.was_available(from, to)
        })
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &BTreeSet<SiteId>) -> bool {
        self.call(Call::SetWasAvailable, from == to, BlockSet::default, || {
            self.inner.set_was_available(from, to, w)
        })
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.call(Call::AddWasAvailable, from == to, BlockSet::default, || {
            self.inner.add_was_available(from, to, member)
        })
    }

    fn apply_write_faulty(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
        fault: StorageFault,
    ) -> bool {
        self.call(Call::ApplyWriteFaulty, from == to, one(k), || {
            self.inner.apply_write_faulty(from, to, k, data, v, fault)
        })
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        self.call(Call::ScrubLocal, true, BlockSet::default, || {
            self.inner.scrub_local(s)
        })
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        self.call(Call::VoteMany, from == to, many(ks), || {
            self.inner.vote_many(from, to, ks)
        })
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        self.call(
            Call::ApplyWriteMany,
            from == to,
            || BlockSet::of_writes(writes),
            || self.inner.apply_write_many(from, to, writes),
        )
    }

    fn early_quorum(&self) -> bool {
        self.inner.early_quorum()
    }

    fn block_locks(&self) -> &BlockLockTable {
        self.inner.block_locks()
    }

    fn leases(&self) -> &LeaseTable {
        self.inner.leases()
    }

    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.call(Call::FetchLease, from == to, one(k), || {
            self.inner.fetch_lease(from, to, k)
        })
    }

    fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest,
    ) -> ScatterReplies {
        self.call(
            Call::of_scatter(req),
            false,
            || BlockSet::of_scatter(req),
            || self.inner.scatter(spec, origin, targets, req),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_core::{Cluster, ClusterOptions, ReliableDevice};
    use blockrep_types::Scheme;

    #[test]
    fn block_sets_ignore_order() {
        assert_eq!(BlockSet::of([3, 1, 2]), BlockSet::of([1, 2, 3]));
        assert_ne!(BlockSet::of([1, 2]), BlockSet::of([1, 3]));
    }

    #[test]
    fn shims_forward_and_record_parent_ops() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(3)
            .num_blocks(8)
            .block_size(16)
            .build()
            .unwrap();
        let rec = Recorder::new(Instant::now(), true);
        let cluster = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
        let traced = Arc::new(TracedBackend::new(cluster, Arc::clone(&rec), 0));
        let dev = TracedDevice::new(
            ReliableDevice::new(traced, SiteId::new(0)),
            Arc::clone(&rec),
            Layer::Device,
        );
        set_current_op(7);
        dev.write_block(BlockIndex::new(2), BlockData::from(vec![5; 16]))
            .unwrap();
        assert_eq!(
            dev.read_block(BlockIndex::new(2)).unwrap().as_slice(),
            &[5; 16]
        );
        set_current_op(0);
        let spans = rec.take_spans();
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans
            .iter()
            .any(|s| s.layer == Layer::Backend && s.call.is_vote()));
        let device_calls: Vec<Call> = spans
            .iter()
            .filter(|s| s.layer == Layer::Device)
            .map(|s| s.call)
            .collect();
        assert_eq!(device_calls, [Call::WriteBlock, Call::ReadBlock]);
        assert!(rec
            .counts()
            .iter()
            .any(|(name, _)| name == "Backend.LocalState"));
    }
}
