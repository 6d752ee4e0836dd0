//! `point-lan`: small-block traffic on a network with delay, where §5's
//! message counts cost time.
//!
//! The live runtime with 5 sites, majority consensus voting, read leases on,
//! a 200 µs injected link delay and 1024 × 512 B blocks, every block
//! prefilled at set-up. Two clients coordinate at sites 0 and 1 and issue
//! single-block ops, 90% reads and 10% writes, on Zipf(0.99) keys. The
//! first client also fails and repairs sites 3 and 4 in turn, one step
//! every `FAULT_EVERY` of its ops. This workload shows the lease fast path
//! and its invalidation, the per-block lock table, the link delay and
//! lazy per-block recovery; it bypasses fs, cache and shards.

use crate::analysis::{self, Top};
use crate::common::{self, json_str, Opts, Outcome};
use crate::harness::{self, ClientLog, Kind};
use crate::rng::{Rng, Zipf};
use crate::shadow::{block_payload, decode_block, BlockShadow};
use crate::stats;
use crate::trace::{Recorder, TracedBackend};
use blockrep_core::backend::Backend;
use blockrep_core::{LiveCluster, ReliableDevice};
use blockrep_net::DeliveryMode;
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockIndex, DeviceConfig, Scheme, SiteId, SiteState};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: usize = 5;
const BLOCKS: u64 = 1024;
const BLOCK_SIZE: usize = 512;
const DELAY: Duration = Duration::from_micros(200);
const THETA: f64 = 0.99;
const READ_PERCENT: u64 = 90;
const CLIENTS: usize = 2;
/// Ops of the first client between two fault steps.
const FAULT_EVERY: u64 = 200;
/// The fault cycle: (site, repair?).
const FAULTS: [(u32, bool); 4] = [(3, false), (3, true), (4, false), (4, true)];
const PREFILL_TAG: u64 = 1;
const PREFILL_BATCH: u64 = 64;

/// The workload's parameters, for the report.
pub fn params(clients: usize) -> Vec<(&'static str, String)> {
    vec![
        ("runtime", json_str("live")),
        (
            "scheme",
            json_str("majority consensus voting, read leases on"),
        ),
        ("sites", SITES.to_string()),
        ("blocks", BLOCKS.to_string()),
        ("block_size", BLOCK_SIZE.to_string()),
        ("mix", json_str("90% read_block, 10% write_block")),
        ("keys", json_str("zipf theta 0.99, rank r is block r")),
        ("coordinators", json_str("client i at site i")),
        (
            "faults",
            json_str("fail 3, repair 3, fail 4, repair 4, one step per 200 ops of client 0"),
        ),
        ("clients", clients.to_string()),
        ("link_delay_us", DELAY.as_micros().to_string()),
    ]
}

fn cluster() -> Result<Arc<LiveCluster>, String> {
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .sites(SITES)
        .num_blocks(BLOCKS)
        .block_size(BLOCK_SIZE)
        .build()
        .map_err(|e| e.to_string())?;
    let c = LiveCluster::spawn(cfg, DeliveryMode::Multicast);
    c.set_leases(true);
    c.set_link_latency(DELAY);
    Ok(Arc::new(c))
}

fn prefill<C: Backend>(backend: &Arc<C>, clients: usize) -> Result<BlockShadow, String> {
    let dev = ReliableDevice::new(Arc::clone(backend), SiteId::new(0));
    let shadow = BlockShadow::new(BLOCKS, clients);
    for first in (0..BLOCKS).step_by(PREFILL_BATCH as usize) {
        let writes: Vec<_> = (first..first + PREFILL_BATCH)
            .map(|k| {
                (
                    BlockIndex::new(k),
                    block_payload(k, PREFILL_TAG, BLOCK_SIZE),
                )
            })
            .collect();
        dev.write_blocks(&writes)
            .map_err(|e| format!("set-up write at block {first}: {e}"))?;
    }
    for k in 0..BLOCKS {
        shadow.install(k, PREFILL_TAG);
    }
    Ok(shadow)
}

/// One client's state.
struct Client<C> {
    id: usize,
    dev: ReliableDevice<C>,
    rng: Rng,
    next_tag: u64,
    ops: u64,
    faults: u64,
}

/// Inputs shared by the clients.
struct Shared<'a> {
    live: &'a LiveCluster,
    shadow: &'a BlockShadow,
    zipf: &'a Zipf,
}

impl<C: Backend> Client<C> {
    fn step(&mut self, sh: &Shared<'_>, log: &mut ClientLog) -> Result<(), String> {
        self.ops += 1;
        if self.id == 0 && self.ops.is_multiple_of(FAULT_EVERY) {
            let (site, repair) = FAULTS[(self.faults % FAULTS.len() as u64) as usize];
            self.faults += 1;
            let s = SiteId::new(site);
            log.fault(repair, || {
                if repair {
                    sh.live.repair_site(s);
                } else {
                    sh.live.fail_site(s);
                }
            });
        }
        // Rank r is block r: which blocks are hot, and so which site a
        // lease read is routed to, does not change with the seed.
        let k = sh.zipf.sample(&mut self.rng) as u64;
        let idx = BlockIndex::new(k);
        if self.rng.percent(READ_PERCENT) {
            let rs = sh.shadow.begin_read(self.id);
            if let Ok(data) = log.op(Kind::Read, k, 1, || self.dev.read_block(idx)) {
                let tag = decode_block(k, data.as_slice())?;
                sh.shadow.check_read(rs, k, tag)?;
            }
            sh.shadow.end_read(self.id);
        } else {
            let tag = self.next_tag;
            self.next_tag += 1;
            let data = block_payload(k, tag, BLOCK_SIZE);
            sh.shadow.begin_write(&[k], tag);
            let ok = log
                .op(Kind::Write, k, 1, || self.dev.write_block(idx, data))
                .is_ok();
            sh.shadow.end_write(&[k], tag, ok);
        }
        Ok(())
    }
}

/// Repairs any site the fault cycle left down, then reads every block:
/// each must hold its last acknowledged value.
fn verify<C: Backend>(
    backend: &Arc<C>,
    live: &LiveCluster,
    shadow: &BlockShadow,
) -> Result<(), String> {
    for (site, _) in FAULTS {
        let s = SiteId::new(site);
        if live.site_state(s) == SiteState::Failed {
            live.repair_site(s);
        }
    }
    let dev = ReliableDevice::new(Arc::clone(backend), SiteId::new(0));
    let rs = shadow.begin_read(0);
    for k in 0..BLOCKS {
        let data = dev
            .read_block(BlockIndex::new(k))
            .map_err(|e| format!("final read of block {k}: {e}"))?;
        shadow.check_read(rs, k, decode_block(k, data.as_slice())?)?;
    }
    shadow.end_read(0);
    Ok(())
}

fn load<C: Backend>(
    opts: &Opts,
    epoch: Instant,
    backend: &Arc<C>,
    live: &LiveCluster,
    shadow: &BlockShadow,
    clients: usize,
) -> Result<harness::Load, String> {
    if opts.corrupt_shadow {
        shadow.corrupt();
    }
    let zipf = Zipf::new(BLOCKS as usize, THETA);
    let shared = Shared {
        live,
        shadow,
        zipf: &zipf,
    };
    let shared = &shared;
    let clients: Vec<harness::Client<'_>> = (0..clients)
        .map(|c| {
            let mut client = Client {
                id: c,
                dev: ReliableDevice::new(Arc::clone(backend), SiteId::new(c as u32)),
                rng: Rng::new(opts.seed, c as u64),
                next_tag: (c as u64 + 1) << 40,
                ops: 0,
                faults: 0,
            };
            Box::new(move |log: &mut ClientLog| client.step(shared, log)) as harness::Client<'_>
        })
        .collect();
    harness::closed_loop(epoch, opts.warmup(), opts.measure(), clients)
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure or an oracle violation.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let clients = opts.clients(CLIENTS);
    let mut out = Outcome {
        params: params(clients),
        ..Outcome::default()
    };
    let epoch = Instant::now();
    if !opts.trace {
        let ((live, shadow), setup_s) = common::timed_setups(|| {
            let live = cluster()?;
            let shadow = prefill(&live, clients)?;
            Ok((live, shadow))
        })?;
        let before = live.counter().snapshot();
        let l = load(opts, epoch, &live, &live, &shadow, clients)?;
        out.end_to_end(
            &l.end_to_end(),
            &[live.counter().snapshot() - before],
            setup_s,
        );
        verify(&live, &live, &shadow)?;
        return Ok(out);
    }

    let untraced = {
        let live = cluster()?;
        let shadow = prefill(&live, clients)?;
        let l = load(opts, epoch, &live, &live, &shadow, clients)?;
        verify(&live, &live, &shadow)?;
        l.end_to_end()
    };
    let rec = Recorder::new(epoch, true);
    let live = cluster()?;
    let backend = Arc::new(TracedBackend::new(Arc::clone(&live), Arc::clone(&rec), 0));
    let shadow = prefill(&backend, clients)?;
    rec.clear();
    let before = live.counter().snapshot();
    let l = load(opts, epoch, &backend, &live, &shadow, clients)?;
    let delta = live.counter().snapshot() - before;
    let traced_e2e = l.end_to_end();
    let (figures, unmatched) =
        analysis::analyze(&l.all(), rec.take_spans(), Top::Device, None, l.window());
    let fault_us = |repair: bool| {
        stats::mean(
            l.measured_faults()
                .filter(|f| f.repair == repair)
                .map(|f| (f.end - f.start) as f64 / 1e3),
        )
    };
    out.metrics.insert("recovery.repair_us", fault_us(true));
    out.metrics.insert("recovery.fail_us", fault_us(false));
    verify(&backend, &live, &shadow)?;
    out.figures(figures);
    out.net(&[delta], BLOCK_SIZE, BLOCKS, traced_e2e.completed);
    out.overhead(&untraced, &traced_e2e);
    out.notes.push(("unmatched_spans", unmatched.to_string()));
    Ok(out)
}
