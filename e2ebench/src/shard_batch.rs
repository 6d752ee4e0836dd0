//! `shard-batch`: bulk vectored I/O across replica groups.
//!
//! A 4-shard `ShardedDevice` of 3-site, journaled, majority-consensus
//! groups on the live runtime, 4096 × 512 B blocks, no injected delay, every
//! block prefilled at set-up. Two clients issue, in equal shares,
//! group-aligned 64-block batches (one shard) and 128-block batches that
//! cross shards, half `read_blocks` and half `write_blocks`. This workload
//! shows shard fan-out (split, admission gates, one scoped thread per
//! touched shard) and the vectored vote and install scatters; it bypasses
//! fs, cache and leases.

use crate::analysis::{self, Top};
use crate::common::{self, json_str, Opts, Outcome};
use crate::harness::{self, ClientLog, Kind};
use crate::rng::Rng;
use crate::shadow::{block_payload, decode_block, BlockShadow};
use crate::trace::{Recorder, TracedBackend};
use blockrep_core::backend::Backend;
use blockrep_core::shard::{ShardSpec, ShardedDevice};
use blockrep_core::LiveCluster;
use blockrep_net::{DeliveryMode, TrafficSnapshot};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockIndex, Scheme, SiteId};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const BLOCKS: u64 = 4096;
const BLOCK_SIZE: usize = 512;
const GROUP: u64 = 64;
const CROSS: u64 = 128;
const CLIENTS: usize = 2;
/// Tag of the set-up value of every block; client writes use higher tags.
const PREFILL_TAG: u64 = 1;

/// The workload's parameters, for the report.
pub fn params(clients: usize) -> Vec<(&'static str, String)> {
    vec![
        ("runtime", json_str("live")),
        ("scheme", json_str("majority consensus voting, journaled")),
        ("shards", SHARDS.to_string()),
        ("sites_per_shard", "3".to_string()),
        ("blocks", BLOCKS.to_string()),
        ("block_size", BLOCK_SIZE.to_string()),
        ("group_blocks", GROUP.to_string()),
        (
            "mix",
            json_str("50% 64-block group-aligned, 50% 128-block cross-shard; 50% read, 50% write"),
        ),
        ("clients", clients.to_string()),
        ("link_delay_us", "0".to_string()),
    ]
}

fn spec() -> ShardSpec {
    ShardSpec {
        journaled: true,
        block_size: BLOCK_SIZE,
        group_size: GROUP,
        ..ShardSpec::new(Scheme::Voting, SHARDS, BLOCKS)
    }
}

fn plain() -> Result<ShardedDevice<LiveCluster>, String> {
    ShardedDevice::live(&spec(), DeliveryMode::Multicast).map_err(|e| e.to_string())
}

fn traced(rec: &Arc<Recorder>) -> Result<ShardedDevice<TracedBackend<LiveCluster>>, String> {
    let spec = spec();
    let cfg = spec.shard_config().map_err(|e| e.to_string())?;
    let shards = (0..SHARDS as u32)
        .map(|i| {
            let live = Arc::new(LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast));
            Arc::new(TracedBackend::new(live, Arc::clone(rec), i))
        })
        .collect();
    let manifest = spec.manifest().map_err(|e| e.to_string())?;
    Ok(ShardedDevice::new(shards, manifest, SiteId::new(0)))
}

/// Writes every block once, group by group, and records it in a fresh
/// shadow.
fn prefill<C: Backend>(dev: &ShardedDevice<C>, clients: usize) -> Result<BlockShadow, String> {
    let shadow = BlockShadow::new(BLOCKS, clients);
    for g in 0..BLOCKS / GROUP {
        let writes: Vec<_> = (g * GROUP..(g + 1) * GROUP)
            .map(|k| {
                (
                    BlockIndex::new(k),
                    block_payload(k, PREFILL_TAG, BLOCK_SIZE),
                )
            })
            .collect();
        dev.write_blocks(&writes)
            .map_err(|e| format!("set-up write of group {g}: {e}"))?;
    }
    for k in 0..BLOCKS {
        shadow.install(k, PREFILL_TAG);
    }
    Ok(shadow)
}

fn traffic<C: Backend>(dev: &ShardedDevice<C>) -> Vec<TrafficSnapshot> {
    dev.shard_backends()
        .iter()
        .map(|c| c.counter().snapshot())
        .collect()
}

fn since(now: Vec<TrafficSnapshot>, before: &[TrafficSnapshot]) -> Vec<TrafficSnapshot> {
    now.into_iter().zip(before).map(|(n, &b)| n - b).collect()
}

/// One op: a batch drawn from `rng`, checked against `shadow`.
fn step<C: Backend>(
    dev: &ShardedDevice<C>,
    shadow: &BlockShadow,
    client: usize,
    rng: &mut Rng,
    next_tag: &mut u64,
    log: &mut ClientLog,
) -> Result<(), String> {
    let (first, len) = if rng.percent(50) {
        (rng.below(BLOCKS / GROUP) * GROUP, GROUP)
    } else {
        loop {
            let first = rng.below(BLOCKS - CROSS + 1);
            let last = first + CROSS - 1;
            if dev.shard_of(BlockIndex::new(first)) != dev.shard_of(BlockIndex::new(last)) {
                break (first, CROSS);
            }
        }
    };
    let ks: Vec<u64> = (first..first + len).collect();
    if rng.percent(50) {
        let tag = *next_tag;
        *next_tag += 1;
        let writes: Vec<_> = ks
            .iter()
            .map(|&k| (BlockIndex::new(k), block_payload(k, tag, BLOCK_SIZE)))
            .collect();
        shadow.begin_write(&ks, tag);
        let ok = log
            .op(Kind::Write, first, len as u32, || dev.write_blocks(&writes))
            .is_ok();
        shadow.end_write(&ks, tag, ok);
    } else {
        let idx: Vec<BlockIndex> = ks.iter().map(|&k| BlockIndex::new(k)).collect();
        let rs = shadow.begin_read(client);
        let got = log.op(Kind::Read, first, len as u32, || dev.read_blocks(&idx));
        if let Ok(blocks) = got {
            for (&k, data) in ks.iter().zip(&blocks) {
                let tag = decode_block(k, data.as_slice())?;
                shadow.check_read(rs, k, tag)?;
            }
        }
        shadow.end_read(client);
    }
    Ok(())
}

/// Reads every block once the clients have stopped; each must hold its
/// last acknowledged value.
fn verify<C: Backend>(dev: &ShardedDevice<C>, shadow: &BlockShadow) -> Result<(), String> {
    for g in 0..BLOCKS / GROUP {
        let ks: Vec<BlockIndex> = (g * GROUP..(g + 1) * GROUP).map(BlockIndex::new).collect();
        let blocks = dev
            .read_blocks(&ks)
            .map_err(|e| format!("final read of group {g}: {e}"))?;
        let rs = shadow.begin_read(0);
        for (k, data) in ks.iter().zip(&blocks) {
            let tag = decode_block(k.as_u64(), data.as_slice())?;
            shadow.check_read(rs, k.as_u64(), tag)?;
        }
        shadow.end_read(0);
    }
    Ok(())
}

fn load<C: Backend>(
    opts: &Opts,
    epoch: Instant,
    dev: &ShardedDevice<C>,
    shadow: &BlockShadow,
    clients: usize,
) -> Result<harness::Load, String> {
    if opts.corrupt_shadow {
        shadow.corrupt();
    }
    let clients: Vec<harness::Client<'_>> = (0..clients)
        .map(|c| {
            let mut rng = Rng::new(opts.seed, c as u64);
            let mut next_tag = (c as u64 + 1) << 40;
            Box::new(move |log: &mut ClientLog| step(dev, shadow, c, &mut rng, &mut next_tag, log))
                as harness::Client<'_>
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
        let ((dev, shadow), setup_s) = common::timed_setups(|| {
            let dev = plain()?;
            let shadow = prefill(&dev, clients)?;
            Ok((dev, shadow))
        })?;
        let before = traffic(&dev);
        let l = load(opts, epoch, &dev, &shadow, clients)?;
        out.end_to_end(&l.end_to_end(), &since(traffic(&dev), &before), setup_s);
        verify(&dev, &shadow)?;
        return Ok(out);
    }

    let untraced = {
        let dev = plain()?;
        let shadow = prefill(&dev, clients)?;
        let l = load(opts, epoch, &dev, &shadow, clients)?;
        verify(&dev, &shadow)?;
        l.end_to_end()
    };
    let rec = Recorder::new(epoch, true);
    let dev = traced(&rec)?;
    let shadow = prefill(&dev, clients)?;
    rec.clear();
    let before = traffic(&dev);
    let l = load(opts, epoch, &dev, &shadow, clients)?;
    let delta = since(traffic(&dev), &before);
    let traced_e2e = l.end_to_end();
    let table: Vec<usize> = (0..BLOCKS / GROUP)
        .map(|g| dev.shard_of(BlockIndex::new(g * GROUP)))
        .collect();
    let shard_of = |k: u64| table[(k / GROUP) as usize];
    let (figures, unmatched) = analysis::analyze(
        &l.all(),
        rec.take_spans(),
        Top::Shard,
        Some(&shard_of),
        l.window(),
    );
    verify(&dev, &shadow)?;
    out.figures(figures);
    out.net(&delta, BLOCK_SIZE, BLOCKS, traced_e2e.completed);
    out.overhead(&untraced, &traced_e2e);
    out.notes.push(("unmatched_spans", unmatched.to_string()));
    Ok(out)
}
