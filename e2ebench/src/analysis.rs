//! Per-layer figures from the spans of a traced run.
//!
//! A layer's self time is the part of its spans that none of its child
//! spans covers: the length of the union of its own intervals minus the
//! length of the union of its children's. Unions, not sums, because the
//! sharded device overlaps its children.
//!
//! The layer stack of an op depends on the workload:
//!
//! | workload    | op span     | children, outermost first                  |
//! |-------------|-------------|--------------------------------------------|
//! | fs-files    | fs call     | cache calls, device calls, backend calls   |
//! | shard-batch | shard batch | per-shard rounds, backend calls            |
//! | point-lan   | device call | backend calls                              |
//!
//! A per-shard round is the interval from a fan-out thread's first backend
//! call to its last. Fan-out threads run no benchmark op, so their spans are
//! matched to the op that was in flight over the whole round and whose
//! blocks on that shard are exactly the blocks the round carried.

use crate::harness::{Kind, OpRec};
use crate::stats;
use crate::trace::{BlockSet, Call, Layer, Span};
use std::collections::{BTreeMap, HashMap};

/// The outermost layer an op enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Top {
    /// A file-system call over the cache and the reliable device.
    Fs,
    /// A vectored batch on the sharded device.
    Shard,
    /// A block call on the reliable device.
    Device,
}

/// The figures, by per-layer metric name.
pub type Figures = Vec<(&'static str, f64)>;

#[derive(Default)]
struct PerOp {
    spans: Vec<Span>,
    rounds: Vec<(u64, u64)>,
}

/// Computes the span-derived per-layer figures over the ops that started
/// in the measured window `[from, to)`; spans are matched against all
/// `ops`, warm-up included. `shard_of` maps a block to its shard on
/// sharded workloads. Returns the figures and the number of spans no op
/// could be matched to.
pub fn analyze(
    ops: &[OpRec],
    spans: Vec<Span>,
    top: Top,
    shard_of: Option<&dyn Fn(u64) -> usize>,
    (from, to): (u64, u64),
) -> (Figures, usize) {
    let mut ops: Vec<OpRec> = ops.to_vec();
    ops.sort_by_key(|o| o.start);
    let index: HashMap<u64, usize> = ops.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
    let mut per_op: Vec<PerOp> = ops.iter().map(|_| PerOp::default()).collect();
    let mut orphans: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    let mut unmatched = 0;
    for s in spans {
        if s.op == 0 {
            orphans.entry(s.thread).or_default().push(s);
        } else if let Some(&i) = index.get(&s.op) {
            per_op[i].spans.push(s);
        }
    }
    if let Some(shard_of) = shard_of {
        let sets = shard_sets(&ops, shard_of);
        for group in orphans.into_values() {
            match match_round(&ops, &sets, &group) {
                Some(i) => {
                    let start = group.iter().map(|s| s.start).min().unwrap_or(0);
                    let end = group.iter().map(|s| s.end).max().unwrap_or(0);
                    per_op[i].rounds.push((start, end));
                    per_op[i].spans.extend(group);
                }
                None => unmatched += group.len(),
            }
        }
    } else {
        // Outside the fan-out, a span without an op is set-up or fault
        // traffic, which no op is charged for.
        unmatched += orphans.values().map(Vec::len).sum::<usize>();
    }
    let (ops, per_op): (Vec<OpRec>, Vec<PerOp>) = ops
        .into_iter()
        .zip(per_op)
        .filter(|(o, _)| o.start >= from && o.start < to)
        .unzip();
    (figures(&ops, &per_op, top), unmatched)
}

/// Per op, the block set it touches on each shard.
fn shard_sets(ops: &[OpRec], shard_of: &dyn Fn(u64) -> usize) -> Vec<BTreeMap<usize, BlockSet>> {
    ops.iter()
        .map(|o| {
            let mut by_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for k in o.first..o.first + u64::from(o.len) {
                by_shard.entry(shard_of(k)).or_default().push(k);
            }
            by_shard
                .into_iter()
                .map(|(s, ks)| (s, BlockSet::of(ks)))
                .collect()
        })
        .collect()
}

/// The op a fan-out thread's spans belong to: in flight over the whole
/// round, with exactly the round's blocks on its shard. Ties go to the op
/// that started first.
fn match_round(ops: &[OpRec], sets: &[BTreeMap<usize, BlockSet>], group: &[Span]) -> Option<usize> {
    let start = group.iter().map(|s| s.start).min()?;
    let end = group.iter().map(|s| s.end).max()?;
    let probe = group.iter().find(|s| s.blocks.len > 0)?;
    let upto = ops.partition_point(|o| o.start <= start);
    let mut best = None;
    for i in (upto.saturating_sub(32)..upto).rev() {
        let o = &ops[i];
        if o.end >= end && sets[i].get(&(probe.shard as usize)) == Some(&probe.blocks) {
            best = Some(i);
        }
    }
    best
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn intervals(spans: &[Span], layer: Layer) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| (s.start, s.end))
        .collect()
}

fn figures(ops: &[OpRec], per_op: &[PerOp], top: Top) -> Figures {
    let n = ops.len() as f64;
    let reads = ops.iter().filter(|o| o.kind == Kind::Read).count() as f64;
    let mut f = Totals::default();
    for (o, p) in ops.iter().zip(per_op) {
        let whole = o.end - o.start;
        let u = |iv: Vec<(u64, u64)>| union_len(iv, o.start, o.end);
        let backend = u(intervals(&p.spans, Layer::Backend));
        match top {
            Top::Fs => {
                let cache = u(intervals(&p.spans, Layer::Cache));
                let device = u(intervals(&p.spans, Layer::Device));
                f.fs_self += whole.saturating_sub(cache);
                f.cache_self += cache.saturating_sub(device);
                f.protocol_self += device.saturating_sub(backend);
            }
            Top::Shard => {
                let rounds = u(p.rounds.clone());
                f.shard_self += whole.saturating_sub(rounds);
                f.protocol_self += rounds.saturating_sub(backend);
                f.rounds += p.rounds.len() as u64;
                for &(s, _) in &p.rounds {
                    f.lead += s.saturating_sub(o.start);
                }
                if let Some(last) = p.rounds.iter().map(|&(_, e)| e).max() {
                    f.tail += o.end.saturating_sub(last);
                }
            }
            Top::Device => f.protocol_self += whole.saturating_sub(backend),
        }
        let mut voted = false;
        let mut leased = false;
        for s in &p.spans {
            match s.layer {
                Layer::Cache => {
                    f.fs_calls += 1;
                    f.fs_blocks += u64::from(s.blocks.len);
                    f.fs_single_writes += u64::from(s.call == Call::WriteBlock);
                }
                Layer::Device => {}
                Layer::Backend => {
                    let us = (s.end - s.start) as f64 / 1e3;
                    f.backend_calls += 1;
                    if s.call.is_scatter() {
                        f.scatter_us.push(us);
                    } else if s.local {
                        f.local_us.push(us);
                    } else {
                        f.remote_us.push(us);
                    }
                    voted |= s.call.is_vote();
                    leased |= s.call == Call::FetchLease || (s.call == Call::FetchBlock && s.local);
                    if o.kind == Kind::Read && s.call == Call::FetchBlock && !s.local {
                        f.stale_fetches += 1;
                    }
                }
            }
        }
        if o.kind == Kind::Read && leased {
            if voted {
                f.lease_fallbacks += 1;
            } else {
                f.lease_hits += 1;
            }
        }
    }
    let us = |ns: u64| stats::ratio(ns as f64 / 1e3, n);
    let per_op = |x: u64| stats::ratio(x as f64, n);
    let scatters = f.scatter_us.len() as u64;
    let scatter_p99 = stats::summarize(&mut f.scatter_us).p99;
    vec![
        ("fs.self_us", us(f.fs_self)),
        ("fs.dev_calls_per_op", per_op(f.fs_calls)),
        ("fs.single_block_writes_per_op", per_op(f.fs_single_writes)),
        ("fs.blocks_per_op", per_op(f.fs_blocks)),
        ("cache.self_us", us(f.cache_self)),
        ("protocol.self_us", us(f.protocol_self)),
        ("protocol.backend_calls_per_op", per_op(f.backend_calls)),
        ("protocol.scatters_per_op", per_op(scatters)),
        ("shard.shards_per_op", per_op(f.rounds)),
        (
            "shard.fanout_lead_us",
            stats::ratio(f.lead as f64 / 1e3, f.rounds as f64),
        ),
        ("shard.tail_us", us(f.tail)),
        ("shard.self_us", us(f.shard_self)),
        ("lease.hit_ratio", stats::ratio(f.lease_hits as f64, reads)),
        (
            "lease.fallback_ratio",
            stats::ratio(f.lease_fallbacks as f64, reads),
        ),
        ("transport.local_call_us", stats::mean(f.local_us)),
        ("transport.remote_call_us", stats::mean(f.remote_us)),
        ("transport.scatter_us", stats::mean(f.scatter_us)),
        ("transport.scatter_p99_us", scatter_p99),
        (
            "recovery.stale_fetches_per_read",
            stats::ratio(f.stale_fetches as f64, reads),
        ),
    ]
}

#[derive(Default)]
struct Totals {
    fs_self: u64,
    cache_self: u64,
    protocol_self: u64,
    shard_self: u64,
    rounds: u64,
    lead: u64,
    tail: u64,
    fs_calls: u64,
    fs_blocks: u64,
    fs_single_writes: u64,
    backend_calls: u64,
    local_us: Vec<f64>,
    remote_us: Vec<f64>,
    scatter_us: Vec<f64>,
    stale_fetches: u64,
    lease_hits: u64,
    lease_fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u64, start: u64, end: u64, first: u64, len: u32) -> OpRec {
        OpRec {
            id,
            kind: Kind::Read,
            start,
            end,
            ok: true,
            first,
            len,
        }
    }

    fn span(layer: Layer, call: Call, op: u64, thread: u64, start: u64, end: u64) -> Span {
        Span {
            layer,
            call,
            local: false,
            start,
            end,
            op,
            thread,
            shard: 0,
            blocks: BlockSet::default(),
        }
    }

    fn get(f: &Figures, name: &str) -> f64 {
        f.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn unions_merge_overlaps_and_clip() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let ops = [op(1, 0, 10_000, 0, 0)];
        let spans = vec![
            span(Layer::Cache, Call::ReadBlock, 1, 1, 1_000, 9_000),
            span(Layer::Device, Call::ReadBlock, 1, 1, 2_000, 8_000),
            span(Layer::Backend, Call::ScatterVote, 1, 1, 3_000, 5_000),
            span(Layer::Backend, Call::ReadLocal, 1, 1, 4_000, 6_000),
        ];
        let (f, unmatched) = analyze(&ops, spans, Top::Fs, None, (0, u64::MAX));
        assert_eq!(unmatched, 0);
        assert_eq!(get(&f, "fs.self_us"), 2.0);
        assert_eq!(get(&f, "cache.self_us"), 2.0);
        assert_eq!(get(&f, "protocol.self_us"), 3.0);
        assert_eq!(get(&f, "protocol.scatters_per_op"), 1.0);
    }

    #[test]
    fn fan_out_spans_join_the_op_whose_blocks_they_carry() {
        // Two overlapping batches on one shard; the round carries op 2's
        // blocks, so it is op 2's even though op 1 was in flight too.
        let ops = [op(1, 0, 50_000, 0, 4), op(2, 1_000, 40_000, 8, 4)];
        let mut round = span(Layer::Backend, Call::ScatterVoteMany, 0, 9, 10_000, 20_000);
        round.blocks = BlockSet::of(8..12);
        let shard_of = |_k: u64| 0;
        let (f, unmatched) = analyze(
            &ops,
            vec![round],
            Top::Shard,
            Some(&shard_of),
            (0, u64::MAX),
        );
        assert_eq!(unmatched, 0);
        assert_eq!(get(&f, "shard.shards_per_op"), 0.5);
        assert_eq!(get(&f, "shard.fanout_lead_us"), 9.0);
        assert_eq!(get(&f, "shard.tail_us"), 10.0);
    }
}
