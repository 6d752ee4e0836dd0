//! `fs-files`: the paper's own deployment (Fig. 1), an unmodified file
//! system over the replicated device.
//!
//! `blockrep-fs` over a 256-block write-through `CacheStore` over a
//! `ReliableDevice` over a multiplexed `TcpCluster`: naive available copy,
//! 3 sites, 4096 × 512 B blocks, no injected delay. One client works on 64
//! file slots of up to 16 KiB each: 60% whole-file reads, 30% whole-file
//! writes, 10% deletes. The live data (about two thirds of the slots, some
//! 350 KiB) exceeds the 128 KiB cache, so the cache both hits and misses.
//! This workload shows fs-metadata and per-RPC transport costs; it bypasses
//! shard fan-out and leases.

use crate::analysis::{self, Top};
use crate::common::{self, json_num, json_str, Opts, Outcome};
use crate::harness::{self, ClientLog, Kind};
use crate::rng::Rng;
use crate::shadow::{file_bytes, Slot};
use crate::trace::{Layer, Recorder, TracedBackend, TracedDevice};
use blockrep_core::{ReliableDevice, TcpCluster};
use blockrep_fs::FileSystem;
use blockrep_net::{DeliveryMode, TrafficSnapshot};
use blockrep_storage::{BlockDevice, CacheStats, CacheStore};
use blockrep_types::{DeviceConfig, Scheme, SiteId};
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 3;
const BLOCKS: u64 = 4096;
const BLOCK_SIZE: usize = 512;
const CACHE_BLOCKS: usize = 256;
const SLOTS: usize = 64;
const MAX_FILE: u64 = 16 * 1024;
/// Share of the slots holding a file after set-up, which is also the
/// steady state of the 30% write / 10% delete mix.
const PREFILL_PERCENT: u64 = 67;
/// Ops in the fixed prefix the traced and untraced runs are compared on.
const PARITY_OPS: usize = 200;

type Plain = FileSystem<CacheStore<ReliableDevice<TcpCluster>>>;
type Traced =
    FileSystem<TracedDevice<CacheStore<TracedDevice<ReliableDevice<TracedBackend<TcpCluster>>>>>>;

/// The workload's parameters, for the report.
pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("runtime", json_str("tcp (multiplexed)")),
        ("scheme", json_str("naive available copy")),
        ("sites", SITES.to_string()),
        ("blocks", BLOCKS.to_string()),
        ("block_size", BLOCK_SIZE.to_string()),
        ("cache_blocks", CACHE_BLOCKS.to_string()),
        ("file_slots", SLOTS.to_string()),
        ("max_file_bytes", MAX_FILE.to_string()),
        (
            "mix",
            json_str("60% read_file, 30% write_file, 10% remove_file"),
        ),
        ("clients", "1".to_string()),
        ("link_delay_us", "0".to_string()),
    ]
}

fn cluster() -> Result<Arc<TcpCluster>, String> {
    let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
        .sites(SITES)
        .num_blocks(BLOCKS)
        .block_size(BLOCK_SIZE)
        .build()
        .map_err(|e| e.to_string())?;
    let c = TcpCluster::spawn(cfg, DeliveryMode::Multicast).map_err(|e| e.to_string())?;
    c.set_multiplexing(true).map_err(|e| e.to_string())?;
    Ok(Arc::new(c))
}

fn plain(seed: u64) -> Result<(Arc<TcpCluster>, Plain, Files), String> {
    let c = cluster()?;
    let dev = CacheStore::new(
        ReliableDevice::new(Arc::clone(&c), SiteId::new(0)),
        CACHE_BLOCKS,
    );
    let fs = FileSystem::format(dev).map_err(|e| e.to_string())?;
    let files = Files::prefill(seed, &fs)?;
    Ok((c, fs, files))
}

fn traced(seed: u64, rec: &Arc<Recorder>) -> Result<(Arc<TcpCluster>, Traced, Files), String> {
    let c = cluster()?;
    let backend = Arc::new(TracedBackend::new(Arc::clone(&c), Arc::clone(rec), 0));
    let device = TracedDevice::new(
        ReliableDevice::new(backend, SiteId::new(0)),
        Arc::clone(rec),
        Layer::Device,
    );
    let cache = TracedDevice::new(
        CacheStore::new(device, CACHE_BLOCKS),
        Arc::clone(rec),
        Layer::Cache,
    );
    let fs = FileSystem::format(cache).map_err(|e| e.to_string())?;
    let files = Files::prefill(seed, &fs)?;
    rec.clear();
    Ok((c, fs, files))
}

/// The client's input stream and its shadow of every slot.
struct Files {
    rng: Rng,
    slots: Vec<Slot>,
    next_tag: u64,
}

fn path(slot: usize) -> String {
    format!("/f{slot:02}")
}

impl Files {
    fn prefill<D: BlockDevice>(seed: u64, fs: &FileSystem<D>) -> Result<Files, String> {
        let mut files = Files {
            rng: Rng::new(seed, 0),
            slots: vec![Slot::Empty; SLOTS],
            next_tag: 1,
        };
        for slot in 0..SLOTS {
            if files.rng.percent(PREFILL_PERCENT) {
                let (tag, data) = files.content(slot);
                fs.write_file(&path(slot), &data)
                    .map_err(|e| format!("set-up write of {}: {e}", path(slot)))?;
                files.slots[slot] = Slot::File {
                    tag,
                    len: data.len(),
                };
            }
        }
        Ok(files)
    }

    fn content(&mut self, slot: usize) -> (u64, Vec<u8>) {
        let len = 1 + self.rng.below(MAX_FILE) as usize;
        let tag = self.next_tag;
        self.next_tag += 1;
        (tag, file_bytes(slot, tag, len))
    }

    /// The first slot at or after `from` that holds a file.
    fn occupied_from(&self, from: usize) -> Option<usize> {
        (0..SLOTS)
            .map(|i| (from + i) % SLOTS)
            .find(|&s| matches!(self.slots[s], Slot::File { .. }))
    }

    /// One op: generate, call, check.
    fn step<D: BlockDevice>(
        &mut self,
        fs: &FileSystem<D>,
        log: &mut ClientLog,
    ) -> Result<(), String> {
        let roll = self.rng.below(100);
        let slot = self.rng.below(SLOTS as u64) as usize;
        // Reads and deletes go to the next file at or after the drawn slot;
        // with no file left they become writes.
        let target = match roll {
            60..90 => None,
            _ => self.occupied_from(slot),
        };
        match (roll, target) {
            (0..60, Some(s)) => {
                let Slot::File { tag, len } = self.slots[s] else {
                    unreachable!("occupied_from returns file slots")
                };
                if let Ok(got) = log.op(Kind::Read, 0, 0, || fs.read_file(&path(s))) {
                    if got != file_bytes(s, tag, len) {
                        return Err(format!(
                            "{}: read {} bytes that differ from the {len} bytes of version {tag}",
                            path(s),
                            got.len()
                        ));
                    }
                }
            }
            (90.., Some(s)) => {
                let ok = log
                    .op(Kind::Write, 0, 0, || fs.remove_file(&path(s)))
                    .is_ok();
                self.slots[s] = if ok { Slot::Empty } else { Slot::Unknown };
            }
            _ => {
                let (tag, data) = self.content(slot);
                let ok = log
                    .op(Kind::Write, 0, 0, || fs.write_file(&path(slot), &data))
                    .is_ok();
                self.slots[slot] = if ok {
                    Slot::File {
                        tag,
                        len: data.len(),
                    }
                } else {
                    Slot::Unknown
                };
            }
        }
        Ok(())
    }

    /// The end-of-run oracle: fsck is clean and every slot holds exactly
    /// what the shadow says.
    fn verify<D: BlockDevice>(&self, fs: &FileSystem<D>) -> Result<(), String> {
        let report = fs.check().map_err(|e| format!("fsck: {e}"))?;
        if !report.is_clean() {
            let problems: Vec<String> = report.problems.iter().map(|p| p.to_string()).collect();
            return Err(format!("fsck: {}", problems.join("; ")));
        }
        for (s, slot) in self.slots.iter().enumerate() {
            match *slot {
                Slot::File { tag, len } => {
                    let got = fs
                        .read_file(&path(s))
                        .map_err(|e| format!("final read of {}: {e}", path(s)))?;
                    if got != file_bytes(s, tag, len) {
                        return Err(format!(
                            "{}: final contents differ from version {tag}",
                            path(s)
                        ));
                    }
                }
                Slot::Empty if fs.exists(&path(s)) => {
                    return Err(format!("{}: exists after its removal", path(s)));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn corrupt(&mut self) {
        for slot in &mut self.slots {
            if let Slot::File { tag, .. } = slot {
                *tag ^= 1 << 62;
            }
        }
    }
}

fn load<D: BlockDevice>(
    opts: &Opts,
    epoch: Instant,
    fs: &FileSystem<D>,
    files: &mut Files,
) -> Result<harness::Load, String> {
    if opts.corrupt_shadow {
        files.corrupt();
    }
    let client: harness::Client<'_> = Box::new(|log| files.step(fs, log));
    harness::closed_loop(epoch, opts.warmup(), opts.measure(), vec![client])
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure or an oracle violation.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome {
        params: params(),
        ..Outcome::default()
    };
    let epoch = Instant::now();
    if !opts.trace {
        let ((c, fs, mut files), setup_s) = common::timed_setups(|| plain(opts.seed))?;
        let before = c.counter().snapshot();
        let l = load(opts, epoch, &fs, &mut files)?;
        out.end_to_end(&l.end_to_end(), &[c.counter().snapshot() - before], setup_s);
        files.verify(&fs)?;
        return Ok(out);
    }

    let untraced = {
        let (_c, fs, mut files) = plain(opts.seed)?;
        let l = load(opts, epoch, &fs, &mut files)?;
        files.verify(&fs)?;
        l.end_to_end()
    };
    let rec = Recorder::new(epoch, true);
    let (c, fs, mut files) = traced(opts.seed, &rec)?;
    let cache = || -> CacheStats { fs.device().inner().stats() };
    let (stats0, traffic0) = (cache(), c.counter().snapshot());
    let l = load(opts, epoch, &fs, &mut files)?;
    let (stats1, traffic) = (cache(), c.counter().snapshot() - traffic0);
    let traced_e2e = l.end_to_end();
    let (figures, unmatched) =
        analysis::analyze(&l.all(), rec.take_spans(), Top::Fs, None, l.window());
    files.verify(&fs)?;
    out.figures(figures);
    let completed = traced_e2e.completed.max(1) as f64;
    let (hits, misses) = (stats1.hits - stats0.hits, stats1.misses - stats0.misses);
    out.metrics.insert(
        "cache.hit_ratio",
        crate::stats::ratio(hits as f64, (hits + misses) as f64),
    );
    out.metrics.insert(
        "cache.evictions_per_op",
        (stats1.evictions - stats0.evictions) as f64 / completed,
    );
    out.net(&[traffic], BLOCK_SIZE, BLOCKS, traced_e2e.completed);
    out.overhead(&untraced, &traced_e2e);
    out.notes.push(("unmatched_spans", unmatched.to_string()));
    out.notes.extend(parity(opts, epoch)?);
    Ok(out)
}

/// Runs the same fixed op prefix untraced, through count-only shims, and
/// through timing shims. The traffic of all three and the per-kind call
/// counts of the two shimmed runs must agree exactly: the shims forward
/// every call and timing them changes no decision.
fn parity(opts: &Opts, epoch: Instant) -> Result<Vec<(&'static str, String)>, String> {
    let plain_traffic = {
        let (c, fs, mut files) = plain(opts.seed)?;
        let before = c.counter().snapshot();
        harness::fixed(epoch, PARITY_OPS, Box::new(|log| files.step(&fs, log)))?;
        c.counter().snapshot() - before
    };
    let shimmed = |timed: bool| -> Result<(TrafficSnapshot, Vec<(String, u64)>), String> {
        let rec = Recorder::new(epoch, timed);
        let (c, fs, mut files) = traced(opts.seed, &rec)?;
        let before = c.counter().snapshot();
        harness::fixed(epoch, PARITY_OPS, Box::new(|log| files.step(&fs, log)))?;
        Ok((c.counter().snapshot() - before, rec.counts()))
    };
    let (count_traffic, count_calls) = shimmed(false)?;
    let (timed_traffic, timed_calls) = shimmed(true)?;
    if plain_traffic != timed_traffic || count_traffic != timed_traffic {
        return Err(format!(
            "traced run diverged: untraced traffic {plain_traffic}, traced {timed_traffic}"
        ));
    }
    if count_calls != timed_calls {
        return Err(format!(
            "traced run diverged: call counts {count_calls:?} untimed, {timed_calls:?} timed"
        ));
    }
    let per_op = |t: &TrafficSnapshot| json_num(t.total_modeled() as f64 / PARITY_OPS as f64);
    let calls: Vec<String> = timed_calls
        .iter()
        .map(|(k, n)| format!("{}:{n}", json_str(k)))
        .collect();
    Ok(vec![
        ("parity_ops", PARITY_OPS.to_string()),
        ("parity_untraced_msgs_per_op", per_op(&plain_traffic)),
        ("parity_traced_msgs_per_op", per_op(&timed_traffic)),
        ("parity_calls", format!("{{{}}}", calls.join(","))),
    ])
}
