//! What every workload shares: options, the metric catalogue, and the
//! conversion of a load phase into named figures.

use crate::harness::EndToEnd;
use blockrep_net::{OpClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Run options from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window of each load phase.
    pub seconds: f64,
    /// Run the traced variant (per-layer figures) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Damage the shadow after set-up, so the oracle must fail the run.
    pub corrupt_shadow: bool,
    /// Load threads available: `nproc`.
    pub nproc: usize,
}

impl Opts {
    /// The warm-up before each measured window: a tenth of the window,
    /// within 0.2 s to 2 s.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.measure().as_secs_f64() / 10.0).clamp(0.2, 2.0))
    }

    /// The measured window of each load phase. A traced run has two
    /// phases, untraced and traced, and gives each half of `--seconds`, so
    /// that it takes about as long as an end-to-end run.
    pub fn measure(&self) -> Duration {
        let phases = if self.trace { 2.0 } else { 1.0 };
        Duration::from_secs_f64(self.seconds / phases)
    }

    /// `wanted` load threads, capped at `nproc`.
    pub fn clients(&self, wanted: usize) -> usize {
        wanted.min(self.nproc).max(1)
    }
}

/// How many times an end-to-end run sets its system up; `setup_s` is the
/// median.
pub const SETUPS: usize = 9;

/// End-to-end metrics with their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("msgs_per_op", "1/op"),
    ("setup_s", "s"),
];

/// Per-layer metrics with their units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fs.self_us", "us"),
    ("fs.dev_calls_per_op", "1/op"),
    ("fs.single_block_writes_per_op", "1/op"),
    ("fs.blocks_per_op", "1/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "1/op"),
    ("cache.self_us", "us"),
    ("protocol.self_us", "us"),
    ("protocol.backend_calls_per_op", "1/op"),
    ("protocol.scatters_per_op", "1/op"),
    ("shard.shards_per_op", "1/op"),
    ("shard.fanout_lead_us", "us"),
    ("shard.tail_us", "us"),
    ("shard.self_us", "us"),
    ("lease.hit_ratio", "ratio"),
    ("lease.fallback_ratio", "ratio"),
    ("transport.local_call_us", "us"),
    ("transport.remote_call_us", "us"),
    ("transport.scatter_us", "us"),
    ("transport.scatter_p99_us", "us"),
    ("net.read_msgs_per_op", "1/op"),
    ("net.write_msgs_per_op", "1/op"),
    ("net.recovery_msgs_per_op", "1/op"),
    ("net.bytes_per_op", "B/op"),
    ("recovery.repair_us", "us"),
    ("recovery.fail_us", "us"),
    ("recovery.stale_fetches_per_read", "1/read"),
    ("driver.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Fixed per-message header of the nominal byte model behind
/// `net.bytes_per_op`.
pub const MSG_HEADER_BYTES: u64 = 32;

/// A finished workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed or refused.
    pub failed: u64,
    /// Figures by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload parameters and other inputs, as JSON values.
    pub params: Vec<(&'static str, String)>,
    /// Extra report fields (sample counts, percentile support, parity), as
    /// JSON values.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records the end-to-end figures of an untraced phase.
    pub fn end_to_end(&mut self, e: &EndToEnd, traffic: &[TrafficSnapshot], setup_s: f64) {
        let msgs: u64 = traffic.iter().map(TrafficSnapshot::total_modeled).sum();
        self.attempted = e.attempted;
        self.failed = e.failed;
        let m = &mut self.metrics;
        m.insert("ops_per_s", e.ops_per_s);
        m.insert("read_p50_us", e.read.p50);
        m.insert("read_p99_us", e.read.p99);
        m.insert("write_p50_us", e.write.p50);
        m.insert("write_p99_us", e.write.p99);
        m.insert("msgs_per_op", msgs as f64 / e.completed.max(1) as f64);
        m.insert("setup_s", setup_s);
        self.samples(e);
    }

    /// Records sample counts, percentile support and the failure ratio.
    pub fn samples(&mut self, e: &EndToEnd) {
        self.notes.extend([
            ("read_samples", e.read.n.to_string()),
            ("write_samples", e.write.n.to_string()),
            ("read_supported_percentile", json_num(e.read.supported)),
            ("write_supported_percentile", json_num(e.write.supported)),
            (
                "fail_ratio",
                json_num(e.failed as f64 / e.attempted.max(1) as f64),
            ),
        ]);
    }

    /// Records the §5 traffic figures of a traced phase over `ops` ops.
    pub fn net(&mut self, traffic: &[TrafficSnapshot], block_size: usize, blocks: u64, ops: u64) {
        let ops = ops.max(1) as f64;
        let sum = |f: &dyn Fn(&TrafficSnapshot) -> u64| traffic.iter().map(f).sum::<u64>() as f64;
        let m = &mut self.metrics;
        m.insert(
            "net.read_msgs_per_op",
            sum(&|t| t.total_for(OpClass::Read)) / ops,
        );
        m.insert(
            "net.write_msgs_per_op",
            sum(&|t| t.total_for(OpClass::Write)) / ops,
        );
        m.insert(
            "net.recovery_msgs_per_op",
            sum(&|t| t.total_for(OpClass::Recovery)) / ops,
        );
        m.insert(
            "net.bytes_per_op",
            sum(&|t| t.estimated_bytes(MSG_HEADER_BYTES, block_size, blocks)) / ops,
        );
    }

    /// Records the span-derived figures.
    pub fn figures(&mut self, figures: crate::analysis::Figures) {
        self.metrics.extend(figures);
    }

    /// Records the load generator's share and the tracing overhead from an untraced
    /// and a traced phase of the same workload.
    pub fn overhead(&mut self, untraced: &EndToEnd, traced: &EndToEnd) {
        self.attempted = untraced.attempted + traced.attempted;
        self.failed = untraced.failed + traced.failed;
        self.metrics.insert("driver.share", untraced.outside_share);
        self.metrics.insert(
            "trace.overhead",
            1.0 - crate::stats::ratio(traced.ops_per_s, untraced.ops_per_s),
        );
        self.notes.extend([
            ("untraced_ops_per_s", json_num(untraced.ops_per_s)),
            ("traced_ops_per_s", json_num(traced.ops_per_s)),
        ]);
        self.samples(traced);
    }
}

/// Times `SETUPS` set-ups, keeping the last system; returns it with the
/// median set-up time in seconds. Earlier systems are torn down before the
/// next set-up starts, outside the timing.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let system = kept.expect("SETUPS is nonzero");
    Ok((system, crate::stats::median(&mut times)))
}

/// A JSON number; non-finite values become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
