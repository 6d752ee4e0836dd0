//! Per-phase latency attribution benchmark over the causal tracer.
//!
//! `blockrep bench --suite trace` arms the flight recorder, drives a
//! 64-block workload per (scheme × runtime × io-mode) case and reads the
//! per-phase breakdown out of the recorded span tree. Each case is wrapped
//! in a private `bench.case` span so its trace id isolates the case's
//! records from anything else the process traced; the device ops then nest
//! under it, and the attribution sums the durations of each op span's
//! *direct* children (remote applies are grandchildren under the scatter
//! send legs, so thread-parallel overlap is never double-booked).
//!
//! The suite emits `BENCH_trace.json` (schema [`SCHEMA`]). The PR's
//! acceptance criterion reads the tcp batched rows: with a real link
//! latency, the coordinator's wall time for a 64-block `write_many` must be
//! ≥ 95 % attributed to named phase spans ([`validate`] enforces this for
//! any report with a full-size device and a nonzero link delay).

use crate::protocol_bench::{parse_json, BenchRuntime, JsonValue};
use blockrep_core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep_net::{DeliveryMode, FanoutMode};
use blockrep_obs::trace;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::sync::Mutex;

/// Schema identifier written into (and required from) the JSON report.
pub const SCHEMA: &str = "blockrep.bench.trace/v1";

/// Attribution floor the acceptance criterion demands of tcp batched rows
/// on a full-size device with a real link delay.
pub const MIN_TCP_BATCHED_FRACTION: f64 = 0.95;

/// The global tracer (flag, ring, id counter) is process-wide; cases must
/// not interleave with each other. Held for the duration of one case.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// Parameters of one trace benchmark suite run.
#[derive(Debug, Clone, Copy)]
pub struct TraceBenchConfig {
    /// Number of replica sites.
    pub sites: usize,
    /// Blocks written per case; the acceptance criterion reads 64.
    pub blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Network cost model (recorded for context).
    pub mode: DeliveryMode,
    /// Emulated one-way link delay in microseconds for the live and TCP
    /// runtimes. The default is LAN-order so transport phases dominate the
    /// coordinator's wall time, which is what makes ≥ 95 % attribution a
    /// meaningful bar.
    pub link_latency_us: u64,
}

impl TraceBenchConfig {
    /// The acceptance-criterion default: 64 blocks on a 3-site device.
    pub fn new() -> TraceBenchConfig {
        TraceBenchConfig {
            sites: 3,
            blocks: 64,
            block_size: 512,
            mode: DeliveryMode::Multicast,
            link_latency_us: 300,
        }
    }

    fn device(&self, scheme: Scheme) -> DeviceConfig {
        DeviceConfig::builder(scheme)
            .sites(self.sites)
            .num_blocks(self.blocks)
            .block_size(self.block_size)
            .build()
            .expect("benchmark device config")
    }
}

impl Default for TraceBenchConfig {
    fn default() -> TraceBenchConfig {
        TraceBenchConfig::new()
    }
}

/// Whether the case issues one vectored `write_many` or a per-block loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceIoMode {
    /// One `write_many` covering every block (one quorum round trip).
    Batched,
    /// One `write` per block (one quorum round trip each).
    PerBlock,
}

impl TraceIoMode {
    /// Both modes, batched first.
    pub const ALL: [TraceIoMode; 2] = [TraceIoMode::Batched, TraceIoMode::PerBlock];

    /// Stable label used in the JSON report.
    pub const fn label(self) -> &'static str {
        match self {
            TraceIoMode::Batched => "batched",
            TraceIoMode::PerBlock => "per_block",
        }
    }
}

/// One phase's share of a case's attributed time.
#[derive(Debug, Clone)]
pub struct TracePhaseRow {
    /// Phase name (e.g. `phase.gather_wait`).
    pub phase: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: f64,
}

/// One (runtime, scheme, io) attribution measurement.
#[derive(Debug, Clone)]
pub struct TraceCaseResult {
    /// Runtime label (`deterministic` / `live` / `tcp`).
    pub runtime: &'static str,
    /// Scheme label.
    pub scheme: String,
    /// Io-mode label (`batched` / `per_block`).
    pub io: &'static str,
    /// Device operations driven (op spans recorded).
    pub ops: u64,
    /// Total op span wall time, microseconds.
    pub op_us: f64,
    /// Wall time covered by the op spans' direct phase children, µs.
    pub attributed_us: f64,
    /// `attributed_us / op_us`.
    pub attributed_fraction: f64,
    /// Spans recorded for this case (all depths).
    pub spans: u64,
    /// Direct-child phase totals, descending.
    pub phases: Vec<TracePhaseRow>,
}

/// The full suite result.
#[derive(Debug, Clone)]
pub struct TraceBenchReport {
    /// The configuration that produced this report.
    pub config: TraceBenchConfig,
    /// All measured cases.
    pub results: Vec<TraceCaseResult>,
}

fn drive<W>(cfg: &TraceBenchConfig, io: TraceIoMode, write_many: W)
where
    W: Fn(&[(BlockIndex, BlockData)]),
{
    let writes: Vec<(BlockIndex, BlockData)> = (0..cfg.blocks)
        .map(|b| {
            (
                BlockIndex::new(b),
                BlockData::from(vec![(b % 251) as u8 + 1; cfg.block_size]),
            )
        })
        .collect();
    match io {
        TraceIoMode::Batched => write_many(&writes),
        TraceIoMode::PerBlock => {
            for w in &writes {
                write_many(std::slice::from_ref(w));
            }
        }
    }
}

/// Measures one (runtime, scheme, io) case: runs the workload under an
/// isolating `bench.case` span, then reads the attribution out of the
/// flight recorder.
pub fn run_case(
    cfg: &TraceBenchConfig,
    runtime: BenchRuntime,
    scheme: Scheme,
    io: TraceIoMode,
) -> TraceCaseResult {
    capture(cfg, runtime, scheme, io).1
}

/// Like [`run_case`], but also returns the raw span records of the case
/// (the `blockrep trace` subcommand renders them as Chrome trace JSON).
pub fn capture(
    cfg: &TraceBenchConfig,
    runtime: BenchRuntime,
    scheme: Scheme,
    io: TraceIoMode,
) -> (Vec<trace::SpanRecord>, TraceCaseResult) {
    let _serial = TRACER_LOCK.lock().expect("tracer lock");
    let was_obs = blockrep_obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();
    trace::clear();
    let origin = SiteId::new(0);
    let case_phase = trace::phase_id("bench.case");
    let outer = trace::start_op(case_phase, origin.as_u32());
    let outer_ctx = outer.context();
    match runtime {
        BenchRuntime::Deterministic => {
            let c = Cluster::new(cfg.device(scheme), ClusterOptions { mode: cfg.mode });
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
        }
        BenchRuntime::Live => {
            let c = LiveCluster::spawn(cfg.device(scheme), cfg.mode);
            c.set_fanout(FanoutMode::Parallel);
            c.set_link_latency(std::time::Duration::from_micros(cfg.link_latency_us));
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
            c.quiesce();
        }
        BenchRuntime::Tcp => {
            let c = TcpCluster::spawn(cfg.device(scheme), cfg.mode).expect("tcp spawn");
            c.set_fanout(FanoutMode::Parallel);
            c.set_link_latency(std::time::Duration::from_micros(cfg.link_latency_us));
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
        }
    }
    drop(outer);
    let records: Vec<trace::SpanRecord> = trace::snapshot()
        .into_iter()
        .filter(|r| r.trace_id == outer_ctx.trace_id)
        .collect();
    if !was_tracing {
        trace::disable();
    }
    if !was_obs {
        blockrep_obs::disable();
    }
    // The device op spans are the direct children of the case span;
    // everything else in the process (other threads, other tests) carries
    // a different trace id and was filtered out above.
    let roots: Vec<&trace::SpanRecord> = records
        .iter()
        .filter(|r| r.parent == outer_ctx.span_id)
        .collect();
    let mut op_ns = 0u64;
    let mut attributed_ns = 0u64;
    let mut phases: Vec<TracePhaseRow> = Vec::new();
    for root in &roots {
        let attr = trace::attribution_for(&records, root.span_id)
            .expect("root span is in the filtered records");
        op_ns += attr.op_ns;
        attributed_ns += attr.attributed_ns;
        for p in &attr.phases {
            match phases.iter_mut().find(|row| row.phase == p.name) {
                Some(row) => {
                    row.count += p.count;
                    row.total_us += p.total_ns as f64 / 1_000.0;
                }
                None => phases.push(TracePhaseRow {
                    phase: p.name,
                    count: p.count,
                    total_us: p.total_ns as f64 / 1_000.0,
                }),
            }
        }
    }
    phases.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.phase.cmp(b.phase)));
    let case = TraceCaseResult {
        runtime: runtime.label(),
        scheme: scheme.to_string(),
        io: io.label(),
        ops: roots.len() as u64,
        op_us: op_ns as f64 / 1_000.0,
        attributed_us: attributed_ns as f64 / 1_000.0,
        attributed_fraction: if op_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / op_ns as f64
        },
        spans: records.len() as u64,
        phases,
    };
    (records, case)
}

/// Runs the whole matrix: three schemes × three runtimes × both io modes.
pub fn run_suite(cfg: &TraceBenchConfig) -> TraceBenchReport {
    let mut results = Vec::new();
    for scheme in Scheme::ALL {
        for runtime in BenchRuntime::ALL {
            for io in TraceIoMode::ALL {
                results.push(run_case(cfg, runtime, scheme, io));
            }
        }
    }
    TraceBenchReport {
        config: *cfg,
        results,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

impl TraceBenchReport {
    /// The report as `blockrep.bench.trace/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"sites\": {},\n", self.config.sites));
        out.push_str(&format!("  \"blocks\": {},\n", self.config.blocks));
        out.push_str(&format!("  \"block_size\": {},\n", self.config.block_size));
        out.push_str(&format!("  \"net\": \"{}\",\n", self.config.mode));
        out.push_str(&format!(
            "  \"link_latency_us\": {},\n",
            self.config.link_latency_us
        ));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"runtime\": \"{}\", \"scheme\": \"{}\", \"io\": \"{}\", \
                 \"ops\": {}, \"op_us\": {}, \"attributed_us\": {}, \
                 \"attributed_fraction\": {}, \"spans\": {}, \"phases\": [",
                r.runtime,
                r.scheme,
                r.io,
                r.ops,
                json_f64(r.op_us),
                json_f64(r.attributed_us),
                json_f64(r.attributed_fraction),
                r.spans,
            ));
            for (j, p) in r.phases.iter().enumerate() {
                out.push_str(&format!(
                    "{}{{\"phase\": \"{}\", \"count\": {}, \"total_us\": {}}}",
                    if j > 0 { ", " } else { "" },
                    p.phase,
                    p.count,
                    json_f64(p.total_us),
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable per-phase attribution table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("| runtime | scheme | io | ops | op µs | attributed µs | fraction |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for r in &self.results {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.1} | {:.1} | {:.3} |\n",
                r.runtime, r.scheme, r.io, r.ops, r.op_us, r.attributed_us, r.attributed_fraction
            ));
            for p in &r.phases {
                out.push_str(&format!(
                    "|   | {} | × {} | {:.1} µs | | | |\n",
                    p.phase, p.count, p.total_us
                ));
            }
        }
        out
    }
}

/// Validates a `blockrep.bench.trace/v1` report.
///
/// Beyond structure, this enforces the acceptance criterion: on a report
/// with a full-size device (≥ 64 blocks) and a nonzero link delay, every
/// tcp batched row must attribute at least
/// [`MIN_TCP_BATCHED_FRACTION`] of the op wall time to phase spans.
///
/// # Errors
///
/// The first structural (or criterion) problem found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = crate::schema::parse_report(text, SCHEMA)?;
    let root = crate::schema::Node::root(&doc);
    root.require_str("net")?;
    root.require_nums(&["sites", "blocks", "block_size", "link_latency_us"])?;
    let blocks = root.num("blocks").unwrap_or(0.0);
    let latency = root.num("link_latency_us").unwrap_or(0.0);
    let full_size = blocks >= 64.0 && latency > 0.0;
    for (i, r) in root.require_nonempty_array("results")?.iter().enumerate() {
        let runtime = r.require_str("runtime")?;
        r.require_str("scheme")?;
        let io = r.require_str("io")?;
        if io != "batched" && io != "per_block" {
            return Err(format!("results[{i}].io is {io:?}"));
        }
        r.require_nonneg(&["ops", "op_us", "attributed_us", "spans"])?;
        let fraction = r.require_num("attributed_fraction")?;
        if !(0.0..=1.05).contains(&fraction) {
            return Err(format!(
                "results[{i}].attributed_fraction is {fraction} (outside [0, 1.05])"
            ));
        }
        if full_size && runtime == "tcp" && io == "batched" && fraction < MIN_TCP_BATCHED_FRACTION {
            return Err(format!(
                "results[{i}] (tcp batched): attributed_fraction {fraction} \
                 is below the {MIN_TCP_BATCHED_FRACTION} acceptance floor"
            ));
        }
        for p in r.require_array("phases")? {
            p.require_str("phase")?;
            p.require_nums(&["count", "total_us"])?;
        }
    }
    Ok(())
}

/// Validates a Chrome trace-event JSON dump (the `blockrep trace` output):
/// a `traceEvents` array of complete events, each with the fields the
/// trace viewer requires and the causal args the tracer always writes.
///
/// # Errors
///
/// The first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"traceEvents\" array")?;
    doc.get("displayTimeUnit")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"displayTimeUnit\"")?;
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            e.get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("traceEvents[{i}]: missing string field {key:?}"))?;
        }
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            return Err(format!("traceEvents[{i}].ph is not \"X\""));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            e.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("traceEvents[{i}]: missing numeric field {key:?}"))?;
        }
        let args = e
            .get("args")
            .ok_or(format!("traceEvents[{i}]: missing \"args\""))?;
        for key in ["trace", "span", "parent"] {
            let id = args
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("traceEvents[{i}].args: missing {key:?}"))?;
            id.parse::<u64>()
                .map_err(|_| format!("traceEvents[{i}].args.{key} is not a u64 string"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceBenchConfig {
        TraceBenchConfig {
            sites: 3,
            blocks: 4,
            block_size: 64,
            mode: DeliveryMode::Multicast,
            link_latency_us: 0,
        }
    }

    #[test]
    fn case_attributes_phases_under_each_op() {
        let r = run_case(
            &tiny(),
            BenchRuntime::Deterministic,
            Scheme::Voting,
            TraceIoMode::Batched,
        );
        assert_eq!(r.ops, 1, "one write_many, one op span");
        assert!(r.spans > 1, "phase spans recorded under the op");
        assert!(!r.phases.is_empty());
        assert!(r.attributed_fraction > 0.0 && r.attributed_fraction <= 1.05);
    }

    #[test]
    fn per_block_records_one_op_span_per_write() {
        let r = run_case(
            &tiny(),
            BenchRuntime::Live,
            Scheme::AvailableCopy,
            TraceIoMode::PerBlock,
        );
        assert_eq!(r.ops, tiny().blocks);
    }

    #[test]
    fn tcp_case_stitches_remote_spans_into_the_tree() {
        let r = run_case(
            &tiny(),
            BenchRuntime::Tcp,
            Scheme::Voting,
            TraceIoMode::Batched,
        );
        assert!(
            r.phases.iter().any(|p| p.phase == "phase.gather_wait"),
            "coordinator gather legs present: {:?}",
            r.phases
        );
        // Remote applies are grandchildren (under the send legs), so they
        // must NOT appear among the attribution's direct-child phases.
        assert!(
            r.phases.iter().all(|p| p.phase != "phase.remote_apply"),
            "remote applies must not be double-booked: {:?}",
            r.phases
        );
    }

    #[test]
    fn suite_emits_valid_json() {
        let cfg = tiny();
        let report = run_suite(&cfg);
        // 3 schemes × 3 runtimes × 2 io modes.
        assert_eq!(report.results.len(), 18);
        validate(&report.to_json()).unwrap();
    }

    #[test]
    fn validate_rejects_structural_damage() {
        let report = TraceBenchReport {
            config: tiny(),
            results: vec![run_case(
                &tiny(),
                BenchRuntime::Deterministic,
                Scheme::Voting,
                TraceIoMode::Batched,
            )],
        };
        let good = report.to_json();
        validate(&good).unwrap();
        assert!(validate(&good.replace(SCHEMA, "other/v0")).is_err());
        assert!(validate(&good.replace("\"io\": \"batched\"", "\"io\": \"magic\"")).is_err());
        assert!(validate(&good.replace("\"attributed_fraction\"", "\"af\"")).is_err());
        assert!(validate("{\"schema\": \"blockrep.bench.trace/v1\"}").is_err());
        assert!(validate("not json").is_err());
    }

    #[test]
    fn validate_enforces_the_tcp_batched_floor_on_full_size_reports() {
        let mut cfg = tiny();
        cfg.blocks = 64;
        cfg.link_latency_us = 300;
        let low = TraceBenchReport {
            config: cfg,
            results: vec![TraceCaseResult {
                runtime: "tcp",
                scheme: "voting".into(),
                io: "batched",
                ops: 1,
                op_us: 1000.0,
                attributed_us: 500.0,
                attributed_fraction: 0.5,
                spans: 10,
                phases: vec![TracePhaseRow {
                    phase: "phase.gather_wait",
                    count: 2,
                    total_us: 500.0,
                }],
            }],
        };
        let err = validate(&low.to_json()).unwrap_err();
        assert!(err.contains("acceptance floor"), "{err}");
    }

    #[test]
    fn chrome_trace_validator_accepts_tracer_output_and_rejects_damage() {
        let records = [trace::SpanRecord {
            trace_id: 7,
            span_id: 8,
            parent: 0,
            phase: trace::phase_id("op.write_many"),
            site: 0,
            start_ns: 1_500,
            dur_ns: 2_000,
        }];
        let good = trace::chrome_trace_json(&records);
        validate_chrome_trace(&good).unwrap();
        assert!(validate_chrome_trace(&good.replace("\"ph\":\"X\"", "\"ph\":\"B\"")).is_err());
        assert!(validate_chrome_trace(&good.replace("traceEvents", "events")).is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }
}
