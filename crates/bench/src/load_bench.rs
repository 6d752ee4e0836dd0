//! Concurrent-client load benchmark: throughput scaling and tail latency.
//!
//! `blockrep bench --suite load` drives a closed-loop client fleet (1 up to
//! 256 threads, uniform or zipfian key choice) against the live and TCP
//! runtimes, with lease-based read offload on and off, and reports the
//! throughput-scaling curve plus p50/p99 latency under contention into
//! `BENCH_load.json` (schema [`SCHEMA`]).
//!
//! The interesting comparison is the leases dimension. Without leases every
//! read is a quorum round that occupies a majority of the site servers for
//! one emulated link delay each, so aggregate read throughput is capped
//! near `n / (quorum - 1)` times a single server's service rate no matter
//! how many clients offer load. With leases a warm read is a single fetch
//! routed deterministically across the holder set (or served locally when
//! the routing lands on the origin), so the same fleet drives every site
//! server in parallel and the curve keeps climbing until all `n` servers
//! saturate. The TCP runtime additionally exercises the multiplexed
//! connections: concurrent clients share one windowed connection per site.

use crate::protocol_bench::JsonValue;
use blockrep_core::{LiveCluster, TcpCluster};
use blockrep_net::DeliveryMode;
use blockrep_obs::metrics::Histogram;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Schema identifier written into (and required from) the JSON report.
pub const SCHEMA: &str = "blockrep.bench.load/v1";

/// Parameters of one load-benchmark run.
#[derive(Debug, Clone)]
pub struct LoadBenchConfig {
    /// Replication scheme under test.
    pub scheme: Scheme,
    /// Number of sites.
    pub sites: usize,
    /// Number of blocks on the replicated device.
    pub blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Client-fleet sizes to sweep. Scaling ratios are computed against the
    /// 1-client case, so the grid should normally include `1`.
    pub clients: Vec<usize>,
    /// Target total operations per case; split evenly across the fleet.
    pub total_ops: u64,
    /// Floor on per-client operations at high fleet sizes, so every thread
    /// contributes samples to the latency histogram.
    pub min_ops_per_client: u64,
    /// When nonzero, every `write_every`-th operation of each client is a
    /// write (exercising lease invalidation and re-grant under load). Zero
    /// — the default — runs a pure read workload, which is what the read
    /// throughput-scaling acceptance number is defined over.
    pub write_every: u64,
    /// Network cost model (recorded for context).
    pub mode: DeliveryMode,
    /// Emulated one-way link delay in microseconds, served by each site
    /// before handling a remote request. This is the per-message cost that
    /// makes server occupancy — and therefore the scaling curve — real.
    pub link_latency_us: u64,
    /// Skew of the zipfian key mix (`0.99` is the YCSB convention).
    pub zipf_theta: f64,
    /// Run every site on a write-ahead log (`--journaled`), so the load
    /// numbers include the WAL append/group-commit cost on writes.
    pub journaled: bool,
}

impl LoadBenchConfig {
    /// The acceptance-criterion default: the paper's 5-site cluster, small
    /// blocks, a 1→256 client sweep at a LAN-order link delay.
    pub fn new(scheme: Scheme) -> LoadBenchConfig {
        LoadBenchConfig {
            scheme,
            sites: 5,
            blocks: 32,
            block_size: 64,
            clients: vec![1, 4, 16, 64, 256],
            total_ops: 4096,
            min_ops_per_client: 16,
            write_every: 0,
            mode: DeliveryMode::Multicast,
            link_latency_us: 300,
            zipf_theta: 0.99,
            journaled: false,
        }
    }

    fn device(&self) -> DeviceConfig {
        DeviceConfig::builder(self.scheme)
            .sites(self.sites)
            .num_blocks(self.blocks)
            .block_size(self.block_size)
            .journaled(self.journaled)
            .build()
            .expect("load benchmark device config")
    }

    /// Operations each client runs at fleet size `clients`.
    pub fn ops_per_client(&self, clients: usize) -> u64 {
        (self.total_ops / clients.max(1) as u64).max(self.min_ops_per_client)
    }
}

/// Which concurrent harness carries the fleet. The deterministic runtime is
/// deliberately absent: it has no server threads, so "concurrent clients"
/// would measure nothing but lock handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRuntime {
    /// Thread-per-site channels ([`LiveCluster`]).
    Live,
    /// Framed loopback TCP with multiplexed connections ([`TcpCluster`]).
    Tcp,
}

impl LoadRuntime {
    /// Both runtimes, channels first.
    pub const ALL: [LoadRuntime; 2] = [LoadRuntime::Live, LoadRuntime::Tcp];

    /// Stable label used in the JSON report.
    pub const fn label(self) -> &'static str {
        match self {
            LoadRuntime::Live => "live",
            LoadRuntime::Tcp => "tcp",
        }
    }
}

/// How clients pick the block each operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over all blocks.
    Uniform,
    /// Zipf-distributed with [`LoadBenchConfig::zipf_theta`] skew; block 0
    /// is the hottest key.
    Zipfian,
}

impl KeyDist {
    /// Both key mixes.
    pub const ALL: [KeyDist; 2] = [KeyDist::Uniform, KeyDist::Zipfian];

    /// Stable label used in the JSON report.
    pub const fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian => "zipfian",
        }
    }
}

/// Inverse-CDF zipfian sampler over `0..n` (rank 0 hottest).
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> ZipfSampler {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// Uniform driver interface over the two concurrent runtimes. `Sync` is a
/// supertrait because the whole point is many client threads sharing one
/// target.
trait LoadTarget: Sync {
    fn read(&self, origin: SiteId, k: BlockIndex) -> bool;
    fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> bool;
}

impl LoadTarget for LiveCluster {
    fn read(&self, origin: SiteId, k: BlockIndex) -> bool {
        LiveCluster::read(self, origin, k).is_ok()
    }
    fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> bool {
        LiveCluster::write(self, origin, k, data).is_ok()
    }
}

impl LoadTarget for TcpCluster {
    fn read(&self, origin: SiteId, k: BlockIndex) -> bool {
        TcpCluster::read(self, origin, k).is_ok()
    }
    fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> bool {
        TcpCluster::write(self, origin, k, data).is_ok()
    }
}

/// One (runtime, leases, key-mix, fleet-size) measurement.
#[derive(Debug, Clone)]
pub struct LoadCaseResult {
    /// Runtime label (`live` / `tcp`).
    pub runtime: &'static str,
    /// Whether lease-based read offload was enabled.
    pub leases: bool,
    /// Key-mix label (`uniform` / `zipfian`).
    pub dist: &'static str,
    /// Number of closed-loop client threads.
    pub clients: usize,
    /// Total operations across the fleet.
    pub ops: u64,
    /// Read operations across the fleet (equals `ops` when
    /// [`LoadBenchConfig::write_every`] is zero).
    pub reads: u64,
    /// Aggregate throughput over the timed section.
    pub ops_per_sec: f64,
    /// Aggregate read throughput — the scaling curves are drawn over this.
    pub reads_per_sec: f64,
    /// Median per-op latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-op latency under contention, microseconds.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Whether the percentiles come from fewer than
    /// [`LOW_CONFIDENCE_SAMPLES`](blockrep_obs::metrics::LOW_CONFIDENCE_SAMPLES)
    /// samples and should not be read as distribution tails.
    pub low_confidence: bool,
}

/// Read-throughput ratio of an N-client case over its 1-client baseline
/// within the same (runtime, leases, key-mix) group.
#[derive(Debug, Clone)]
pub struct ScalingRatio {
    /// Runtime label.
    pub runtime: &'static str,
    /// Whether leases were enabled.
    pub leases: bool,
    /// Key-mix label.
    pub dist: &'static str,
    /// Fleet size of the numerator case.
    pub clients: usize,
    /// `reads_per_sec(clients) / reads_per_sec(1)`.
    pub throughput_over_one_client: f64,
}

/// The full suite result: every case plus the derived scaling curve.
#[derive(Debug, Clone)]
pub struct LoadBenchReport {
    /// The configuration that produced this report.
    pub config: LoadBenchConfig,
    /// All measured cases.
    pub results: Vec<LoadCaseResult>,
    /// Per-group throughput-over-one-client ratios.
    pub scaling: Vec<ScalingRatio>,
}

/// Runs one closed-loop fleet against `target`: warm-up writes populate
/// every block (granting leases when they are enabled), then `clients`
/// threads are released from a barrier together and each runs its
/// per-client op quota, timing every operation into a shared histogram.
/// Returns `(elapsed_secs, total_ops, total_reads, histogram)`.
fn drive_load(
    cfg: &LoadBenchConfig,
    target: &dyn LoadTarget,
    clients: usize,
    dist: KeyDist,
) -> (f64, u64, u64, Histogram) {
    let fill = |i: u64| BlockData::from(vec![(i % 251) as u8; cfg.block_size]);
    for k in 0..cfg.blocks {
        assert!(
            target.write(SiteId::new(0), BlockIndex::new(k), fill(k)),
            "warm-up write failed"
        );
    }
    let zipf = ZipfSampler::new(cfg.blocks, cfg.zipf_theta);
    let ops = cfg.ops_per_client(clients);
    let latencies = Histogram::new();
    let barrier = Barrier::new(clients + 1);
    let mut total_reads = 0u64;
    let elapsed = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(clients);
        for c in 0..clients {
            let latencies = &latencies;
            let barrier = &barrier;
            let zipf = &zipf;
            let fill = &fill;
            workers.push(s.spawn(move || {
                // Distinct deterministic streams per client; mixing in the
                // fleet size keeps cases independent of one another.
                let mut rng = StdRng::seed_from_u64(
                    (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ clients as u64,
                );
                let origin = SiteId::new((c % cfg.sites) as u32);
                let mut reads = 0u64;
                barrier.wait();
                for i in 0..ops {
                    let k = BlockIndex::new(match dist {
                        KeyDist::Uniform => rng.random_range(0..cfg.blocks),
                        KeyDist::Zipfian => zipf.sample(&mut rng),
                    });
                    let is_write = cfg.write_every > 0 && (i + 1) % cfg.write_every == 0;
                    let timer = latencies.timer();
                    let ok = if is_write {
                        target.write(origin, k, fill(i))
                    } else {
                        reads += 1;
                        target.read(origin, k)
                    };
                    drop(timer);
                    assert!(ok, "load op {i} failed on client {c}");
                }
                reads
            }));
        }
        barrier.wait();
        let started = Instant::now();
        for w in workers {
            total_reads += w.join().expect("load client panicked");
        }
        started.elapsed().as_secs_f64()
    });
    (elapsed, ops * clients as u64, total_reads, latencies)
}

/// Measures one (runtime, leases, key-mix, fleet-size) case on a freshly
/// spawned cluster.
pub fn run_case(
    cfg: &LoadBenchConfig,
    runtime: LoadRuntime,
    leases: bool,
    dist: KeyDist,
    clients: usize,
) -> LoadCaseResult {
    let (elapsed, ops, reads, latencies) = match runtime {
        LoadRuntime::Live => {
            let c = LiveCluster::spawn(cfg.device(), cfg.mode);
            c.set_link_latency(Duration::from_micros(cfg.link_latency_us));
            c.set_leases(leases);
            drive_load(cfg, &c, clients, dist)
        }
        LoadRuntime::Tcp => {
            let c = TcpCluster::spawn(cfg.device(), cfg.mode).expect("tcp spawn");
            c.set_link_latency(Duration::from_micros(cfg.link_latency_us));
            c.set_leases(leases);
            drive_load(cfg, &c, clients, dist)
        }
    };
    let summary = latencies.summary();
    let per_sec = |n: u64| {
        if elapsed > 0.0 {
            n as f64 / elapsed
        } else {
            0.0
        }
    };
    LoadCaseResult {
        runtime: runtime.label(),
        leases,
        dist: dist.label(),
        clients,
        ops,
        reads,
        ops_per_sec: per_sec(ops),
        reads_per_sec: per_sec(reads),
        p50_us: summary.p50 / 1_000.0,
        p99_us: summary.p99 / 1_000.0,
        samples: summary.count,
        low_confidence: summary.low_confidence(),
    }
}

/// Runs the whole matrix: two runtimes × leases off/on × two key mixes ×
/// the configured fleet sizes.
pub fn run_suite(cfg: &LoadBenchConfig) -> LoadBenchReport {
    let mut results = Vec::new();
    for runtime in LoadRuntime::ALL {
        for leases in [false, true] {
            for dist in KeyDist::ALL {
                for &clients in &cfg.clients {
                    results.push(run_case(cfg, runtime, leases, dist, clients));
                }
            }
        }
    }
    let scaling = compute_scaling(&results);
    LoadBenchReport {
        config: cfg.clone(),
        results,
        scaling,
    }
}

/// Derives throughput-over-one-client ratios from a result set.
pub fn compute_scaling(results: &[LoadCaseResult]) -> Vec<ScalingRatio> {
    let mut scaling = Vec::new();
    for r in results {
        if r.clients == 1 {
            continue;
        }
        let base = results.iter().find(|b| {
            b.clients == 1 && b.runtime == r.runtime && b.leases == r.leases && b.dist == r.dist
        });
        if let Some(base) = base {
            if base.reads_per_sec > 0.0 {
                scaling.push(ScalingRatio {
                    runtime: r.runtime,
                    leases: r.leases,
                    dist: r.dist,
                    clients: r.clients,
                    throughput_over_one_client: r.reads_per_sec / base.reads_per_sec,
                });
            }
        }
    }
    scaling
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

impl LoadBenchReport {
    /// The report as `blockrep.bench.load/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"scheme\": \"{}\",\n", self.config.scheme));
        out.push_str(&format!("  \"sites\": {},\n", self.config.sites));
        out.push_str(&format!("  \"blocks\": {},\n", self.config.blocks));
        out.push_str(&format!("  \"block_size\": {},\n", self.config.block_size));
        out.push_str(&format!("  \"net\": \"{}\",\n", self.config.mode));
        out.push_str(&format!(
            "  \"link_latency_us\": {},\n",
            self.config.link_latency_us
        ));
        out.push_str(&format!("  \"total_ops\": {},\n", self.config.total_ops));
        out.push_str(&format!(
            "  \"write_every\": {},\n",
            self.config.write_every
        ));
        out.push_str(&format!("  \"zipf_theta\": {},\n", self.config.zipf_theta));
        out.push_str(&format!("  \"journaled\": {},\n", self.config.journaled));
        let clients: Vec<String> = self.config.clients.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!("  \"clients\": [{}],\n", clients.join(", ")));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"runtime\": \"{}\", \"leases\": {}, \"dist\": \"{}\", \
                 \"clients\": {}, \"ops\": {}, \"reads\": {}, \"ops_per_sec\": {}, \
                 \"reads_per_sec\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"samples\": {}, \"low_confidence\": {}}}{}\n",
                r.runtime,
                r.leases,
                r.dist,
                r.clients,
                r.ops,
                r.reads,
                json_f64(r.ops_per_sec),
                json_f64(r.reads_per_sec),
                json_f64(r.p50_us),
                json_f64(r.p99_us),
                r.samples,
                r.low_confidence,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"scaling\": [\n");
        for (i, s) in self.scaling.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"runtime\": \"{}\", \"leases\": {}, \"dist\": \"{}\", \
                 \"clients\": {}, \"throughput_over_one_client\": {}}}{}\n",
                s.runtime,
                s.leases,
                s.dist,
                s.clients,
                json_f64(s.throughput_over_one_client),
                if i + 1 < self.scaling.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable table of the same numbers.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("| runtime | leases | dist | clients | ops/s | reads/s | p50 µs | p99 µs |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for r in &self.results {
            // `~` marks percentile estimates from too few samples.
            let tilde = if r.low_confidence { "~" } else { "" };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.0} | {:.0} | {tilde}{:.1} | {tilde}{:.1} |\n",
                r.runtime,
                if r.leases { "on" } else { "off" },
                r.dist,
                r.clients,
                r.ops_per_sec,
                r.reads_per_sec,
                r.p50_us,
                r.p99_us
            ));
        }
        for s in &self.scaling {
            out.push_str(&format!(
                "{} leases={} {}: {} clients read {:.2}x one client\n",
                s.runtime,
                if s.leases { "on" } else { "off" },
                s.dist,
                s.clients,
                s.throughput_over_one_client
            ));
        }
        out
    }
}

/// Validates a `blockrep.bench.load/v1` report.
///
/// # Errors
///
/// The first structural problem found: syntax error, wrong schema tag,
/// missing/ill-typed field, or an empty result set.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = crate::schema::parse_report(text, SCHEMA)?;
    let root = crate::schema::Node::root(&doc);
    root.require_strs(&["scheme", "net"])?;
    root.require_nums(&[
        "sites",
        "blocks",
        "block_size",
        "link_latency_us",
        "total_ops",
        "write_every",
        "zipf_theta",
    ])?;
    root.require_bool("journaled")?;
    let clients = doc
        .get("clients")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"clients\" array")?;
    if clients.iter().any(|c| c.as_f64().is_none()) {
        return Err("\"clients\" has a non-numeric entry".into());
    }
    for r in root.require_nonempty_array("results")? {
        r.require_strs(&["runtime", "dist"])?;
        r.require_bool("leases")?;
        r.require_nonneg(&[
            "clients",
            "ops",
            "reads",
            "ops_per_sec",
            "reads_per_sec",
            "p50_us",
            "p99_us",
            "samples",
        ])?;
        r.require_bool("low_confidence")?;
    }
    for s in root.require_array("scaling")? {
        s.require_strs(&["runtime", "dist"])?;
        s.require_bool("leases")?;
        s.require_nums(&["clients", "throughput_over_one_client"])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme) -> LoadBenchConfig {
        LoadBenchConfig {
            scheme,
            sites: 3,
            blocks: 4,
            block_size: 16,
            clients: vec![1, 2],
            total_ops: 8,
            min_ops_per_client: 4,
            write_every: 4,
            mode: DeliveryMode::Multicast,
            link_latency_us: 0,
            zipf_theta: 0.99,
            journaled: false,
        }
    }

    #[test]
    fn journaled_flag_reaches_the_device_config_and_the_report() {
        let mut cfg = tiny(Scheme::Voting);
        cfg.journaled = true;
        assert!(cfg.device().journaled(), "--journaled must reach the sites");
        let report = run_case(&cfg, LoadRuntime::Live, false, KeyDist::Uniform, 1);
        let full = LoadBenchReport {
            config: cfg,
            results: vec![report],
            scaling: Vec::new(),
        };
        assert!(full.to_json().contains("\"journaled\": true"));
        validate(&full.to_json()).unwrap();
    }

    #[test]
    fn suite_emits_valid_json_and_scaling_rows() {
        let report = run_suite(&tiny(Scheme::Voting));
        // 2 runtimes × 2 lease settings × 2 key mixes × 2 fleet sizes.
        assert_eq!(report.results.len(), 16);
        // One non-baseline fleet size per (runtime, leases, dist) group.
        assert_eq!(report.scaling.len(), 8);
        for r in &report.results {
            assert!(r.ops > 0 && r.reads > 0 && r.reads < r.ops);
            assert_eq!(r.samples, r.ops);
        }
        validate(&report.to_json()).unwrap();
    }

    #[test]
    fn validate_rejects_structural_damage() {
        let good = run_suite(&tiny(Scheme::AvailableCopy)).to_json();
        validate(&good).unwrap();
        assert!(validate(&good.replace(SCHEMA, "other/v0")).is_err());
        assert!(validate(&good.replace("\"reads_per_sec\"", "\"oops\"")).is_err());
        assert!(validate(&good.replace("\"scaling\"", "\"scalding\"")).is_err());
        assert!(validate("{\"schema\": \"blockrep.bench.load/v1\"}").is_err());
        assert!(validate("not json").is_err());
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks_and_stays_in_range() {
        let zipf = ZipfSampler::new(8, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 8];
        for _ in 0..4000 {
            let k = zipf.sample(&mut rng);
            assert!(k < 8);
            counts[k as usize] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7]);
        assert!(counts[7] > 0, "tail ranks must still be reachable");
    }

    #[test]
    fn ops_per_client_splits_with_a_floor() {
        let cfg = LoadBenchConfig::new(Scheme::Voting);
        assert_eq!(cfg.ops_per_client(1), 4096);
        assert_eq!(cfg.ops_per_client(64), 64);
        assert_eq!(cfg.ops_per_client(256), 16);
        assert_eq!(cfg.ops_per_client(4096), 16); // floor
    }
}
