//! The closed-loop load generator shared by every workload.
//!
//! Each client runs on its own thread and issues its next op only after the
//! previous one returned. A warm-up phase runs first with the same load; its
//! ops are checked by the oracles but not measured.

use crate::stats::{self, Summary};
use crate::trace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Whether an op reads or mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read op.
    Read,
    /// A mutating op.
    Write,
}

/// One op as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    /// Unique across the process; the parent id of the op's spans.
    pub id: u64,
    /// Read or mutating.
    pub kind: Kind,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// Whether the system reported success.
    pub ok: bool,
    /// The first block of a contiguous batch (block workloads).
    pub first: u64,
    /// The number of blocks of the batch (0 for fs ops).
    pub len: u32,
}

impl OpRec {
    /// Latency in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// One injected fault, as timed by the client that issued it.
#[derive(Debug, Clone, Copy)]
pub struct FaultRec {
    /// A repair (otherwise a fail-stop).
    pub repair: bool,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// Slices of the measured window behind the windowed estimators.
const WINDOWS: usize = 10;

/// What one client did during a load phase.
#[derive(Debug)]
pub struct ClientLog {
    epoch: Instant,
    /// Every op, warm-up included.
    pub ops: Vec<OpRec>,
    /// Every fault the client injected.
    pub faults: Vec<FaultRec>,
    /// Nanoseconds the client spent in its loop.
    pub loop_ns: u64,
}

impl ClientLog {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one timed op over blocks `first..first + len`.
    pub fn op<T, E>(
        &mut self,
        kind: Kind,
        first: u64,
        len: u32,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let id = NEXT_OP.fetch_add(1, Ordering::Relaxed);
        trace::set_current_op(id);
        let start = self.now();
        let out = f();
        let end = self.now();
        trace::set_current_op(0);
        self.ops.push(OpRec {
            id,
            kind,
            start,
            end,
            ok: out.is_ok(),
            first,
            len,
        });
        out
    }

    /// Runs `f` as one timed fault injection.
    pub fn fault(&mut self, repair: bool, f: impl FnOnce()) {
        let start = self.now();
        f();
        let end = self.now();
        self.faults.push(FaultRec { repair, start, end });
    }
}

/// A finished load phase.
#[derive(Debug)]
pub struct Load {
    /// Per-client logs.
    pub clients: Vec<ClientLog>,
    /// Start of the measured window, nanoseconds since the epoch.
    pub from: u64,
    /// End of the measured window, nanoseconds since the epoch.
    pub to: u64,
}

/// A client: performs one op (generate, call, check) per invocation and
/// returns an oracle violation as an error.
pub type Client<'a> = Box<dyn FnMut(&mut ClientLog) -> Result<(), String> + Send + 'a>;

/// Runs `clients` in a closed loop: `warmup`, then `measure`.
///
/// # Errors
///
/// The first oracle violation any client reported; every client stops.
pub fn closed_loop(
    epoch: Instant,
    warmup: Duration,
    measure: Duration,
    clients: Vec<Client<'_>>,
) -> Result<Load, String> {
    let stop = AtomicBool::new(false);
    let violation: Mutex<Option<String>> = Mutex::new(None);
    let from = epoch.elapsed() + warmup;
    let to = from + measure;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (stop, violation) = (&stop, &violation);
                scope.spawn(move || {
                    let mut log = ClientLog {
                        epoch,
                        ops: Vec::with_capacity(1 << 14),
                        faults: Vec::new(),
                        loop_ns: 0,
                    };
                    let began = Instant::now();
                    while !stop.load(Ordering::Relaxed) && epoch.elapsed() < to {
                        if let Err(e) = client(&mut log) {
                            stop.store(true, Ordering::Relaxed);
                            violation
                                .lock()
                                .expect("a client panicked")
                                .get_or_insert(e);
                        }
                    }
                    log.loop_ns = began.elapsed().as_nanos() as u64;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect::<Vec<_>>()
    });
    if let Some(e) = violation.into_inner().expect("a client panicked") {
        return Err(e);
    }
    Ok(Load {
        clients: logs,
        from: from.as_nanos() as u64,
        to: to.as_nanos() as u64,
    })
}

/// Runs `client` `n` times on the calling thread: a fixed prefix of the
/// workload's op stream, for comparing two runs call for call.
///
/// # Errors
///
/// An oracle violation, or a failed op.
pub fn fixed(epoch: Instant, n: usize, mut client: Client<'_>) -> Result<(), String> {
    let mut log = ClientLog {
        epoch,
        ops: Vec::with_capacity(n),
        faults: Vec::new(),
        loop_ns: 0,
    };
    for _ in 0..n {
        client(&mut log)?;
    }
    match log.ops.iter().filter(|o| !o.ok).count() {
        0 => Ok(()),
        failed => Err(format!("{failed} ops of the fixed prefix failed")),
    }
}

/// End-to-end figures of one load phase.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Successful ops started in the measured window, per second.
    pub ops_per_s: f64,
    /// Read latency in microseconds.
    pub read: Summary,
    /// Mutating-op latency in microseconds.
    pub write: Summary,
    /// Ops attempted over the whole phase.
    pub attempted: u64,
    /// Ops that failed over the whole phase.
    pub failed: u64,
    /// Ops that succeeded over the whole phase.
    pub completed: u64,
    /// Share of the clients' loop time spent outside calls into the system.
    pub outside_share: f64,
}

impl Load {
    /// Ops started inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &OpRec> + '_ {
        self.clients
            .iter()
            .flat_map(|c| &c.ops)
            .filter(|o| o.start >= self.from && o.start < self.to)
    }

    /// Every op, warm-up included.
    pub fn all(&self) -> Vec<OpRec> {
        self.clients
            .iter()
            .flat_map(|c| c.ops.iter().copied())
            .collect()
    }

    /// The measured window.
    pub fn window(&self) -> (u64, u64) {
        (self.from, self.to)
    }

    /// Faults started inside the measured window.
    pub fn measured_faults(&self) -> impl Iterator<Item = &FaultRec> + '_ {
        self.clients
            .iter()
            .flat_map(|c| &c.faults)
            .filter(|f| f.start >= self.from && f.start < self.to)
    }

    /// The end-to-end figures.
    ///
    /// Throughput is the median over `WINDOWS` equal slices of the measured
    /// window. A p99 is the lowest of the per-slice p99s, with as many
    /// slices, up to `WINDOWS`, as leave a thousand samples in each: load
    /// from outside the benchmark only ever adds latency, so the least
    /// disturbed slice is the best estimate of the system's own tail, and a
    /// tail the system adds everywhere still shows. Medians and sample
    /// counts are over the whole window.
    pub fn end_to_end(&self) -> EndToEnd {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for o in self.measured().filter(|o| o.ok) {
            match o.kind {
                Kind::Read => reads.push((o.start, o.micros())),
                Kind::Write => writes.push((o.start, o.micros())),
            }
        }
        let slice = |start: u64, k: usize| {
            (((start - self.from) as u128 * k as u128) / u128::from(self.to - self.from)) as usize
        };
        let mut counts = [0u64; WINDOWS];
        for &(start, _) in reads.iter().chain(&writes) {
            counts[slice(start, WINDOWS)] += 1;
        }
        let secs = (self.to - self.from) as f64 / 1e9 / WINDOWS as f64;
        let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / secs).collect();
        let summary = |samples: &[(u64, f64)]| {
            let k = (samples.len() / 1000).clamp(1, WINDOWS);
            let mut slices = vec![Vec::new(); k];
            for &(start, us) in samples {
                slices[slice(start, k)].push(us);
            }
            let p99 = slices
                .iter_mut()
                .map(|v| stats::summarize(v).p99)
                .fold(f64::INFINITY, f64::min);
            let mut all: Vec<f64> = samples.iter().map(|&(_, us)| us).collect();
            Summary {
                p99,
                ..stats::summarize(&mut all)
            }
        };
        let all = self.clients.iter().flat_map(|c| &c.ops);
        let attempted = all.clone().count() as u64;
        let completed = all.clone().filter(|o| o.ok).count() as u64;
        let faults = self.clients.iter().flat_map(|c| &c.faults);
        let in_calls: u64 = all.map(|o| o.end - o.start).sum::<u64>()
            + faults.map(|f| f.end - f.start).sum::<u64>();
        let looped: u64 = self.clients.iter().map(|c| c.loop_ns).sum();
        EndToEnd {
            ops_per_s: stats::median(&mut rates),
            read: summary(&reads),
            write: summary(&writes),
            attempted,
            failed: attempted - completed,
            completed,
            outside_share: 1.0 - stats::ratio(in_calls as f64, looped as f64),
        }
    }
}
