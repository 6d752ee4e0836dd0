//! The blockrep benchmark: one process that hosts the cluster in-process,
//! drives it with a seeded closed-loop load, checks every answer, and
//! prints end-to-end figures (`--trace 0`) or per-layer figures from a
//! separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fs-files --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it is a report with the host, the inputs and the sample counts. See
//! `README.md` next to this package for the workloads and the metrics.

mod analysis;
mod common;
mod fs_files;
mod harness;
mod point_lan;
mod rng;
mod shadow;
mod shard_batch;
mod stats;
mod trace;

use common::{json_num, json_str, Opts, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Runs one workload; an error is a set-up failure or an oracle violation.
type Run = fn(&Opts) -> Result<Outcome, String>;

/// The workloads, by name.
const WORKLOADS: &[(&str, Run)] = &[
    ("fs-files", fs_files::run),
    ("shard-batch", shard_batch::run),
    ("point-lan", point_lan::run),
];

const USAGE: &str = "usage: blockrep-e2ebench --workload fs-files|shard-batch|point-lan \
--seed N --seconds S --trace 0|1 [--corrupt-shadow]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_shadow: false,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-shadow" {
            opts.corrupt_shadow = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.1..=600.0).contains(s))
                    .ok_or_else(|| bad("expected seconds in 0.1..=600"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

/// The host and build the figures were measured on.
fn host(opts: &Opts) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"nproc\":{},\"rustc\":{},\"git_rev\":{}}}",
        opts.nproc,
        json_str(&rustc),
        json_str(&git_rev())
    )
}

/// The commit checked out in the working directory, read straight from
/// `.git` so nothing outside the checkout is consulted; "unknown" outside a
/// git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn object(fields: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(&k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn metrics(out: &Outcome, catalogue: &[(&str, &str)]) -> String {
    object(catalogue.iter().map(|&(name, unit)| {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            name.to_string(),
            format!(
                "{{\"value\":{},\"unit\":{}}}",
                json_num(value),
                json_str(unit)
            ),
        )
    }))
}

fn result(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("blockrep-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("blockrep-e2ebench: unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = run(&opts);
    let inputs = [
        ("workload".to_string(), json_str(&name)),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), json_num(opts.seconds)),
        (
            "warmup_seconds".to_string(),
            json_num(opts.warmup().as_secs_f64()),
        ),
        ("trace".to_string(), (opts.trace as u8).to_string()),
        ("host".to_string(), host(&opts)),
    ];
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    match outcome {
        Ok(out) => {
            let params = object(out.params.iter().map(|(k, v)| (k.to_string(), v.clone())));
            let notes = out.notes.iter().map(|(k, v)| (k.to_string(), v.clone()));
            let report = object(
                inputs
                    .into_iter()
                    .chain([("params".to_string(), params)])
                    .chain(notes),
            );
            for &(name, unit) in catalogue {
                let value = out.metrics.get(name).copied().unwrap_or(0.0);
                eprintln!("{name:>34} {value:>14.3} {unit}");
            }
            println!("{{\"report\":{report}}}");
            println!(
                "{}",
                result(true, out.attempted, out.failed, &metrics(&out, catalogue))
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("blockrep-e2ebench: {name}: {e}");
            println!("{{\"report\":{}}}", object(inputs));
            println!("{}", result(false, 1, 0, "{}"));
            ExitCode::FAILURE
        }
    }
}
