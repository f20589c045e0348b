//! `perfbench`: the harvest service's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <wire_mixed|harvest_lossless|evaluate_portfolio>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with nothing
//! traced. `--trace 1` runs the layer suite on the same seed instead: spans
//! around calls into each layer's public API, written to
//! `perfbench/out/`, and every per-layer metric. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Any failed correctness check makes the exit code nonzero. See
//! `perfbench/README.md` for what each workload and metric is for.

mod harness;
mod inputs;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Args, Report};

const WORKLOADS: [&str; 3] = ["wire_mixed", "harvest_lossless", "evaluate_portfolio"];

struct Cli {
    workload: String,
    args: Args,
    trace: bool,
}

fn parse(started: Instant) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Cli {
        workload,
        args: Args {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            started,
        },
        trace,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(cli: &Cli) -> Result<Report, String> {
    if cli.trace {
        return layers::run(&cli.workload, &cli.args);
    }
    let mut report = match cli.workload.as_str() {
        "wire_mixed" => workloads::wire_mixed(&cli.args)?,
        "harvest_lossless" => workloads::harvest_lossless(&cli.args)?,
        _ => workloads::evaluate_portfolio(&cli.args)?,
    };
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    report.metric("peak_rss_mb", "MB", stats::Summary::single(rss));
    Ok(report)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse(started) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cli) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            return ExitCode::FAILURE;
        }
    };

    for m in &report.metrics {
        let s = m.summary;
        println!(
            "{:<14} {:<40} {:>14.6} {:<6} min {:.6} max {:.6} n {}",
            cli.workload, m.name, s.median, m.unit, s.min, s.max, s.n
        );
    }
    let failed_share = report.ledger.failed_share();
    println!(
        "{:<14} {:<40} {:>14.6} {:<6} failed {} of {} attempted",
        cli.workload,
        "failed_share",
        failed_share,
        "share",
        report.ledger.failed(),
        report.ledger.attempted
    );
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("ledger {:?}", report.ledger);

    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\
         \"nproc\":{},\"rustc\":\"{}\",\"failed_share\":{}",
        cli.workload,
        cli.args.seed,
        cli.args.seconds,
        cli.trace,
        commit(),
        workloads::nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        json_number(failed_share),
    );
    for (name, value) in &report.facts {
        let _ = write!(meta, ",\"{name}\":\"{value}\"");
    }
    meta.push_str(",\"summaries\":{");
    for (i, m) in report.metrics.iter().enumerate() {
        let s = m.summary;
        let _ = write!(
            meta,
            "{}\"{}\":{{\"unit\":\"{}\",\"runs\":{},\"min\":{},\"median\":{},\"max\":{}}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.unit,
            s.n,
            json_number(s.min),
            json_number(s.median),
            json_number(s.max)
        );
    }
    meta.push_str("}}");
    println!("meta {meta}");

    let correct = report.correct();
    let mut last = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.ledger.attempted,
        report.ledger.failed()
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let _ = write!(
            last,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            json_number(m.summary.median),
            m.unit
        );
    }
    last.push_str("}}");
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
