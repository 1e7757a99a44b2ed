//! `txbench` command line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path txbench/Cargo.toml -- \
//!     --workload snap_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything above it
//! is the human-readable report and the run envelope.

use std::path::PathBuf;
use std::process::ExitCode;

use txbench::harness::report::{self, MetricDef, END_TO_END, PER_LAYER};
use txbench::harness::workload::{self, Spec, WORKLOADS};
use txbench::harness::{self, stats, traced, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: Option<usize>,
    quick: bool,
}

const USAGE: &str = "usage: txbench --workload <snap_hot|snap_cold|history_scan|ingest_churn> \
[--seed N] [--seconds N] [--trace 0|1] [--selfcheck N] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        selfcheck: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => {
                args.selfcheck =
                    Some(value("a count")?.parse().map_err(|e| format!("--selfcheck: {e}"))?)
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 || args.selfcheck == Some(0) {
        return Err("--seconds and --selfcheck must be at least 1".into());
    }
    Ok(args)
}

/// Where this run keeps its store and writes its trace: `out/` inside
/// the benchmark's own directory, never outside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("out")
}

fn spec_for(args: &Args) -> Spec {
    let spec = workload::spec(&args.workload).expect("workload name was validated");
    if args.quick {
        spec.quick()
    } else {
        spec
    }
}

fn run_once(args: &Args, scratch: &std::path::Path) -> Result<Outcome, String> {
    let spec = spec_for(args);
    if args.trace {
        traced::per_layer(spec, args.seed, args.seconds, scratch, &out_dir())
    } else {
        harness::end_to_end(spec, args.seed, args.seconds, scratch)
    }
}

fn report(args: &Args, defs: &[MetricDef], out: &Outcome) {
    println!(
        "== txbench {} seed {} ({}{}) ==",
        args.workload,
        args.seed,
        if args.trace { "traced, per-layer" } else { "untraced, end-to-end" },
        if args.quick { ", quick: sizes cut, numbers not comparable" } else { "" }
    );
    for p in &out.phases {
        let (min, med, max) = stats::min_median_max(&p.round_secs);
        println!(
            "  phase {:<6} attempted {:>7} failed {:>3}  rounds {} x {} ops  round s min/median/max {:.3}/{:.3}/{:.3}",
            p.name,
            p.tally.attempted,
            p.tally.failed,
            p.round_secs.len(),
            p.ops_per_round,
            min,
            med,
            max
        );
    }
    report::print_metrics(defs, &out.metrics);
    println!("envelope: {}", out.envelope);
}

/// `--selfcheck N`: N runs of one workload; per end-to-end metric, the
/// spread (max − min) ÷ median beside its bound.
fn selfcheck(args: &Args, n: usize, scratch: &std::path::Path) -> Result<bool, String> {
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut failed = 0;
    for i in 0..n {
        let out = harness::end_to_end(spec_for(args), args.seed, args.seconds, scratch)?;
        failed += out.failed;
        for (s, d) in series.iter_mut().zip(&END_TO_END) {
            s.push(out.metrics[d.name]);
        }
        println!("selfcheck run {}/{n} done ({} failed operations)", i + 1, out.failed);
    }
    let mut ok = failed == 0;
    println!("== txbench selfcheck {} seed {} x{n} ==", args.workload, args.seed);
    for (s, d) in series.iter().zip(&END_TO_END) {
        let (min, med, max) = stats::min_median_max(s);
        let spread = (max - min) / med;
        let bound = d.bound.expect("end-to-end metrics have bounds");
        // Set-up time is gated on its median only (see README).
        let within = spread <= bound || d.name == "setup_s";
        ok &= within;
        println!(
            "  {:<28} median {:>14.4} {:<6} spread {:>6.2}%  bound {:>5.1}%  {}",
            d.name,
            med,
            d.unit,
            spread * 100.0,
            bound * 100.0,
            if within { "ok" } else { "EXCEEDS" }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("txbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = out_dir().join(format!("run-{}-{}", args.workload, std::process::id()));
    let result = match args.selfcheck {
        Some(n) => selfcheck(&args, n, &scratch).map(|ok| if ok { 0 } else { 1 }),
        None => run_once(&args, &scratch).map(|out| {
            let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
            report(&args, defs, &out);
            println!("{}", report::result_line(defs, &out.metrics, out.attempted, out.failed));
            0
        }),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("txbench: {e}");
            ExitCode::from(2)
        }
    }
}
