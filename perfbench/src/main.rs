//! The repository benchmark: one named workload from one seed, outputs
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-spmv|net-spmv|net-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Stdout carries the host header, notes, and as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
//! run also writes its spans to `perfbench/traces/`. See `perfbench/README.md`.

mod host;
mod layers;
mod net;
mod report;
mod stats;
mod suite;
mod trace;
mod wire;

use report::Report;
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured phases run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["suite-spmv", "net-spmv", "net-mixed"];

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of suite-spmv, net-spmv, net-mixed")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = host::Host::probe();
    println!("host {}", report::compact(&host.to_json()));
    let mut report = Report::default();
    let spans = match args.workload.as_str() {
        "suite-spmv" => suite::run(&args, &host, &mut report),
        "net-spmv" => net::run(net::Mix::Spmv, &args, &host, &mut report),
        _ => net::run(net::Mix::Mixed, &args, &host, &mut report),
    };
    if args.trace {
        let path = PathBuf::from("perfbench/traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    println!("{}", report.result_line(args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line() {
        let a = parse("--workload net-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("net-mixed", 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload net-spmv").is_err());
        assert!(parse("--workload net-spmv --seed 1 --trace 2").is_err());
        assert!(parse("--workload net-spmv --seed 1 --seconds 0").is_err());
        assert!(parse("--workload net-spmv --seed").is_err());
    }
}
