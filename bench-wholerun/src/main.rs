//! Command line of the whole-run benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench-wholerun/Cargo.toml -- \
//!     --workload paper-saturated --seed 5 --seconds 40 --trace 0
//! ```
//!
//! Prints one line per metric, then the result as one JSON object on
//! the last line of standard output.

use std::path::Path;
use std::process::ExitCode;

use lyra_wholerun::{run, to_json, Plan, Size, Workload};

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lyra-wholerun --workload <paper-saturated|elastic-churn|observed-replay> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let seed = args.seed.unwrap_or(workload.default_seed());
    let make_inputs = || workload.inputs(Size::Bench, seed);
    let sink = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-{}.jsonl", workload.name(), std::process::id()));
    let plan = Plan {
        workload,
        make_inputs: &make_inputs,
        expected_digest: (seed == workload.default_seed())
            .then(|| workload.pinned_digest(Size::Bench)),
        seconds: args.seconds,
        trace: args.trace,
        sink,
    };
    let outcome = run(&plan);
    println!(
        "{} seed {seed} ({}): {} operations, {} failed, records digest {}",
        workload.name(),
        if args.trace { "traced" } else { "end to end" },
        outcome.attempted,
        outcome.failed,
        outcome
            .digest
            .map_or("none".to_string(), |d| format!("{d:#018x}")),
    );
    for m in &outcome.metrics {
        println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", to_json(&outcome));
    ExitCode::SUCCESS
}
