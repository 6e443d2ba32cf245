//! The DNN-Defender reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-matrix|fleet-day|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, times rounds of it for
//! about `--seconds` of host time, checks every output, and prints one
//! JSON line last: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end table, measured untraced;
//! with `--trace 1` a separate traced pass reports the per-layer ledger.
//! A failed output check prints `"correct": false` and exits non-zero.
//! See `perfbench/README.md` for what each workload loads and why.

mod direct;
mod fleet_day;
mod harness;
mod ledger;
mod metrics;
mod paper_matrix;
mod service;
mod stats;

use std::process::ExitCode;

use harness::Outcome;
use metrics::{END_TO_END, PER_LAYER};

/// One workload's entry point: `(seed, seconds, trace)`.
type Workload = fn(u64, f64, bool) -> Result<Outcome, String>;

/// The workloads, with the seed each uses when `--seed` is absent.
const WORKLOADS: [(&str, u64, Workload); 3] = [
    (
        "paper-matrix",
        paper_matrix::DEFAULT_SEED,
        paper_matrix::run,
    ),
    ("fleet-day", fleet_day::DEFAULT_SEED, fleet_day::run),
    ("service", service::DEFAULT_SEED, service::run),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = Some(parse_u64(&value).ok_or(format!("bad seed `{value}`"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let Some(&(name, default_seed, workload)) =
        WORKLOADS.iter().find(|(n, _, _)| *n == args.workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            names.join(", "),
            args.workload
        ));
    };
    let seed = args.seed.unwrap_or(default_seed);
    let before = args.trace.then(|| harness::calibrate(1));
    let mut outcome = workload(seed, args.seconds, args.trace)?;
    let host_scale = outcome.metrics.iter_mut().find(|m| m.name == "host_scale");
    if let (Some(before), Some(m)) = (before, host_scale) {
        m.value = harness::host_scale(before, harness::calibrate(1));
    }
    // The result line must carry exactly the declared metrics.
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let reported: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != table {
        return Err(format!(
            "{name} reported {reported:?}, not the declared metrics"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number ({})", m.name, m.value));
    }
    if let Some(dropped) = outcome.metrics.iter().find(|m| m.name == "dropped_spans") {
        // A dropped span undercounts its layer's time.
        let n = dropped.value;
        outcome.check(n == 0.0, || {
            format!("{n} spans dropped from full span rings")
        });
    }
    Ok(outcome)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            println!("{}", result_line(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = args(&[
            "--workload",
            "fleet-day",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, "fleet-day");
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert_eq!(
            args(&["--seed", "0x0dac_2024"]).expect("hex").seed,
            Some(0x0dac_2024)
        );
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        assert!(args(&["--speed", "1"]).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("wall_s", 25.123456789012, "s");
        let line = result_line(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 25.123456789012, \"unit\": \"s\"}}}"
        );
        assert!(dnn_defender::Json::parse(&line).is_ok());
    }
}
