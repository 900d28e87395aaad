//! Command line of the simulator benchmark:
//!
//! ```text
//! dcmaint-simbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! Prints log lines, then one JSON object as the last line of stdout:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--record` it prints the `reference.txt` lines of the digests it
//! checked instead.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use dcmaint_simbench::run::{run, Args};
use dcmaint_simbench::workload::{Size, Workload, WORKLOADS};
use dcmaint_simbench::Metric;

const USAGE: &str =
    "usage: dcmaint-simbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]";

fn parse(argv: &[String]) -> Result<(Args, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    Workload::find(name)
                        .ok_or(format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    };
    Ok((args, record))
}

/// The result line. Non-finite values cannot be written as JSON numbers
/// and are written as 0.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, record) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    if record {
        for line in &out.record {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    for line in &out.log {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
