//! `perfbench` — the serving benchmark of this repository.
//!
//! ```text
//! perfbench --workload hit_small|hit_large|churn --seed N --seconds S
//!           --trace 0|1 --rpr PATH/TO/rpr
//! ```
//!
//! `--trace 0` measures a live `rpr serve` end to end; `--trace 1`
//! replays the same request stream in-process and times each layer.
//! The last line of standard output is the JSON result. See README.md.

mod check;
mod client;
mod gen;
mod json;
mod live;
mod trace;

use std::path::PathBuf;

/// One reported figure.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The outcome of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    gen::json_str(&m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of sorted values; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rpr: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
        rpr: PathBuf::from(value("--rpr")?),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --rpr PATH",
            gen::WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let Some(workload) = gen::workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let result = if args.trace {
        trace::run(&workload, &args.rpr, args.seconds)
    } else {
        live::run(&workload, &args.rpr, args.seconds)
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
