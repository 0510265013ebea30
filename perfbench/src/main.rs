//! Same-run benchmark of the molseq simulation stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ode_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload (`ode_sweep`, `ssa_panels`,
//! `serve_mixed`) on inputs generated from `--seed`, checks every output,
//! and prints a human-readable report followed by one JSON line. With
//! `--trace 0` the JSON holds the end-to-end metrics of an untraced run;
//! with `--trace 1` it holds the per-layer metrics of a traced run (half
//! the time untraced, half traced, so the tracing overhead is measured in
//! the same process) and the spans are written to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. A failed check prints
//! no JSON and exits 1; a usage error exits 2.

mod bench;
mod cells;
mod circuits;
mod kernels;
mod layers;
mod ode_sweep;
mod serve_mixed;
mod ssa_panels;
mod stats;
mod trace;

use bench::{median, Outcome};
use stats::{percentile, Percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["ode_sweep", "ssa_panels", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// The result line. Any operation that fails, and any wrong output, fails
/// the run's check, which prints no result; so a printed result has
/// every attempted operation done and checked.
fn json_line(attempted: usize, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn pct(outcome: &Outcome, p: f64) -> Result<Percentile, String> {
    percentile(&outcome.phase.ops, p).map_err(|e| e.to_string())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(args: &Args, outcome: &Outcome, report: &mut String) -> Result<Vec<Metric>, String> {
    let op = if args.workload == "serve_mixed" {
        "job"
    } else {
        "cell"
    };
    let phase = &outcome.phase;
    let p50 = pct(outcome, 50.0)?;
    let p80 = pct(outcome, 80.0)?;
    let rss = phase
        .pass_rss_mb
        .ok_or("peak RSS is not readable from /proc/self/status")?;
    let setup = median(&outcome.setup_s);
    let line = |report: &mut String, s: String| {
        report.push_str(&s);
        report.push('\n');
    };
    let reps: Vec<String> = outcome.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    line(
        report,
        format!(
            "setup_s      {setup:.4} s  (median of {} set-ups: {})",
            reps.len(),
            reps.join(", ")
        ),
    );
    line(
        report,
        format!(
            "ops_per_s    {:.4} 1/s  ({} {op}s in {:.3} s)",
            phase.ops_per_s(),
            phase.ops.len(),
            phase.wall_s
        ),
    );
    line(report, format!("op_p50_ms    {p50}  [{op} latency, ms]"));
    line(report, format!("op_p80_ms    {p80}  [{op} latency, ms]"));
    for p in [90.0, 99.0] {
        if let Ok(tail) = pct(outcome, p) {
            line(
                report,
                format!("             {tail}  (printed only, not a metric)"),
            );
        }
    }
    // what the throughput is made of: each class's share of the ops and
    // of the summed op latency (the time the closed loops spent on it)
    let mut classes: Vec<&str> = phase.ops.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    let total_ms: f64 = phase.ops.iter().map(|s| s.value).sum();
    for class in classes {
        let values: Vec<f64> = phase
            .ops
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.value)
            .collect();
        line(
            report,
            format!(
                "  class {class:<12} {:>5} {op}s ({:>5.1} %), median {:>9.3} ms, {:>5.1} % of {op} time",
                values.len(),
                100.0 * values.len() as f64 / phase.ops.len() as f64,
                median(&values),
                100.0 * values.iter().sum::<f64>() / total_ms
            ),
        );
    }
    line(
        report,
        format!("peak_rss_mb  {rss:.3} MB  (after the first fixed pass)"),
    );
    Ok(vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup,
        },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: phase.ops_per_s(),
        },
        Metric {
            name: "op_p50_ms",
            unit: "ms",
            value: p50.value,
        },
        Metric {
            name: "op_p80_ms",
            unit: "ms",
            value: p80.value,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: rss,
        },
    ])
}

/// The per-layer metrics of a traced run.
fn per_layer(outcome: &Outcome, report: &mut String) -> Vec<Metric> {
    outcome
        .layers
        .iter()
        .map(|l| {
            let (shown, basis) = match l.value {
                Some(v) => (format!("{v:.6}"), l.basis.as_str()),
                None => ("0".to_owned(), "not exercised by this workload"),
            };
            writeln!(report, "{:<28} {:>16} {:<6} {basis}", l.name, shown, l.unit)
                .expect("writing to a String cannot fail");
            Metric {
                name: l.name,
                unit: l.unit,
                value: l.value.unwrap_or(0.0),
            }
        })
        .collect()
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

fn run(args: &Args) -> Result<(), String> {
    let outcome = match args.workload.as_str() {
        "ode_sweep" => ode_sweep::run(args.seed, args.seconds, args.trace),
        "ssa_panels" => ssa_panels::run(args.seed, args.seconds, args.trace),
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated in parse_args"),
    }?;
    let mut report = format!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {})\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for note in &outcome.notes {
        report.push_str(note);
        report.push('\n');
    }
    let metrics = if args.trace {
        let path = spans_path(&args.workload, args.seed);
        trace::write_jsonl(&path, &outcome.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        writeln!(
            report,
            "{} spans written to {}",
            outcome.spans.len(),
            path.display()
        )
        .expect("writing to a String cannot fail");
        per_layer(&outcome, &mut report)
    } else {
        end_to_end(args, &outcome, &mut report)?
    };
    print!("{report}");
    println!("{}", json_line(outcome.phase.ops.len(), &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Phase;
    use crate::stats::Sample;
    use molseq_sweep::JsonValue;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
    fn listed(section: &str) -> Vec<(String, String)> {
        let spec = JsonValue::parse(SPEC).expect("BENCHMARK.json parses");
        spec.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect("string field");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn untraced_runs_print_exactly_the_listed_end_to_end_metrics() {
        let args = Args {
            workload: "ode_sweep".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        let outcome = Outcome {
            setup_s: vec![0.5, 0.4, 0.6],
            phase: Phase {
                ops: (0..100)
                    .map(|i| Sample {
                        value: f64::from(i),
                        class: "a",
                    })
                    .collect(),
                wall_s: 10.0,
                pass_rss_mb: Some(5.0),
            },
            ..Outcome::default()
        };
        let metrics = end_to_end(&args, &outcome, &mut String::new()).expect("enough samples");
        assert_eq!(printed(&metrics), listed("end_to_end"));
    }

    #[test]
    fn traced_runs_print_exactly_the_listed_per_layer_metrics() {
        let outcome = Outcome {
            layers: layers::assemble(&layers::LayerInputs::default()),
            ..Outcome::default()
        };
        let metrics = per_layer(&outcome, &mut String::new());
        assert_eq!(printed(&metrics), listed("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = json_line(
            7,
            &[Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 2.5,
            }],
        );
        let doc = JsonValue::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let value = doc
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(value, Some(2.5));
    }
}
