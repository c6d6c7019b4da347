//! The fleet benchmark: end-to-end and per-layer measurements of the
//! aging predictor and rejuvenation engine on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     [--workload frozen_mixed|adaptive_shift|policy_search|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, measured with no
//! timing wrapper or telemetry attached. With `--trace 1` it measures an
//! untraced and a traced half, prints the per-layer metrics, the
//! attribution table and its ROI lines. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and the metrics.
//! A failed correctness check makes the exit code 1. Journals go to
//! `.bench_work/` under the working directory and are removed at exit.
//! `peak_heap_mb` is the process's peak of live heap bytes, so under
//! `--workload all` it covers every workload run so far.

mod metrics;
mod probe;
mod workloads;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

use metrics::{per_layer, result_line, END_TO_END};
use std::path::PathBuf;
use workloads::{Attribution, Outcome, Params};

const WORKLOADS: [&str; 3] = ["frozen_mixed", "adaptive_shift", "policy_search"];

struct Cli {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { workloads: WORKLOADS.to_vec(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workloads = match WORKLOADS.iter().find(|w| *w == value) {
                    Some(w) => vec![*w],
                    None if value == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload `{value}`")),
                }
            }
            "--seed" => cli.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The SNIPPETS-style table: workload × quality × time, then each layer's
/// seconds and share, the largest layer, and the ROI lines.
fn print_attribution(rows: &[Attribution]) {
    println!("\n### attribution (traced run; shares of worker-busy time, of panel wall on policy_search)\n");
    println!("| workload | quality | wall per run | busy | largest layer |");
    println!("|----------|---------|--------------|------|---------------|");
    for a in rows {
        let largest = a
            .largest()
            .map_or("-".to_string(), |(n, s)| format!("{n} ({:.1}%)", 100.0 * s / a.busy_s));
        println!(
            "| {} | {} | {:.3} s | {:.3} s | {largest} |",
            a.workload, a.quality, a.wall_s, a.busy_s
        );
    }
    for a in rows {
        println!("\n| {} layer | seconds per run | share |", a.workload);
        println!("|------|------|------|");
        for (layer, secs) in &a.layers {
            println!("| {layer} | {secs:.4} | {:.1}% |", 100.0 * secs / a.busy_s);
        }
        for line in &a.roi {
            println!("\nROI {}: {line}", a.workload);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fleetbench [--workload frozen_mixed|adaptive_shift|policy_search|all] [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())));
    println!(
        "fleetbench: seed {}, {} s per workload, trace {}, {} workers on {} available cores",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        workloads::WORKERS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let mut results: Vec<(&str, Outcome)> = Vec::new();
    for &name in &cli.workloads {
        let params = Params {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            work: work.0.join(name),
        };
        println!("\n== {name} ==");
        let outcome = match name {
            "frozen_mixed" => workloads::frozen_mixed(&params),
            "adaptive_shift" => workloads::adaptive_shift(&params),
            _ => workloads::policy_search(&params),
        };
        for failure in &outcome.failures {
            println!("CHECK FAILED: {failure}");
        }
        results.push((name, outcome));
    }

    let attribution: Vec<Attribution> =
        results.iter_mut().filter_map(|(_, o)| o.attribution.take()).collect();
    if !attribution.is_empty() {
        print_attribution(&attribution);
    }

    let catalogue: Vec<(String, &'static str)> = if cli.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let single = results.len() == 1;
    let mut reported = Vec::new();
    for (name, outcome) in &results {
        let selected = outcome.metrics.select(&catalogue);
        println!("\n{name} metrics:");
        for (metric, value, unit) in &selected {
            println!("  {metric:<28} {value:>16.6} {unit}");
        }
        reported.extend(selected.into_iter().map(|(m, v, u)| {
            if single {
                (m, v, u)
            } else {
                (format!("{name}.{m}"), v, u)
            }
        }));
    }
    let correct = results.iter().all(|(_, o)| o.failures.is_empty());
    let attempted = results.iter().map(|(_, o)| o.attempted).sum::<u64>().max(1);
    let failed = results.iter().map(|(_, o)| o.failed).sum();
    drop(work);
    println!("{}", result_line(correct, attempted, failed, &reported));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metrics;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cli = parse(&args("--workload policy_search --seed 42 --seconds 20 --trace 1"))
            .expect("valid");
        assert_eq!(cli.workloads, ["policy_search"]);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, 20.0, true));
        assert_eq!(parse(&args("--workload all")).expect("valid").workloads, WORKLOADS);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }

    #[test]
    fn metrics_select_fills_idle_layers_with_zero() {
        let mut m = Metrics::default();
        m.set("ml.predict_rows", 12.0);
        let selected = m.select(&per_layer());
        assert_eq!(selected.len(), per_layer().len());
        assert!(selected.iter().any(|(n, v, _)| n == "ml.predict_rows" && *v == 12.0));
        assert!(selected.iter().any(|(n, v, _)| n == "journal.append_us" && *v == 0.0));
    }
}
