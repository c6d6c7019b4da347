//! One validator for every artifact a fleet run emits, one subcommand
//! per kind: `journal` checks checkpoint-journal directories
//! (`JOURNAL_*/`), `trace` flight-recorder exports (`TRACE_*.json`) and
//! `tune` policy-search trails (`TUNE_*.json`).
//!
//! ```text
//! cargo run --release -p aging-bench --bin inspect -- journal JOURNAL_DIR …
//! cargo run --release -p aging-bench --bin inspect -- trace TRACE_*.json
//! cargo run --release -p aging-bench --bin inspect -- tune TUNE_*.json
//! ```
//!
//! Prints one summary line per valid artifact and exits non-zero if any
//! artifact fails its check.

mod journal;
mod trace;
mod tune;

use serde::Value;
use std::process::ExitCode;

/// A JSON object's field by name.
fn field<'a>(entry: &'a Value, name: &str) -> Option<&'a Value> {
    entry.as_obj()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn u64_field(entry: &Value, name: &str) -> Option<u64> {
    match field(entry, name) {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Numeric field as `f64`; `null` (an unscoreable objective) maps to
/// `None`, a missing field is the caller's problem.
fn f64_field(entry: &Value, name: &str) -> Result<Option<f64>, String> {
    match field(entry, name) {
        Some(Value::F64(x)) => Ok(Some(*x)),
        Some(Value::U64(n)) => Ok(Some(*n as f64)),
        Some(Value::I64(n)) => Ok(Some(*n as f64)),
        Some(Value::Null) => Ok(None),
        Some(other) => Err(format!("{name} must be a number or null, got {}", other.kind())),
        None => Err(format!("missing {name}")),
    }
}

fn bool_field(entry: &Value, name: &str) -> Result<bool, String> {
    match field(entry, name) {
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("{name} must be a bool, got {}", other.kind())),
        None => Err(format!("missing {name}")),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check: fn(&str) -> Result<String, String> = match args.first().map(String::as_str) {
        Some("journal") if args.len() > 1 => journal::check,
        Some("trace") if args.len() > 1 => |path| read(path).and_then(|t| trace::check(&t)),
        Some("tune") if args.len() > 1 => |path| read(path).and_then(|t| tune::check(&t)),
        _ => {
            eprintln!("usage: inspect journal DIR … | trace FILE.json … | tune FILE.json …");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for target in &args[1..] {
        match check(target) {
            Ok(summary) => println!("{target}: OK — {summary}"),
            Err(e) => {
                eprintln!("{target}: FAILED — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
