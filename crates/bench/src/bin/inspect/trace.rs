//! `inspect trace`: validates `TRACE_*.json` flight-recorder artifacts.
//! Each file must be valid Chrome trace-event JSON (the object form with
//! a `traceEvents` array), every non-metadata entry must carry the event
//! envelope (`ph`/`ts`/`pid`/`tid`/`name` and `args.seq`), sequence
//! numbers must be strictly monotone in file order, and every non-root
//! `args.parent` must resolve to an already-seen seq — unless the ring
//! overflowed (`droppedEvents > 0`), in which case a parent may be gone
//! but must still point strictly backwards.

use super::{field, u64_field};
use serde::Value;
use std::collections::HashSet;

/// Checks one artifact; returns a short summary line on success.
pub(crate) fn check(text: &str) -> Result<String, String> {
    let root = serde::parse_value(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let entries = match field(&root, "traceEvents") {
        Some(Value::Arr(entries)) => entries,
        Some(other) => return Err(format!("traceEvents must be an array, got {}", other.kind())),
        None => return Err("missing traceEvents array".into()),
    };
    let dropped = u64_field(&root, "droppedEvents").ok_or("missing droppedEvents count")?;

    let mut seen: HashSet<u64> = HashSet::new();
    let mut last_seq: Option<u64> = None;
    let mut events = 0u64;
    let mut durations = 0u64;
    for (i, entry) in entries.iter().enumerate() {
        let ph = match field(entry, "ph") {
            Some(Value::Str(ph)) => ph.as_str(),
            _ => return Err(format!("entry {i}: missing ph")),
        };
        for required in ["name", "pid"] {
            if field(entry, required).is_none() {
                return Err(format!("entry {i}: missing {required}"));
            }
        }
        if ph == "M" {
            // Metadata entries (process/thread names) carry no event
            // envelope beyond name/pid.
            continue;
        }
        for required in ["ts", "tid", "args"] {
            if field(entry, required).is_none() {
                return Err(format!("entry {i}: missing {required}"));
            }
        }
        let args = field(entry, "args").expect("checked above");
        let Some(seq) = u64_field(args, "seq") else {
            return Err(format!("entry {i}: missing args.seq"));
        };
        if last_seq.is_some_and(|last| seq <= last) {
            return Err(format!(
                "entry {i}: seq {seq} not strictly after {}",
                last_seq.expect("checked")
            ));
        }
        match field(args, "parent") {
            None | Some(Value::Null) => {}
            Some(Value::U64(parent)) => {
                if !seen.contains(parent) && dropped == 0 {
                    return Err(format!("entry {i}: seq {seq} parents on unseen {parent}"));
                }
                if *parent >= seq {
                    return Err(format!("entry {i}: seq {seq} parents forwards on {parent}"));
                }
            }
            Some(other) => {
                return Err(format!("entry {i}: args.parent must be a seq, got {}", other.kind()))
            }
        }
        seen.insert(seq);
        last_seq = Some(seq);
        events += 1;
        if ph == "X" {
            durations += 1;
        }
    }
    Ok(format!("{events} events ({durations} duration spans), {dropped} dropped"))
}

#[cfg(test)]
mod tests {
    use super::check;

    fn wrap(entries: &str, dropped: u64) -> String {
        format!("{{\"traceEvents\":[{entries}],\"droppedEvents\":{dropped}}}")
    }

    fn instant(seq: u64, parent: Option<u64>) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"name\":\"DriftObserved\",\"cat\":\"adapt\",\"ph\":\"i\",\"ts\":1.0,\
             \"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{{\"seq\":{seq},\"parent\":{parent}}}}}"
        )
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let text = wrap(&format!("{},{}", instant(0, None), instant(1, Some(0))), 0);
        assert!(check(&text).is_ok(), "{:?}", check(&text));
    }

    #[test]
    fn rejects_out_of_order_seqs() {
        let text = wrap(&format!("{},{}", instant(1, None), instant(0, None)), 0);
        assert!(check(&text).unwrap_err().contains("not strictly after"));
    }

    #[test]
    fn rejects_unresolved_parents_when_nothing_was_dropped() {
        let text = wrap(&instant(5, Some(3)), 0);
        assert!(check(&text).unwrap_err().contains("unseen"));
    }

    #[test]
    fn tolerates_missing_parents_after_ring_overflow() {
        let text = wrap(&instant(5, Some(3)), 2);
        assert!(check(&text).is_ok());
    }

    #[test]
    fn rejects_forward_parents_even_after_overflow() {
        let text = wrap(&instant(5, Some(9)), 2);
        assert!(check(&text).unwrap_err().contains("forwards"));
    }

    #[test]
    fn rejects_non_json_and_missing_wrapper() {
        assert!(check("not json").is_err());
        assert!(check("{\"events\":[]}").is_err());
    }

    #[test]
    fn metadata_entries_are_exempt_from_the_event_envelope() {
        let meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
                    \"args\":{\"name\":\"software-aging\"}}";
        let text = wrap(&format!("{meta},{}", instant(0, None)), 0);
        assert!(check(&text).is_ok(), "{:?}", check(&text));
    }
}
