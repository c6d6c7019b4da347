//! `inspect journal`: validates checkpoint-journal directories. Every
//! segment must open, every complete frame must pass its CRC and decode,
//! and sequence numbers must be strictly monotone across the whole log. A torn tail
//! on the newest segment — the expected residue of a crash mid-append —
//! is tolerated and reported, never an error; corruption anywhere else
//! fails the check, because replaying past it would silently restore the
//! wrong state.

use aging_journal::{Journal, JournalRecord, MembershipFold};

/// Checks one journal directory; returns a short summary line on success.
pub(crate) fn check(dir: &str) -> Result<String, String> {
    let outcome = Journal::read(dir).map_err(|e| e.to_string())?;
    let mut last_seq: Option<u64> = None;
    let mut batches = 0u64;
    let mut rows = 0u64;
    let mut audits = 0u64;
    let mut fold = MembershipFold::new();
    for (seq, record) in &outcome.records {
        if last_seq.is_some_and(|last| *seq <= last) {
            return Err(format!(
                "seq {seq} not strictly after {}",
                last_seq.expect("just observed")
            ));
        }
        last_seq = Some(*seq);
        match record {
            JournalRecord::Checkpoints { rows: batch, .. } => {
                batches += 1;
                rows += batch.len() as u64;
            }
            _ => audits += 1,
        }
        // Membership records must fold cleanly in sequence order — a
        // retire that never saw a join means the log lost or reordered
        // records, and replaying it would restore the wrong roster.
        fold.apply(record).map_err(|e| format!("seq {seq}: {e}"))?;
    }
    let membership = if fold.joins() > 0 {
        format!(
            ", membership folds clean ({} joins / {} retires → {} live, digest {:016x})",
            fold.joins(),
            fold.retires(),
            fold.live().len(),
            fold.digest(),
        )
    } else {
        String::new()
    };
    Ok(format!(
        "{} records ({batches} checkpoint batches / {rows} rows, {audits} audit records) \
         across {} segments, {} torn bytes truncated{membership}",
        outcome.records.len(),
        outcome.segments,
        outcome.truncated_bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::check;
    use aging_journal::{Journal, JournalCheckpoint, JournalOptions, JournalRecord};
    use std::io::{Read, Seek, SeekFrom, Write};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "check-journal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two segments' worth of checkpoint batches plus one audit record.
    fn write_journal(dir: &PathBuf) {
        let options = JournalOptions { fsync_every: 4, segment_max_bytes: 256 };
        let journal = Journal::open_with(dir, options).unwrap();
        for i in 0..8u64 {
            journal
                .append(&JournalRecord::Checkpoints {
                    class: "leaky".into(),
                    rows: vec![JournalCheckpoint {
                        features: vec![i as f64, 0.5],
                        ttf_secs: 600.0 + i as f64,
                        predicted_ttf_secs: Some(580.0),
                        predicted_generation: Some(1),
                        monitor_only: false,
                    }],
                })
                .unwrap();
        }
        journal
            .append(&JournalRecord::GenerationPublished { class: "leaky".into(), generation: 1 })
            .unwrap();
        journal.sync().unwrap();
        assert!(journal.rotations() >= 1, "test journal must span segments");
    }

    fn segments(dir: &PathBuf) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ajl"))
            .collect();
        paths.sort();
        paths
    }

    #[test]
    fn accepts_a_clean_journal() {
        let dir = tmp_dir("clean");
        write_journal(&dir);
        let summary = check(dir.to_str().unwrap()).unwrap();
        assert!(summary.contains("8 checkpoint batches / 8 rows"), "{summary}");
        assert!(summary.contains("0 torn bytes"), "{summary}");
    }

    #[test]
    fn tolerates_and_reports_a_torn_tail() {
        let dir = tmp_dir("torn");
        write_journal(&dir);
        let newest = segments(&dir).pop().unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(newest).unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
        let summary = check(dir.to_str().unwrap()).unwrap();
        assert!(summary.contains("2 torn bytes truncated"), "{summary}");
        assert!(summary.contains("8 checkpoint batches"), "{summary}");
    }

    #[test]
    fn membership_records_fold_into_the_summary() {
        let dir = tmp_dir("membership");
        write_journal(&dir);
        let journal = Journal::open(&dir).unwrap();
        let join = |name: &str, epoch| JournalRecord::InstanceJoined {
            instance: name.into(),
            class: "leaky".into(),
            epoch,
        };
        journal.append(&join("web-0", 0)).unwrap();
        journal.append(&join("web-1", 0)).unwrap();
        journal
            .append(&JournalRecord::InstanceRetired {
                instance: "web-0".into(),
                epoch: 40,
                forced: true,
            })
            .unwrap();
        journal.sync().unwrap();
        let summary = check(dir.to_str().unwrap()).unwrap();
        assert!(
            summary.contains("membership folds clean (2 joins / 1 retires → 1 live"),
            "{summary}"
        );
    }

    #[test]
    fn rejects_a_retire_without_a_join() {
        let dir = tmp_dir("orphan-retire");
        write_journal(&dir);
        let journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalRecord::InstanceRetired {
                instance: "ghost".into(),
                epoch: 9,
                forced: false,
            })
            .unwrap();
        journal.sync().unwrap();
        let err = check(dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("retired without a join"), "{err}");
    }

    #[test]
    fn rejects_a_mid_log_bit_flip() {
        let dir = tmp_dir("flip");
        write_journal(&dir);
        // Flip one payload byte in the *first* segment: not the torn-tail
        // position, so the CRC mismatch must be fatal.
        let oldest = segments(&dir).remove(0);
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(oldest).unwrap();
        f.seek(SeekFrom::Start(40)).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).unwrap();
        f.seek(SeekFrom::Start(40)).unwrap();
        f.write_all(&[byte[0] ^ 0xFF]).unwrap();
        let err = check(dir.to_str().unwrap()).unwrap_err();
        assert!(!err.is_empty());
    }
}
