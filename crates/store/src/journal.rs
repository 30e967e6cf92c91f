//! Journal record framing: JSON lines, byte-accurate scanning, and the
//! torn-tail rules.
//!
//! A journal is a sequence of newline-terminated JSON records. The
//! scanner enforces the crash-recovery contract:
//!
//! * every intact record is **newline-terminated** — an unterminated
//!   final segment is a torn append, *even if the JSON happens to
//!   parse* (the record was never acknowledged, and appending after it
//!   without truncation would concatenate two records on one line);
//! * a final newline-terminated segment that fails to parse is also
//!   treated as torn (on real disks a crashed multi-sector write can
//!   persist the trailing sector without the leading one);
//! * a parse failure anywhere *earlier* is corruption, reported with
//!   its 1-based line number — never silently truncated;
//! * a **group commit** is a run of [`LogRecord::BatchApply`] records
//!   closed by one [`LogRecord::BatchCommit`] carrying the run length.
//!   The whole group becomes visible atomically: a scan that reaches
//!   end-of-journal (or a torn tail) with an unclosed group discards
//!   the *entire* group and truncates back to the byte before its
//!   first record — recovery always lands on a batch boundary, never
//!   mid-batch. A batch record interleaved with non-batch records, or
//!   a commit whose count disagrees with the run, is corruption.

use crate::vfs::VfsFile;
use crate::{Result, StoreError};
use good_core::instance::Instance;
use good_core::method::Method;
use good_core::program::Program;
use serde::{Deserialize, Serialize};

/// One journal record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LogRecord {
    /// A full snapshot of the instance — the first record of every
    /// journal generation.
    Snapshot(Box<Instance>),
    /// A method registration.
    RegisterMethod(Box<Method>),
    /// An applied program.
    Apply(Program),
    /// One program of a group commit. Not replayable on its own: it
    /// only takes effect when the group's [`LogRecord::BatchCommit`]
    /// is durable too.
    BatchApply(Program),
    /// The commit marker closing a group of `count` preceding
    /// [`LogRecord::BatchApply`] records. The group-commit writer
    /// fsyncs once, here, for the whole group.
    BatchCommit {
        /// Number of `BatchApply` records in the group.
        count: usize,
    },
}

/// Where a scan ended, and what it folded the committed records into.
#[derive(Debug)]
pub(crate) struct JournalScan<R> {
    /// `replay`'s accumulator (the store counts the records it applies).
    pub records: R,
    /// True if a torn tail (crash mid-append) was detected.
    pub torn_tail: bool,
    /// Byte length of the intact prefix; a torn tail is truncated to
    /// this length before the journal accepts new appends.
    pub intact_len: u64,
}

/// Scan raw journal bytes, handing each *committed unit* to `replay`
/// as it completes, with 1-based line numbers: a self-committing record
/// at once, a batch group (its `BatchApply` run, then the marker) when
/// its commit marker arrives. Only the open group is held back, so
/// recovery's memory does not grow with the journal. Detects a torn
/// tail and discards any trailing uncommitted group (module docs).
/// `intact_len` only advances when a committed unit completes, so a
/// crash anywhere inside a group truncates the whole group: recovery is
/// all-or-nothing per batch.
///
/// Errors surface in journal order: a journal that is unreplayable
/// early *and* corrupt further on reports the replay error (`Model`,
/// say), where a scan-everything-first reader reported `Corrupt`.
pub(crate) fn scan<R>(
    bytes: &[u8],
    mut records: R,
    mut replay: impl FnMut(&mut R, usize, LogRecord) -> Result<()>,
) -> Result<JournalScan<R>> {
    let mut torn_tail = false;
    let mut intact_len = 0u64;
    let mut offset = 0usize;
    let mut line = 0usize;
    // BatchApply records of the currently open (not yet committed)
    // group. While non-empty, `intact_len` is pinned at the byte before
    // the group's first record.
    let mut pending: Vec<(usize, LogRecord)> = Vec::new();
    while offset < bytes.len() {
        line += 1;
        let (segment, segment_end, terminated) =
            match bytes[offset..].iter().position(|&b| b == b'\n') {
                Some(i) => (&bytes[offset..offset + i], offset + i + 1, true),
                None => (&bytes[offset..], bytes.len(), false),
            };
        let is_final = segment_end == bytes.len();
        if segment.iter().all(u8::is_ascii_whitespace) {
            // Blank lines are tolerated but an unterminated whitespace
            // tail is still torn debris to truncate, and a blank line
            // inside an open group must not move the truncation point
            // past the group's start.
            if terminated {
                if pending.is_empty() {
                    intact_len = segment_end as u64;
                }
            } else {
                torn_tail = true;
            }
            offset = segment_end;
            continue;
        }
        if !terminated {
            torn_tail = true;
            break;
        }
        let parsed = std::str::from_utf8(segment)
            .map_err(|err| err.to_string())
            .and_then(|text| {
                serde_json::from_str::<LogRecord>(text).map_err(|err| err.to_string())
            });
        match parsed {
            Ok(LogRecord::BatchApply(program)) => {
                pending.push((line, LogRecord::BatchApply(program)));
            }
            Ok(LogRecord::BatchCommit { count }) => {
                if count != pending.len() {
                    return Err(StoreError::Corrupt {
                        line,
                        message: format!(
                            "batch commit expects {count} records, group has {}",
                            pending.len()
                        ),
                    });
                }
                for (line, record) in pending.drain(..) {
                    replay(&mut records, line, record)?;
                }
                replay(&mut records, line, LogRecord::BatchCommit { count })?;
                intact_len = segment_end as u64;
            }
            Ok(record) => {
                if !pending.is_empty() {
                    // Prefix-only tearing cannot interleave a
                    // self-committing record into an open group; this
                    // is a writer bug or external tampering.
                    return Err(StoreError::Corrupt {
                        line,
                        message: "non-batch record inside an uncommitted group".into(),
                    });
                }
                replay(&mut records, line, record)?;
                intact_len = segment_end as u64;
            }
            Err(err) => {
                if is_final {
                    torn_tail = true;
                } else {
                    return Err(StoreError::Corrupt {
                        line,
                        message: err.to_string(),
                    });
                }
            }
        }
        offset = segment_end;
    }
    if !pending.is_empty() {
        // The journal ends inside a group: the commit marker never
        // became durable, so the whole group is discarded (a torn
        // tail back to the group's first byte).
        torn_tail = true;
    }
    Ok(JournalScan {
        records,
        torn_tail,
        intact_len,
    })
}

/// Serialize `record` as one newline-terminated JSON line. Group
/// commits encode every record before the first append, so a
/// serialization failure never reaches the file.
pub(crate) fn encode_record(record: &LogRecord) -> Result<String> {
    let mut line = serde_json::to_string(record).map_err(|err| StoreError::Corrupt {
        line: 0,
        message: err.to_string(),
    })?;
    line.push('\n');
    Ok(line)
}

/// Append one encoded line **without syncing** — the group-commit
/// building block. An I/O failure may leave a torn record behind (the
/// caller decides whether to poison).
pub(crate) fn write_line(file: &mut dyn VfsFile, line: &str) -> Result<()> {
    let mut append_span = good_trace::span("store", "store/append");
    append_span.arg("bytes", line.len());
    file.append(line.as_bytes())?;
    Ok(())
}

/// fdatasync the journal file — one call per committed unit, however
/// many records it spans. Always-on fsync latency feeds the live
/// `store/fsync_ns` histogram (served by the server's stats frame);
/// the `store/fsync` span additionally captures it when tracing.
pub(crate) fn sync_file(file: &mut dyn VfsFile) -> Result<()> {
    static LIVE_FSYNC_NS: good_trace::LiveHistogram =
        good_trace::LiveHistogram::new("store/fsync_ns");
    let _fsync_span = good_trace::span("store", "store/fsync");
    let started = std::time::Instant::now();
    file.sync_data()?;
    LIVE_FSYNC_NS.observe(started.elapsed().as_nanos() as u64);
    Ok(())
}

/// Append one self-committing record: [`encode_record`] +
/// [`write_line`] + [`sync_file`].
pub(crate) fn append_record(file: &mut dyn VfsFile, record: &LogRecord) -> Result<()> {
    write_line(file, &encode_record(record)?)?;
    sync_file(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use good_core::scheme::Scheme;

    /// A whole journal's committed records at once.
    fn scan(bytes: &[u8]) -> Result<JournalScan<Vec<(usize, LogRecord)>>> {
        super::scan(bytes, Vec::new(), |records, line, record| {
            records.push((line, record));
            Ok(())
        })
    }

    fn snapshot_line() -> String {
        let db = Instance::new(Scheme::new());
        let mut line =
            serde_json::to_string(&LogRecord::Snapshot(Box::new(db))).expect("serialize");
        line.push('\n');
        line
    }

    #[test]
    fn clean_journal_scans_fully() {
        let text = snapshot_line();
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.torn_tail);
        assert_eq!(scan.intact_len, text.len() as u64);
    }

    #[test]
    fn unterminated_parseable_tail_is_torn() {
        // The torn write happens to stop exactly at the closing brace:
        // the JSON parses, but the missing newline marks it torn.
        let mut text = snapshot_line();
        let full = text.clone();
        text.push_str(full.trim_end());
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1, "the tail must not be replayed");
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, full.len() as u64);
    }

    #[test]
    fn unterminated_garbage_tail_is_torn() {
        let mut text = snapshot_line();
        let intact = text.len();
        text.push_str("{\"Apply\":{\"ops\":[");
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, intact as u64);
    }

    #[test]
    fn terminated_garbage_final_line_is_torn_not_corrupt() {
        let mut text = snapshot_line();
        let intact = text.len();
        text.push_str("sector-salad}\n");
        let scan = scan(text.as_bytes()).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, intact as u64);
    }

    #[test]
    fn garbage_before_the_end_is_corruption() {
        let mut text = snapshot_line();
        text.push_str("garbage\n");
        text.push_str(&snapshot_line());
        match scan(text.as_bytes()) {
            Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped_but_counted() {
        let mut text = snapshot_line();
        text.push('\n');
        text.push_str("garbage\n");
        text.push_str(&snapshot_line());
        match scan(text.as_bytes()) {
            Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    fn record_line(record: &LogRecord) -> String {
        let mut line = serde_json::to_string(record).expect("serialize");
        line.push('\n');
        line
    }

    fn batch_apply_line() -> String {
        record_line(&LogRecord::BatchApply(Program::from_ops(Vec::new())))
    }

    #[test]
    fn committed_group_scans_fully() {
        let mut text = snapshot_line();
        text.push_str(&batch_apply_line());
        text.push_str(&batch_apply_line());
        text.push_str(&record_line(&LogRecord::BatchCommit { count: 2 }));
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.torn_tail);
        assert_eq!(scan.intact_len, text.len() as u64);
    }

    #[test]
    fn unclosed_group_is_discarded_back_to_its_start() {
        let mut text = snapshot_line();
        let group_start = text.len();
        text.push_str(&batch_apply_line());
        text.push_str(&batch_apply_line());
        // Crash before the commit marker: every line is intact and
        // terminated, but the group never committed.
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1, "no batch record may replay");
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, group_start as u64);
    }

    #[test]
    fn torn_commit_marker_discards_the_whole_group() {
        let mut text = snapshot_line();
        let group_start = text.len();
        text.push_str(&batch_apply_line());
        text.push_str("{\"BatchCommit\":{\"cou");
        let scan = scan(text.as_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, group_start as u64);
    }

    #[test]
    fn blank_line_inside_group_does_not_advance_intact_len() {
        let mut text = snapshot_line();
        let group_start = text.len();
        text.push_str(&batch_apply_line());
        text.push('\n');
        let scan = scan(text.as_bytes()).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.intact_len, group_start as u64);
    }

    #[test]
    fn commit_count_mismatch_is_corruption() {
        let mut text = snapshot_line();
        text.push_str(&batch_apply_line());
        text.push_str(&record_line(&LogRecord::BatchCommit { count: 2 }));
        text.push_str(&snapshot_line());
        match scan(text.as_bytes()) {
            Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn non_batch_record_inside_group_is_corruption() {
        let mut text = snapshot_line();
        text.push_str(&batch_apply_line());
        text.push_str(&record_line(&LogRecord::Apply(Program::from_ops(
            Vec::new(),
        ))));
        text.push_str(&record_line(&LogRecord::BatchCommit { count: 1 }));
        match scan(text.as_bytes()) {
            Err(StoreError::Corrupt { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("uncommitted group"), "{message}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }
}
