//! Trace persistence: TSV export/import for [`RunTrace`].
//!
//! The paper's economics hinge on datasets being collectable once and
//! reused; this module lets generated traces be saved, shared, and
//! reloaded without rerunning the simulator (and lets external traces
//! be injected into the training pipeline by writing the same format).
//!
//! Format: two plain TSV files with headers — `<base>.packets.tsv` and
//! `<base>.messages.tsv`. Columns mirror [`PacketRecord`] and
//! [`MessageRecord`] field-for-field.

use crate::scenarios::RunTrace;
use crate::trace::{MessageRecord, PacketRecord};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::num::ParseIntError;
use std::path::Path;
use std::str::FromStr;

const PACKET_HEADER: &str = "recv_ns\tsent_ns\tdelay_ns\tsize_bytes\tflow\tsender\treceiver\treceiver_group\tseq\tmsg_id\tmsg_size\tmsg_last\tretransmit";
const MESSAGE_HEADER: &str = "flow\tmsg_id\tsize_bytes\tsubmitted_ns\tcompleted_ns";

/// Write a trace as `<base>.packets.tsv` + `<base>.messages.tsv`.
pub fn save_trace(base: impl AsRef<Path>, trace: &RunTrace) -> io::Result<()> {
    let base = base.as_ref();
    let mut pk = String::with_capacity(trace.packets.len() * 64);
    pk.push_str(PACKET_HEADER);
    pk.push('\n');
    for p in &trace.packets {
        let _ = writeln!(
            pk,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            p.recv_ns,
            p.sent_ns,
            p.delay_ns,
            p.size_bytes,
            p.flow,
            p.sender,
            p.receiver,
            p.receiver_group,
            p.seq,
            p.msg_id,
            p.msg_size,
            p.msg_last as u8,
            p.retransmit as u8,
        );
    }
    fs::write(with_suffix(base, ".packets.tsv"), pk)?;

    let mut ms = String::with_capacity(trace.messages.len() * 40);
    ms.push_str(MESSAGE_HEADER);
    ms.push('\n');
    for m in &trace.messages {
        let _ = writeln!(
            ms,
            "{}\t{}\t{}\t{}\t{}",
            m.flow, m.msg_id, m.size_bytes, m.submitted_ns, m.completed_ns
        );
    }
    fs::write(with_suffix(base, ".messages.tsv"), ms)
}

/// Read a trace saved by [`save_trace`] (or produced externally in the
/// same format). The `events`/`drops` counters are not persisted and
/// load as zero.
pub fn load_trace(base: impl AsRef<Path>) -> io::Result<RunTrace> {
    let base = base.as_ref();
    let pk = fs::read_to_string(with_suffix(base, ".packets.tsv"))?;
    let ms = fs::read_to_string(with_suffix(base, ".messages.tsv"))?;

    let mut packets = Vec::new();
    for (lineno, line) in pk.lines().enumerate() {
        if lineno == 0 {
            check_header(line, PACKET_HEADER, "packets")?;
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 13 {
            return Err(bad(format!("packets line {lineno}: {} fields", f.len())));
        }
        packets.push(PacketRecord {
            recv_ns: num(f[0], lineno)?,
            sent_ns: num(f[1], lineno)?,
            delay_ns: num(f[2], lineno)?,
            size_bytes: num(f[3], lineno)?,
            flow: num(f[4], lineno)?,
            sender: num(f[5], lineno)?,
            receiver: num(f[6], lineno)?,
            receiver_group: num(f[7], lineno)?,
            seq: num(f[8], lineno)?,
            msg_id: num(f[9], lineno)?,
            msg_size: num(f[10], lineno)?,
            msg_last: flag(f[11], lineno)?,
            retransmit: flag(f[12], lineno)?,
        });
    }

    let mut messages = Vec::new();
    for (lineno, line) in ms.lines().enumerate() {
        if lineno == 0 {
            check_header(line, MESSAGE_HEADER, "messages")?;
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(bad(format!("messages line {lineno}: {} fields", f.len())));
        }
        messages.push(MessageRecord {
            flow: num(f[0], lineno)?,
            msg_id: num(f[1], lineno)?,
            size_bytes: num(f[2], lineno)?,
            submitted_ns: num(f[3], lineno)?,
            completed_ns: num(f[4], lineno)?,
        });
    }

    Ok(RunTrace {
        packets,
        messages,
        events: 0,
        drops: 0,
    })
}

fn with_suffix(base: &Path, suffix: &str) -> std::path::PathBuf {
    let mut s = base.as_os_str().to_os_string();
    s.push(suffix);
    s.into()
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn check_header(line: &str, expect: &str, which: &str) -> io::Result<()> {
    if line != expect {
        return Err(bad(format!("unexpected {which} header: {line:?}")));
    }
    Ok(())
}

/// Parse a column at its field's own width, so a value that does not
/// fit (a `u32` column holding 2^32 + 1) is an error, not a truncation.
fn num<T: FromStr<Err = ParseIntError>>(s: &str, lineno: usize) -> io::Result<T> {
    s.parse()
        .map_err(|e| bad(format!("line {lineno}: bad number {s:?} ({e})")))
}

fn flag(s: &str, lineno: usize) -> io::Result<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(bad(format!(
            "line {lineno}: bad flag {s:?} (expected 0 or 1)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{run, Scenario, ScenarioConfig};

    fn tmp_base(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ntt_trace_{name}_{}", std::process::id()))
    }

    fn cleanup(base: &Path) {
        fs::remove_file(with_suffix(base, ".packets.tsv")).ok();
        fs::remove_file(with_suffix(base, ".messages.tsv")).ok();
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let trace = run(Scenario::Case1, &ScenarioConfig::tiny(77));
        let base = tmp_base("roundtrip");
        save_trace(&base, &trace).unwrap();
        let back = load_trace(&base).unwrap();
        assert_eq!(trace.packets, back.packets);
        assert_eq!(trace.messages, back.messages);
        cleanup(&base);
    }

    #[test]
    fn load_rejects_wrong_header() {
        let base = tmp_base("header");
        fs::write(with_suffix(&base, ".packets.tsv"), "nope\n").unwrap();
        fs::write(with_suffix(&base, ".messages.tsv"), "nope\n").unwrap();
        let err = load_trace(&base).unwrap_err();
        assert!(err.to_string().contains("unexpected packets header"));
        cleanup(&base);
    }

    /// Load packet `rows` under a valid header, with no messages.
    fn load_packet_rows(base: &Path, rows: &str) -> io::Result<RunTrace> {
        fs::write(
            with_suffix(base, ".packets.tsv"),
            format!("{PACKET_HEADER}\n{rows}"),
        )?;
        fs::write(
            with_suffix(base, ".messages.tsv"),
            format!("{MESSAGE_HEADER}\n"),
        )?;
        load_trace(base)
    }

    #[test]
    fn load_rejects_ragged_rows() {
        let base = tmp_base("ragged");
        let err = load_packet_rows(&base, "1\t2\t3\n").unwrap_err();
        assert!(err.to_string().contains("fields"));
        cleanup(&base);
    }

    #[test]
    fn load_rejects_out_of_range_numbers_and_flags() {
        let base = tmp_base("range");
        let good = "1 2 1 100 0 0 1 0 0 0 100 1 0";
        let load_row = |col: usize, value: &str| {
            let mut row: Vec<&str> = good.split(' ').collect();
            row[col] = value;
            load_packet_rows(&base, &format!("{}\n", row.join("\t")))
        };
        assert_eq!(load_row(0, "1").unwrap().packets.len(), 1);
        for (col, value, needle) in [
            (3, "4294967297", "bad number"), // size_bytes is u32
            (7, "4294967297", "bad number"), // receiver_group is u32
            (11, "2", "bad flag"),           // msg_last
            (12, "yes", "bad flag"),         // retransmit
        ] {
            let err = load_row(col, value).unwrap_err();
            let msg = err.to_string();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{msg}");
            assert!(msg.contains("line 1") && msg.contains(needle), "{msg}");
        }
        cleanup(&base);
    }

    #[test]
    fn loaded_trace_feeds_the_training_pipeline() {
        // The reloaded trace must be indistinguishable to downstream
        // consumers: same packets in the same order.
        let trace = run(Scenario::Pretrain, &ScenarioConfig::tiny(78));
        let base = tmp_base("pipeline");
        save_trace(&base, &trace).unwrap();
        let back = load_trace(&base).unwrap();
        assert!(back
            .packets
            .windows(2)
            .all(|w| w[0].recv_ns <= w[1].recv_ns));
        assert!(!back.messages.is_empty());
        cleanup(&base);
    }
}
