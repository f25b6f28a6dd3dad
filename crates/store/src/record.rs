//! The on-disk record format shared by the WAL and the snapshot file.
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the payload. The payload starts with
//! a one-byte tag followed by the record's fields; strings are `u32 LE`
//! length-prefixed UTF-8. The framing makes the reader *prefix-consistent*:
//! a torn or bit-flipped record is detected by its length bound, its CRC or
//! its payload structure, and everything from that point on is discarded —
//! the reader returns the valid prefix and never panics on arbitrary bytes.

use std::io::Read;

/// Upper bound on one record's payload, matching the serve layer's largest
/// accepted program (16 MiB) plus framing headroom. A corrupt length field
/// larger than this is treated as a torn record instead of being trusted
/// with an allocation.
pub const MAX_RECORD_BYTES: u32 = 17 * 1024 * 1024;

/// One durable operation on the program corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A program entered the corpus. `name` is the store key (the serve
    /// layer uses the full normalized program text, so dedup never rests on
    /// a hash not colliding); `text` is the source to re-parse on recovery.
    Load {
        /// Store key of the program.
        name: String,
        /// Program source text, exactly as it should replay.
        text: String,
    },
    /// Marks a completed snapshot: written as the first record of the fresh
    /// WAL after compaction (cross-referencing the snapshot id) and as the
    /// snapshot file's terminator proving the file is complete.
    SnapshotMark {
        /// Monotonic snapshot id.
        id: u64,
    },
}

const TAG_LOAD: u8 = 1;
// Tag 2 is unassigned: a record carrying it reads as torn, as every unknown
// tag does.
const TAG_SNAPSHOT_MARK: u8 = 3;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven. Implemented
/// locally because the build environment is offline; the format is the
/// standard one, so external tooling can verify WAL files.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one record with its length/CRC frame, ready to append.
pub fn encode(record: &Record) -> Vec<u8> {
    let mut payload = Vec::new();
    match record {
        Record::Load { name, text } => {
            payload.push(TAG_LOAD);
            push_str(&mut payload, name);
            push_str(&mut payload, text);
        }
        Record::SnapshotMark { id } => {
            payload.push(TAG_SNAPSHOT_MARK);
            payload.extend_from_slice(&id.to_le_bytes());
        }
    }
    let mut framed = Vec::with_capacity(payload.len() + 8);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

/// What one attempt to read a framed record produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete, checksum-verified record.
    Record(Record),
    /// Clean end of file: the previous record was the last one.
    Eof,
    /// The tail is torn or corrupt (short frame, bad CRC, oversized length,
    /// malformed payload). The reason is for diagnostics; the reader stops
    /// here and the valid prefix stands.
    Torn(&'static str),
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF before the
/// first byte (`Ok(false)`) from a short read mid-buffer (`Err`).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<bool, &'static str> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err("short read mid-frame"),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err("i/o error mid-frame"),
        }
    }
    Ok(true)
}

fn take_str<'a>(payload: &mut &'a [u8]) -> Result<&'a str, &'static str> {
    if payload.len() < 4 {
        return Err("truncated string length");
    }
    let (len_bytes, rest) = payload.split_at(4);
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    if rest.len() < len {
        return Err("string length exceeds payload");
    }
    let (bytes, rest) = rest.split_at(len);
    *payload = rest;
    std::str::from_utf8(bytes).map_err(|_| "string is not utf-8")
}

fn decode_payload(payload: &[u8]) -> Result<Record, &'static str> {
    let Some((&tag, mut rest)) = payload.split_first() else {
        return Err("empty payload");
    };
    let record = match tag {
        TAG_LOAD => {
            let name = take_str(&mut rest)?.to_string();
            let text = take_str(&mut rest)?.to_string();
            Record::Load { name, text }
        }
        TAG_SNAPSHOT_MARK => {
            if rest.len() < 8 {
                return Err("truncated snapshot id");
            }
            let (id_bytes, tail) = rest.split_at(8);
            rest = tail;
            Record::SnapshotMark {
                id: u64::from_le_bytes(id_bytes.try_into().expect("8 bytes")),
            }
        }
        _ => return Err("unknown record tag"),
    };
    if !rest.is_empty() {
        return Err("trailing bytes after record");
    }
    Ok(record)
}

/// Reads the next framed record. Never panics: every corruption mode —
/// short frames, oversized lengths, CRC mismatches, malformed payloads —
/// maps to [`ReadOutcome::Torn`], and each call consumes a bounded amount
/// of input, so a reader loop over arbitrary bytes always terminates.
pub fn read_record(reader: &mut impl Read) -> ReadOutcome {
    if granlog_fault::should_fail("store.recover.read") {
        return ReadOutcome::Torn("injected fault at failpoint `store.recover.read`");
    }
    let mut header = [0u8; 8];
    match read_exact_or_eof(reader, &mut header) {
        Ok(false) => return ReadOutcome::Eof,
        Ok(true) => {}
        Err(reason) => return ReadOutcome::Torn(reason),
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return ReadOutcome::Torn("record length exceeds the frame bound");
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(reader, &mut payload) {
        Ok(true) => {}
        Ok(false) | Err(_) => return ReadOutcome::Torn("payload shorter than its length"),
    }
    if crc32(&payload) != crc {
        return ReadOutcome::Torn("crc mismatch");
    }
    match decode_payload(&payload) {
        Ok(record) => ReadOutcome::Record(record),
        Err(reason) => ReadOutcome::Torn(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: Record) {
        let bytes = encode(&record);
        let mut cursor = bytes.as_slice();
        assert_eq!(read_record(&mut cursor), ReadOutcome::Record(record));
        assert_eq!(read_record(&mut cursor), ReadOutcome::Eof);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(Record::Load {
            name: "p(_0) :- q(_0)\n".into(),
            text: "p(X) :- q(X).".into(),
        });
        roundtrip(Record::SnapshotMark { id: 42 });
        roundtrip(Record::Load {
            name: String::new(),
            text: String::new(),
        });
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_flipped_payload_bit_is_torn() {
        let mut bytes = encode(&Record::Load {
            name: "n".into(),
            text: "t".into(),
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            read_record(&mut bytes.as_slice()),
            ReadOutcome::Torn(_)
        ));
    }

    #[test]
    fn a_truncated_frame_is_torn_not_a_panic() {
        let bytes = encode(&Record::SnapshotMark { id: 7 });
        for cut in 1..bytes.len() {
            let outcome = read_record(&mut &bytes[..cut]);
            assert!(
                matches!(outcome, ReadOutcome::Torn(_)),
                "cut at {cut}: {outcome:?}"
            );
        }
    }

    #[test]
    fn an_oversized_length_field_is_torn_without_allocating_it() {
        let mut bytes = vec![];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            read_record(&mut bytes.as_slice()),
            ReadOutcome::Torn("record length exceeds the frame bound")
        );
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_torn() {
        for payload in [
            vec![99u8],
            // The unassigned tag 2, over a well-formed name.
            vec![2u8, 3, 0, 0, 0, b'k', b'e', b'y'],
            vec![TAG_SNAPSHOT_MARK, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        ] {
            let mut framed = Vec::new();
            framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            framed.extend_from_slice(&crc32(&payload).to_le_bytes());
            framed.extend_from_slice(&payload);
            assert!(matches!(
                read_record(&mut framed.as_slice()),
                ReadOutcome::Torn(_)
            ));
        }
    }
}
