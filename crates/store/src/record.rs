//! The on-disk record format of both store files, and the one scanner that
//! reads them back.
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
//!
//! A [`Record`] borrows its strings both ways. [`Record::frame`] appends
//! one to the caller's buffer in place, and [`scan`] reads a whole file
//! once and hands out records that point into it, so a program's text is
//! copied once on its way to disk and once on its way back.

use crate::StoreError;
use std::path::Path;

/// Upper bound on one record's payload. The writer refuses a record past
/// it ([`StoreError::TooLarge`]), so a length field larger than this can
/// only be corruption, and the reader treats it as a torn record.
pub(crate) const MAX_RECORD_BYTES: u32 = 17 * 1024 * 1024;

/// Bytes of a frame's header: the payload's length, then its CRC.
const HEADER: usize = 8;

/// One durable operation on the program corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record<'a> {
    /// A program entered the corpus. `name` is the store key (the serve
    /// layer uses the full normalized program text, so dedup never rests on
    /// a hash not colliding); `text` is the source to re-parse on recovery.
    Load { name: &'a str, text: &'a str },
    /// Marks a completed snapshot: written as the first record of the fresh
    /// WAL after compaction (cross-referencing the snapshot id) and as the
    /// snapshot file's terminator proving the file is complete.
    SnapshotMark { id: u64 },
}

const TAG_LOAD: u8 = 1;
// Tag 2 is unassigned: a record carrying it reads as torn, as every unknown
// tag does.
const TAG_SNAPSHOT_MARK: u8 = 3;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven. Implemented
/// locally because the build environment is offline; the format is the
/// standard one, so external tooling can verify WAL files.
fn crc32(bytes: &[u8]) -> u32 {
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

impl Record<'_> {
    /// Bytes the record takes on disk, its frame included.
    pub(crate) fn framed_len(&self) -> usize {
        // The tag byte, then two length words and their strings, or the id.
        HEADER
            + match self {
                Record::Load { name, text } => 9 + name.len() + text.len(),
                Record::SnapshotMark { .. } => 9,
            }
    }

    /// Refuses a record whose payload the reader would not take back.
    ///
    /// # Errors
    ///
    /// [`StoreError::TooLarge`] when the payload passes
    /// [`MAX_RECORD_BYTES`].
    pub(crate) fn fits(&self) -> Result<(), StoreError> {
        let payload = self.framed_len() - HEADER;
        if payload > MAX_RECORD_BYTES as usize {
            return Err(StoreError::TooLarge { bytes: payload });
        }
        Ok(())
    }

    /// Appends the framed record to `out`: a blank header, the payload,
    /// then the header filled in from the payload just written. A record
    /// that does not [fit](Record::fits) appends nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::TooLarge`], from [`Record::fits`].
    pub(crate) fn frame(&self, out: &mut Vec<u8>) -> Result<(), StoreError> {
        self.fits()?;
        let start = out.len();
        out.extend_from_slice(&[0; HEADER]);
        match *self {
            Record::Load { name, text } => {
                out.push(TAG_LOAD);
                for field in [name, text] {
                    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
                    out.extend_from_slice(field.as_bytes());
                }
            }
            Record::SnapshotMark { id } => {
                out.push(TAG_SNAPSHOT_MARK);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        let (header, payload) = out[start..].split_at_mut(HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(())
    }
}

/// What one attempt to read a framed record produced.
#[derive(Debug, PartialEq, Eq)]
enum ReadOutcome<'a> {
    /// A complete, checksum-verified record and the bytes its frame took.
    Record(Record<'a>, usize),
    /// Clean end of input: the previous record was the last one.
    Eof,
    /// The tail is torn or corrupt (short frame, bad CRC, oversized length,
    /// malformed payload). The reason is for diagnostics; the reader stops
    /// here and the valid prefix stands.
    Torn(&'static str),
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn take_str<'a>(payload: &mut &'a [u8]) -> Result<&'a str, &'static str> {
    if payload.len() < 4 {
        return Err("truncated string length");
    }
    let (len_bytes, rest) = payload.split_at(4);
    let len = le_u32(len_bytes) as usize;
    if rest.len() < len {
        return Err("string length exceeds payload");
    }
    let (bytes, rest) = rest.split_at(len);
    *payload = rest;
    std::str::from_utf8(bytes).map_err(|_| "string is not utf-8")
}

fn decode_payload(payload: &[u8]) -> Result<Record<'_>, &'static str> {
    let Some((&tag, mut rest)) = payload.split_first() else {
        return Err("empty payload");
    };
    let record = match tag {
        TAG_LOAD => Record::Load {
            name: take_str(&mut rest)?,
            text: take_str(&mut rest)?,
        },
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

/// Reads the framed record at the start of `bytes`. Never panics: every
/// corruption mode — short frames, oversized lengths, CRC mismatches,
/// malformed payloads — maps to [`ReadOutcome::Torn`].
fn read_record(bytes: &[u8]) -> ReadOutcome<'_> {
    if granlog_fault::should_fail("store.recover.read") {
        return ReadOutcome::Torn("injected fault at failpoint `store.recover.read`");
    }
    if bytes.is_empty() {
        return ReadOutcome::Eof;
    }
    let Some((header, rest)) = bytes.split_at_checked(HEADER) else {
        return ReadOutcome::Torn("frame header cut short");
    };
    let (len, crc) = (le_u32(&header[..4]), le_u32(&header[4..]));
    if len > MAX_RECORD_BYTES {
        return ReadOutcome::Torn("record length exceeds the frame bound");
    }
    let Some(payload) = rest.get(..len as usize) else {
        return ReadOutcome::Torn("payload shorter than its length");
    };
    if crc32(payload) != crc {
        return ReadOutcome::Torn("crc mismatch");
    }
    match decode_payload(payload) {
        Ok(record) => ReadOutcome::Record(record, HEADER + payload.len()),
        Err(reason) => ReadOutcome::Torn(reason),
    }
}

/// Reads the file at `path` (`magic`, then framed records) in one piece and
/// hands each record of its valid prefix to `each`, in order. The prefix
/// ends at the first torn frame, and is empty when the magic is wrong.
/// Returns the file's length and the valid prefix's, magic included;
/// `None` when the file cannot be read (a missing file). Never panics and
/// never errors on corruption.
pub(crate) fn scan(
    path: &Path,
    magic: &[u8],
    mut each: impl FnMut(Record<'_>),
) -> Option<(u64, u64)> {
    let bytes = std::fs::read(path).ok()?;
    let mut valid = 0;
    if bytes.starts_with(magic) {
        valid = magic.len();
        while let ReadOutcome::Record(record, len) = read_record(&bytes[valid..]) {
            each(record);
            valid += len;
        }
    }
    Some((bytes.len() as u64, valid as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(record: Record<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        record.frame(&mut bytes).expect("the record fits");
        bytes
    }

    fn roundtrip(record: Record<'_>) {
        let bytes = framed(record);
        assert_eq!(bytes.len(), record.framed_len());
        assert_eq!(
            read_record(&bytes),
            ReadOutcome::Record(record, bytes.len())
        );
        assert_eq!(read_record(&bytes[bytes.len()..]), ReadOutcome::Eof);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(Record::Load {
            name: "p(_0) :- q(_0)\n",
            text: "p(X) :- q(X).",
        });
        roundtrip(Record::SnapshotMark { id: 42 });
        roundtrip(Record::Load { name: "", text: "" });
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_flipped_payload_bit_is_torn() {
        let mut bytes = framed(Record::Load {
            name: "n",
            text: "t",
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(read_record(&bytes), ReadOutcome::Torn(_)));
    }

    #[test]
    fn a_truncated_frame_is_torn_not_a_panic() {
        let bytes = framed(Record::SnapshotMark { id: 7 });
        for cut in 1..bytes.len() {
            let outcome = read_record(&bytes[..cut]);
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
            read_record(&bytes),
            ReadOutcome::Torn("record length exceeds the frame bound")
        );
    }

    #[test]
    fn a_scan_hands_out_the_valid_prefix_and_its_length() {
        let dir = std::env::temp_dir().join(format!("granlog-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("file");
        let records = [
            Record::Load {
                name: "k",
                text: "p(é).",
            },
            Record::SnapshotMark { id: 9 },
        ];
        let mut bytes = b"MAGIC".to_vec();
        for record in &records {
            record.frame(&mut bytes).expect("the record fits");
        }
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&[1, 0, 0]);
        std::fs::write(&path, &bytes).expect("write the file");

        let mut seen = Vec::new();
        let lengths = scan(&path, b"MAGIC", |record| seen.push(format!("{record:?}")));
        assert_eq!(lengths, Some((valid + 3, valid)));
        assert_eq!(seen, records.map(|record| format!("{record:?}")));
        seen.clear();
        let lengths = scan(&path, b"OTHER", |record| seen.push(format!("{record:?}")));
        assert_eq!((lengths, seen.len()), (Some((valid + 3, 0)), 0));
        assert_eq!(scan(&dir.join("missing"), b"", |_| {}), None);
        let _ = std::fs::remove_dir_all(&dir);
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
            assert!(matches!(read_record(&framed), ReadOutcome::Torn(_)));
        }
    }
}
