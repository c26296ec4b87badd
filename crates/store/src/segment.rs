//! Segment file codec: the store's immutable on-disk unit.
//!
//! A segment holds serialized [`WindowState`] records between a fixed
//! header and a footer *index* that is readable from the file tail
//! without decoding any record:
//!
//! ```text
//! header  (8)  "DOSG" | version u8 | level u8 | reserved u16
//! records (..) N × SKW1 record            (sketchwire::write_record)
//! footer  (..) "DOSF" | payload_len u32 LE | payload | crc32 u32 LE
//! trailer (8)  footer_frame_len u32 LE | "DOSE"
//! ```
//!
//! The footer payload carries the segment's time range, window and
//! record counts, dataset names, and a [`KeyBloom`] over every entry
//! key — everything a query needs to decide whether the record body is
//! worth decoding. The trailer's length-then-magic lets a reader find
//! the footer with one seek from the end.
//!
//! Decoding is total: every malformed input — truncated file, flipped
//! byte, impossible length — maps to a typed [`StoreError`] naming the
//! segment, never a panic.

use crate::bloom::KeyBloom;
use crate::StoreError;
use feed::crc32::crc32;
use sketchwire::{RecordReader, WindowState};
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// Segment header magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DOSG";
/// Footer frame magic.
pub const FOOTER_MAGIC: [u8; 4] = *b"DOSF";
/// Trailer end magic.
pub const END_MAGIC: [u8; 4] = *b"DOSE";
/// Segment format version.
pub const SEGMENT_VERSION: u8 = 1;

/// Fixed header length.
const HEADER_LEN: usize = 8;
/// Fixed trailer length (footer-frame length + end magic).
const TRAILER_LEN: usize = 8;
/// Hard cap on one footer frame; larger is corruption.
const MAX_FOOTER: usize = 16 << 20;

/// Microseconds per second — the same window-key convention the
/// aggregator uses on the wire (`window_us = round(start · 10⁶)`).
const US: f64 = 1e6;

/// A window's µs key from its start time.
pub fn window_us(start: f64) -> u64 {
    (start * US).round() as u64
}

/// The decoded footer index of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFooter {
    /// Compaction level (0 = raw appends, then hour/day/month).
    pub level: u8,
    /// Earliest window start in the segment, µs.
    pub start_us: u64,
    /// Latest window end (start + length) in the segment, µs.
    pub end_us: u64,
    /// Serialized record count.
    pub records: u32,
    /// Distinct window starts covered.
    pub windows: u32,
    /// Sorted distinct dataset names present.
    pub datasets: Vec<String>,
    /// Bloom over every entry key in the segment.
    pub bloom: KeyBloom,
}

/// Encode a complete segment for `states` at compaction `level`.
///
/// Returns the file image and its footer. `states` must be non-empty;
/// the footer's time range and window count are derived from the states
/// themselves, so the index can never disagree with the body.
pub fn encode_segment(level: u8, states: &[WindowState]) -> (Vec<u8>, SegmentFooter) {
    let items: Vec<Vec<u8>> = states.iter().map(WindowState::item_bytes).collect();
    encode_segment_items(level, states, &items)
}

/// [`encode_segment`] for states whose item bytes the caller already
/// made (`items[i]` is `states[i].item_bytes()`): each record frames its
/// item, and the footer comes from the states.
pub fn encode_segment_items<S: Borrow<WindowState>, I: AsRef<[u8]>>(
    level: u8,
    states: &[S],
    items: &[I],
) -> (Vec<u8>, SegmentFooter) {
    assert!(!states.is_empty(), "a segment holds at least one record");
    assert_eq!(states.len(), items.len(), "one item per state");
    let states = || states.iter().map(Borrow::borrow);
    let mut windows = BTreeSet::new();
    let mut datasets = BTreeSet::new();
    let mut nkeys = 0usize;
    let (mut start_us, mut end_us) = (u64::MAX, 0u64);
    for ws in states() {
        windows.insert(window_us(ws.start));
        datasets.insert(ws.topk.dataset.clone());
        nkeys += ws.topk.entries.len();
        start_us = start_us.min(window_us(ws.start));
        end_us = end_us.max(window_us(ws.start + ws.length));
    }
    let mut bloom = KeyBloom::with_keys(nkeys);
    for ws in states() {
        for e in &ws.topk.entries {
            bloom.insert(e.key.as_bytes());
        }
    }
    let footer = SegmentFooter {
        level,
        start_us,
        end_us,
        records: states().count() as u32,
        windows: windows.len() as u32,
        datasets: datasets.into_iter().collect(),
        bloom,
    };
    let frame = encode_footer(&footer);

    // Each `SKW1` record adds its magic, version, length and CRC (13
    // bytes) around the item.
    let records_len: usize = items.iter().map(|i| i.as_ref().len() + 13).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + records_len + frame.len() + TRAILER_LEN);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(SEGMENT_VERSION);
    out.push(level);
    out.extend_from_slice(&[0u8, 0u8]);
    for item in items {
        sketchwire::write_record_bytes(item.as_ref(), &mut out);
    }
    out.extend_from_slice(&frame);
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    (out, footer)
}

fn encode_footer(f: &SegmentFooter) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(f.level);
    payload.extend_from_slice(&f.start_us.to_le_bytes());
    payload.extend_from_slice(&f.end_us.to_le_bytes());
    payload.extend_from_slice(&f.records.to_le_bytes());
    payload.extend_from_slice(&f.windows.to_le_bytes());
    payload.extend_from_slice(&(f.datasets.len() as u16).to_le_bytes());
    for name in &f.datasets {
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
    }
    payload.extend_from_slice(&(f.bloom.bits().len() as u32).to_le_bytes());
    payload.extend_from_slice(f.bloom.bits());

    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&FOOTER_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// A forward-only bounds-checked cursor; every read that would run past
/// the end yields `None` (mapped to a typed error by the caller).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn corrupt(segment: &str, what: &'static str) -> StoreError {
    StoreError::Corrupt {
        segment: segment.to_string(),
        what,
    }
}

/// Decode only the footer index of a segment image (header + tail are
/// validated; the record body is *not* decoded). Returns the footer and
/// the byte range of the record region.
pub fn read_footer(
    bytes: &[u8],
    segment: &str,
) -> Result<(SegmentFooter, std::ops::Range<usize>), StoreError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(segment, "file shorter than header + trailer"));
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(corrupt(segment, "bad segment magic"));
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(corrupt(segment, "unsupported segment version"));
    }
    let header_level = bytes[5];
    if bytes[6] != 0 || bytes[7] != 0 {
        return Err(corrupt(segment, "reserved header bytes not zero"));
    }
    let tail = &bytes[bytes.len() - TRAILER_LEN..];
    if tail[4..] != END_MAGIC {
        return Err(corrupt(segment, "bad end magic"));
    }
    let frame_len = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as usize;
    if !(12..=MAX_FOOTER).contains(&frame_len) {
        return Err(corrupt(segment, "impossible footer length"));
    }
    let body_len = bytes.len() - TRAILER_LEN;
    let frame_start = body_len
        .checked_sub(frame_len)
        .filter(|&s| s >= HEADER_LEN)
        .ok_or_else(|| corrupt(segment, "footer overlaps header"))?;
    let frame = &bytes[frame_start..body_len];
    if frame[..4] != FOOTER_MAGIC {
        return Err(corrupt(segment, "bad footer magic"));
    }
    let payload_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
    if payload_len != frame_len - 12 {
        return Err(corrupt(segment, "footer length mismatch"));
    }
    let payload = &frame[8..8 + payload_len];
    let want_crc = u32::from_le_bytes(frame[8 + payload_len..].try_into().expect("4 bytes"));
    if crc32(payload) != want_crc {
        return Err(corrupt(segment, "footer crc mismatch"));
    }

    let mut c = Cursor::new(payload);
    let level = c.u8().ok_or_else(|| corrupt(segment, "footer truncated"))?;
    if level != header_level {
        return Err(corrupt(segment, "footer level disagrees with header"));
    }
    let start_us = c
        .u64()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let end_us = c
        .u64()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    if end_us < start_us {
        return Err(corrupt(segment, "footer time range inverted"));
    }
    let records = c
        .u32()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let windows = c
        .u32()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let nds = c
        .u16()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let mut datasets = Vec::with_capacity(nds as usize);
    for _ in 0..nds {
        let len = c
            .u16()
            .ok_or_else(|| corrupt(segment, "footer truncated"))?;
        let raw = c
            .take(len as usize)
            .ok_or_else(|| corrupt(segment, "footer truncated"))?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| corrupt(segment, "dataset name not utf-8"))?
            .to_string();
        datasets.push(name);
    }
    let bloom_len = c
        .u32()
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let bits = c
        .take(bloom_len as usize)
        .ok_or_else(|| corrupt(segment, "footer truncated"))?;
    let bloom =
        KeyBloom::from_bits(bits.to_vec()).ok_or_else(|| corrupt(segment, "bad bloom length"))?;
    if !c.done() {
        return Err(corrupt(segment, "trailing bytes after footer payload"));
    }
    Ok((
        SegmentFooter {
            level,
            start_us,
            end_us,
            records,
            windows,
            datasets,
            bloom,
        },
        HEADER_LEN..frame_start,
    ))
}

/// Decode a whole segment image: footer, then every record, with the
/// footer's record count cross-checked against the body.
pub fn decode_segment(
    bytes: &[u8],
    segment: &str,
) -> Result<(SegmentFooter, Vec<WindowState>), StoreError> {
    let (footer, body) = read_footer(bytes, segment)?;
    let mut reader = RecordReader::new();
    reader.push(&bytes[body]);
    let mut states = Vec::with_capacity(footer.records as usize);
    loop {
        match reader.next_record() {
            Ok(Some(ws)) => states.push(ws),
            Ok(None) => break,
            Err(source) => {
                return Err(StoreError::Segment {
                    segment: segment.to_string(),
                    source,
                })
            }
        }
    }
    if reader.buffered() != 0 {
        return Err(corrupt(segment, "trailing bytes in record region"));
    }
    if states.len() != footer.records as usize {
        return Err(corrupt(segment, "footer record count disagrees with body"));
    }
    Ok((footer, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchwire::{FeatureState, TopKEntry, TopKState};

    fn tiny_state(start: f64, dataset: &str, keys: &[&str]) -> WindowState {
        let entries = keys
            .iter()
            .enumerate()
            .map(|(i, k)| TopKEntry {
                key: k.to_string(),
                count: 5 + i as u64,
                error: 0,
                inserted_at: 0.0,
                features: FeatureState {
                    adds: vec![3, 1],
                    maxes: vec![2],
                    hlls: vec![],
                    source_cap: 4,
                    sources: vec![1],
                    tops: vec![],
                    hists: vec![],
                },
            })
            .collect();
        WindowState {
            upstream: 1,
            start,
            length: 600.0,
            topk: TopKState {
                dataset: dataset.to_string(),
                capacity: 8,
                observed: 20,
                min_count: 0,
                error_bound: 2,
                evictions: 0,
                kept: 10,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries,
                gate: None,
            },
        }
    }

    #[test]
    fn roundtrip_and_footer_index() {
        let states = vec![
            tiny_state(0.0, "esld", &["a.example", "b.example"]),
            tiny_state(600.0, "esld", &["a.example"]),
            tiny_state(600.0, "qtype", &["A", "AAAA"]),
        ];
        let (bytes, footer) = encode_segment(0, &states);
        assert_eq!(footer.records, 3);
        assert_eq!(footer.windows, 2);
        assert_eq!(footer.start_us, 0);
        assert_eq!(footer.end_us, 1_200_000_000);
        assert_eq!(footer.datasets, vec!["esld", "qtype"]);
        assert!(footer.bloom.maybe_contains(b"a.example"));

        let (tail_footer, _) = read_footer(&bytes, "t.seg").expect("footer");
        assert_eq!(tail_footer, footer);
        let (full_footer, back) = decode_segment(&bytes, "t.seg").expect("decode");
        assert_eq!(full_footer, footer);
        assert_eq!(back, states);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let (bytes, _) = encode_segment(1, &[tiny_state(0.0, "esld", &["a"])]);
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut], "t.seg").expect_err("truncated");
            assert_eq!(err.bad_segment(), Some("t.seg"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn flipped_byte_is_a_typed_error() {
        let (bytes, _) = encode_segment(0, &[tiny_state(0.0, "esld", &["a", "b"])]);
        // Flipping any single byte must never produce a clean decode of
        // different content, and must never panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            if let Ok((_, states)) = decode_segment(&bad, "t.seg") {
                panic!("flip at {i} decoded cleanly to {} states", states.len());
            }
        }
    }
}
