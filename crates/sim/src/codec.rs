//! Chunk-framed, dependency-free byte compression for checkpoint streams.
//!
//! Snapshot payloads are dominated by guest DRAM pages and cache arrays —
//! long zero runs and heavily repeated structure — so a small LZ77-style
//! codec with an RLE-friendly match encoder recovers most of the win a
//! general-purpose compressor would, without adding a dependency to a
//! workspace that is deliberately dependency-free.
//!
//! ## Format
//!
//! The input is split into [`CHUNK`]-byte chunks; each chunk is framed
//! independently as
//!
//! ```text
//! raw_len: u32 LE | stored_len: u32 LE | method: u8 | payload[stored_len]
//! ```
//!
//! with `method` either [`METHOD_STORED`] (payload is the raw bytes — the
//! incompressible fallback, so compression never expands a chunk by more
//! than the 9-byte frame) or [`METHOD_LZ`]. Chunk framing bounds decoder
//! memory to one chunk of lookback and makes truncation detectable at
//! every frame boundary.
//!
//! The LZ payload is a token stream. A control byte `c` with the top bit
//! clear introduces a literal run of `c + 1` bytes; with the top bit set
//! it encodes a back-reference of length `(c & 0x7F) + 4` followed by a
//! little-endian u16 distance (1-based). Distances may be smaller than
//! the match length — the copy then overlaps its own output, which is
//! exactly how zero runs compress to three bytes per 131 (the RLE case:
//! distance 1, maximum length).
//!
//! Determinism: the encoder is a pure function of its input (greedy
//! hash-chain matcher, fixed table size), so identical snapshots compress
//! to identical bytes on every host.
//!
//! ## Encoder
//!
//! A greedy single-candidate matcher: at each position the hash of the
//! next four bytes names the last position with that hash, and a match of
//! at least four bytes is taken. Matches are extended eight bytes per
//! step (the first differing byte is the lowest set byte of the XOR of
//! two little-endian words).
//!
//! After a match of length `len` at distance `d`, the table must hold,
//! for every hash, the *last* position inside the match that has it —
//! that is what lets a zero run chain into the next token. Visiting every
//! position is not needed: the match guarantees `src[x] == src[x - d]`
//! for every `x` it covers, so a four-byte window lying wholly inside it
//! equals the window `d` bytes earlier. Windows repeat with period `d`,
//! so every hash a full window produces is produced again by one of the
//! last `d` full windows, at a later position — and the last writer of a
//! table slot wins. Seeding only those `d` windows, plus the three that
//! straddle the match's end (they read past it and are not periodic),
//! leaves the table exactly as seeding all of them would: a zero page
//! costs four table writes per token instead of 130.
//!
//! The table lives in an `Encoder` that a stream reuses across chunks
//! and sections. Entries are `base + position + 1`, and `base` advances
//! past each chunk, so an entry from an earlier chunk reads as empty
//! without the table being cleared. The output is byte-identical to a
//! fresh table per chunk.
//!
//! ## Decoder
//!
//! The decoder first walks the frame headers and checks each against the
//! bytes present: `raw_len` at most [`CHUNK`], the payload all there, a
//! stored frame's two lengths equal, and an LZ frame declaring no more
//! than its payload can encode (131 bytes per 3-byte token). Then it
//! allocates the output once, at the declared total, so a corrupt length
//! cannot make it allocate more than 44 bytes per input byte, and a valid
//! stream decodes without a single reallocation.
//!
//! Every frame decodes straight into that output. Literal runs are one
//! slice copy. A match at distance 1 is a `resize` with the repeated
//! byte; a match no longer than its distance is one
//! `extend_from_within`; an overlapping match copies its period and then
//! doubles what it has copied, so a 131-byte match at distance 2 takes
//! seven copies instead of 131 pushes.

use std::fmt;

/// Chunk size: the unit of independent framing and the decoder's maximum
/// lookback window (distances fit a u16 because matches never cross a
/// chunk boundary).
pub const CHUNK: usize = 64 * 1024;

/// Frame method: payload is stored verbatim.
pub const METHOD_STORED: u8 = 0;
/// Frame method: payload is the LZ token stream described in the module
/// docs.
pub const METHOD_LZ: u8 = 1;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7F + MIN_MATCH;
const HASH_BITS: u32 = 13;
/// Frame header: `raw_len`, `stored_len`, `method`.
const FRAME_HEADER: usize = 9;

/// A typed decompression error: the stream is truncated, a frame is
/// malformed, or a token references data outside the produced window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: &str) -> Result<T, CodecError> {
    Err(CodecError(msg.to_owned()))
}

#[inline]
fn hash4(src: &[u8], at: usize) -> usize {
    let v = u32::from_le_bytes(src[at..at + 4].try_into().expect("4 bytes"));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn word(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes"))
}

/// Length of the common prefix of `src[c..]` and `src[i..]`, capped at
/// `max` (`i + max <= src.len()`, `c < i`).
#[inline]
fn match_len(src: &[u8], c: usize, i: usize, max: usize) -> usize {
    let mut k = 0;
    while k + 8 <= max {
        let diff = word(src, c + k) ^ word(src, i + k);
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    while k < max && src[c + k] == src[i + k] {
        k += 1;
    }
    k
}

/// Emits `lits` as literal runs of at most 128 bytes each.
fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for run in lits.chunks(0x80) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// The compressor's match table, reused across chunks and calls; see the
/// module docs.
pub(crate) struct Encoder {
    /// Hash of a four-byte window to `base + position + 1` of its last
    /// occurrence; an entry at or below `base` is from an earlier chunk.
    head: Box<[u32; 1 << HASH_BITS]>,
    /// Entries above this belong to the chunk being encoded.
    base: u32,
}

impl Encoder {
    pub(crate) fn new() -> Self {
        Self { head: Box::new([0; 1 << HASH_BITS]), base: 0 }
    }

    /// The chunk-framed compressed form of `input`; see [`compress`].
    pub(crate) fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        for chunk in input.chunks(CHUNK) {
            let frame = out.len();
            out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            out.extend_from_slice(&[0; 5]); // stored_len and method, below
            self.lz_chunk(chunk, &mut out);
            let method = if out.len() - frame - FRAME_HEADER < chunk.len() {
                METHOD_LZ
            } else {
                out.truncate(frame + FRAME_HEADER);
                out.extend_from_slice(chunk);
                METHOD_STORED
            };
            let stored = (out.len() - frame - FRAME_HEADER) as u32;
            out[frame + 4..frame + 8].copy_from_slice(&stored.to_le_bytes());
            out[frame + 8] = method;
        }
        out
    }

    /// Greedy single-candidate LZ over one chunk, appended to `out`.
    /// Always correct; chosen for determinism and speed over ratio.
    fn lz_chunk(&mut self, src: &[u8], out: &mut Vec<u8>) {
        if self.base > u32::MAX - CHUNK as u32 {
            self.head.fill(0);
            self.base = 0;
        }
        let (head, base) = (&mut *self.head, self.base);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= src.len() {
            let h = hash4(src, i);
            let cand = head[h];
            head[h] = base + i as u32 + 1;
            if cand > base {
                let c = (cand - base - 1) as usize;
                let mlen = match_len(src, c, i, (src.len() - i).min(MAX_MATCH));
                if mlen >= MIN_MATCH {
                    let dist = i - c;
                    flush_literals(out, &src[lit_start..i]);
                    out.push(0x80 | (mlen - MIN_MATCH) as u8);
                    out.extend_from_slice(&(dist as u16).to_le_bytes());
                    // Seed the last `dist` full windows and the ones that
                    // straddle the end; the module docs say why that is
                    // every slot a full seeding would leave behind.
                    let end = i + mlen;
                    let first = (i + 1).max(end.saturating_sub(MIN_MATCH - 1 + dist));
                    for j in first..end.min(src.len() + 1 - MIN_MATCH) {
                        head[hash4(src, j)] = base + j as u32 + 1;
                    }
                    i = end;
                    lit_start = i;
                    continue;
                }
            }
            i += 1;
        }
        flush_literals(out, &src[lit_start..]);
        self.base += src.len() as u32;
    }
}

/// Appends the `mlen` bytes of a match `dist` back to `out` — the
/// overlapping copy a byte-at-a-time decoder would make, in bulk.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, mlen: usize) {
    let from = out.len() - dist;
    if dist == 1 {
        let b = out[from];
        out.resize(out.len() + mlen, b);
        return;
    }
    // `out[from..]` is periodic with period `dist` and its length stays a
    // multiple of it until the last copy, so each copy of a prefix of it
    // continues the period.
    let mut left = mlen;
    while left > 0 {
        let n = (out.len() - from).min(left);
        out.extend_from_within(from..from + n);
        left -= n;
    }
}

/// Decodes one LZ frame body onto the end of `out`, which must already
/// have room for `raw_len` more bytes.
fn unlz_chunk(body: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let start = out.len();
    let end = start + raw_len;
    let mut i = 0usize;
    while i < body.len() {
        let ctl = body[i];
        i += 1;
        if ctl & 0x80 == 0 {
            let n = ctl as usize + 1;
            let Some(lits) = body.get(i..i + n) else {
                return err("literal run truncated");
            };
            if out.len() + n > end {
                return err("chunk decodes past its declared raw length");
            }
            out.extend_from_slice(lits);
            i += n;
        } else {
            let mlen = (ctl & 0x7F) as usize + MIN_MATCH;
            let Some(d) = body.get(i..i + 2) else {
                return err("match token truncated");
            };
            let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() - start {
                return err("match distance outside the produced window");
            }
            if out.len() + mlen > end {
                return err("chunk decodes past its declared raw length");
            }
            copy_match(out, dist, mlen);
        }
    }
    if out.len() != end {
        return err("chunk decodes short of its declared raw length");
    }
    Ok(())
}

/// Compresses `input` into the chunk-framed form. Never fails; chunks
/// that do not compress are stored verbatim (9 bytes of frame overhead
/// per [`CHUNK`] is the worst case).
pub fn compress(input: &[u8]) -> Vec<u8> {
    Encoder::new().compress(input)
}

/// One frame of a [`compress`] stream: its header at `at`, checked
/// against the bytes present, as `(raw_len, method, payload)`.
fn frame(input: &[u8], at: usize) -> Result<(usize, u8, &[u8]), CodecError> {
    let Some(header) = input.get(at..at + FRAME_HEADER) else {
        return err("frame header truncated");
    };
    let raw_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let stored_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    let method = header[8];
    if raw_len > CHUNK {
        return err("frame exceeds the chunk size");
    }
    let Some(payload) = input.get(at + FRAME_HEADER..at + FRAME_HEADER + stored_len) else {
        return err("frame payload truncated");
    };
    match method {
        METHOD_STORED if stored_len != raw_len => err("stored frame length mismatch"),
        // A 3-byte match token is the most any payload bytes expand to.
        METHOD_LZ if raw_len * 3 > stored_len * MAX_MATCH => {
            err("frame declares more than its payload can encode")
        }
        METHOD_STORED | METHOD_LZ => Ok((raw_len, method, payload)),
        _ => err("unknown frame method"),
    }
}

/// Decompresses a [`compress`] stream, validating every frame.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, an unknown method byte, a
/// stored frame whose lengths disagree, an LZ frame that declares more
/// than its payload can encode, or an LZ payload that decodes to the
/// wrong length or references data outside its window.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (mut total, mut at) = (0, 0);
    while at < input.len() {
        let (raw_len, _, payload) = frame(input, at)?;
        total += raw_len;
        at += FRAME_HEADER + payload.len();
    }
    let (mut out, mut at) = (Vec::with_capacity(total), 0);
    while at < input.len() {
        let (raw_len, method, payload) = frame(input, at)?;
        match method {
            METHOD_STORED => out.extend_from_slice(payload),
            _ => unlz_chunk(payload, raw_len, &mut out)?,
        }
        at += FRAME_HEADER + payload.len();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let z = compress(data);
        let back = decompress(&z).expect("round-trip");
        assert_eq!(back, data, "decompress(compress(x)) != x");
        z
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        assert!(roundtrip(&[]).is_empty());
        roundtrip(&[7]);
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn zero_runs_compress_like_rle() {
        let zeros = vec![0u8; 256 * 1024];
        let z = roundtrip(&zeros);
        // The match token is 3 bytes per 131 covered, so ~43x is the
        // format's ceiling on constant runs.
        assert!(z.len() * 40 < zeros.len(), "zero pages must shrink dramatically: {}", z.len());
    }

    #[test]
    fn repetitive_structure_compresses() {
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.extend_from_slice(&(i % 7).to_le_bytes());
            data.extend_from_slice(b"section.name.prefix");
        }
        let z = roundtrip(&data);
        assert!(z.len() * 3 < data.len(), "repeated structure must shrink: {}", z.len());
    }

    #[test]
    fn incompressible_data_is_stored_with_bounded_overhead() {
        let mut rng = SimRng::new(0xC0DEC);
        let data: Vec<u8> = (0..CHUNK * 2 + 17).map(|_| rng.gen_range(256) as u8).collect();
        let z = roundtrip(&data);
        assert!(z.len() <= data.len() + 9 * 3, "worst case is 9 bytes per chunk: {}", z.len());
    }

    #[test]
    fn compression_is_deterministic() {
        let mut rng = SimRng::new(3);
        let mut data = vec![0u8; 100_000];
        for _ in 0..2_000 {
            let at = rng.gen_range(data.len() as u64 - 8) as usize;
            data[at] = rng.gen_range(256) as u8;
        }
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn a_reused_encoder_writes_what_a_fresh_one_does() {
        let mut rng = SimRng::new(11);
        let mut enc = Encoder::new();
        for len in [5_000, 70_000, 300, 0, 64] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen_range(4) as u8).collect();
            assert_eq!(
                enc.compress(&data),
                compress(&data),
                "stale table entries leaked into {len} bytes"
            );
        }
        // Across the offset's wrap, too.
        enc.base = u32::MAX - CHUNK as u32 - 3;
        let data = vec![9u8; CHUNK + 5];
        assert_eq!(enc.compress(&data), compress(&data));
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let data = vec![42u8; 10_000];
        let z = compress(&data);
        for cut in [1, 5, 8, z.len() / 2, z.len() - 1] {
            assert!(decompress(&z[..cut]).is_err(), "truncation at {cut} must not decode");
        }
        let mut bad = z.clone();
        bad[8] = 0xEE; // unknown method byte
        assert!(decompress(&bad).is_err());
        // Declared raw length beyond CHUNK.
        let mut huge = z;
        huge[0..4].copy_from_slice(&(CHUNK as u32 + 1).to_le_bytes());
        assert!(decompress(&huge).is_err());
    }

    #[test]
    fn a_match_cannot_reach_into_the_previous_frame() {
        let mut z = compress(&[5u8; 16]);
        // A second frame whose only token copies from before its start.
        z.extend_from_slice(&4u32.to_le_bytes());
        z.extend_from_slice(&3u32.to_le_bytes());
        z.extend_from_slice(&[METHOD_LZ, 0x80, 1, 0]);
        assert!(decompress(&z).is_err());
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // abab... forces distance-2 matches longer than the distance.
        let mut data = Vec::new();
        for _ in 0..5_000 {
            data.extend_from_slice(b"ab");
        }
        roundtrip(&data);
    }
}
