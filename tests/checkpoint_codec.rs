//! The checkpoint codec against the one it replaced, and the checkpoint
//! decoders under mutation.
//!
//! - **Differential.** [`reference`] is the codec as it stood at commit
//!   93d5066: byte-at-a-time match extension, every in-match window
//!   seeded, a fresh table per chunk, a decoder that pushes one byte at a
//!   time. The rewritten encoder must write its bytes exactly — on every
//!   section of two real images and on inputs chosen to break a seeding
//!   or match-extension shortcut — and the rewritten decoder must read
//!   them back.
//! - **Mutation fuzzer.** Seeded [`SimRng`] mutations of valid inputs (bit
//!   flips, truncations, rewritten length, distance and method fields) go
//!   through `codec::decompress`, `read_stream` and
//!   `Platform::restore_from`. None may panic or allocate past what the
//!   input declares. A checkpoint stream carries a state digest, so it
//!   must read back as `Err` or as the exact original; a bare codec
//!   stream has no checksum, so it must decode exactly as the reference
//!   decoder does, errors included. A platform restored from a mutated
//!   stream is saved again, compressed: its DRAM pages go out as the
//!   payload they were read as, which must still read back to the
//!   original's state digest (debug builds also assert, per payload, that
//!   it decodes to the section it stands for).

mod common;
#[path = "../crates/sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use smappic::platform::{Config, Platform, Topology, DRAM_BASE};
use smappic::sim::codec::{self, CHUNK, METHOD_LZ, METHOD_STORED};
use smappic::sim::{read_stream, EthParams, SimRng, Snapshot, StreamSink};
use smappic::tile::{TraceCore, TraceOp};

mod reference {
    //! `crates/sim/src/codec.rs` at commit 93d5066, verbatim but for the
    //! error type: a `String` rendered as `CodecError` displays.

    use super::{CHUNK, METHOD_LZ, METHOD_STORED};

    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 0x7F + MIN_MATCH;
    const HASH_BITS: u32 = 13;

    fn err<T>(msg: &str) -> Result<T, String> {
        Err(format!("codec: {msg}"))
    }

    #[inline]
    fn hash4(b: &[u8]) -> usize {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
        for run in lits.chunks(0x80) {
            out.push((run.len() - 1) as u8);
            out.extend_from_slice(run);
        }
    }

    fn lz_chunk(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        let mut head = vec![0u32; 1 << HASH_BITS]; // position + 1; 0 = empty
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= src.len() {
            let h = hash4(&src[i..]);
            let cand = head[h] as usize;
            head[h] = (i + 1) as u32;
            let mut mlen = 0usize;
            if cand > 0 {
                let c = cand - 1;
                let max = (src.len() - i).min(MAX_MATCH);
                while mlen < max && src[c + mlen] == src[i + mlen] {
                    mlen += 1;
                }
            }
            if mlen >= MIN_MATCH {
                let dist = i - (cand - 1);
                flush_literals(&mut out, &src[lit_start..i]);
                out.push(0x80 | (mlen - MIN_MATCH) as u8);
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                let end = i + mlen;
                let mut j = i + 1;
                while j < end && j + MIN_MATCH <= src.len() {
                    head[hash4(&src[j..])] = (j + 1) as u32;
                    j += 1;
                }
                i = end;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &src[lit_start..]);
        out
    }

    fn unlz_chunk(body: &[u8], raw_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity(raw_len);
        let mut i = 0usize;
        while i < body.len() {
            let ctl = body[i];
            i += 1;
            if ctl & 0x80 == 0 {
                let n = ctl as usize + 1;
                if i + n > body.len() {
                    return err("literal run truncated");
                }
                out.extend_from_slice(&body[i..i + n]);
                i += n;
            } else {
                let mlen = (ctl & 0x7F) as usize + MIN_MATCH;
                if i + 2 > body.len() {
                    return err("match token truncated");
                }
                let dist = u16::from_le_bytes([body[i], body[i + 1]]) as usize;
                i += 2;
                if dist == 0 || dist > out.len() {
                    return err("match distance outside the produced window");
                }
                let start = out.len() - dist;
                for k in 0..mlen {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            if out.len() > raw_len {
                return err("chunk decodes past its declared raw length");
            }
        }
        if out.len() != raw_len {
            return err("chunk decodes short of its declared raw length");
        }
        Ok(out)
    }

    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        for chunk in input.chunks(CHUNK) {
            let body = lz_chunk(chunk);
            let (method, payload): (u8, &[u8]) =
                if body.len() < chunk.len() { (METHOD_LZ, &body) } else { (METHOD_STORED, chunk) };
            out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.push(method);
            out.extend_from_slice(payload);
        }
        out
    }

    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < input.len() {
            if at + 9 > input.len() {
                return err("frame header truncated");
            }
            let raw_len =
                u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes")) as usize;
            let stored_len =
                u32::from_le_bytes(input[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
            let method = input[at + 8];
            at += 9;
            if raw_len > CHUNK {
                return err("frame exceeds the chunk size");
            }
            if at + stored_len > input.len() {
                return err("frame payload truncated");
            }
            let payload = &input[at..at + stored_len];
            at += stored_len;
            match method {
                METHOD_STORED => {
                    if stored_len != raw_len {
                        return err("stored frame length mismatch");
                    }
                    out.extend_from_slice(payload);
                }
                METHOD_LZ => out.extend_from_slice(&unlz_chunk(payload, raw_len)?),
                _ => return err("unknown frame method"),
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Differential: the new encoder writes the reference's bytes.
// ---------------------------------------------------------------------------

/// The new encoder's output is the reference's, byte for byte, and both
/// decoders read it back to `data`.
fn assert_same_bytes(what: &str, data: &[u8]) {
    let got = codec::compress(data);
    let want = reference::compress(data);
    if got != want {
        let at =
            got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
        panic!(
            "{what}: {} input bytes encode to {} bytes, the reference to {}; first difference at \
             byte {at}",
            data.len(),
            got.len(),
            want.len()
        );
    }
    assert!(codec::decompress(&got).as_deref() == Ok(data), "{what}: does not round-trip");
    assert!(reference::decompress(&got).as_deref() == Ok(data), "{what}: reference cannot read it");
}

fn assert_every_section_same(what: &str, snap: &Snapshot) {
    for (name, data) in snap.sections() {
        assert_same_bytes(&format!("{what} section '{name}'"), data);
    }
}

/// The 16-FPGA Ethernet rack of the `ckpt_rack16` benchmark workload at a
/// smaller scale: 128 KiB of patterned pages per node (so each DRAM
/// section spans several chunks) and a contended counter homed on node 0.
fn patterned_rack() -> Platform {
    let cfg = Config::rack(16, 1, 1, Topology::Ethernet(EthParams::default()));
    let per_node = cfg.params.bytes_per_node;
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0xDA7A_5EED);
    for g in 0..16u64 {
        let base = DRAM_BASE + g * per_node + 0x10_0000;
        for pg in 0..32u64 {
            let mut page: Vec<u8> =
                (0..4096).map(|i| ((pg * 7 + g + i / 16) & 0xFF) as u8).collect();
            page[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            p.write_mem(base + pg * 4096, &page);
        }
        let ops = (0..6).flat_map(|_| {
            [TraceOp::Compute(rng.gen_range(20) + 1), TraceOp::AmoAdd(DRAM_BASE + 0x9000, 1)]
        });
        let map = p.addr_map(g as usize);
        let core = TraceCore::with_addr_map(format!("r{g}"), ops.collect(), map);
        p.set_engine(g as usize, 0, Box::new(core));
    }
    p.run(1_500);
    p
}

/// `len` bytes of runs with period `period`, each 8–300 bytes long and
/// broken by one to three random bytes; the pattern is kept across a
/// break half the time, so the same windows recur after it.
fn periodic_runs(rng: &mut SimRng, period: usize, len: usize) -> Vec<u8> {
    let mut pattern: Vec<u8> = (0..period).map(|_| rng.gen_range(256) as u8).collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let run = 8 + rng.gen_range(293) as usize;
        out.extend((0..run).map(|k| pattern[k % period]));
        out.extend((0..1 + rng.gen_range(3)).map(|_| rng.gen_range(256) as u8));
        if rng.chance(0.5) {
            pattern = (0..period).map(|_| rng.gen_range(256) as u8).collect();
        }
    }
    out.truncate(len);
    out
}

fn sparse_random(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    for _ in 0..len / 50 {
        data[rng.gen_range(len as u64) as usize] = rng.gen_range(256) as u8;
    }
    data
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(256) as u8).collect()
}

#[test]
fn every_section_of_the_pinned_image_encodes_as_the_reference_did() {
    let snap = common::pinned_platform().snapshot();
    assert_eq!(snap.sections().len(), 106);
    assert_every_section_same("pinned 2x2x2", &snap);
}

#[test]
fn every_section_of_a_patterned_rack_encodes_as_the_reference_did() {
    let snap = patterned_rack().snapshot();
    let largest = snap.sections().iter().map(|(_, d)| d.len()).max().unwrap_or(0);
    assert!(largest > 2 * CHUNK, "the DRAM sections must span chunks: {largest}");
    assert_every_section_same("16-FPGA rack", &snap);
}

#[test]
fn zero_pages_encode_as_the_reference_did() {
    for len in [4096, 4 * 4096, 3 * CHUNK + 100] {
        assert_same_bytes(&format!("{len} zero bytes"), &vec![0u8; len]);
    }
}

#[test]
fn broken_periodic_runs_encode_as_the_reference_did() {
    let mut rng = SimRng::new(0x9E21_0D1C);
    for period in 1..=64 {
        let data = periodic_runs(&mut rng, period, 3_000);
        assert_same_bytes(&format!("period {period}"), &data);
    }
    // Across a chunk boundary.
    assert_same_bytes("period 3, two chunks", &periodic_runs(&mut rng, 3, CHUNK + 4_000));
}

#[test]
fn sparse_and_incompressible_data_encode_as_the_reference_did() {
    let mut rng = SimRng::new(0x5BA2_5E00);
    assert_same_bytes("sparse random", &sparse_random(&mut rng, 100_000));
    assert_same_bytes("incompressible", &random_bytes(&mut rng, 2 * CHUNK + 17));
}

#[test]
fn boundary_lengths_encode_as_the_reference_did() {
    let mut rng = SimRng::new(0x1E46_7A55);
    for len in [0, 1, 3, 4, 5, CHUNK - 1, CHUNK, CHUNK + 1] {
        assert_same_bytes(&format!("{len} zeros"), &vec![0u8; len]);
        assert_same_bytes(&format!("{len} periodic"), &periodic_runs(&mut rng, 7, len));
        assert_same_bytes(&format!("{len} random"), &random_bytes(&mut rng, len));
    }
}

// ---------------------------------------------------------------------------
// Mutation fuzzer.
// ---------------------------------------------------------------------------

/// Mutated inputs per fuzzer (codec and checkpoint stream); debug builds
/// (tier-1's `cargo test`) run a tenth.
const INPUTS: usize = if cfg!(debug_assertions) { 1_000 } else { 10_000 };

/// The stream reader preallocates at most this much for a declared
/// length before the bytes arrive; a length trusted as-is would ask for
/// up to 4 GiB.
const READ_AHEAD_CAP: usize = 1 << 20;

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

/// A codec frame header as the decoder walks it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    at: usize,
    raw: usize,
    stored: usize,
    method: u8,
}

/// The frames of a codec stream, up to the first the decoder rejects
/// before looking at its payload.
fn frames(z: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(h) = z.get(at..at + 9) {
        let (raw, stored) = (le32(&h[0..4]) as usize, le32(&h[4..8]) as usize);
        if raw > CHUNK || at + 9 + stored > z.len() {
            break;
        }
        out.push(Frame { at, raw, stored, method: h[8] });
        at += 9 + stored;
    }
    out
}

/// What the decoder may reserve for `z`: the declared sizes of the frames
/// it can reach, each at most [`CHUNK`].
fn declared(z: &[u8]) -> usize {
    frames(z).iter().map(|f| f.raw).sum()
}

/// An LZ token: where its control byte is, whether it is a match, and how
/// many bytes the frame has produced before it.
struct Token {
    at: usize,
    is_match: bool,
    produced: usize,
}

fn tokens(body: &[u8]) -> Vec<Token> {
    let (mut out, mut i, mut produced) = (Vec::new(), 0, 0);
    while let Some(&ctl) = body.get(i) {
        let is_match = ctl & 0x80 != 0;
        out.push(Token { at: i, is_match, produced });
        if is_match {
            produced += (ctl & 0x7F) as usize + 4;
            i += 3;
        } else {
            produced += ctl as usize + 1;
            i += ctl as usize + 2;
        }
    }
    out
}

/// A length a corrupt or hostile writer might put in a u32 field.
fn odd_u32(rng: &mut SimRng, old: u32) -> u32 {
    let c = CHUNK as u32;
    let picks =
        [0, 1, old.wrapping_sub(1), old.wrapping_add(1), old.wrapping_mul(2), c - 1, c, c + 1];
    match rng.gen_range(10) {
        8 => u32::MAX,
        9 => rng.next_u64() as u32,
        k => picks[k as usize],
    }
}

fn pick<T: Copy>(rng: &mut SimRng, xs: &[T]) -> Option<T> {
    (!xs.is_empty()).then(|| xs[rng.gen_range(xs.len() as u64) as usize])
}

fn flip_bits(rng: &mut SimRng, buf: &mut [u8]) {
    for _ in 0..1 + rng.gen_range(3) {
        let bit = rng.gen_range(buf.len() as u64 * 8);
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

/// Rewrites one field of a codec stream in place — a frame's `raw_len`,
/// `stored_len` or method, or a token's control byte or match distance —
/// and names what it rewrote.
fn rewrite_codec_field(rng: &mut SimRng, z: &mut [u8]) -> &'static str {
    let Some(f) = pick(rng, &frames(z)) else {
        flip_bits(rng, z);
        return "bit flip";
    };
    let body = f.at + 9..f.at + 9 + f.stored;
    let toks = if f.method == METHOD_LZ { tokens(&z[body.clone()]) } else { Vec::new() };
    let put32 = |z: &mut [u8], at: usize, v: u32| z[at..at + 4].copy_from_slice(&v.to_le_bytes());
    match rng.gen_range(5) {
        0 => {
            put32(z, f.at, odd_u32(rng, f.raw as u32));
            "frame raw_len"
        }
        1 => {
            put32(z, f.at + 4, odd_u32(rng, f.stored as u32));
            "frame stored_len"
        }
        2 => {
            z[f.at + 8] = pick(rng, &[METHOD_STORED, METHOD_LZ, 2, 0x81, 0xFF]).expect("non-empty");
            "frame method"
        }
        3 => match pick(
            rng,
            &toks.iter().filter(|t| t.is_match && t.at + 3 <= f.stored).collect::<Vec<_>>(),
        ) {
            Some(t) => {
                let old = u16::from_le_bytes([z[body.start + t.at + 1], z[body.start + t.at + 2]]);
                let p = t.produced as u16;
                let dists =
                    [0, 1, old.wrapping_sub(1), old.wrapping_add(1), p, p.wrapping_add(1), 0xFFFF];
                let d = match rng.gen_range(8) {
                    7 => rng.next_u64() as u16,
                    k => dists[k as usize],
                };
                z[body.start + t.at + 1..body.start + t.at + 3].copy_from_slice(&d.to_le_bytes());
                "match distance"
            }
            None => {
                flip_bits(rng, z);
                "bit flip"
            }
        },
        _ => match toks.get(rng.gen_range(toks.len().max(1) as u64) as usize) {
            Some(t) => {
                z[body.start + t.at] = rng.gen_range(256) as u8;
                "token length"
            }
            None => {
                flip_bits(rng, z);
                "bit flip"
            }
        },
    }
}

/// Runs `f`, turning a panic into a test failure that names the input.
fn no_panic<R>(what: &str, f: impl FnOnce() -> R) -> (R, counting_alloc::Allocs) {
    let (out, allocs) = counting_alloc::measured(|| catch_unwind(AssertUnwindSafe(f)));
    match out {
        Ok(r) => (r, allocs),
        Err(_) => panic!("{what}: the decoder panicked"),
    }
}

#[test]
fn mutated_codec_streams_decode_as_the_reference_does_within_their_declared_size() {
    let mut rng = SimRng::new(0xF022_C0DE);
    let pinned = common::pinned_platform().snapshot();
    let largest = pinned.sections().iter().max_by_key(|(_, d)| d.len()).expect("sections");
    let seeds: Vec<Vec<u8>> = [
        largest.1.clone(),
        vec![0u8; 8 * 1024],
        periodic_runs(&mut rng, 5, CHUNK + 9_000),
        sparse_random(&mut rng, 30_000),
        random_bytes(&mut rng, 700),
    ]
    .iter()
    .map(|d| codec::compress(d))
    .collect();

    let mut rejected = std::collections::BTreeMap::<&str, (usize, usize)>::new();
    for n in 0..INPUTS {
        let mut input = seeds[n % seeds.len()].clone();
        let kind = match rng.gen_range(4) {
            0 => {
                flip_bits(&mut rng, &mut input);
                "bit flip"
            }
            1 => {
                input.truncate(rng.gen_range(input.len() as u64) as usize);
                "truncation"
            }
            _ => rewrite_codec_field(&mut rng, &mut input),
        };
        let what = format!("codec input {n} ({kind})");
        let (got, allocs) = no_panic(&what, || codec::decompress(&input));
        // The new decoder checks every frame header before it decodes a
        // payload, so where two frames are broken it may name the other.
        let want = reference::decompress(&input);
        assert_eq!(got.as_ref().ok(), want.as_ref().ok(), "{what}: the decoders disagree");
        // One allocation, the output, at most what the frames declare
        // (each at most CHUNK); the error message is a few dozen bytes.
        let bound = declared(&input).max(256);
        assert!(allocs.largest <= bound, "{what}: allocated {} > {bound}", allocs.largest);
        assert!(allocs.count <= 2, "{what}: {} allocations", allocs.count);
        let tally = rejected.entry(kind).or_default();
        tally.0 += 1;
        tally.1 += usize::from(got.is_err());
    }
    for (kind, (tried, errs)) in &rejected {
        assert!(
            *errs > 0,
            "no {kind} mutation out of {tried} was rejected: the fuzzer has no teeth"
        );
    }
}

/// Field positions of a valid `SMAPSTRM` stream: one-byte tags and flags,
/// u32 lengths, and the compressed payloads of its sections.
struct StreamLayout {
    bytes: Vec<usize>,
    lengths: Vec<usize>,
    payloads: Vec<Range<usize>>,
}

fn stream_layout(wire: &[u8]) -> StreamLayout {
    let mut l = StreamLayout { bytes: vec![8, 28], lengths: Vec::new(), payloads: Vec::new() };
    let mut at = 29;
    while wire[at] != 0 {
        l.bytes.push(at);
        let nlen = le32(&wire[at + 1..]) as usize;
        let raw_at = at + 5 + nlen;
        let (raw, stored) = (le32(&wire[raw_at..]), le32(&wire[raw_at + 4..]) as usize);
        l.lengths.extend([at + 1, raw_at, raw_at + 4]);
        let payload = raw_at + 8..raw_at + 8 + stored;
        if stored != raw as usize {
            l.payloads.push(payload.clone());
        }
        at = payload.end;
    }
    l.bytes.push(at);
    l.lengths.push(at + 1);
    l
}

fn mutate_stream(rng: &mut SimRng, wire: &mut Vec<u8>, layout: &StreamLayout) -> &'static str {
    match rng.gen_range(5) {
        0 => {
            flip_bits(rng, wire);
            "bit flip"
        }
        1 => {
            wire.truncate(rng.gen_range(wire.len() as u64) as usize);
            "truncation"
        }
        2 => {
            let at = pick(rng, &layout.lengths).expect("lengths");
            let v = odd_u32(rng, le32(&wire[at..]));
            wire[at..at + 4].copy_from_slice(&v.to_le_bytes());
            "section length"
        }
        3 => {
            let at = pick(rng, &layout.bytes).expect("tags");
            wire[at] = rng.gen_range(256) as u8;
            "tag, flags or version"
        }
        _ => {
            let r = &layout.payloads[rng.gen_range(layout.payloads.len() as u64) as usize];
            rewrite_codec_field(rng, &mut wire[r.clone()])
        }
    }
}

/// A compressed save of `p` and how many of its stored bytes were
/// payloads handed over from a restore.
fn resave(p: &Platform) -> (Vec<u8>, u64) {
    let mut wire = Vec::new();
    let mut sink = StreamSink::new(&mut wire, true);
    p.snapshot_to(&mut sink).expect("stream to memory");
    let reused = sink.reused_bytes();
    (wire, reused)
}

/// `p` with 16 KiB of compressible pages in every node's DRAM, clear of
/// the pinned workload's addresses: runs of 16 equal bytes, eight seeded
/// bytes opening each page.
fn with_dram_pages(mut p: Platform) -> Platform {
    let mut rng = SimRng::new(0x9A6E_5A7E);
    let per_node = p.config().params.bytes_per_node;
    for g in 0..p.config().total_nodes() as u64 {
        let base = DRAM_BASE + g * per_node + 0x10_0000;
        for pg in 0..4u64 {
            let mut page: Vec<u8> =
                (0..4096).map(|i| ((pg * 5 + g + i / 16) & 0xFF) as u8).collect();
            page[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            p.write_mem(base + pg * 4096, &page);
        }
    }
    p
}

/// Mutates `source`'s compressed stream [`INPUTS`] times. Each mutation
/// must read back as `Err` or as the original; every fifth also restores
/// into a fresh pinned platform, which must agree, and a platform it
/// restores is saved again and must read back to the original's state
/// digest. Returns the stored bytes the unmutated stream's re-save took
/// from the restore instead of the encoder.
fn fuzz_checkpoint_stream(rng: &mut SimRng, label: &str, source: &Platform) -> u64 {
    let original = source.snapshot();
    let mut wire = Vec::new();
    source.snapshot_to(&mut StreamSink::new(&mut wire, true)).expect("stream to memory");
    let layout = stream_layout(&wire);
    assert!(!layout.payloads.is_empty(), "{label}: the stream must have compressed sections");
    let mut fresh = common::pinned_fresh();
    fresh.restore_from(&wire[..]).expect("the unmutated stream restores");
    let (again, reused) = resave(&fresh);
    assert!(again == wire, "{label}: a restored platform's save differs from its stream");

    let mut read_ok = 0;
    for n in 0..INPUTS {
        let mut input = wire.clone();
        let kind = mutate_stream(rng, &mut input, &layout);
        let what = format!("{label} stream input {n} ({kind})");
        let (read, allocs) = no_panic(&what, || read_stream(&input[..]));
        assert!(
            allocs.largest <= READ_AHEAD_CAP,
            "{what}: read_stream allocated {} bytes at once",
            allocs.largest
        );
        if let Ok(snap) = &read {
            assert!(*snap == original, "{what}: read back a snapshot that is not the original");
            read_ok += 1;
        }
        // Every fifth input also restores into a fresh platform.
        if n % 5 == 0 {
            let mut fresh = common::pinned_fresh();
            let (res, allocs) = no_panic(&what, || fresh.restore_from(&input[..]));
            assert_eq!(res.is_ok(), read.is_ok(), "{what}: restore_from and read_stream disagree");
            assert!(
                allocs.largest <= READ_AHEAD_CAP,
                "{what}: restore_from allocated {} bytes at once",
                allocs.largest
            );
            if res.is_ok() {
                assert!(fresh.snapshot() == original, "{what}: restored a different state");
                let (again, _) = resave(&fresh);
                let back = read_stream(&again[..]).map(|s| s.state_digest());
                assert_eq!(back, Ok(original.state_digest()), "{what}: the re-save reads back");
            }
        }
    }
    // Some mutations are harmless (a flipped compress flag, a rewritten
    // length that equals the old one); nearly all must be caught.
    assert!(read_ok < INPUTS / 10, "{label}: {read_ok} of {INPUTS} mutated streams read back");
    reused
}

#[test]
fn mutated_checkpoint_streams_restore_the_original_or_fail_within_a_bounded_allocation() {
    let mut rng = SimRng::new(0x572E_A4F0);
    fuzz_checkpoint_stream(&mut rng, "pinned", &common::pinned_platform());
    // With DRAM pages, mutations also land in the payloads a restore
    // hands to the next save.
    let paged = with_dram_pages(common::pinned_platform());
    let reused = fuzz_checkpoint_stream(&mut rng, "pinned with pages", &paged);
    assert!(reused > 0, "the paged stream must hand DRAM payloads to the next save");
}
