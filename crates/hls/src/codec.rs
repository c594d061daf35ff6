//! Second-stage stream codecs: entropy/transform coding layered over the
//! per-format transfer streams of [`EncodedPartition`](crate::EncodedPartition).
//!
//! The paper's formats are *structural* encodings — they decide which
//! elements travel. Real storage and transfer stacks layer a second
//! compression stage on top of the index/value streams, trading transfer
//! bytes for decoder cycles: exactly the compression-ratio versus
//! decompression-latency trade-off (σ) Copernicus characterizes, one level
//! deeper.
//!
//! Three codecs are modeled, each a [`Codec`] reachable through the
//! [`codec_for`] registry (a static dispatch table in the style of chd-rs's
//! `Decompress` match):
//!
//! * **RLE** — byte-level run-length coding. Wins on the long zero/padding
//!   runs of Dense, ELL and DIA value streams.
//! * **Delta+varint** — interprets the stream as little-endian `u32` words,
//!   zigzag-delta-codes consecutive words and emits LEB128 varints. Built
//!   for sorted index streams (CSR `colInx`, offsets), where consecutive
//!   deltas are small.
//! * **Canonical Huffman** — order-0 entropy coding with a canonical code
//!   table, the coder/model split of websqz: the model is the byte
//!   histogram, the coder the canonical bit assignment.
//!
//! Every codec is *functional* (encode/decode round-trip, property-tested)
//! and carries a [`CodecCost`] — the cycles-per-byte second-stage decoder
//! model the pipeline adds to the compute stage. Streams where the coded
//! form would be larger than the structural form are transferred raw
//! (`coded_bytes == bytes`), so second-stage coding never inflates a
//! transfer; the cost model charges entropy-decode cycles only for streams
//! that actually shipped coded. That store-raw escape lives in
//! [`Codec::transfer_len`], which the encode path calls to price a stream:
//! RLE and delta-varint encode and measure, while Huffman computes its
//! coded length from the byte histogram (the bitstream's length is the sum
//! of the merge weights), so the walked path writes no Huffman bitstream.
//! `encode_bytes`/`decode_bytes` remain the wire-format oracle that
//! `transfer_len` must match exactly.

use std::fmt;
use std::str::FromStr;

/// Which second-stage codec a platform applies to its transfer streams.
///
/// `None` (the default) reproduces the paper's platform exactly: structural
/// encoding only, with every report bit-identical to the pre-codec model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum CodecKind {
    /// No second stage: streams travel structurally encoded, as in the
    /// paper.
    #[default]
    None,
    /// Byte-level run-length coding.
    Rle,
    /// Zigzag delta of little-endian `u32` words + LEB128 varints.
    DeltaVarint,
    /// Canonical order-0 Huffman coding.
    Huffman,
}

impl CodecKind {
    /// Every kind, registry order (`None` first).
    pub const ALL: [CodecKind; 4] = [
        CodecKind::None,
        CodecKind::Rle,
        CodecKind::DeltaVarint,
        CodecKind::Huffman,
    ];
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CodecKind::None => "none",
            CodecKind::Rle => "rle",
            CodecKind::DeltaVarint => "delta-varint",
            CodecKind::Huffman => "huffman",
        })
    }
}

impl FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(CodecKind::None),
            "rle" => Ok(CodecKind::Rle),
            "delta-varint" | "delta_varint" => Ok(CodecKind::DeltaVarint),
            "huffman" => Ok(CodecKind::Huffman),
            other => Err(format!(
                "unknown codec {other:?} (expected none, rle, delta-varint or huffman)"
            )),
        }
    }
}

/// A stream a codec cannot handle: a malformed coded stream handed to
/// [`Codec::decode_bytes`], or an input [`Codec::encode_bytes`] cannot
/// represent on the wire (e.g. a stream longer than Huffman's `u32` length
/// header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// The codec that rejected the stream.
    pub codec: CodecKind,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} codec failed: {}", self.codec, self.detail)
    }
}

impl std::error::Error for CodecError {}

fn err(codec: CodecKind, detail: impl Into<String>) -> CodecError {
    CodecError {
        codec,
        detail: detail.into(),
    }
}

/// The second-stage decoder cost model of one codec: a per-stream setup
/// charge (table builds, state resets) plus cycles per coded byte consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecCost {
    /// Fixed cycles to prime the decoder for one stream.
    pub setup_cycles: u64,
    /// Decoder cycles per *coded* byte consumed.
    pub cycles_per_byte: u64,
}

impl CodecCost {
    /// Decoder cycles for one stream of `coded_bytes` coded bytes.
    pub fn stream_cycles(&self, coded_bytes: u64) -> u64 {
        self.setup_cycles + self.cycles_per_byte * coded_bytes
    }
}

/// One second-stage stream codec: identity, transform, and decoder cost.
///
/// Implementations are stateless and `Sync`, so one static instance serves
/// every campaign worker.
pub trait Codec: Sync {
    /// The registry id of this codec.
    fn id(&self) -> CodecKind;

    /// Compresses `src`, appending the coded form to `out` (which is
    /// cleared first).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when `src` cannot be represented in the
    /// codec's wire format (e.g. longer than Huffman's `u32` length
    /// header). `out` is left empty in that case so a truncated stream can
    /// never ship.
    fn encode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError>;

    /// Inverts [`Codec::encode_bytes`], appending the original bytes to
    /// `out` (cleared first); decoding allocates nothing beyond `out`
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first structural defect of a
    /// malformed coded stream.
    fn decode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError>;

    /// The second-stage decoder cost model.
    fn cost_model(&self) -> CodecCost;

    /// Bytes of `src` that cross the bus: `min(src.len(), coded length)`,
    /// or `src.len()` when [`Codec::encode_bytes`] rejects the stream —
    /// the store-raw escape, in one place.
    ///
    /// The default encodes into `scratch` and measures the result; a codec
    /// whose coded length has a closed form overrides it, and must agree
    /// with this default exactly (property-tested).
    fn transfer_len(&self, src: &[u8], scratch: &mut Vec<u8>) -> u64 {
        let raw = src.len() as u64;
        match self.encode_bytes(src, scratch) {
            Ok(()) => raw.min(scratch.len() as u64),
            Err(_) => raw,
        }
    }
}

/// The codec registry: the static dispatch table mapping a [`CodecKind`] to
/// its implementation. `CodecKind::None` has no implementation — the
/// pipeline skips the second stage entirely.
pub fn codec_for(kind: CodecKind) -> Option<&'static dyn Codec> {
    match kind {
        CodecKind::None => None,
        CodecKind::Rle => Some(&Rle),
        CodecKind::DeltaVarint => Some(&DeltaVarint),
        CodecKind::Huffman => Some(&Huffman),
    }
}

// ---------------------------------------------------------------------------
// RLE
// ---------------------------------------------------------------------------

/// Byte-level run-length coding: `(count, byte)` pairs with `1 <= count <=
/// 255`. A stream that is mostly padding zeros (Dense/ELL/DIA values)
/// collapses dramatically; incompressible streams double, which the
/// store-raw escape in the encode path absorbs.
#[derive(Debug)]
pub struct Rle;

impl Codec for Rle {
    fn id(&self) -> CodecKind {
        CodecKind::Rle
    }

    fn encode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let mut i = 0;
        while i < src.len() {
            let byte = src[i];
            let limit = src.len().min(i + 255);
            // Extend the run a word at a time while 8 bytes repeat, then
            // byte-at-a-time to the exact boundary — same runs as the
            // scalar scan, one compare per 8 bytes on long runs.
            let pattern = u64::from_ne_bytes([byte; 8]);
            let mut j = i + 1;
            while j + 8 <= limit {
                let mut word = [0u8; 8];
                word.copy_from_slice(&src[j..j + 8]);
                if u64::from_ne_bytes(word) != pattern {
                    break;
                }
                j += 8;
            }
            while j < limit && src[j] == byte {
                j += 1;
            }
            out.push((j - i) as u8);
            out.push(byte);
            i = j;
        }
        Ok(())
    }

    fn decode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        if !src.len().is_multiple_of(2) {
            return Err(err(self.id(), "odd-length run list"));
        }
        for pair in src.chunks_exact(2) {
            let (count, byte) = (pair[0], pair[1]);
            if count == 0 {
                return Err(err(self.id(), "zero-length run"));
            }
            out.resize(out.len() + count as usize, byte);
        }
        Ok(())
    }

    fn cost_model(&self) -> CodecCost {
        // One pipelined table-free expansion per coded byte.
        CodecCost {
            setup_cycles: 0,
            cycles_per_byte: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Delta + varint
// ---------------------------------------------------------------------------

/// Zigzag delta + LEB128 varint coding over little-endian `u32` words.
///
/// Wire format: one header byte holding the count of trailing raw bytes
/// (`len % 4`, i.e. 0..=3), then the varint region, then the raw tail
/// verbatim. Varints are self-delimiting, so the decoder consumes them
/// until only the tail remains.
#[derive(Debug)]
pub struct DeltaVarint;

fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

impl Codec for DeltaVarint {
    fn id(&self) -> CodecKind {
        CodecKind::DeltaVarint
    }

    fn encode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let tail = src.len() % 4;
        out.push(tail as u8);
        let mut prev = 0u32;
        for word in src[..src.len() - tail].chunks_exact(4) {
            let w = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let mut zz = zigzag(w.wrapping_sub(prev) as i32);
            prev = w;
            loop {
                if zz < 0x80 {
                    out.push(zz as u8);
                    break;
                }
                out.push((zz as u8 & 0x7f) | 0x80);
                zz >>= 7;
            }
        }
        out.extend_from_slice(&src[src.len() - tail..]);
        Ok(())
    }

    fn decode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let Some((&tail, body)) = src.split_first() else {
            return Err(err(self.id(), "missing tail header"));
        };
        let tail = tail as usize;
        if tail > 3 {
            return Err(err(self.id(), format!("tail count {tail} exceeds 3")));
        }
        if tail > body.len() {
            return Err(err(self.id(), "tail longer than body"));
        }
        let (varints, raw_tail) = body.split_at(body.len() - tail);
        let mut prev = 0u32;
        let mut i = 0;
        while i < varints.len() {
            let mut zz = 0u32;
            let mut shift = 0u32;
            loop {
                let Some(&b) = varints.get(i) else {
                    return Err(err(self.id(), "truncated varint"));
                };
                i += 1;
                if shift >= 32 || (shift == 28 && (b & 0x7f) > 0x0f) {
                    return Err(err(self.id(), "varint overflows u32"));
                }
                zz |= u32::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            let word = prev.wrapping_add(unzigzag(zz) as u32);
            prev = word;
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(raw_tail);
        Ok(())
    }

    fn cost_model(&self) -> CodecCost {
        // Shift-accumulate per coded byte, prefix-sum per word — one cycle
        // per coded byte in a pipelined decoder.
        CodecCost {
            setup_cycles: 0,
            cycles_per_byte: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman
// ---------------------------------------------------------------------------

/// Canonical order-0 Huffman coding.
///
/// Wire format: 4-byte little-endian original length, 256 code-length
/// bytes (the canonical table — the "model"), then the MSB-first bitstream
/// (the "coder"). Codes are assigned canonically by `(length, symbol)`, so
/// encoder and decoder derive identical tables from the lengths alone.
#[derive(Debug)]
pub struct Huffman;

/// Maximum node count of a 256-leaf Huffman merge tree: 256 leaves plus
/// 255 internal nodes.
const MAX_NODES: usize = 511;

/// Bytes of Huffman's wire header: the `u32` length plus the 256
/// code-length bytes.
const HEADER_BYTES: u64 = 4 + 256;

/// The byte histogram of `src`. Four independent sub-histograms keep the
/// count chains out of each other's way; u64 adds commute, so the merged
/// counts are exact.
fn histogram(src: &[u8]) -> [u64; 256] {
    let mut lanes = [[0u64; 256]; 4];
    let mut chunks = src.chunks_exact(4);
    for quad in chunks.by_ref() {
        lanes[0][quad[0] as usize] += 1;
        lanes[1][quad[1] as usize] += 1;
        lanes[2][quad[2] as usize] += 1;
        lanes[3][quad[3] as usize] += 1;
    }
    for &b in chunks.remainder() {
        lanes[0][b as usize] += 1;
    }
    let mut counts = [0u64; 256];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = lanes[0][i] + lanes[1][i] + lanes[2][i] + lanes[3][i];
    }
    counts
}

/// Bits of the Huffman bitstream for `counts`, `Σ count × code length`,
/// without building the code. Every Huffman tree of a histogram has the
/// same weighted path length, and it equals the sum of the internal-node
/// weights of any merge order, so a two-queue merge over the sorted
/// counts (leaves ascending, merged nodes created in ascending order)
/// sums them in O(k log k). A lone symbol gets [`code_lengths`]' 1-bit
/// code; an empty histogram codes to nothing.
fn coded_bits(counts: &[u64; 256]) -> u64 {
    let mut leaves = [0u64; 256];
    let mut k = 0;
    for &c in counts {
        if c > 0 {
            leaves[k] = c;
            k += 1;
        }
    }
    match k {
        0 => return 0,
        1 => return leaves[0],
        _ => {}
    }
    let leaves = &mut leaves[..k];
    leaves.sort_unstable();
    let mut merged = [0u64; 255];
    let (mut li, mut mi, mut mlen) = (0, 0, 0);
    let mut bits = 0u64;
    for _ in 1..k {
        let mut pop = || {
            if mi == mlen || (li < k && leaves[li] <= merged[mi]) {
                li += 1;
                leaves[li - 1]
            } else {
                mi += 1;
                merged[mi - 1]
            }
        };
        let w = pop() + pop();
        merged[mlen] = w;
        mlen += 1;
        bits += w;
    }
    bits
}

/// Width of the primary decode lookup table in bits (capped by the actual
/// maximum code length). 11 bits covers every code of the characterized
/// stream histograms while keeping the table at 2 KiB of `u16`s.
const PRIMARY_BITS: usize = 11;

/// Builds code lengths from byte frequencies: repeatedly merge the two
/// lightest subtrees, ties broken by smallest member symbol — fully
/// deterministic, no heap required at a 256-symbol alphabet. A single
/// distinct symbol gets length 1. Depths stay far below 64 for any input
/// under ~10 TB (a depth-`d` code needs Fibonacci-scale frequencies).
///
/// The merge tracks parent pointers over a fixed arena instead of per-node
/// member lists: each subtree carries its `head` (first member symbol, in
/// the order the old list-based merge concatenated members) and a `stored`
/// tie-break symbol updated as `a.head.min(b.stored)` — exactly the
/// `ma[0].min(mb_sym)` rule of the list-based merge, so the resulting
/// lengths (and thus every coded byte) are bit-identical. `(freq, stored)`
/// keys are unique: `stored` is always a member of the subtree and
/// subtrees are disjoint.
fn code_lengths(counts: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut freq = [0u64; MAX_NODES];
    let mut stored = [0u8; MAX_NODES];
    let mut head = [0u8; MAX_NODES];
    let mut parent = [u16::MAX; MAX_NODES];
    // Live roots, as indices into the arena.
    let mut active = [0u16; MAX_NODES];
    let mut leaves = 0usize;
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            freq[leaves] = c;
            stored[leaves] = s as u8;
            head[leaves] = s as u8;
            active[leaves] = leaves as u16;
            leaves += 1;
        }
    }
    if leaves == 1 {
        lengths[stored[0] as usize] = 1;
        return lengths;
    }
    let mut live = leaves;
    let mut next_node = leaves;
    while live > 1 {
        // The two smallest live roots by (freq, stored) — the same pair the
        // sort-and-pop merge selected.
        let mut ai = 0usize;
        for i in 1..live {
            let (n, b) = (active[i] as usize, active[ai] as usize);
            if (freq[n], stored[n]) < (freq[b], stored[b]) {
                ai = i;
            }
        }
        let a = active[ai] as usize;
        active[ai] = active[live - 1];
        live -= 1;
        let mut bi = 0usize;
        for i in 1..live {
            let (n, b) = (active[i] as usize, active[bi] as usize);
            if (freq[n], stored[n]) < (freq[b], stored[b]) {
                bi = i;
            }
        }
        let b = active[bi] as usize;
        freq[next_node] = freq[a] + freq[b];
        head[next_node] = head[a];
        stored[next_node] = head[a].min(stored[b]);
        parent[a] = next_node as u16;
        parent[b] = next_node as u16;
        active[bi] = next_node as u16;
        next_node += 1;
    }
    for leaf in 0..leaves {
        let mut depth = 0u8;
        let mut node = leaf;
        while parent[node] != u16::MAX {
            node = parent[node] as usize;
            depth += 1;
        }
        lengths[stored[leaf] as usize] = depth;
    }
    lengths
}

/// One canonical code: `(symbol, code bits, length)`.
type CanonicalCode = (u8, u64, u8);

/// Canonical code assignment into a caller-provided table: symbols sorted
/// by `(length, symbol)`, codes counted up and left-shifted at each length
/// increase. Returns the number of coded symbols.
fn canonical_codes_into(lengths: &[u8; 256], codes: &mut [CanonicalCode; 256]) -> usize {
    let mut n = 0;
    for (s, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[n] = (s as u8, 0, l);
            n += 1;
        }
    }
    // Unique (length, symbol) keys, so the unstable sort is deterministic.
    codes[..n].sort_unstable_by_key(|&(sym, _, len)| (len, sym));
    let mut next = 0u64;
    let mut last_len = 0u8;
    for c in &mut codes[..n] {
        next <<= u32::from(c.2 - last_len);
        c.1 = next;
        next += 1;
        last_len = c.2;
    }
    n
}

/// The next `width` bits of `bits` starting at bit `pos`, MSB-first,
/// zero-padded past the end of the stream. `width <= PRIMARY_BITS`, so the
/// window always fits three bytes.
#[inline]
fn peek_bits(bits: &[u8], pos: usize, width: usize) -> usize {
    let byte = pos / 8;
    let shift = pos % 8;
    let b0 = u32::from(bits.get(byte).copied().unwrap_or(0));
    let b1 = u32::from(bits.get(byte + 1).copied().unwrap_or(0));
    let b2 = u32::from(bits.get(byte + 2).copied().unwrap_or(0));
    let window = (b0 << 16) | (b1 << 8) | b2;
    ((window >> (24 - shift - width)) & ((1 << width) - 1)) as usize
}

impl Codec for Huffman {
    fn id(&self) -> CodecKind {
        CodecKind::Huffman
    }

    fn encode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        if src.len() > u32::MAX as usize {
            return Err(err(
                self.id(),
                format!(
                    "stream of {} bytes exceeds the u32 length header",
                    src.len()
                ),
            ));
        }
        out.extend_from_slice(&(src.len() as u32).to_le_bytes());
        let lengths = code_lengths(&histogram(src));
        out.extend_from_slice(&lengths);
        let mut codes = [(0u8, 0u64, 0u8); 256];
        let ncodes = canonical_codes_into(&lengths, &mut codes);
        let mut table = [(0u64, 0u8); 256];
        for &(sym, code, len) in &codes[..ncodes] {
            table[sym as usize] = (code, len);
        }
        let mut bit_buf = 0u64;
        let mut bit_count = 0u32;
        for &b in src {
            let (code, len) = table[b as usize];
            bit_buf = (bit_buf << len) | code;
            bit_count += u32::from(len);
            while bit_count >= 8 {
                bit_count -= 8;
                out.push((bit_buf >> bit_count) as u8);
            }
        }
        if bit_count > 0 {
            out.push((bit_buf << (8 - bit_count)) as u8);
        }
        Ok(())
    }

    fn decode_bytes(&self, src: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        if src.len() < 4 + 256 {
            return Err(err(self.id(), "header shorter than 260 bytes"));
        }
        let n = u32::from_le_bytes([src[0], src[1], src[2], src[3]]) as usize;
        let mut lengths = [0u8; 256];
        lengths.copy_from_slice(&src[4..260]);
        let bits = &src[260..];
        if n == 0 {
            return Ok(());
        }
        let mut code_table = [(0u8, 0u64, 0u8); 256];
        let ncodes = canonical_codes_into(&lengths, &mut code_table);
        if ncodes == 0 {
            return Err(err(self.id(), "no symbols in the code table"));
        }
        let codes = &code_table[..ncodes];
        // Canonical decode tables indexed by code length; a wire length
        // byte can claim up to 255 bits, so the per-length arrays span the
        // full u8 range on the stack.
        let max_len = codes.iter().map(|&(_, _, l)| l).max().unwrap_or(0) as usize;
        let mut first_code = [0u64; 256];
        let mut first_index = [0usize; 256];
        let mut count = [0usize; 256];
        for (i, &(_, code, len)) in codes.iter().enumerate() {
            let l = len as usize;
            if count[l] == 0 {
                first_code[l] = code;
                first_index[l] = i;
            }
            count[l] += 1;
        }
        // Primary lookup table over the next `primary_bits` bits. Codes are
        // walked longest-first so a shorter code overwrites the aligned
        // subranges of any longer one, reproducing the bit-at-a-time
        // walk's shortest-match-first semantics even for tables that are
        // not prefix-free (possible on malformed input).
        let primary_bits = max_len.min(PRIMARY_BITS);
        let mut table = [0u16; 1 << PRIMARY_BITS];
        let primary = &mut table[..1 << primary_bits];
        for &(sym, code, len) in codes.iter().rev() {
            let len = len as usize;
            if len > primary_bits || code >= 1u64 << len {
                continue;
            }
            let base = (code as usize) << (primary_bits - len);
            let span = 1usize << (primary_bits - len);
            let entry = (u16::from(sym) << 4) | len as u16;
            for slot in &mut primary[base..base + span] {
                *slot = entry;
            }
        }
        let total_bits = bits.len() * 8;
        let mut pos = 0usize;
        'symbols: while out.len() < n {
            let entry = primary[peek_bits(bits, pos, primary_bits)];
            let hit_len = (entry & 0xf) as usize;
            if hit_len != 0 && pos + hit_len <= total_bits {
                out.push((entry >> 4) as u8);
                pos += hit_len;
                continue;
            }
            // Slow path — codes longer than the primary table, the stream
            // tail, and malformed tables: the bit-at-a-time canonical walk,
            // preserving its exact error reporting.
            let mut code = 0u64;
            let mut len = 0usize;
            loop {
                if pos >= total_bits {
                    return Err(err(self.id(), "bitstream ends before all symbols"));
                }
                code = (code << 1) | u64::from((bits[pos / 8] >> (7 - pos % 8)) & 1);
                pos += 1;
                len += 1;
                if len > max_len {
                    return Err(err(self.id(), "bit pattern matches no code"));
                }
                if count[len] > 0
                    && code >= first_code[len]
                    && code < first_code[len] + count[len] as u64
                {
                    let idx = first_index[len] + (code - first_code[len]) as usize;
                    out.push(codes[idx].0);
                    continue 'symbols;
                }
            }
        }
        Ok(())
    }

    fn cost_model(&self) -> CodecCost {
        // Canonical-table rebuild per stream, then a two-cycle
        // shift/compare/emit loop per coded byte.
        CodecCost {
            setup_cycles: 64,
            cycles_per_byte: 2,
        }
    }

    /// The coded length from the histogram alone: `260 + ⌈bits/8⌉`, where
    /// `bits = Σ count × code length` is the sum of the merge weights.
    /// Every code is at least one bit long, so a stream of `n` bytes codes
    /// to at least `260 + ⌈n/8⌉` bytes and one of 298 bytes or fewer never
    /// shrinks.
    fn transfer_len(&self, src: &[u8], _scratch: &mut Vec<u8>) -> u64 {
        let n = src.len() as u64;
        if HEADER_BYTES + n.div_ceil(8) >= n || src.len() > u32::MAX as usize {
            return n;
        }
        n.min(HEADER_BYTES + coded_bits(&histogram(src)).div_ceil(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &dyn Codec, src: &[u8]) -> Vec<u8> {
        let mut coded = Vec::new();
        codec.encode_bytes(src, &mut coded).expect("encodable");
        let mut back = Vec::new();
        codec
            .decode_bytes(&coded, &mut back)
            .unwrap_or_else(|e| panic!("{e} on {src:?} -> {coded:?}"));
        assert_eq!(back, src, "{} round trip", codec.id());
        coded
    }

    fn samples() -> Vec<Vec<u8>> {
        vec![
            vec![],
            vec![0],
            vec![7; 1000],
            (0..=255u8).collect(),
            (0..64u32).flat_map(|i| (i * 3).to_le_bytes()).collect(),
            vec![1, 2, 3],           // non-word-aligned tail
            vec![0xff; 513],         // long run crossing the 255 cap
            b"abracadabra".to_vec(), // skewed histogram
            (0..97u8).map(|i| i.wrapping_mul(53)).collect(),
        ]
    }

    #[test]
    fn every_codec_round_trips_the_samples() {
        for kind in [CodecKind::Rle, CodecKind::DeltaVarint, CodecKind::Huffman] {
            let codec = codec_for(kind).expect("registered");
            assert_eq!(codec.id(), kind);
            for s in samples() {
                roundtrip(codec, &s);
            }
        }
    }

    #[test]
    fn registry_covers_every_kind_once() {
        assert!(codec_for(CodecKind::None).is_none());
        for kind in CodecKind::ALL {
            if kind == CodecKind::None {
                continue;
            }
            assert_eq!(codec_for(kind).expect("registered").id(), kind);
        }
    }

    #[test]
    fn kind_parses_and_displays_symmetrically() {
        for kind in CodecKind::ALL {
            assert_eq!(kind.to_string().parse::<CodecKind>(), Ok(kind));
        }
        assert_eq!(
            "delta_varint".parse::<CodecKind>(),
            Ok(CodecKind::DeltaVarint)
        );
        assert!("zstd".parse::<CodecKind>().is_err());
        assert_eq!(CodecKind::default(), CodecKind::None);
    }

    #[test]
    fn rle_collapses_runs_and_rejects_malformed_input() {
        let mut coded = Vec::new();
        Rle.encode_bytes(&[0u8; 600], &mut coded).expect("encodes");
        assert_eq!(coded, vec![255, 0, 255, 0, 90, 0]);
        let mut out = Vec::new();
        assert!(Rle.decode_bytes(&[1], &mut out).is_err(), "odd length");
        assert!(Rle.decode_bytes(&[0, 7], &mut out).is_err(), "zero run");
    }

    #[test]
    fn delta_varint_shrinks_sorted_index_streams() {
        // A sorted u32 index stream (deltas of 1) codes to ~1 byte per
        // 4-byte word plus the header.
        let src: Vec<u8> = (100..400u32).flat_map(|i| i.to_le_bytes()).collect();
        let coded = roundtrip(&DeltaVarint, &src);
        assert!(
            coded.len() < src.len() / 3,
            "{} vs {}",
            coded.len(),
            src.len()
        );
    }

    #[test]
    fn delta_varint_rejects_malformed_input() {
        let mut out = Vec::new();
        assert!(DeltaVarint.decode_bytes(&[], &mut out).is_err());
        assert!(
            DeltaVarint.decode_bytes(&[9], &mut out).is_err(),
            "bad tail"
        );
        assert!(
            DeltaVarint.decode_bytes(&[0, 0x80], &mut out).is_err(),
            "truncated varint"
        );
        assert!(
            DeltaVarint
                .decode_bytes(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut out)
                .is_err(),
            "varint overflow"
        );
    }

    #[test]
    fn huffman_beats_raw_on_skewed_streams_and_rejects_malformed_input() {
        let mut src = vec![0u8; 4000];
        src.extend_from_slice(&[1u8; 100]);
        let coded = roundtrip(&Huffman, &src);
        assert!(coded.len() < src.len() / 2, "{}", coded.len());
        let mut out = Vec::new();
        assert!(Huffman.decode_bytes(&[0; 10], &mut out).is_err(), "short");
        // Valid header claiming 4 symbols but an empty code table.
        let mut bad = vec![4, 0, 0, 0];
        bad.extend_from_slice(&[0u8; 256]);
        assert!(Huffman.decode_bytes(&bad, &mut out).is_err());
        // Claiming more symbols than the bitstream holds.
        let mut coded = Vec::new();
        Huffman.encode_bytes(b"aab", &mut coded).expect("encodes");
        coded[0] = 200;
        assert!(Huffman.decode_bytes(&coded, &mut out).is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn huffman_rejects_streams_longer_than_the_u32_length_header() {
        // 4 GiB + 1 of untouched zero pages: the guard must fire before the
        // histogram pass ever reads the data, so this stays cheap.
        let src = vec![0u8; u32::MAX as usize + 1];
        let mut out = vec![0xAA];
        let e = Huffman.encode_bytes(&src, &mut out).unwrap_err();
        assert_eq!(e.codec, CodecKind::Huffman);
        assert!(e.detail.contains("u32"), "{}", e.detail);
        assert!(out.is_empty(), "no truncated stream may ship");
    }

    #[test]
    fn huffman_round_trips_codes_deeper_than_the_primary_table() {
        // Fibonacci-scale frequencies force code depths past PRIMARY_BITS,
        // exercising the table-miss slow path on well-formed input.
        let (mut a, mut b) = (1u64, 1u64);
        let mut src = Vec::new();
        for sym in 0..20u8 {
            src.extend(std::iter::repeat_n(sym, a as usize));
            (a, b) = (b, a + b);
        }
        let coded = roundtrip(&Huffman, &src);
        let lengths = &coded[4..260];
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        assert!(max_len > PRIMARY_BITS, "max code length {max_len}");
    }

    /// The list-based merge the parent-pointer `code_lengths` replaced,
    /// kept verbatim as the reference for its exact tie-breaking.
    fn reference_code_lengths(counts: &[u64; 256]) -> [u8; 256] {
        let mut lengths = [0u8; 256];
        let mut nodes: Vec<(u64, u8, Vec<u8>)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (c, s as u8, vec![s as u8]))
            .collect();
        if nodes.len() == 1 {
            lengths[nodes[0].1 as usize] = 1;
            return lengths;
        }
        while nodes.len() > 1 {
            nodes.sort_by_key(|&(freq, min_sym, _)| (freq, min_sym));
            let (fa, _, ma) = nodes.remove(0);
            let (fb, mb_sym, mut mb) = nodes.remove(0);
            for &s in ma.iter().chain(mb.iter()) {
                lengths[s as usize] += 1;
            }
            let min_sym = ma[0].min(mb_sym);
            let mut members = ma;
            members.append(&mut mb);
            nodes.push((fa + fb, min_sym, members));
        }
        lengths
    }

    #[test]
    fn parent_pointer_merge_matches_the_list_based_merge() {
        // Deterministic LCG over a tiny frequency range so equal-frequency
        // ties (the delicate part of the merge order) are everywhere.
        let mut state = 0x2545F4914F6CDD1Du64;
        for case in 0..200 {
            let mut counts = [0u64; 256];
            let symbols = 1 + (case * 7) % 256;
            for c in counts.iter_mut().take(symbols) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = (state >> 33) % 5; // zeros included: sparse alphabets
            }
            counts[0] = counts[0].max(1); // at least one symbol
            assert_eq!(
                code_lengths(&counts),
                reference_code_lengths(&counts),
                "case {case}"
            );
        }
    }

    /// `Σ count × code length` over the code `code_lengths` builds.
    fn weighted_code_bits(counts: &[u64; 256]) -> u64 {
        let lengths = code_lengths(counts);
        counts
            .iter()
            .zip(lengths)
            .map(|(&c, l)| c * u64::from(l))
            .sum()
    }

    #[test]
    fn closed_form_bits_equal_the_weighted_code_lengths() {
        // Random histograms: sparse and dense alphabets, tiny counts full of
        // ties and wide ones up to ~1M per symbol.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..500u64 {
            let mut counts = [0u64; 256];
            let symbols = 1 + (case as usize * 13) % 256;
            let range = [3, 17, 1000, 1 << 20][case as usize % 4];
            for c in counts.iter_mut().take(symbols) {
                *c = next() % range;
            }
            assert_eq!(
                coded_bits(&counts),
                weighted_code_bits(&counts),
                "case {case}"
            );
        }
        // Edge histograms: empty, one symbol (a 1-bit code), two symbols.
        let mut counts = [0u64; 256];
        assert_eq!(coded_bits(&counts), 0);
        counts[200] = 77;
        assert_eq!(coded_bits(&counts), 77);
        assert_eq!(coded_bits(&counts), weighted_code_bits(&counts));
        counts[3] = 5;
        assert_eq!(coded_bits(&counts), 82);
        // Fibonacci counts: codes deeper than the primary decode table.
        let mut counts = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut().take(40) {
            *c = a;
            (a, b) = (b, a + b);
        }
        assert!(code_lengths(&counts)
            .iter()
            .any(|&l| l as usize > PRIMARY_BITS));
        assert_eq!(coded_bits(&counts), weighted_code_bits(&counts));
    }

    #[test]
    fn huffman_transfer_len_matches_the_encoder_at_the_store_raw_bound() {
        // n <= 298 never shrinks (260 + ⌈n/8⌉ >= n); from 299 on a
        // one-symbol stream does.
        for n in [0usize, 1, 8, 290, 297, 298, 299, 300, 310] {
            for src in [vec![0u8; n], (0..n).map(|i| (i * 7) as u8).collect()] {
                let mut coded = Vec::new();
                Huffman.encode_bytes(&src, &mut coded).expect("encodes");
                let expect = n.min(coded.len()) as u64;
                assert_eq!(
                    Huffman.transfer_len(&src, &mut Vec::new()),
                    expect,
                    "n = {n}"
                );
            }
        }
        assert_eq!(Huffman.transfer_len(&[0u8; 298], &mut Vec::new()), 298);
        assert_eq!(Huffman.transfer_len(&[0u8; 299], &mut Vec::new()), 298);
    }

    #[test]
    fn cost_models_are_ordered_by_decoder_complexity() {
        let rle = Rle.cost_model();
        let dv = DeltaVarint.cost_model();
        let huff = Huffman.cost_model();
        assert_eq!(rle.stream_cycles(100), 100);
        assert_eq!(dv.stream_cycles(100), 100);
        assert_eq!(huff.stream_cycles(100), 64 + 200);
        assert!(huff.cycles_per_byte > rle.cycles_per_byte);
    }
}
