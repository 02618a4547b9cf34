//! The `SUITTRC2` chunked container: pack, index, seek, stream.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "SUITTRC2"                                  8 bytes
//!          name varint len + UTF-8 bytes (≤ 4096)
//!          ipc f64 bits                                      8 bytes
//!          total varint (virtual instructions)
//!          chunk_bursts varint (bursts per full chunk)
//! chunks   chunk_count × LZSS(varint burst records), back to back
//! index    chunk_count × 32-byte record:
//!          { offset u64, comp_len u32, raw_len u32,
//!            bursts u32, crc32 u32, first_vtime u64 }
//! trailer  index_offset u64, index_crc32 u32,
//!          chunk_count u32, tail magic "2CRTTIUS"            24 bytes
//! ```
//!
//! Each chunk is independently compressed, so decoding one chunk costs
//! O(chunk) memory regardless of trace size, and the fixed-size index
//! footer supports O(log n) seeks by virtual time (`first_vtime` is the
//! cumulative instruction count at the chunk's first burst). The CRC
//! covers the *raw* (decompressed) chunk bytes: a checksum match proves
//! the whole decompression path, not just the stored bytes.
//!
//! Every length field read from a container is validated against the
//! physically available bytes before any allocation — a hostile header
//! can make the reader return `Corrupt`, never balloon memory.

use std::collections::VecDeque;
use std::io::{self, Read, Seek, SeekFrom, Write};

use suit_isa::Opcode;
use suit_trace::io::TraceMeta;
use suit_trace::Burst;

use crate::crc::crc32;
use crate::lz;

const MAGIC: &[u8; 8] = b"SUITTRC2";
/// Tail magic (the header magic reversed) closing the trailer.
const TAIL_MAGIC: &[u8; 8] = b"2CRTTIUS";
const INDEX_RECORD_BYTES: u64 = 32;
const TRAILER_BYTES: u64 = 24;
/// Shortest possible container: magic + empty name + ipc + two varints
/// + trailer.
const MIN_FILE_BYTES: u64 = 8 + 1 + 8 + 1 + 1 + TRAILER_BYTES;
const MAX_NAME_BYTES: usize = 4096;
/// A serialized burst is 3 varints (≥ 1 byte each) + 1 opcode byte.
const MIN_BURST_BYTES: u64 = 4;
/// …and at most 3 maximal varints + 1 opcode byte.
const MAX_BURST_BYTES: u64 = 31;

/// Default bursts per chunk: ~16–48 KiB raw per chunk for typical traces.
pub const DEFAULT_CHUNK_BURSTS: usize = 4096;
/// Upper bound on bursts per chunk, capping per-chunk decode memory.
pub const MAX_CHUNK_BURSTS: usize = 1 << 20;

/// Container failures: I/O, foreign bytes, or structural corruption.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not carry the `SUITTRC2` magic.
    BadMagic,
    /// A structural invariant does not hold (truncation, checksum
    /// mismatch, over-declared length, invalid burst, …).
    Corrupt(&'static str),
    /// Invalid arguments to a pack call (caller bug, not data corruption).
    Invalid(&'static str),
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "container I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a SUITTRC2 container (bad magic)"),
            StoreError::Corrupt(what) => write!(f, "corrupt container: {what}"),
            StoreError::Invalid(what) => write!(f, "invalid pack request: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

// ---------------------------------------------------------------- varints

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads a varint from a slice, returning the value and bytes consumed.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    for shift in (0..70).step_by(7) {
        let b = *buf
            .get(*pos)
            .ok_or(StoreError::Corrupt("varint truncated"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(StoreError::Corrupt("varint overflow"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::Corrupt("varint too long"))
}

// ---------------------------------------------------------------- packing

/// What a pack produced — the numbers `trace info` and the bench report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Bursts written.
    pub bursts: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Raw (uncompressed) burst-record bytes across all chunks.
    pub raw_bytes: u64,
    /// Total container size including header, index and trailer.
    pub packed_bytes: u64,
}

fn encode_burst(buf: &mut Vec<u8>, b: &Burst) {
    put_varint(buf, b.gap_insts);
    put_varint(buf, u64::from(b.events));
    put_varint(buf, u64::from(b.within_gap_insts));
    buf.push(b.opcode.index() as u8);
}

/// Packs `bursts` into a `SUITTRC2` container on `w`, `chunk_bursts`
/// bursts per chunk (the last chunk may be short).
///
/// Packing is streaming: memory stays O(chunk) however long the input
/// iterator runs, and `w` only needs `Write` — offsets are tracked, not
/// sought. The output is a pure function of `(meta, bursts, chunk_bursts)`.
/// A burst whose span, or whose end in virtual time, does not fit in u64
/// is refused with `Invalid`.
pub fn pack<W: Write, I: IntoIterator<Item = Burst>>(
    w: &mut W,
    meta: &TraceMeta,
    bursts: I,
    chunk_bursts: usize,
) -> Result<PackStats, StoreError> {
    if chunk_bursts == 0 || chunk_bursts > MAX_CHUNK_BURSTS {
        return Err(StoreError::Invalid("chunk_bursts out of range"));
    }
    if meta.name.len() > MAX_NAME_BYTES {
        return Err(StoreError::Invalid("name too long"));
    }
    if !meta.ipc.is_finite() || meta.ipc <= 0.0 {
        return Err(StoreError::Invalid("non-positive IPC"));
    }

    let mut pos = write_header(w, meta, chunk_bursts as u64)?;
    let mut index: Vec<ChunkRecord> = Vec::new();
    let mut raw = Vec::new();
    let mut in_chunk: u32 = 0;
    let mut vtime: u64 = 0;
    let mut chunk_vtime: u64 = 0; // first_vtime of the chunk being filled
    for b in bursts {
        if in_chunk == 0 {
            chunk_vtime = vtime;
        }
        vtime = b
            .checked_end(vtime)
            .ok_or(StoreError::Invalid("virtual time overflows u64"))?;
        encode_burst(&mut raw, &b);
        in_chunk += 1;
        if in_chunk as usize == chunk_bursts {
            index.push(write_chunk(w, &raw, in_chunk, &mut pos, chunk_vtime)?);
            raw.clear();
            in_chunk = 0;
        }
    }
    if in_chunk > 0 {
        index.push(write_chunk(w, &raw, in_chunk, &mut pos, chunk_vtime)?);
    }
    Ok(PackStats {
        bursts: index.iter().map(|r| u64::from(r.bursts)).sum(),
        chunks: index.len() as u64,
        raw_bytes: index.iter().map(|r| u64::from(r.raw_len)).sum(),
        packed_bytes: pos + write_index(w, &index, pos)?,
    })
}

/// Writes the container header; returns its length in bytes.
fn write_header<W: Write>(w: &mut W, meta: &TraceMeta, chunk_bursts: u64) -> io::Result<u64> {
    let mut head = MAGIC.to_vec();
    put_varint(&mut head, meta.name.len() as u64);
    head.extend_from_slice(meta.name.as_bytes());
    head.extend_from_slice(&meta.ipc.to_bits().to_le_bytes());
    put_varint(&mut head, meta.total_insts);
    put_varint(&mut head, chunk_bursts);
    w.write_all(&head)?;
    Ok(head.len() as u64)
}

/// Compresses and writes one chunk of `bursts` encoded burst records at
/// byte offset `*pos`, advancing it; returns the chunk's index record.
fn write_chunk<W: Write>(
    w: &mut W,
    raw: &[u8],
    bursts: u32,
    pos: &mut u64,
    first_vtime: u64,
) -> io::Result<ChunkRecord> {
    let packed = lz::compress(raw);
    let rec = ChunkRecord {
        offset: *pos,
        comp_len: packed.len() as u32,
        raw_len: raw.len() as u32,
        bursts,
        crc32: crc32(raw),
        first_vtime,
    };
    w.write_all(&packed)?;
    *pos += packed.len() as u64;
    Ok(rec)
}

/// Writes the index footer and trailer for an index starting at byte
/// `index_offset`; returns their combined length in bytes.
fn write_index<W: Write>(w: &mut W, index: &[ChunkRecord], index_offset: u64) -> io::Result<u64> {
    let mut index_bytes = Vec::with_capacity(index.len() * INDEX_RECORD_BYTES as usize);
    for rec in index {
        rec.encode(&mut index_bytes);
    }
    w.write_all(&index_bytes)?;
    w.write_all(&index_offset.to_le_bytes())?;
    w.write_all(&crc32(&index_bytes).to_le_bytes())?;
    w.write_all(&(index.len() as u32).to_le_bytes())?;
    w.write_all(TAIL_MAGIC)?;
    Ok(index_bytes.len() as u64 + TRAILER_BYTES)
}

/// [`pack`] into a fresh byte vector.
pub fn pack_to_vec<I: IntoIterator<Item = Burst>>(
    meta: &TraceMeta,
    bursts: I,
    chunk_bursts: usize,
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    pack(&mut out, meta, bursts, chunk_bursts)?;
    Ok(out)
}

// ----------------------------------------------------------------- index

/// One chunk's entry in the index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Byte offset of the chunk's compressed payload from container start.
    pub offset: u64,
    /// Compressed payload length.
    pub comp_len: u32,
    /// Decompressed length.
    pub raw_len: u32,
    /// Bursts in the chunk.
    pub bursts: u32,
    /// CRC-32 of the decompressed chunk bytes.
    pub crc32: u32,
    /// Cumulative virtual instructions before the chunk's first burst.
    pub first_vtime: u64,
}

impl ChunkRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.comp_len.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&self.bursts.to_le_bytes());
        out.extend_from_slice(&self.crc32.to_le_bytes());
        out.extend_from_slice(&self.first_vtime.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        ChunkRecord {
            offset: u64_at(0),
            comp_len: u32_at(8),
            raw_len: u32_at(12),
            bursts: u32_at(16),
            crc32: u32_at(20),
            first_vtime: u64_at(24),
        }
    }
}

/// Summary of an opened container (the `trace info` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerInfo {
    /// Trace metadata from the header.
    pub meta: TraceMeta,
    /// Chunk count.
    pub chunks: u64,
    /// Total bursts across all chunks.
    pub bursts: u64,
    /// Bursts per full chunk.
    pub chunk_bursts: u64,
    /// Raw (decompressed) burst-record bytes.
    pub raw_bytes: u64,
    /// Total container size in bytes.
    pub packed_bytes: u64,
}

// --------------------------------------------------------------- reading

/// A bounded-memory, seekable reader over a `SUITTRC2` container.
///
/// Opening validates the trailer, the index checksum, and every index
/// record against the physical file size; bursts then stream through a
/// window of at most `window_chunks` decoded chunks, so peak memory is
/// O(window × chunk), never O(trace). [`Self::peak_resident_bursts`]
/// reports the high-water mark so tests can pin the bound.
pub struct StreamingReader<R: Read + Seek> {
    src: R,
    meta: TraceMeta,
    chunk_bursts: u64,
    index: Vec<ChunkRecord>,
    packed_bytes: u64,
    /// Decoded chunks, least-recently-used first.
    window: VecDeque<(usize, Vec<Burst>)>,
    window_chunks: usize,
    /// Cursor: next burst is `index[cur_chunk]`'s burst `cur_burst`
    /// (`cur_chunk == index.len()` ⇒ end of trace).
    cur_chunk: usize,
    cur_burst: usize,
    peak_resident: usize,
    decodes: u64,
}

impl<R: Read + Seek> StreamingReader<R> {
    /// Opens and validates a container with the default 2-chunk window.
    pub fn open(src: R) -> Result<Self, StoreError> {
        Self::with_window(src, 2)
    }

    /// Opens and validates a container holding at most `window_chunks`
    /// decoded chunks resident (minimum 1).
    pub fn with_window(mut src: R, window_chunks: usize) -> Result<Self, StoreError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        if file_len < MIN_FILE_BYTES {
            // Too short even for an empty container — check the magic so
            // foreign files still report `BadMagic` over `Corrupt`.
            src.seek(SeekFrom::Start(0))?;
            let mut magic = [0u8; 8];
            if src.read_exact(&mut magic).is_err() || &magic != MAGIC {
                return Err(StoreError::BadMagic);
            }
            return Err(StoreError::Corrupt("container shorter than trailer"));
        }

        // Trailer.
        src.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        src.read_exact(&mut trailer)?;
        if &trailer[16..24] != TAIL_MAGIC {
            // Distinguish "not ours at all" from "ours but damaged".
            src.seek(SeekFrom::Start(0))?;
            let mut magic = [0u8; 8];
            src.read_exact(&mut magic)?;
            if &magic != MAGIC {
                return Err(StoreError::BadMagic);
            }
            return Err(StoreError::Corrupt("bad trailer magic"));
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let index_crc = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
        let chunk_count = u32::from_le_bytes(trailer[12..16].try_into().unwrap());
        // The index must sit exactly between the chunks and the trailer:
        // this single equation bounds the index allocation by the
        // physical file size before any `Vec` is sized from it.
        let index_bytes_len = u64::from(chunk_count)
            .checked_mul(INDEX_RECORD_BYTES)
            .ok_or(StoreError::Corrupt("index size overflows"))?;
        if index_offset
            .checked_add(index_bytes_len)
            .and_then(|v| v.checked_add(TRAILER_BYTES))
            != Some(file_len)
        {
            return Err(StoreError::Corrupt("index does not fit the file"));
        }

        // Index.
        src.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; index_bytes_len as usize];
        src.read_exact(&mut index_bytes)?;
        if crc32(&index_bytes) != index_crc {
            return Err(StoreError::Corrupt("index checksum mismatch"));
        }

        // Header.
        src.seek(SeekFrom::Start(0))?;
        let head_budget = index_offset.min(8 + 1 + MAX_NAME_BYTES as u64 + 8 + 10 + 10);
        let mut head = vec![0u8; head_budget as usize];
        src.read_exact(&mut head)?;
        if head.len() < 8 || head[..8] != MAGIC[..] {
            return Err(StoreError::BadMagic);
        }
        let mut pos = 8usize;
        let name_len = read_varint(&head, &mut pos)? as usize;
        if name_len > MAX_NAME_BYTES {
            return Err(StoreError::Corrupt("name too long"));
        }
        let name_bytes = head
            .get(pos..pos + name_len)
            .ok_or(StoreError::Corrupt("name truncated"))?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("name not UTF-8"))?;
        pos += name_len;
        let ipc_bytes = head
            .get(pos..pos + 8)
            .ok_or(StoreError::Corrupt("header truncated"))?;
        let ipc = f64::from_bits(u64::from_le_bytes(ipc_bytes.try_into().unwrap()));
        if !ipc.is_finite() || ipc <= 0.0 {
            return Err(StoreError::Corrupt("non-positive IPC"));
        }
        pos += 8;
        let total_insts = read_varint(&head, &mut pos)?;
        let chunk_bursts = read_varint(&head, &mut pos)?;
        if chunk_bursts == 0 || chunk_bursts > MAX_CHUNK_BURSTS as u64 {
            return Err(StoreError::Corrupt("chunk_bursts out of range"));
        }
        let header_len = pos as u64;

        // Validate every index record against the physical layout before
        // trusting any of its lengths.
        let mut index = Vec::with_capacity(chunk_count as usize);
        let mut expect_offset = header_len;
        let mut prev_vtime: Option<u64> = None;
        for i in 0..chunk_count as usize {
            let rec = ChunkRecord::decode(&index_bytes[i * 32..(i + 1) * 32]);
            if rec.offset != expect_offset {
                return Err(StoreError::Corrupt("chunks are not contiguous"));
            }
            if rec.bursts == 0 {
                return Err(StoreError::Corrupt("empty chunk"));
            }
            if u64::from(rec.bursts) > chunk_bursts {
                return Err(StoreError::Corrupt("chunk over-declares bursts"));
            }
            // Every burst costs ≥ 4 raw bytes — a declared count larger
            // than the raw bytes could hold is hostile.
            if u64::from(rec.raw_len) < u64::from(rec.bursts) * MIN_BURST_BYTES
                || u64::from(rec.raw_len) > u64::from(rec.bursts) * MAX_BURST_BYTES
            {
                return Err(StoreError::Corrupt("raw length inconsistent with bursts"));
            }
            if u64::from(rec.comp_len) > lz::max_compressed_len(rec.raw_len as usize) as u64 {
                return Err(StoreError::Corrupt("compressed length over-declared"));
            }
            match prev_vtime {
                None if rec.first_vtime != 0 => {
                    return Err(StoreError::Corrupt("first chunk must start at vtime 0"))
                }
                Some(prev) if rec.first_vtime <= prev => {
                    return Err(StoreError::Corrupt("chunk vtimes must increase"))
                }
                _ => {}
            }
            prev_vtime = Some(rec.first_vtime);
            expect_offset += u64::from(rec.comp_len);
            index.push(rec);
        }
        if expect_offset != index_offset {
            return Err(StoreError::Corrupt("chunk region does not reach the index"));
        }

        Ok(StreamingReader {
            src,
            meta: TraceMeta {
                name,
                ipc,
                total_insts,
            },
            chunk_bursts,
            index,
            packed_bytes: file_len,
            window: VecDeque::new(),
            window_chunks: window_chunks.max(1),
            cur_chunk: 0,
            cur_burst: 0,
            peak_resident: 0,
            decodes: 0,
        })
    }

    /// The trace metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Container summary (chunk/burst counts, sizes).
    pub fn info(&self) -> ContainerInfo {
        ContainerInfo {
            meta: self.meta.clone(),
            chunks: self.index.len() as u64,
            bursts: self.index.iter().map(|r| u64::from(r.bursts)).sum(),
            chunk_bursts: self.chunk_bursts,
            raw_bytes: self.index.iter().map(|r| u64::from(r.raw_len)).sum(),
            packed_bytes: self.packed_bytes,
        }
    }

    /// The validated per-chunk index.
    pub fn index(&self) -> &[ChunkRecord] {
        &self.index
    }

    /// High-water mark of decoded bursts resident in the window — the
    /// memory bound the container exists to enforce.
    pub fn peak_resident_bursts(&self) -> usize {
        self.peak_resident
    }

    /// Chunk decompressions performed so far (sequential replay decodes
    /// each chunk exactly once).
    pub fn chunk_decodes(&self) -> u64 {
        self.decodes
    }

    /// Decodes chunk `ci` into the window (evicting LRU entries first so
    /// residency never exceeds `window_chunks`) and returns its bursts.
    fn chunk(&mut self, ci: usize) -> Result<&[Burst], StoreError> {
        if let Some(hit) = self.window.iter().position(|(i, _)| *i == ci) {
            // Move to the back: most recently used.
            let entry = self.window.remove(hit).expect("position just found");
            self.window.push_back(entry);
            return Ok(&self.window.back().expect("just pushed").1);
        }
        while self.window.len() >= self.window_chunks {
            self.window.pop_front();
        }
        let rec = self.index[ci];
        self.src.seek(SeekFrom::Start(rec.offset))?;
        let mut packed = vec![0u8; rec.comp_len as usize];
        self.src.read_exact(&mut packed)?;
        let raw = lz::decompress(&packed, rec.raw_len as usize).map_err(StoreError::Corrupt)?;
        if crc32(&raw) != rec.crc32 {
            return Err(StoreError::Corrupt("chunk checksum mismatch"));
        }
        let next_vtime = self.index.get(ci + 1).map(|r| r.first_vtime);
        let bursts = decode_chunk(&raw, &rec, next_vtime)?;
        self.decodes += 1;
        self.window.push_back((ci, bursts));
        let resident: usize = self.window.iter().map(|(_, b)| b.len()).sum();
        self.peak_resident = self.peak_resident.max(resident);
        Ok(&self.window.back().expect("just pushed").1)
    }

    /// Yields the next burst, or `None` at end of trace.
    pub fn next_burst(&mut self) -> Result<Option<Burst>, StoreError> {
        loop {
            if self.cur_chunk >= self.index.len() {
                return Ok(None);
            }
            if self.cur_burst >= self.index[self.cur_chunk].bursts as usize {
                self.cur_chunk += 1;
                self.cur_burst = 0;
                continue;
            }
            let at = self.cur_burst;
            let b = self.chunk(self.cur_chunk)?[at];
            self.cur_burst += 1;
            return Ok(Some(b));
        }
    }

    /// Positions the cursor on the burst covering virtual instruction
    /// `target` — the same burst a skip-from-start would stop at — via a
    /// binary search of the index, decoding at most one chunk. Returns
    /// the start vtime of the burst now at the cursor (the cumulative
    /// `total_insts` of everything before it); for a `target` at or past
    /// the end of the trace the cursor lands on end-of-trace and the
    /// trace's total burst time is returned.
    pub fn seek_to_vtime(&mut self, target: u64) -> Result<u64, StoreError> {
        if self.index.is_empty() {
            self.cur_chunk = 0;
            self.cur_burst = 0;
            return Ok(0);
        }
        // Last chunk whose first burst starts at or before `target`.
        let mut ci = self.index.partition_point(|r| r.first_vtime <= target);
        ci = ci.saturating_sub(1);
        loop {
            let start = self.index[ci].first_vtime;
            let found = {
                let bursts = self.chunk(ci)?;
                let mut v = start;
                let mut hit = None;
                for (j, b) in bursts.iter().enumerate() {
                    // Cannot wrap: `decode_chunk` proved every running
                    // vtime of the chunk fits in u64.
                    let end = v + b.total_insts();
                    if end > target {
                        hit = Some((j, v));
                        break;
                    }
                    v = end;
                }
                hit.ok_or(v)
            };
            match found {
                Ok((j, v)) => {
                    self.cur_chunk = ci;
                    self.cur_burst = j;
                    return Ok(v);
                }
                Err(v) => {
                    ci += 1;
                    if ci >= self.index.len() {
                        // Past the last burst: park at end of trace.
                        self.cur_chunk = self.index.len();
                        self.cur_burst = 0;
                        return Ok(v);
                    }
                }
            }
        }
    }

    /// Converts into a plain `Iterator<Item = Burst>` for the engine's
    /// streaming entry points; a decode error ends the iteration and is
    /// retrievable from [`Bursts::error`] / [`Bursts::finish`].
    pub fn bursts(self) -> Bursts<R> {
        Bursts {
            reader: self,
            error: None,
        }
    }
}

/// Decodes one chunk's raw bytes into bursts, consuming the slice exactly.
///
/// The chunk's virtual time runs from `rec.first_vtime`: every burst's
/// span and every running vtime must fit in u64, and the chunk must end
/// exactly where the next chunk (`next_vtime`, if any) starts. Readers
/// can then add burst spans from any chunk start without overflow.
fn decode_chunk(
    raw: &[u8],
    rec: &ChunkRecord,
    next_vtime: Option<u64>,
) -> Result<Vec<Burst>, StoreError> {
    let mut bursts = Vec::with_capacity(rec.bursts as usize); // ≤ raw_len/4, validated
    let mut pos = 0usize;
    let mut vtime = rec.first_vtime;
    for _ in 0..rec.bursts {
        let gap = read_varint(raw, &mut pos)?;
        let events = read_varint(raw, &mut pos)?;
        let within = read_varint(raw, &mut pos)?;
        let op = *raw.get(pos).ok_or(StoreError::Corrupt("burst truncated"))?;
        pos += 1;
        let opcode = *Opcode::ALL
            .get(op as usize)
            .ok_or(StoreError::Corrupt("opcode index out of range"))?;
        if events == 0 || events > u64::from(u32::MAX) || within > u64::from(u32::MAX) {
            return Err(StoreError::Corrupt("invalid burst"));
        }
        if !opcode.is_faultable() {
            return Err(StoreError::Corrupt("non-faultable burst opcode"));
        }
        let b = Burst::new(gap, events as u32, within as u32, opcode);
        vtime = b
            .checked_end(vtime)
            .ok_or(StoreError::Corrupt("virtual time overflows u64"))?;
        bursts.push(b);
    }
    if pos != raw.len() {
        return Err(StoreError::Corrupt("trailing bytes in chunk"));
    }
    if next_vtime.is_some_and(|next| next != vtime) {
        return Err(StoreError::Corrupt(
            "chunk does not end where the next begins",
        ));
    }
    Ok(bursts)
}

/// Iterator adapter over a [`StreamingReader`].
pub struct Bursts<R: Read + Seek> {
    reader: StreamingReader<R>,
    error: Option<StoreError>,
}

impl<R: Read + Seek> Bursts<R> {
    /// The decode error that ended iteration early, if any.
    pub fn error(&self) -> Option<&StoreError> {
        self.error.as_ref()
    }

    /// Finishes the iteration: `Ok` if the stream ended cleanly, the
    /// decode error otherwise.
    pub fn finish(self) -> Result<StreamingReader<R>, StoreError> {
        match self.error {
            None => Ok(self.reader),
            Some(e) => Err(e),
        }
    }

    /// The underlying reader (for residency introspection mid-stream).
    pub fn reader(&self) -> &StreamingReader<R> {
        &self.reader
    }
}

impl<R: Read + Seek> Iterator for Bursts<R> {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        if self.error.is_some() {
            return None;
        }
        match self.reader.next_burst() {
            Ok(b) => b,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Opens a container over an in-memory byte slice.
pub fn open_bytes(bytes: &[u8]) -> Result<StreamingReader<io::Cursor<&[u8]>>, StoreError> {
    StreamingReader::open(io::Cursor::new(bytes))
}

/// Fully decodes a container: metadata plus every burst. Memory is
/// O(trace) — the load-everything path, not the streaming one.
pub fn read_all(bytes: &[u8]) -> Result<(TraceMeta, Vec<Burst>), StoreError> {
    let mut reader = open_bytes(bytes)?;
    let mut bursts = Vec::new();
    while let Some(b) = reader.next_burst()? {
        bursts.push(b);
    }
    Ok((reader.meta().clone(), bursts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_trace::profile;
    use suit_trace::TraceGen;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "502.gcc".into(),
            ipc: 1.2,
            total_insts: 1_000_000_000,
        }
    }

    fn sample(n: usize) -> Vec<Burst> {
        // One generator run is finite (it stops at the profile's virtual
        // length); chain seeds so any requested count is available.
        let p = profile::by_name("502.gcc").unwrap();
        (0u64..)
            .flat_map(|s| TraceGen::new(p, 42 + s).collect::<Vec<_>>())
            .take(n)
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bursts = sample(10_000);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 512).unwrap();
        let (m, back) = read_all(&bytes).unwrap();
        assert_eq!(m, meta());
        assert_eq!(back, bursts);
    }

    #[test]
    fn pack_is_deterministic_and_compresses() {
        let bursts = sample(20_000);
        let a = pack_to_vec(&meta(), bursts.iter().copied(), 1024).unwrap();
        let b = pack_to_vec(&meta(), bursts.iter().copied(), 1024).unwrap();
        assert_eq!(a, b);
        let raw = open_bytes(&a).unwrap().info().raw_bytes as usize;
        assert!(a.len() < raw, "packed {} bytes vs {raw} raw", a.len());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = pack_to_vec(&meta(), Vec::new(), 64).unwrap();
        let (m, back) = read_all(&bytes).unwrap();
        assert_eq!(m, meta());
        assert!(back.is_empty());
        let mut r = open_bytes(&bytes).unwrap();
        assert_eq!(r.seek_to_vtime(12345).unwrap(), 0);
        assert!(r.next_burst().unwrap().is_none());
    }

    #[test]
    fn window_bounds_resident_memory() {
        let bursts = sample(64 * 32);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 32).unwrap();
        let mut r = StreamingReader::with_window(io::Cursor::new(&bytes[..]), 2).unwrap();
        assert_eq!(r.info().chunks, 64);
        let mut n = 0;
        while let Some(b) = r.next_burst().unwrap() {
            assert_eq!(b, bursts[n]);
            n += 1;
        }
        assert_eq!(n, bursts.len());
        assert!(
            r.peak_resident_bursts() <= 2 * 32,
            "peak {} bursts",
            r.peak_resident_bursts()
        );
        // Sequential replay decodes each chunk exactly once.
        assert_eq!(r.chunk_decodes(), 64);
    }

    #[test]
    fn seek_matches_skip_from_start() {
        let bursts = sample(3_000);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 64).unwrap();
        let total: u64 = bursts.iter().map(|b| b.total_insts()).sum();
        // Start vtime of each burst, by definition of skip-from-start.
        let mut starts = Vec::with_capacity(bursts.len());
        let mut v = 0u64;
        for b in &bursts {
            starts.push(v);
            v += b.total_insts();
        }
        for target in [
            0u64,
            1,
            starts[1],
            starts[1] - 1,
            starts[1500],
            starts[1500] + 1,
            starts[2999],
            total - 1,
        ] {
            // Reference: linear scan for the burst covering `target`.
            let want = starts.partition_point(|&s| s <= target) - 1;
            let mut r = open_bytes(&bytes).unwrap();
            let v0 = r.seek_to_vtime(target).unwrap();
            assert_eq!(v0, starts[want], "target {target}");
            assert_eq!(
                r.next_burst().unwrap(),
                Some(bursts[want]),
                "target {target}"
            );
            // The remainder of the stream matches too.
            for b in &bursts[want + 1..want + 1 + 5.min(bursts.len() - want - 1)] {
                assert_eq!(r.next_burst().unwrap(), Some(*b));
            }
        }
        // Seeking at or past the end parks at end-of-trace.
        let mut r = open_bytes(&bytes).unwrap();
        assert_eq!(r.seek_to_vtime(total).unwrap(), total);
        assert!(r.next_burst().unwrap().is_none());
    }

    #[test]
    fn seek_then_rewind_still_works() {
        let bursts = sample(500);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 32).unwrap();
        let mut r = open_bytes(&bytes).unwrap();
        r.seek_to_vtime(u64::MAX).unwrap();
        assert_eq!(r.seek_to_vtime(0).unwrap(), 0);
        assert_eq!(r.next_burst().unwrap(), Some(bursts[0]));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let bytes = pack_to_vec(&meta(), sample(100), 16).unwrap();
        let mut broken = bytes.clone();
        broken[0] = b'X';
        assert!(matches!(open_bytes(&broken), Err(StoreError::BadMagic)));
        for cut in [0, 7, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(open_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_chunk_corruption_via_crc() {
        let bytes = pack_to_vec(&meta(), sample(1_000), 64).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let first = r.index()[0];
        let mut broken = bytes.clone();
        broken[first.offset as usize] ^= 0x40;
        let mut r = open_bytes(&broken).unwrap(); // index still validates
        let err = loop {
            match r.next_burst() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt chunk must not decode cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_over_declared_counts_without_allocating() {
        // A hostile trailer claiming 2^31 chunks in a tiny file must be
        // rejected by the size equation before any allocation.
        let bytes = pack_to_vec(&meta(), sample(10), 4).unwrap();
        let mut broken = bytes.clone();
        let cc_at = bytes.len() - 12; // chunk_count field in the trailer
        broken[cc_at..cc_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(open_bytes(&broken), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn rejects_index_bit_flips() {
        let bytes = pack_to_vec(&meta(), sample(200), 16).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let index_start = bytes.len() - 24 - r.index().len() * 32;
        drop(r);
        for at in (index_start..bytes.len() - 24).step_by(5) {
            let mut broken = bytes.clone();
            broken[at] ^= 0x01;
            assert!(
                open_bytes(&broken).is_err(),
                "index flip at {at} must be caught by the index CRC"
            );
        }
    }

    #[test]
    fn pack_rejects_bad_arguments() {
        assert!(matches!(
            pack_to_vec(&meta(), Vec::new(), 0),
            Err(StoreError::Invalid(_))
        ));
        let mut m = meta();
        m.ipc = f64::NAN;
        assert!(matches!(
            pack_to_vec(&m, Vec::new(), 64),
            Err(StoreError::Invalid(_))
        ));
        let mut m = meta();
        m.name = "x".repeat(5000);
        assert!(matches!(
            pack_to_vec(&m, Vec::new(), 64),
            Err(StoreError::Invalid(_))
        ));
    }

    /// Assembles a container from explicit `(bursts, first_vtime)` chunks,
    /// bypassing `pack`'s checks, so decode-side validation can be tested
    /// on containers `pack` refuses to write.
    fn assemble(chunks: &[(&[Burst], u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut pos = write_header(&mut out, &meta(), 64).unwrap();
        let mut index = Vec::new();
        for (bursts, first_vtime) in chunks {
            let mut raw = Vec::new();
            for b in *bursts {
                encode_burst(&mut raw, b);
            }
            let n = bursts.len() as u32;
            index.push(write_chunk(&mut out, &raw, n, &mut pos, *first_vtime).unwrap());
        }
        write_index(&mut out, &index, pos).unwrap();
        out
    }

    #[test]
    fn virtual_time_overflow_is_refused_by_pack_and_decode() {
        let corrupt = |bytes: &[u8]| matches!(read_all(bytes), Err(StoreError::Corrupt(_)));
        let small = Burst::new(10, 1, 0, Opcode::Aesenc);
        let huge = Burst::new(u64::MAX - 5, 3, 10, Opcode::Aesenc);
        // A single burst whose span wraps, and one whose end does.
        for bursts in [
            vec![Burst::new(u64::MAX, 1, 0, Opcode::Aesenc)],
            vec![small, huge],
        ] {
            assert!(matches!(
                pack_to_vec(&meta(), bursts.iter().copied(), 64),
                Err(StoreError::Invalid(_))
            ));
        }

        // The same shape written past pack's guard: decoding and seeking
        // report corruption instead of wrapping.
        let bytes = assemble(&[(&[small, huge, small], 0)]);
        assert!(corrupt(&bytes));
        let mut r = open_bytes(&bytes).unwrap();
        assert!(matches!(r.seek_to_vtime(100), Err(StoreError::Corrupt(_))));

        // Every span fits but the running vtime wraps.
        let half = Burst::new(u64::MAX / 2, 1, 0, Opcode::Aesenc);
        assert!(corrupt(&assemble(&[(&[half, half, half], 0)])));

        // Each chunk fits on its own, but the index restarts the second
        // chunk's vtime so the trace-wide sum would wrap.
        let quarter = Burst::new(u64::MAX / 4, 1, 0, Opcode::Aesenc);
        let q3: &[Burst] = &[quarter, quarter, quarter];
        assert!(corrupt(&assemble(&[(q3, 0), (q3, 1)])));

        // The assembler itself writes what pack writes.
        let ok = [small, half, small];
        assert_eq!(assemble(&[(&ok, 0)]), pack_to_vec(&meta(), ok, 64).unwrap());
    }

    #[test]
    fn bursts_iterator_reports_errors() {
        let bytes = pack_to_vec(&meta(), sample(1_000), 64).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let last = *r.index().last().unwrap();
        let mut broken = bytes.clone();
        broken[(last.offset + u64::from(last.comp_len) - 1) as usize] ^= 0x10;
        let mut it = open_bytes(&broken).unwrap().bursts();
        let n = it.by_ref().count();
        assert!(n < 1_000, "corruption must cut the stream short");
        assert!(it.error().is_some());
        assert!(it.finish().is_err());
    }
}
