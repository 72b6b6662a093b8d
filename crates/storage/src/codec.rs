//! Section payload codecs for the checkpoint segments: raw index
//! arrays ([`IndexParts`]) and the index-options fingerprint a segment
//! was built under. All built
//! on the shared `gql_core::storage` primitives (LEB128 varints, tagged
//! values), so the whole GQL1 file family speaks one wire format.
//!
//! The index-parts codec stores its big arrays (CSR offsets and
//! entries, label-id tables, flattened profiles) as *raw little-endian
//! fixed-width runs*: a varint count, zero padding to the next 8-byte
//! boundary relative to the section start, then the elements verbatim.
//! Sections start on 4096-byte boundaries, so every run is 8-aligned in
//! the file and a memory-mapped reader can adopt it as a typed
//! [`Slab`] without copying or decoding ([`decode_index_parts_from`]).
//! When adoption is impossible — big-endian target, or a byte buffer
//! whose base address happens to be misaligned — the same layout
//! decodes element-wise into owned slabs with identical results.
//! Value-carrying payloads (interner tables, options) keep the compact
//! varint/tagged encoding: they are small, and they decode into heap
//! structures anyway.

use crate::segment::SectionSink;
use crate::Result;
use gql_core::storage::{get_value, get_varint, put_value, put_varint, ByteSink, StorageError};
use gql_core::{pod_bytes, AdjacencyParts, ByteBuffer, CsrEntry, CsrParts, Slab, Value};
use gql_match::IndexParts;
use std::sync::Arc;

/// The index configuration a checkpoint's derived sections were built
/// under. Stored in the segment's meta section so a reopen under
/// different flags knows to rebuild instead of adopting stale shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredOptions {
    /// CSR snapshots were materialized.
    pub csr: bool,
    /// Sorted property runs were built.
    pub prop_index: bool,
    /// Per-node profiles were precomputed.
    pub profiles: bool,
    /// Radius the profiles were computed at.
    pub radius: u64,
}

fn put_bool<S: ByteSink + ?Sized>(out: &mut S, b: bool) {
    out.put_byte(u8::from(b));
}

fn get_bool(buf: &[u8], pos: &mut usize) -> Result<bool> {
    match buf.get(*pos) {
        Some(0) => {
            *pos += 1;
            Ok(false)
        }
        Some(1) => {
            *pos += 1;
            Ok(true)
        }
        Some(_) => Err(StorageError::Malformed("bool tag").into()),
        None => Err(StorageError::Truncated.into()),
    }
}

/// Reads a count that is about to size an allocation; anything larger
/// than the remaining input is malformed by construction (every counted
/// element occupies at least one byte).
fn get_count(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let n = get_varint(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        return Err(StorageError::Malformed("implausible count").into());
    }
    Ok(n)
}

// ---- raw little-endian array runs ------------------------------------

/// Alignment of raw array runs relative to the section start. Sections
/// start on 4096-byte file offsets, so section-relative 8-alignment is
/// absolute 8-alignment — enough for every element type we map
/// (`u32`, 12-byte `CsrEntry`).
const RUN_ALIGN: usize = 8;

fn put_pad<S: SectionSink + ?Sized>(out: &mut S) {
    let pad = out.pos().next_multiple_of(RUN_ALIGN) - out.pos();
    out.put_bytes(&[0u8; RUN_ALIGN][..pad]);
}

/// Skips (and checks) the zero padding before a raw run. Nonzero
/// padding is corruption the lazy-CRC path must still catch.
fn skip_pad(buf: &[u8], pos: &mut usize) -> Result<()> {
    let target = pos.next_multiple_of(RUN_ALIGN);
    if target > buf.len() {
        return Err(StorageError::Truncated.into());
    }
    if buf[*pos..target].iter().any(|&b| b != 0) {
        return Err(StorageError::Malformed("nonzero run padding").into());
    }
    *pos = target;
    Ok(())
}

fn put_u32_run<S: SectionSink + ?Sized>(out: &mut S, vs: &[u32]) {
    put_varint(out, vs.len() as u64);
    put_pad(out);
    if cfg!(target_endian = "little") {
        out.put_bytes(pod_bytes(vs));
    } else {
        for &v in vs {
            out.put_bytes(&v.to_le_bytes());
        }
    }
}

fn put_entry_run<S: SectionSink + ?Sized>(out: &mut S, es: &[CsrEntry]) {
    put_varint(out, es.len() as u64);
    put_pad(out);
    if cfg!(target_endian = "little") {
        // CsrEntry is #[repr(C)] {label, node, edge}, 12 bytes, no
        // padding — its native bytes are the wire layout.
        out.put_bytes(pod_bytes(es));
    } else {
        for e in es {
            out.put_bytes(&e.label.to_le_bytes());
            out.put_bytes(&e.node.to_le_bytes());
            out.put_bytes(&e.edge.to_le_bytes());
        }
    }
}

/// Decode context for one section: the section's bytes plus, when the
/// section lives in a shared buffer at a known absolute offset, what a
/// zero-copy [`Slab`] adoption needs.
struct SectionReader<'a> {
    bytes: &'a [u8],
    /// `(buffer, absolute offset of the section's first byte)`.
    adopt: Option<(&'a Arc<dyn ByteBuffer>, usize)>,
}

impl SectionReader<'_> {
    /// Reads a raw u32 run, adopting it zero-copy when possible and
    /// copying otherwise.
    fn get_u32_run(&self, pos: &mut usize) -> Result<Slab<u32>> {
        let (start, n) = self.run_span::<4>(pos)?;
        if cfg!(target_endian = "little") {
            if let Some((buf, base)) = self.adopt {
                if let Ok(slab) = Slab::<u32>::from_buffer(Arc::clone(buf), base + start, n) {
                    return Ok(slab);
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for chunk in self.bytes[start..*pos].chunks_exact(4) {
            out.push(u32::from_le_bytes(chunk.try_into().expect("chunk")));
        }
        Ok(out.into())
    }

    /// Reads a raw [`CsrEntry`] run, adopting or copying like
    /// [`SectionReader::get_u32_run`].
    fn get_entry_run(&self, pos: &mut usize) -> Result<Slab<CsrEntry>> {
        let (start, n) = self.run_span::<12>(pos)?;
        if cfg!(target_endian = "little") {
            if let Some((buf, base)) = self.adopt {
                if let Ok(slab) = Slab::<CsrEntry>::from_buffer(Arc::clone(buf), base + start, n) {
                    return Ok(slab);
                }
            }
        }
        let word = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("chunk"));
        let mut out = Vec::with_capacity(n);
        for chunk in self.bytes[start..*pos].chunks_exact(12) {
            out.push(CsrEntry {
                label: word(chunk, 0),
                node: word(chunk, 4),
                edge: word(chunk, 8),
            });
        }
        Ok(out.into())
    }

    /// Parses a run header (count, padding) and bounds-checks the
    /// element bytes; returns the run's start and element count,
    /// leaving `pos` past the run.
    fn run_span<const SIZE: usize>(&self, pos: &mut usize) -> Result<(usize, usize)> {
        let n = get_varint(self.bytes, pos)? as usize;
        skip_pad(self.bytes, pos)?;
        let nbytes = n.checked_mul(SIZE).ok_or(StorageError::Truncated)?;
        let end = pos.checked_add(nbytes).ok_or(StorageError::Truncated)?;
        if end > self.bytes.len() {
            return Err(StorageError::Truncated.into());
        }
        let start = *pos;
        *pos = end;
        Ok((start, n))
    }
}

// ---- index options ----------------------------------------------------

/// Encodes a [`StoredOptions`] meta payload.
pub fn encode_options(o: &StoredOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    put_bool(&mut out, o.csr);
    put_bool(&mut out, o.prop_index);
    put_bool(&mut out, o.profiles);
    put_varint(&mut out, o.radius);
    out
}

/// Decodes a [`StoredOptions`] meta payload.
pub fn decode_options(buf: &[u8]) -> Result<StoredOptions> {
    let mut pos = 0;
    let o = StoredOptions {
        csr: get_bool(buf, &mut pos)?,
        prop_index: get_bool(buf, &mut pos)?,
        profiles: get_bool(buf, &mut pos)?,
        radius: get_varint(buf, &mut pos)?,
    };
    if pos != buf.len() {
        return Err(StorageError::Malformed("options trailing bytes").into());
    }
    Ok(o)
}

// ---- index parts ------------------------------------------------------

fn put_adjacency<S: SectionSink + ?Sized>(out: &mut S, a: &AdjacencyParts) {
    put_u32_run(out, &a.offsets);
    put_entry_run(out, &a.entries);
}

fn get_adjacency(r: &SectionReader<'_>, pos: &mut usize) -> Result<AdjacencyParts> {
    Ok(AdjacencyParts {
        offsets: r.get_u32_run(pos)?,
        entries: r.get_entry_run(pos)?,
    })
}

fn put_index_part<S: SectionSink + ?Sized>(out: &mut S, p: &IndexParts) {
    put_varint(out, p.interner_values.len() as u64);
    for v in &p.interner_values {
        put_value(out, v);
    }
    put_u32_run(out, &p.node_label_ids);
    put_u32_run(out, &p.edge_label_ids);
    match &p.csr {
        None => out.put_byte(0),
        Some(c) => {
            out.put_byte(1);
            put_bool(out, c.directed);
            put_u32_run(out, &c.node_labels);
            put_adjacency(out, &c.out);
            put_adjacency(out, &c.inc);
            put_adjacency(out, &c.all);
        }
    }
    put_u32_run(out, &p.profile_offsets);
    put_u32_run(out, &p.profile_ids);
    put_varint(out, p.radius as u64);
    put_bool(out, p.prop_index);
}

fn get_index_part(r: &SectionReader<'_>, pos: &mut usize) -> Result<IndexParts> {
    let buf = r.bytes;
    let n_values = get_count(buf, pos)?;
    let mut interner_values: Vec<Value> = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        interner_values.push(get_value(buf, pos)?);
    }
    let node_label_ids = r.get_u32_run(pos)?;
    let edge_label_ids = r.get_u32_run(pos)?;
    let csr = match buf.get(*pos) {
        Some(0) => {
            *pos += 1;
            None
        }
        Some(1) => {
            *pos += 1;
            Some(CsrParts {
                directed: get_bool(buf, pos)?,
                node_labels: r.get_u32_run(pos)?,
                out: get_adjacency(r, pos)?,
                inc: get_adjacency(r, pos)?,
                all: get_adjacency(r, pos)?,
            })
        }
        Some(_) => return Err(StorageError::Malformed("csr option tag").into()),
        None => return Err(StorageError::Truncated.into()),
    };
    let profile_offsets = r.get_u32_run(pos)?;
    let profile_ids = r.get_u32_run(pos)?;
    let radius = get_varint(buf, pos)? as usize;
    let prop_index = get_bool(buf, pos)?;
    Ok(IndexParts {
        interner_values,
        node_label_ids,
        edge_label_ids,
        csr,
        profile_offsets,
        profile_ids,
        radius,
        prop_index,
    })
}

/// Streams the per-graph [`IndexParts`] of one collection into a
/// section sink — a `Vec<u8>` or a `SegmentWriter` section (the
/// checkpoint path, where the big arrays go straight to the file).
pub fn encode_index_parts_into<S: SectionSink + ?Sized>(out: &mut S, parts: &[IndexParts]) {
    put_varint(out, parts.len() as u64);
    for p in parts {
        put_index_part(out, p);
    }
}

/// Encodes the per-graph [`IndexParts`] of one collection to owned
/// bytes.
pub fn encode_index_parts(parts: &[IndexParts]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_index_parts_into(&mut out, parts);
    out
}

fn decode_index_parts_reader(r: &SectionReader<'_>) -> Result<Vec<IndexParts>> {
    let mut pos = 0;
    let n = get_count(r.bytes, &mut pos)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_index_part(r, &mut pos)?);
    }
    if pos != r.bytes.len() {
        return Err(StorageError::Malformed("index parts trailing bytes").into());
    }
    Ok(out)
}

/// Decodes a payload written by [`encode_index_parts`] into owned
/// slabs (no adoption).
pub fn decode_index_parts(buf: &[u8]) -> Result<Vec<IndexParts>> {
    decode_index_parts_reader(&SectionReader {
        bytes: buf,
        adopt: None,
    })
}

/// Decodes an index-parts section living at `[base, base + len)` of a
/// shared buffer (typically a mapped checkpoint segment), adopting
/// each raw array as a zero-copy [`Slab`] view when the platform and
/// alignment allow, and copying element-wise otherwise. The two paths
/// produce equal values; only the storage differs.
pub fn decode_index_parts_from(
    buf: &Arc<dyn ByteBuffer>,
    base: usize,
    len: usize,
) -> Result<Vec<IndexParts>> {
    let whole = buf.bytes();
    let end = base.checked_add(len).ok_or(StorageError::Truncated)?;
    if end > whole.len() {
        return Err(StorageError::Truncated.into());
    }
    decode_index_parts_reader(&SectionReader {
        bytes: &whole[base..end],
        adopt: Some((buf, base)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Segment, SegmentBuilder};
    use gql_core::fixtures::figure_4_16_graph;
    use gql_core::OwnedBytes;
    use gql_match::GraphIndex;

    #[test]
    fn index_parts_round_trip() {
        let (g, _) = figure_4_16_graph();
        let parts = vec![GraphIndex::build_full(&g, 1).to_parts()];
        let bytes = encode_index_parts(&parts);
        let back = decode_index_parts(&bytes).unwrap();
        assert_eq!(back, parts);
        // Any truncation fails cleanly.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_index_parts(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(decode_index_parts(&[]).is_err());
    }

    #[test]
    fn mapped_decode_adopts_and_matches_owned() {
        let (g, _) = figure_4_16_graph();
        let parts = vec![GraphIndex::build_full(&g, 1).to_parts()];
        let mut b = SegmentBuilder::new();
        b.push("indexes", "db", encode_index_parts(&parts));
        let seg = Segment::parse(b.finish()).unwrap();
        let sec = seg.find("indexes", "db").unwrap();
        let (base, len) = (sec.base(), sec.bytes().len());
        let adopted = decode_index_parts_from(seg.buffer(), base, len).unwrap();
        assert_eq!(adopted, parts);
        // Section bases are page-aligned within the file; whether
        // adoption actually went zero-copy depends on the backing heap
        // address too. When that cooperates (allocators hand back
        // ≥8-aligned blocks in practice), the big arrays must be views.
        if cfg!(target_endian = "little")
            && (seg.buffer().bytes().as_ptr() as usize).is_multiple_of(8)
        {
            let a = &adopted[0];
            assert!(a.node_label_ids.is_mapped());
            let csr = a.csr.as_ref().unwrap();
            assert!(csr.out.offsets.is_mapped());
            assert!(csr.out.entries.is_mapped());
            assert!(a.profile_ids.is_mapped());
        }
    }

    #[test]
    fn corrupt_index_bytes_never_decode_silently() {
        let (g, _) = figure_4_16_graph();
        let parts = vec![GraphIndex::build_full(&g, 1).to_parts()];
        let bytes = encode_index_parts(&parts);
        // Flip every byte (including run padding, which must be
        // rejected as nonzero): each flip must either fail to decode or
        // decode to a visibly different value — silent equality with
        // corrupt bytes is the only failure mode.
        let mut padding_rejected = false;
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xa5;
            match decode_index_parts(&bad) {
                Err(_) => {
                    if bytes[i] == 0 {
                        padding_rejected = true;
                    }
                }
                Ok(v) => assert_ne!(v, parts, "silent corruption at byte {i}"),
            }
        }
        assert!(padding_rejected, "no zero byte was rejected");
    }

    #[test]
    fn owned_buffer_decodes_through_mapped_path() {
        let (g, _) = figure_4_16_graph();
        let parts = vec![GraphIndex::build(&g).to_parts()];
        let buf: Arc<dyn ByteBuffer> = Arc::new(OwnedBytes(encode_index_parts(&parts)));
        let n = buf.bytes().len();
        assert_eq!(decode_index_parts_from(&buf, 0, n).unwrap(), parts);
        assert!(decode_index_parts_from(&buf, 8, n).is_err());
    }

    #[test]
    fn options_round_trip() {
        let o = StoredOptions {
            csr: true,
            prop_index: false,
            profiles: true,
            radius: 2,
        };
        assert_eq!(decode_options(&encode_options(&o)).unwrap(), o);
        assert!(decode_options(&[9]).is_err());
        assert!(decode_options(&[]).is_err());
    }
}
