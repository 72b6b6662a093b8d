//! # gql-storage — disk-native persistence for graph databases
//!
//! The §7 "Physical Storage of Graph Data" direction made durable: a
//! write-ahead log plus checkpoint segments, so a database directory
//! survives process kills at any instant and reopens by *reading* its
//! indexes instead of rebuilding them.
//!
//! Three layers, bottom-up:
//!
//! - [`wal`]: an append-only log of length-prefixed, CRC-checksummed
//!   mutation records. Replay-on-open walks the log sequentially and
//!   truncates a torn tail (short write, bit flip, garbage) back to the
//!   last committed record — a `kill -9` mid-append loses at most the
//!   uncommitted suffix, never committed state.
//! - [`segment`]: page-aligned checkpoint segments with a checksummed
//!   section directory. Each section (collection payload, raw index
//!   arrays, top-level variables) carries its own CRC; payloads start on 4096-byte boundaries so the memory-mapped
//!   reader ([`mmap::SegmentMap`]) hands out aligned slices the core's
//!   `Slab<T>` adopts zero-copy. Writing streams through
//!   [`segment::SegmentWriter`]'s fixed-size buffer with an
//!   incremental CRC — checkpoints never materialize in memory.
//! - [`store`]: the checkpoint/recovery protocol tying them together —
//!   write `checkpoint-<n>.tmp`, fsync, rename to `.seg`, publish via
//!   an atomically renamed `MANIFEST`, then truncate the WAL and delete
//!   the previous segment (the compaction pass: tombstoned collections
//!   and superseded record versions simply don't survive into the new
//!   segment). A crash between any two steps recovers: `.tmp` files
//!   are ignored, the old manifest still names a complete segment, and
//!   WAL records already folded into the new segment replay
//!   idempotently because every record carries the full new value.
//!
//! [`bulkload`] builds checkpoint segments straight from sorted input —
//! interning labels, counting-sorting the CSR arrays, and BFS-ing the
//! interned profiles — without ever materializing the mutable
//! [`gql_core::Graph`] (no hash-map adjacency, no per-edge probes), so
//! a first open of a bulk-loaded directory is already on the
//! segment-read fast path.
//!
//! The crate shares one codec with `gql_core::storage` (LEB128 varints,
//! tagged values, FNV-1a frame checksums): every on-disk artifact in
//! the GQL1 family is inspectable with the same primitives.

#![warn(missing_docs)]

pub mod bulkload;
pub mod codec;
pub mod mmap;
pub mod segment;
pub mod store;
pub mod wal;

pub use bulkload::BulkLoader;
pub use codec::{
    decode_index_parts, decode_index_parts_from, decode_options, encode_index_parts,
    encode_index_parts_into, encode_options, StoredOptions,
};
pub use mmap::SegmentMap;
pub use segment::{Section, Segment, SegmentBuilder, SegmentWriter, PAGE_SIZE};
pub use store::{CollectionSnapshot, OpenOptions, Restored, RestoredCollection, Snapshot, Store};
pub use wal::{Wal, WalRecord};

use gql_core::StorageError;
use std::fmt;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A frame failed to decode (corruption that survived the CRC, a
    /// version mismatch, or a malformed field).
    Codec(StorageError),
    /// A structural invariant of a segment or snapshot was violated.
    Invalid(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "storage decode error: {e}"),
            StoreError::Invalid(what) => write!(f, "invalid storage state: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StorageError> for StoreError {
    fn from(e: StorageError) -> Self {
        StoreError::Codec(e)
    }
}

/// Result alias for the persistence layer.
pub type Result<T> = std::result::Result<T, StoreError>;
