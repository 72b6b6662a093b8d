//! Append-only write-ahead log with checksummed, length-prefixed
//! records and torn-tail recovery.
//!
//! On-disk format — a flat sequence of frames:
//!
//! ```text
//! [len: u32-le][crc: u32-le][payload: len bytes]
//! ```
//!
//! `crc` is FNV-1a over the payload (the same checksum every
//! GQL1-family frame carries). The payload is a tag byte plus fields
//! encoded with the shared varint/string primitives; collection and
//! variable values are embedded as complete GQL1 frames, so replay is
//! **idempotent**: re-applying a record that a newer checkpoint already
//! folded in simply rewrites the same value.
//!
//! Replay-on-open walks the frames sequentially. The first frame that
//! is short (torn write), fails its CRC (bit flip, garbage), or does
//! not decode ends the committed prefix: the file is truncated back to
//! the last good frame boundary and the records before it are
//! returned. A `kill -9` at any byte therefore loses at most the
//! in-flight record — never committed state.

use crate::Result;
use gql_core::storage::{fnv1a, get_str, put_str, StorageError};
use gql_core::Obs;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One logged mutation. Values are carried in full (not as deltas), so
/// replay order only has to respect per-key last-writer-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A collection was created or replaced; `payload` is the
    /// `encode_collection` bytes of its full new contents.
    PutCollection {
        /// Collection name.
        name: String,
        /// `gql_core::storage::encode_collection` frame stream.
        payload: Vec<u8>,
    },
    /// A collection was dropped (tombstone; the next checkpoint's
    /// compaction pass makes the deletion physical).
    DeleteCollection {
        /// Collection name.
        name: String,
    },
    /// A top-level variable was bound; `payload` is the `encode_graph`
    /// bytes of its full new value.
    PutVar {
        /// Variable name.
        name: String,
        /// `gql_core::storage::encode_graph` frame.
        payload: Vec<u8>,
    },
}

const TAG_PUT_COLLECTION: u8 = 1;
const TAG_DELETE_COLLECTION: u8 = 2;
const TAG_PUT_VAR: u8 = 3;

impl WalRecord {
    /// Serializes the record payload (tag + fields, no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::PutCollection { name, payload } => {
                out.push(TAG_PUT_COLLECTION);
                put_str(&mut out, name);
                out.extend_from_slice(payload);
            }
            WalRecord::DeleteCollection { name } => {
                out.push(TAG_DELETE_COLLECTION);
                put_str(&mut out, name);
            }
            WalRecord::PutVar { name, payload } => {
                out.push(TAG_PUT_VAR);
                put_str(&mut out, name);
                out.extend_from_slice(payload);
            }
        }
        out
    }

    /// Deserializes a payload written by [`WalRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<WalRecord> {
        let tag = *buf.first().ok_or(StorageError::Truncated)?;
        let mut pos = 1;
        let name = get_str(buf, &mut pos)?;
        match tag {
            TAG_PUT_COLLECTION => Ok(WalRecord::PutCollection {
                name,
                payload: buf[pos..].to_vec(),
            }),
            TAG_DELETE_COLLECTION => {
                if pos != buf.len() {
                    return Err(StorageError::Malformed("delete trailing bytes").into());
                }
                Ok(WalRecord::DeleteCollection { name })
            }
            TAG_PUT_VAR => Ok(WalRecord::PutVar {
                name,
                payload: buf[pos..].to_vec(),
            }),
            _ => Err(StorageError::Malformed("wal record tag").into()),
        }
    }
}

/// The open write-ahead log file, positioned at its committed end.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    obs: Arc<Obs>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays the
    /// committed prefix, truncates any torn tail, and returns the
    /// decoded records in append order. Replayed frames, torn-tail
    /// truncations, append/fsync latency, and the committed size gauge
    /// are recorded into `obs` for the lifetime of the log.
    pub fn open(path: &Path, obs: Arc<Obs>) -> Result<(Wal, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, good_end) = scan(&bytes);
        if (good_end as u64) < bytes.len() as u64 {
            file.set_len(good_end as u64)?;
            file.sync_all()?;
            obs.add("storage.wal.torn_tail", 1);
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        obs.add("storage.wal.replay_frames", records.len() as u64);
        obs.set_gauge("storage.wal_size", good_end as u64);
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: good_end as u64,
                obs,
            },
            records,
        ))
    }

    /// Appends one record and syncs it to disk before returning: once
    /// `append` succeeds, the record survives any crash.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let _append_span = self.obs.span("storage.wal.append");
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        let fsync_start = Instant::now();
        self.file.sync_data()?;
        self.len += frame.len() as u64;
        self.obs.record("storage.wal.fsync", fsync_start.elapsed());
        self.obs.add("storage.wal.appends", 1);
        self.obs.add("storage.wal.append_bytes", frame.len() as u64);
        self.obs.set_gauge("storage.wal_size", self.len);
        Ok(())
    }

    /// Truncates the log to empty — called after a checkpoint has made
    /// every logged record durable elsewhere.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.len = 0;
        self.obs.set_gauge("storage.wal_size", 0);
        Ok(())
    }

    /// Committed size in bytes.
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Walks the frame sequence; returns the decoded committed prefix and
/// the byte offset it ends at (everything after is a torn tail).
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("8-byte slice")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("8-byte slice"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break; // short payload: torn tail
        };
        if fnv1a(payload) != crc {
            break; // corrupted frame: everything after is suspect
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            break; // CRC-valid but undecodable: treat as torn
        };
        records.push(rec);
        pos += 8 + len;
    }
    // Any break above leaves `pos` at the start of the torn tail.
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gql-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::PutCollection {
                name: "db".into(),
                payload: vec![1, 2, 3, 4],
            },
            WalRecord::DeleteCollection { name: "old".into() },
            WalRecord::PutVar {
                name: "Q".into(),
                payload: vec![9, 9],
            },
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tmpdir("replay");
        let path = dir.join("wal.log");
        let (mut wal, initial) = Wal::open(&path, Obs::new()).unwrap();
        assert!(initial.is_empty());
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let (_, replayed) = Wal::open(&path, Obs::new()).unwrap();
        assert_eq!(replayed, sample_records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the file at every byte boundary of the final record
    /// must recover exactly the records before it.
    #[test]
    fn torn_tail_truncates_to_last_committed_record() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, Obs::new()).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Find where the last frame starts by re-scanning two records.
        let (recs, _) = scan(&full);
        assert_eq!(recs.len(), 3);
        let mut two = 0usize;
        for _ in 0..2 {
            let len = u32::from_le_bytes(full[two..two + 4].try_into().unwrap()) as usize;
            two += 8 + len;
        }
        for cut in two..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replayed) = Wal::open(&path, Obs::new()).unwrap();
            assert_eq!(replayed, sample_records()[..2], "cut at {cut}");
            // And the file was physically truncated to the good prefix.
            assert_eq!(std::fs::read(&path).unwrap().len(), two, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any byte of the final frame (header or payload) must
    /// drop that record and keep the prefix.
    #[test]
    fn bit_flips_in_final_record_are_rejected() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, Obs::new()).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let mut two = 0usize;
        for _ in 0..2 {
            let len = u32::from_le_bytes(full[two..two + 4].try_into().unwrap()) as usize;
            two += 8 + len;
        }
        for i in two..full.len() {
            let mut corrupted = full.clone();
            corrupted[i] ^= 0xff;
            std::fs::write(&path, &corrupted).unwrap();
            let (_, replayed) = Wal::open(&path, Obs::new()).unwrap();
            // A flipped length byte may make the frame short (torn) or
            // mismatch the CRC; either way record 3 must not survive,
            // and records 1-2 must.
            assert_eq!(replayed, sample_records()[..2], "flip at {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmpdir("reset");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, Obs::new()).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        assert!(wal.size() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.size(), 0);
        wal.append(&sample_records()[1]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path, Obs::new()).unwrap();
        assert_eq!(replayed, vec![sample_records()[1].clone()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_codec_round_trips_and_rejects_bad_tags() {
        for r in sample_records() {
            assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
        }
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[77, 0]).is_err());
    }
}
