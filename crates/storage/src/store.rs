//! The checkpoint/recovery protocol: a database directory holding one
//! published checkpoint segment, a manifest naming it, and the WAL of
//! mutations since.
//!
//! Directory contents:
//!
//! ```text
//! MANIFEST            "GMAN" | seq u64-le | crc u32-le
//! checkpoint-<n>.seg  the published segment (see [`crate::segment`])
//! wal.log             mutations since checkpoint <n>
//! *.tmp               in-flight writes; ignored and removed on open
//! ```
//!
//! Checkpoint protocol (each step durable before the next):
//!
//! 1. stream `checkpoint-<n>.tmp` section by section, fsync, rename to
//!    `checkpoint-<n>.seg` (payloads never materialize in memory — the
//!    index arrays are encoded straight into the file through a
//!    fixed-size buffer)
//! 2. write `MANIFEST.tmp` naming `n`, fsync, rename to `MANIFEST`
//! 3. truncate the WAL
//! 4. delete older `checkpoint-*.seg` (compaction: tombstoned
//!    collections and superseded values do not survive into `n`)
//!
//! A kill between any two steps recovers: before step 2 the old
//! manifest still names a complete older segment (plus the intact WAL);
//! after step 2 but before step 3 the WAL records are replayed on top
//! of the new segment, which is harmless because every record carries
//! the full new value (idempotent last-writer-wins).
//!
//! Opening defaults to *mapping* the published segment
//! ([`crate::mmap::SegmentMap`]) rather than reading it: the header and
//! directory are verified eagerly, decoded sections (collections,
//! vars, options) are CRC-checked at access, and the raw
//! index arrays are adopted zero-copy with *structural* validation in
//! place of a checksum — `GraphIndex::from_parts` re-verifies every
//! CSR entry against the decoded graphs, so corruption is still loud,
//! without faulting in gigabytes of cold index pages at open. Callers
//! wanting the old read-everything behavior (or full checksum
//! coverage on a mapped open) get it via [`OpenOptions`]. Deleting a
//! superseded segment while snapshots still hold its mapping is safe
//! on unix: the pages outlive the unlink.

use crate::codec::{
    decode_index_parts, decode_index_parts_from, decode_options, encode_index_parts_into,
    encode_options, StoredOptions,
};
use crate::mmap::SegmentMap;
use crate::segment::{Section, Segment, SegmentWriter};
use crate::wal::{Wal, WalRecord};
use crate::{Result, StoreError};
use gql_core::storage::{decode_collection, decode_graph, fnv1a, ByteSink};
use gql_core::{ByteBuffer, Graph, Obs};
use gql_match::IndexParts;
use std::fs;
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"GMAN";
const WAL_FILE: &str = "wal.log";

const KIND_COLLECTION: &str = "collection";
const KIND_INDEXES: &str = "indexes";
const KIND_VAR: &str = "var";
const KIND_META: &str = "meta";
const META_OPTIONS: &str = "options";

/// How [`Store::open_with`] reads the published checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOptions {
    /// Map the checkpoint file and adopt its index arrays zero-copy
    /// (the default). `false` reads the whole file into memory and
    /// decodes owned copies — the pre-mmap behavior.
    pub mmap: bool,
    /// Verify every section checksum up front even on a mapped open
    /// (touches every byte of the file, like a non-mapped open does by
    /// construction).
    pub verify: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            mmap: true,
            verify: false,
        }
    }
}

/// Everything the engine wants durable at a checkpoint.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Index configuration the derived sections were built under.
    pub options: Option<StoredOptions>,
    /// Collections in engine order.
    pub collections: Vec<CollectionSnapshot>,
    /// Top-level variables as `(name, encode_graph bytes)`.
    pub vars: Vec<(String, Vec<u8>)>,
}

/// One collection's checkpoint state.
#[derive(Debug, Default)]
pub struct CollectionSnapshot {
    /// Collection name.
    pub name: String,
    /// `encode_collection` bytes of the full contents.
    pub payload: Vec<u8>,
    /// Per-graph raw index arrays (empty = not persisted; the reopen
    /// rebuilds from scratch).
    pub indexes: Vec<IndexParts>,
}

/// State recovered by [`Store::open`]: the published checkpoint with
/// the WAL folded on top.
#[derive(Debug, Default)]
pub struct Restored {
    /// Options the checkpoint's derived sections were built under.
    pub options: Option<StoredOptions>,
    /// Collections in checkpoint order (WAL-created ones appended in
    /// log order).
    pub collections: Vec<RestoredCollection>,
    /// Top-level variables.
    pub vars: Vec<(String, Graph)>,
    /// True when the index arrays are zero-copy views into a mapped
    /// checkpoint segment rather than owned decodes.
    pub mapped: bool,
}

/// One recovered collection.
#[derive(Debug)]
pub struct RestoredCollection {
    /// Collection name.
    pub name: String,
    /// The graphs, decoded and structurally validated.
    pub graphs: Vec<Graph>,
    /// Checkpointed index arrays; `None` when the collection was
    /// (re)written through the WAL after the checkpoint, or the
    /// checkpoint carried none.
    pub indexes: Option<Vec<IndexParts>>,
}

/// Handle on an open database directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    next_seq: u64,
    obs: Arc<Obs>,
}

impl Store {
    /// Opens (creating if absent) the database directory with default
    /// options: the checkpoint segment is memory-mapped and adopted
    /// zero-copy. See [`Store::open_with`].
    pub fn open(dir: &Path) -> Result<(Store, Restored)> {
        Store::open_with(dir, OpenOptions::default())
    }

    /// [`Store::open_observed`] recording into a registry of its own.
    pub fn open_with(dir: &Path, opts: OpenOptions) -> Result<(Store, Restored)> {
        Store::open_observed(dir, opts, Obs::new())
    }

    /// Opens (creating if absent) the database directory: removes
    /// in-flight `*.tmp` files, loads the manifest-published checkpoint
    /// segment (mapped or read per `opts`), replays the WAL on top
    /// (truncating any torn tail), and returns the recovered state.
    ///
    /// The open records segment open counters into `obs`
    /// (`storage.segment.open`, `.mapped`/`.owned`, `.verify_eager`),
    /// lazy per-section CRC checks (`storage.crc.lazy_checks` /
    /// `storage.crc_fail`), WAL replay/torn-tail counters, and the
    /// `storage.wal_size` / `storage.live_segment_bytes` gauges; the
    /// returned handle keeps recording WAL append/fsync latency and
    /// per-stage checkpoint timings for its lifetime.
    pub fn open_observed(
        dir: &Path,
        opts: OpenOptions,
        obs: Arc<Obs>,
    ) -> Result<(Store, Restored)> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        let mut restored = Restored::default();
        let mut seq = 0u64;
        let manifest_path = dir.join(MANIFEST);
        if manifest_path.exists() {
            seq = read_manifest(&manifest_path)?;
            let seg_path = dir.join(format!("checkpoint-{seq}.seg"));
            obs.add("storage.segment.open", 1);
            if opts.verify {
                obs.add("storage.segment.verify_eager", 1);
            }
            restored = if opts.mmap {
                let segmap = SegmentMap::open(&seg_path)?;
                // is_mapped distinguishes a real mapping from the
                // non-unix read-into-memory fallback.
                obs.add(
                    if segmap.is_mapped() {
                        "storage.segment.mapped"
                    } else {
                        "storage.segment.owned"
                    },
                    1,
                );
                let map: Arc<dyn ByteBuffer> = Arc::new(segmap);
                let seg = Segment::open(map, opts.verify)?;
                obs.set_gauge("storage.live_segment_bytes", seg.byte_len() as u64);
                // Lazy mode: per-section CRCs for decoded sections are
                // checked at access below; the raw index arrays rely on
                // structural validation instead.
                restore_segment(&seg, !opts.verify, true, &obs)?
            } else {
                // Read-into-memory path: Segment::parse verifies every
                // checksum while the bytes are hot.
                obs.add("storage.segment.owned", 1);
                let seg = Segment::parse(fs::read(&seg_path)?)?;
                obs.set_gauge("storage.live_segment_bytes", seg.byte_len() as u64);
                restore_segment(&seg, false, false, &obs)?
            };
        }
        let (wal, records) = Wal::open(&dir.join(WAL_FILE), Arc::clone(&obs))?;
        for rec in records {
            apply_record(&mut restored, rec)?;
        }
        Ok((
            Store {
                dir: dir.to_path_buf(),
                wal,
                next_seq: seq + 1,
                obs,
            },
            restored,
        ))
    }

    /// Appends one mutation record to the WAL; durable when it returns.
    pub fn log(&mut self, rec: &WalRecord) -> Result<()> {
        self.wal.append(rec)
    }

    /// Streams a checkpoint segment to disk, publishes it through the
    /// manifest, truncates the WAL, and deletes superseded segments.
    /// Section payloads — in particular the raw index arrays — are
    /// encoded straight into the file through the segment writer's
    /// fixed-size buffer with an incremental CRC; no section (let alone
    /// the segment) is materialized in memory first.
    pub fn checkpoint(&mut self, snap: &Snapshot) -> Result<()> {
        let _ckpt_span = self.obs.span("storage.checkpoint");
        let seq = self.next_seq;
        let mut declared: Vec<(&str, &str)> = Vec::new();
        if snap.options.is_some() {
            declared.push((KIND_META, META_OPTIONS));
        }
        for c in &snap.collections {
            declared.push((KIND_COLLECTION, &c.name));
            if !c.indexes.is_empty() {
                declared.push((KIND_INDEXES, &c.name));
            }
        }
        for (name, _) in &snap.vars {
            declared.push((KIND_VAR, name));
        }

        let tmp_path = self.dir.join(format!("checkpoint-{seq}.tmp"));
        let seg_name = format!("checkpoint-{seq}.seg");
        let write_span = self.obs.span("storage.checkpoint.write");
        let mut w = SegmentWriter::create(fs::File::create(&tmp_path)?, &declared)?;
        if let Some(options) = &snap.options {
            w.begin_section(KIND_META, META_OPTIONS);
            w.put_bytes(&encode_options(options));
            w.end_section();
        }
        for c in &snap.collections {
            w.begin_section(KIND_COLLECTION, &c.name);
            w.put_bytes(&c.payload);
            w.end_section();
            if !c.indexes.is_empty() {
                w.begin_section(KIND_INDEXES, &c.name);
                encode_index_parts_into(&mut w, &c.indexes);
                w.end_section();
            }
        }
        for (name, payload) in &snap.vars {
            w.begin_section(KIND_VAR, name);
            w.put_bytes(payload);
            w.end_section();
        }
        let file = w.finish()?;
        file.sync_all()?;
        drop(file);
        drop(write_span);
        {
            let _rename_span = self.obs.span("storage.checkpoint.rename");
            fs::rename(&tmp_path, self.dir.join(&seg_name))?;
            sync_dir(&self.dir)?;
        }
        {
            let _manifest_span = self.obs.span("storage.checkpoint.manifest");
            let mut manifest = Vec::with_capacity(16);
            manifest.extend_from_slice(MANIFEST_MAGIC);
            manifest.extend_from_slice(&seq.to_le_bytes());
            manifest.extend_from_slice(&fnv1a(&seq.to_le_bytes()).to_le_bytes());
            write_durable_rename(
                &self.dir.join("MANIFEST.tmp"),
                &self.dir.join(MANIFEST),
                &manifest,
            )?;
            sync_dir(&self.dir)?;
        }
        {
            let _truncate_span = self.obs.span("storage.checkpoint.truncate");
            self.wal.reset()?;
        }
        // Compaction: only the published segment survives on disk. A
        // snapshot still holding the old segment's mapping keeps its
        // pages alive (unix semantics); the directory entry goes now.
        let _compact_span = self.obs.span("storage.checkpoint.compact");
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if fname.starts_with("checkpoint-") && fname.ends_with(".seg") && *fname != *seg_name {
                let _ = fs::remove_file(entry.path());
            }
        }
        self.obs.add("storage.checkpoints", 1);
        if let Ok(meta) = fs::metadata(self.dir.join(&seg_name)) {
            self.obs.set_gauge("storage.live_segment_bytes", meta.len());
        }
        self.next_seq = seq + 1;
        Ok(())
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed WAL size in bytes (0 right after a checkpoint).
    pub fn wal_size(&self) -> u64 {
        self.wal.size()
    }
}

/// Writes `bytes` to `tmp`, fsyncs, and renames onto `dst` — the
/// atomic-publish idiom both the segment and the manifest use.
fn write_durable_rename(tmp: &Path, dst: &Path, bytes: &[u8]) -> Result<()> {
    let mut f = fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, dst)?;
    Ok(())
}

/// Directory fsync so a rename is durable. The only failure tolerated is
/// a filesystem that refuses to sync directories at all; anything else
/// (missing directory, EIO, ENOSPC) fails the checkpoint.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir)?.sync_all() {
        Err(e) if matches!(e.kind(), ErrorKind::InvalidInput | ErrorKind::Unsupported) => Ok(()),
        r => r,
    }
}

fn read_manifest(path: &Path) -> Result<u64> {
    let bytes = fs::read(path)?;
    if bytes.len() != 16 || &bytes[..4] != MANIFEST_MAGIC {
        return Err(StoreError::Invalid("manifest malformed"));
    }
    let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("length checked"));
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("length checked"));
    if fnv1a(&seq.to_le_bytes()) != crc {
        return Err(StoreError::Invalid("manifest checksum"));
    }
    Ok(seq)
}

/// Hands back a section's payload, CRC-checking it first when the open
/// mode deferred checksums. Each deferred check is counted, and a
/// failure bumps `storage.crc_fail` (the `/healthz` degraded signal)
/// before the error propagates.
fn checked_bytes<'a>(sec: &Section<'a>, check_crc: bool, obs: &Obs) -> Result<&'a [u8]> {
    if check_crc {
        obs.add("storage.crc.lazy_checks", 1);
        if let Err(e) = sec.verify() {
            obs.add("storage.crc_fail", 1);
            return Err(e);
        }
    }
    Ok(sec.bytes())
}

/// Decodes a segment into [`Restored`] state. `check_crc` re-verifies
/// decoded sections' checksums at access (the lazy-open mode); the raw
/// index sections are exempt — their arrays are adopted zero-copy and
/// validated structurally by `GraphIndex::from_parts` instead, so a
/// corrupt byte there surfaces as a loud reopen error, not a checksum
/// pass over gigabytes of cold pages. `mapped` selects zero-copy
/// adoption for the index arrays.
fn restore_segment(seg: &Segment, check_crc: bool, mapped: bool, obs: &Obs) -> Result<Restored> {
    let mut restored = Restored {
        mapped,
        ..Restored::default()
    };
    if let Some(meta) = seg.find(KIND_META, META_OPTIONS) {
        restored.options = Some(decode_options(checked_bytes(&meta, check_crc, obs)?)?);
    }
    for sec in seg.sections() {
        match sec.kind() {
            KIND_COLLECTION => restored.collections.push(RestoredCollection {
                name: sec.name().to_string(),
                graphs: decode_collection(checked_bytes(&sec, check_crc, obs)?)?,
                indexes: None,
            }),
            KIND_VAR => restored.vars.push((
                sec.name().to_string(),
                decode_graph(checked_bytes(&sec, check_crc, obs)?)?,
            )),
            _ => {}
        }
    }
    // Attach index sections to their collections by name; an index
    // section without a matching collection is a malformed segment.
    // Other kinds are skipped: segments written before planner feedback
    // stopped being persisted carry a `feedback` section per collection.
    for sec in seg.sections() {
        if sec.kind() != KIND_INDEXES {
            continue;
        }
        let target = restored
            .collections
            .iter_mut()
            .find(|c| c.name == sec.name())
            .ok_or(StoreError::Invalid("derived section without collection"))?;
        target.indexes = Some(if mapped {
            decode_index_parts_from(seg.buffer(), sec.base(), sec.bytes().len())?
        } else {
            decode_index_parts(sec.bytes())?
        });
    }
    Ok(restored)
}

/// Folds one WAL record into the restored state (last-writer-wins; a
/// rewritten collection drops its checkpointed derived sections, which
/// describe the superseded contents).
fn apply_record(restored: &mut Restored, rec: WalRecord) -> Result<()> {
    match rec {
        WalRecord::PutCollection { name, payload } => {
            let graphs = decode_collection(&payload)?;
            match restored.collections.iter_mut().find(|c| c.name == name) {
                Some(c) => {
                    c.graphs = graphs;
                    c.indexes = None;
                }
                None => restored.collections.push(RestoredCollection {
                    name,
                    graphs,
                    indexes: None,
                }),
            }
        }
        WalRecord::DeleteCollection { name } => {
            restored.collections.retain(|c| c.name != name);
        }
        WalRecord::PutVar { name, payload } => {
            let g = decode_graph(&payload)?;
            match restored.vars.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 = g,
                None => restored.vars.push((name, g)),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::fixtures::figure_4_16_graph;
    use gql_core::storage::{encode_collection, encode_graph};
    use gql_match::GraphIndex;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gql-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot() -> Snapshot {
        let (g, _) = figure_4_16_graph();
        let idx = GraphIndex::build_full(&g, 1);
        Snapshot {
            options: Some(StoredOptions {
                csr: true,
                prop_index: true,
                profiles: true,
                radius: 1,
            }),
            collections: vec![CollectionSnapshot {
                name: "db".into(),
                payload: encode_collection([&g]),
                indexes: vec![idx.to_parts()],
            }],
            vars: vec![("Q".into(), encode_graph(&g))],
        }
    }

    #[test]
    fn sync_dir_reports_real_failures() {
        let dir = tmpdir("syncdir");
        let err = sync_dir(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_reopen_restores_everything() {
        let dir = tmpdir("roundtrip");
        let (mut store, restored) = Store::open(&dir).unwrap();
        assert!(restored.collections.is_empty() && restored.vars.is_empty());
        store.checkpoint(&sample_snapshot()).unwrap();
        drop(store);
        let (store, restored) = Store::open(&dir).unwrap();
        assert_eq!(restored.collections.len(), 1);
        let c = &restored.collections[0];
        assert_eq!(c.name, "db");
        assert_eq!(c.graphs.len(), 1);
        assert_eq!(c.graphs[0].node_count(), 6);
        assert!(c.indexes.is_some());
        assert!(restored.mapped, "default open maps the segment");
        assert_eq!(restored.vars.len(), 1);
        assert_eq!(restored.vars[0].0, "Q");
        assert_eq!(restored.options.as_ref().unwrap().radius, 1);
        assert_eq!(store.wal_size(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mapped_and_owned_opens_restore_equal_state() {
        let dir = tmpdir("mapowned");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        drop(store);
        let opts = [
            OpenOptions::default(),
            OpenOptions {
                mmap: true,
                verify: true,
            },
            OpenOptions {
                mmap: false,
                verify: true,
            },
        ];
        let restores: Vec<Restored> = opts
            .iter()
            .map(|&o| Store::open_with(&dir, o).unwrap().1)
            .collect();
        assert!(restores[0].mapped && restores[1].mapped && !restores[2].mapped);
        let want = &restores[2].collections[0];
        for r in &restores[..2] {
            let c = &r.collections[0];
            assert_eq!(c.indexes, want.indexes, "index parts differ across modes");
            assert_eq!(c.graphs.len(), want.graphs.len());
            assert_eq!(r.options, restores[2].options);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_open_still_catches_corruption_loudly() {
        let dir = tmpdir("lazyflip");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        drop(store);
        let seg_path = dir.join("checkpoint-1.seg");
        let good = fs::read(&seg_path).unwrap();
        let seg = Segment::parse(good.clone()).unwrap();
        let want = Store::open_with(
            &dir,
            OpenOptions {
                mmap: false,
                verify: true,
            },
        )
        .unwrap()
        .1;

        // A flip in a decoded section (the collection payload) must be
        // caught by the lazy per-section CRC at access.
        let col = seg.find("collection", "db").unwrap();
        let mut bad = good.clone();
        bad[col.base() + col.bytes().len() / 2] ^= 0xff;
        fs::write(&seg_path, &bad).unwrap();
        assert!(Store::open(&dir).is_err(), "collection flip undetected");

        // Flips in the index section skip the CRC on lazy opens but
        // must still either fail structural validation at decode/adopt
        // or leave the decoded parts visibly different — never silently
        // equal, never UB. (from_parts runs in the engine; at the store
        // layer "different" is the loud signal.)
        let idx = seg.find("indexes", "db").unwrap();
        for frac in [3, 5, 7] {
            let mut bad = good.clone();
            bad[idx.base() + idx.bytes().len() * (frac - 1) / frac] ^= 0xff;
            fs::write(&seg_path, &bad).unwrap();
            match Store::open(&dir) {
                Err(_) => {}
                Ok((_, r)) => assert_ne!(
                    r.collections[0].indexes, want.collections[0].indexes,
                    "index flip at 1/{frac} decoded silently equal"
                ),
            }
        }
        // verify=true catches everything up front, mapped or not.
        assert!(Store::open_with(
            &dir,
            OpenOptions {
                mmap: true,
                verify: true
            }
        )
        .is_err());
        fs::write(&seg_path, &good).unwrap();
        assert!(Store::open(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_records_replay_over_checkpoint() {
        let dir = tmpdir("replay");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        let (g, _) = figure_4_16_graph();
        // Rewrite "db" with two graphs, add a collection, delete it,
        // and bind a var twice (last writer wins).
        store
            .log(&WalRecord::PutCollection {
                name: "db".into(),
                payload: encode_collection([&g, &g]),
            })
            .unwrap();
        store
            .log(&WalRecord::PutCollection {
                name: "tmp".into(),
                payload: encode_collection([&g]),
            })
            .unwrap();
        store
            .log(&WalRecord::DeleteCollection { name: "tmp".into() })
            .unwrap();
        let mut g2 = g.clone();
        g2.attrs.set("v", 2i64);
        store
            .log(&WalRecord::PutVar {
                name: "Q".into(),
                payload: encode_graph(&g),
            })
            .unwrap();
        store
            .log(&WalRecord::PutVar {
                name: "Q".into(),
                payload: encode_graph(&g2),
            })
            .unwrap();
        drop(store);
        let (_, restored) = Store::open(&dir).unwrap();
        assert_eq!(restored.collections.len(), 1, "tmp was tombstoned");
        let c = &restored.collections[0];
        assert_eq!(c.graphs.len(), 2, "rewritten contents win");
        assert!(c.indexes.is_none(), "rewrite drops stale indexes");
        assert_eq!(restored.vars.len(), 1);
        assert_eq!(
            restored.vars[0].1.attrs.get("v"),
            Some(&gql_core::Value::Int(2))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_checkpoint_compacts_the_first() {
        let dir = tmpdir("compact");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        let segs: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".seg"))
            .collect();
        assert_eq!(segs, vec!["checkpoint-2.seg".to_string()]);
        drop(store);
        let (store, restored) = Store::open(&dir).unwrap();
        assert_eq!(restored.collections.len(), 1);
        assert_eq!(store.next_seq, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_does_not_invalidate_live_mappings() {
        // A restored state adopted from checkpoint N keeps serving
        // after checkpoint N+1 deletes N's file out from under it.
        let dir = tmpdir("livecompact");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        drop(store);
        let (mut store, restored) = Store::open(&dir).unwrap();
        assert!(restored.mapped);
        let parts_before = restored.collections[0].indexes.clone().unwrap();
        store.checkpoint(&sample_snapshot()).unwrap(); // deletes checkpoint-1.seg
        assert!(!dir.join("checkpoint-1.seg").exists());
        // The old mapping's pages are still addressable through the
        // adopted slabs.
        assert_eq!(
            restored.collections[0].indexes.as_ref(),
            Some(&parts_before)
        );
        assert!(!parts_before.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Simulated kill at each stage of the checkpoint protocol: the
    /// directory must reopen to a consistent committed state.
    #[test]
    fn kill_mid_checkpoint_recovers() {
        let dir = tmpdir("kill");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        let (g, _) = figure_4_16_graph();
        store
            .log(&WalRecord::PutCollection {
                name: "extra".into(),
                payload: encode_collection([&g]),
            })
            .unwrap();
        drop(store);
        let manifest = fs::read(dir.join(MANIFEST)).unwrap();
        let wal = fs::read(dir.join(WAL_FILE)).unwrap();
        let seg1 = fs::read(dir.join("checkpoint-1.seg")).unwrap();

        // Stage A: killed while writing checkpoint-2.tmp (partial tmp).
        fs::write(dir.join("checkpoint-2.tmp"), &seg1[..seg1.len() / 2]).unwrap();
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.collections.len(), 2, "stage A: checkpoint 1 + wal");
        assert!(!dir.join("checkpoint-2.tmp").exists(), "tmp cleaned up");

        // Stage B: killed after renaming checkpoint-2.seg but before
        // the manifest: old manifest still governs.
        fs::write(dir.join("checkpoint-2.seg"), &seg1).unwrap();
        fs::write(dir.join(MANIFEST), &manifest).unwrap();
        fs::write(dir.join(WAL_FILE), &wal).unwrap();
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.collections.len(), 2, "stage B: still checkpoint 1 + wal");

        // Stage C: killed after publishing the new manifest but before
        // the WAL truncate: the record replays idempotently on top.
        let mut m2 = Vec::new();
        m2.extend_from_slice(MANIFEST_MAGIC);
        m2.extend_from_slice(&2u64.to_le_bytes());
        m2.extend_from_slice(&fnv1a(&2u64.to_le_bytes()).to_le_bytes());
        fs::write(dir.join(MANIFEST), &m2).unwrap();
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.collections.len(), 2, "stage C: checkpoint 2 + wal replay");

        // Stage D: killed mid-manifest write would have left only
        // MANIFEST.tmp; the committed manifest still governs.
        fs::write(dir.join("MANIFEST.tmp"), [0u8; 3]).unwrap();
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.collections.len(), 2, "stage D");
        assert!(!dir.join("MANIFEST.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_loud() {
        let dir = tmpdir("badmanifest");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.checkpoint(&sample_snapshot()).unwrap();
        drop(store);
        let mut m = fs::read(dir.join(MANIFEST)).unwrap();
        m[6] ^= 0xff;
        fs::write(dir.join(MANIFEST), &m).unwrap();
        assert!(Store::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
