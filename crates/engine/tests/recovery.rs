//! Fault-injection recovery suite: simulated `kill -9` at every stage
//! of the persistence protocol.
//!
//! The matrix:
//!
//! - the WAL's final record truncated at **every byte boundary** (a torn
//!   append),
//! - **every byte** of that record bit-flipped (media corruption the
//!   frame CRC must catch),
//! - a kill at each intermediate state of the checkpoint protocol
//!   (partial `.tmp`, renamed segment without a manifest, published
//!   manifest without the WAL truncate, partial manifest write).
//!
//! After every injected fault, reopening the directory must land on the
//! last committed state, and query results over the recovered database
//! must be byte-identical at 1, 2, and 8 worker threads to results over
//! a never-persisted in-memory database holding the same data.

use gql_core::storage::fnv1a;
use gql_core::Graph;
use gql_datagen::{erdos_renyi, ErConfig};
use gql_engine::Database;
use std::fs;
use std::path::{Path, PathBuf};

const QUERY: &str = r#"
    for graph Q {
        node a <label="L00">;
        node b <label="L01">;
        edge e (a, b);
    } exhaustive in doc("G")
    return graph { node n <who=Q.a.label>; };
"#;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gql-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_graph() -> Graph {
    erdos_renyi(&ErConfig {
        nodes: 120,
        edges: 360,
        labels: 8,
        seed: 0xFA11,
    })
}

/// Renders every returned graph to its display form — the byte-level
/// observable the determinism contract pins.
fn run_query(db: &mut Database) -> Vec<String> {
    let out = db.execute(QUERY).expect("query over recovered state");
    out.returned
        .iter()
        .flat_map(|c| c.iter().map(|g| g.to_string()))
        .collect()
}

/// Committed-state oracle: an in-memory database with the same data,
/// queried at the same thread count.
fn baseline(g: &Graph, threads: usize) -> Vec<String> {
    let mut db = Database::new().with_threads(threads);
    db.add_graph("G", g.clone());
    run_query(&mut db)
}

/// Reopens `dir` and checks the recovered database against the oracle
/// at 1, 2, and 8 threads: collection `G` restored, collection `H`
/// (the in-flight, faulted record) absent.
fn assert_recovers_to_committed(dir: &Path, g: &Graph, ctx: &str) {
    for threads in [1usize, 2, 8] {
        let mut db = Database::open(dir)
            .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"))
            .with_threads(threads);
        assert!(db.collection("G").is_some(), "{ctx}: G lost");
        assert!(
            db.collection("H").is_none(),
            "{ctx}: uncommitted H survived"
        );
        assert_eq!(
            run_query(&mut db),
            baseline(g, threads),
            "{ctx}: results diverged at {threads} threads"
        );
    }
}

/// Sets up a directory where `G` is checkpointed and a second
/// collection `H` is the single record in the WAL, then returns the
/// WAL bytes. Faults injected into that record must erase `H` and
/// nothing else.
fn setup(dir: &Path, g: &Graph) -> Vec<u8> {
    let mut db = Database::open(dir).unwrap();
    db.add_graph("G", g.clone());
    db.checkpoint().unwrap();
    db.add_graph("H", g.clone());
    assert!(db.wal_size().unwrap() > 0);
    drop(db); // no checkpoint: H lives only in the WAL
    fs::read(dir.join("wal.log")).unwrap()
}

/// Torn append: the WAL truncated at every byte boundary of its final
/// (only) record.
#[test]
fn wal_truncated_at_every_byte_recovers_to_checkpoint() {
    let dir = tmpdir("truncate");
    let g = test_graph();
    let wal = setup(&dir, &g);
    // Exhaustive cuts through the 8-byte frame header and the first
    // stretch of the payload, then sampled cuts across the rest (the
    // scan fails identically for any mid-payload cut: short payload).
    let cuts: Vec<usize> = (0..wal.len().min(64))
        .chain((64..wal.len()).step_by(97))
        .chain([wal.len() - 1])
        .collect();
    for cut in cuts {
        fs::write(dir.join("wal.log"), &wal[..cut]).unwrap();
        assert_recovers_to_committed(&dir, &g, &format!("cut at {cut}/{}", wal.len()));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Media corruption: every byte of the final record flipped (header
/// length, header CRC, and payload bytes all covered).
#[test]
fn wal_bit_flips_at_every_byte_are_rejected() {
    let dir = tmpdir("bitflip");
    let g = test_graph();
    let wal = setup(&dir, &g);
    let flips: Vec<usize> = (0..wal.len().min(64))
        .chain((64..wal.len()).step_by(89))
        .chain([wal.len() - 1])
        .collect();
    for i in flips {
        let mut bad = wal.clone();
        bad[i] ^= 0xff;
        fs::write(dir.join("wal.log"), &bad).unwrap();
        assert_recovers_to_committed(&dir, &g, &format!("flip at {i}/{}", wal.len()));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill simulation at each intermediate state of the checkpoint
/// protocol. Every state must reopen to the committed prefix: `G` from
/// a complete published checkpoint plus `H` replayed from the WAL.
#[test]
fn kill_at_each_checkpoint_stage_recovers() {
    let dir = tmpdir("ckptstage");
    let g = test_graph();
    setup(&dir, &g);
    let manifest = fs::read(dir.join("MANIFEST")).unwrap();
    let wal = fs::read(dir.join("wal.log")).unwrap();
    let seg1 = fs::read(dir.join("checkpoint-1.seg")).unwrap();

    let reopen_sees_both = |ctx: &str| {
        for threads in [1usize, 2, 8] {
            let mut db = Database::open(&dir).unwrap().with_threads(threads);
            assert!(db.collection("G").is_some(), "{ctx}: G lost");
            assert!(db.collection("H").is_some(), "{ctx}: H lost");
            assert_eq!(run_query(&mut db), baseline(&g, threads), "{ctx}");
        }
    };

    // Stage A: killed while streaming checkpoint-2.tmp (partial file).
    fs::write(dir.join("checkpoint-2.tmp"), &seg1[..seg1.len() / 3]).unwrap();
    reopen_sees_both("partial tmp");
    assert!(
        !dir.join("checkpoint-2.tmp").exists(),
        "stale tmp not cleaned up"
    );

    // Stage B: killed after the segment rename, before the manifest —
    // the old manifest still governs; the orphan segment is inert.
    fs::write(dir.join("checkpoint-2.seg"), &seg1).unwrap();
    fs::write(dir.join("MANIFEST"), &manifest).unwrap();
    fs::write(dir.join("wal.log"), &wal).unwrap();
    reopen_sees_both("segment without manifest");

    // Stage C: killed after publishing the new manifest, before the WAL
    // truncate — the WAL record replays idempotently on the new segment.
    let mut m2 = Vec::new();
    m2.extend_from_slice(b"GMAN");
    m2.extend_from_slice(&2u64.to_le_bytes());
    m2.extend_from_slice(&fnv1a(&2u64.to_le_bytes()).to_le_bytes());
    fs::write(dir.join("MANIFEST"), &m2).unwrap();
    fs::write(dir.join("wal.log"), &wal).unwrap();
    reopen_sees_both("manifest published, wal not yet truncated");

    // Stage D: killed mid-manifest-write: only MANIFEST.tmp is partial;
    // the committed manifest still governs.
    fs::write(dir.join("MANIFEST.tmp"), &m2[..5]).unwrap();
    reopen_sees_both("partial manifest tmp");
    assert!(!dir.join("MANIFEST.tmp").exists());

    // A corrupted *published* manifest is a loud error, not silent data
    // loss.
    let mut bad = m2.clone();
    bad[7] ^= 0xff;
    fs::write(dir.join("MANIFEST"), &bad).unwrap();
    assert!(Database::open(&dir).is_err(), "corrupt manifest must fail");

    fs::remove_dir_all(&dir).unwrap();
}

/// Clean-shutdown fast path: after `close`, reopening adopts the
/// checkpointed index arrays (zero index builds) and serves identical
/// results at every thread count.
#[test]
fn clean_close_reopens_without_rebuilding_indexes() {
    let dir = tmpdir("cleanclose");
    let g = test_graph();
    let mut db = Database::open(&dir).unwrap();
    db.add_graph("G", g.clone());
    let first = run_query(&mut db);
    db.close().unwrap();
    for threads in [1usize, 2, 8] {
        let mut db = Database::open(&dir).unwrap().with_threads(threads);
        db.enable_profiling();
        assert_eq!(run_query(&mut db), first, "{threads} threads");
        assert_eq!(
            db.profile_report().counter("index.builds").unwrap_or(0),
            0,
            "reopen after close must not rebuild indexes"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A data dir checkpointed before the CSR snapshot became unconditional
/// (options record `csr: false`, index parts without CSR arrays —
/// written here through `gql_storage` directly) still opens; its index
/// sections are *not* adopted — the options-mismatch path re-indexes on
/// first query — and answers equal a never-persisted database's.
#[test]
fn checkpoint_recorded_without_csr_reopens_and_reindexes() {
    use gql_core::storage::encode_collection;
    use gql_match::GraphIndex;
    use gql_storage::{CollectionSnapshot, Snapshot, Store, StoredOptions};

    let dir = tmpdir("nocsr");
    let g = test_graph();
    let mut parts = GraphIndex::build_with_profiles(&g, 1).to_parts();
    parts.csr = None;
    let (mut store, _) = Store::open(&dir).unwrap();
    store
        .checkpoint(&Snapshot {
            options: Some(StoredOptions {
                csr: false,
                prop_index: true,
                profiles: true,
                radius: 1,
            }),
            collections: vec![CollectionSnapshot {
                name: "G".into(),
                payload: encode_collection([&g]),
                indexes: vec![parts],
            }],
            ..Snapshot::default()
        })
        .unwrap();
    drop(store);

    for threads in [1usize, 2, 8] {
        let mut db = Database::open(&dir).unwrap().with_threads(threads);
        db.enable_profiling();
        assert_eq!(
            run_query(&mut db),
            baseline(&g, threads),
            "{threads} threads"
        );
        let rep = db.profile_report();
        assert_eq!(
            rep.counter("index.builds"),
            Some(1),
            "stale index sections must be rebuilt, not adopted"
        );
        assert_eq!(rep.counter("engine.index_cache.hits").unwrap_or(0), 0);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Payload of a `feedback` section as checkpoints wrote it while
/// planner feedback was persisted: one shape slot (shape
/// `0x9e37_79b9_7f4a_7c15`, scope 0, 2 runs, candidate space 9, 1
/// removed, 6 checks, refined sizes `[3, 2]`, 7 steps, 4 matches,
/// estimate 4.5, probe bucket 5, 2 probe hits) and one label slot
/// (scope 0, label 1, 2 runs, estimated 5, observed 3).
const OLD_FEEDBACK_PAYLOAD: [u8; 37] = [
    1, 149, 248, 169, 250, 151, 183, 222, 155, 158, 1, 0, 2, 9, 1, 6, 2, 3, 2, 7, 4, 0, 0, 0, 0, 0,
    0, 18, 64, 5, 2, 1, 0, 1, 2, 5, 3,
];

/// A data dir whose checkpoint still carries a `feedback` section (the
/// segment is re-emitted here with one after `G`'s index section)
/// opens mapped, owned, and fully verified; the section is skipped,
/// the index arrays are adopted without a rebuild, and answers are
/// unchanged.
#[test]
fn checkpoint_with_old_feedback_section_reopens_unchanged() {
    use gql_core::storage::ByteSink;
    use gql_storage::{OpenOptions, Segment, SegmentWriter};

    let dir = tmpdir("oldfeedback");
    let g = test_graph();
    let mut db = Database::open(&dir).unwrap();
    db.add_graph("G", g.clone());
    let first = run_query(&mut db);
    db.close().unwrap();

    let seg_path = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("published segment");
    let seg = Segment::parse(fs::read(&seg_path).unwrap()).unwrap();
    assert!(
        seg.sections().all(|s| s.kind() != "feedback"),
        "checkpoints no longer write feedback"
    );
    let mut declared: Vec<(&str, &str)> = Vec::new();
    for s in seg.sections() {
        declared.push((s.kind(), s.name()));
        if s.kind() == "indexes" {
            declared.push(("feedback", s.name()));
        }
    }
    assert!(declared.contains(&("feedback", "G")));
    let mut w = SegmentWriter::create(fs::File::create(&seg_path).unwrap(), &declared).unwrap();
    for s in seg.sections() {
        w.begin_section(s.kind(), s.name());
        w.put_bytes(s.bytes());
        w.end_section();
        if s.kind() == "indexes" {
            w.begin_section("feedback", s.name());
            w.put_bytes(&OLD_FEEDBACK_PAYLOAD);
            w.end_section();
        }
    }
    w.finish().unwrap().sync_all().unwrap();

    for (mmap, verify) in [(true, false), (false, false), (true, true)] {
        let mut db = Database::open_with(&dir, OpenOptions { mmap, verify }).unwrap();
        db.enable_profiling();
        assert_eq!(db.is_mapped(), mmap);
        assert_eq!(run_query(&mut db), first, "mmap={mmap} verify={verify}");
        assert_eq!(
            db.profile_report().counter("index.builds").unwrap_or(0),
            0,
            "mmap={mmap} verify={verify}: indexes adopted, not rebuilt"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}
