//! Zero-copy adoption equivalence suite: a database served from a
//! memory-mapped checkpoint must be observably indistinguishable from
//! one served from an owned (read-into-memory) open of the same
//! segment.
//!
//! The matrix:
//!
//! - mapped vs owned vs eagerly-verified opens at 1, 2, and 8 worker
//!   threads: rendered results, the full observability counter set
//!   (search steps, backtracks, refine iterations/removals, retrieval
//!   and planner counters), and the `EXPLAIN ANALYZE` operator trees
//!   (modulo wall-clock props) must be identical;
//! - compaction while mapped: a later checkpoint deletes the segment
//!   file whose pages a live snapshot's index slabs are borrowing — on
//!   unix the mapping keeps the pages alive, and queries over the held
//!   snapshot keep answering identically (pinned so a future
//!   platform/storage change can't silently regress it);
//! - a bit flipped at every byte offset of the mapped checkpoint: the
//!   open (or the first query over the poisoned section) must fail
//!   loudly or leave results identical (flips in padding) — never
//!   panic, never silently diverge.

use gql_core::ExplainNode;
use gql_datagen::{erdos_renyi, ErConfig};
use gql_engine::{Database, OpenOptions};
use std::fmt::Write as _;
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
    let dir = std::env::temp_dir().join(format!("gql-mmapeq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A checkpointed data directory holding one collection `G` (several
/// graphs, so the per-graph σ workers engage) with its indexes in the
/// segment.
fn checkpointed_dir(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let mut db = Database::open(&dir).expect("create");
    let mut coll = gql_core::GraphCollection::named("G");
    for seed in 0..4u64 {
        coll.push(erdos_renyi(&ErConfig {
            nodes: 160,
            edges: 480,
            labels: 6,
            seed: 0x5EED ^ seed,
        }));
    }
    db.add_collection("G", coll);
    // Run the query once, so the checkpoint saves the snapshot it built.
    db.execute(QUERY).expect("seed query");
    db.close().expect("checkpoint");
    dir
}

fn run_query(db: &mut Database) -> Vec<String> {
    let out = db.execute(QUERY).expect("query");
    out.returned
        .iter()
        .flat_map(|c| c.iter().map(|g| g.to_string()))
        .collect()
}

/// Renders an EXPLAIN tree with wall-clock props removed — the
/// deterministic skeleton (labels, cardinalities, steps, backtracks,
/// refine stats, plan order) two equivalent runs must share.
fn normalize_explain(node: &ExplainNode, out: &mut String) {
    let _ = write!(out, "({}", node.label);
    for (k, v) in &node.props {
        if k == "ms" || k.ends_with("_ms") || k.ends_with("_us") {
            continue;
        }
        let _ = write!(out, " {k}={v:?}");
    }
    for c in &node.children {
        normalize_explain(c, out);
    }
    out.push(')');
}

/// One full observation of a database: query results (twice, so the
/// second statement exercises the plan-cache hit path), the complete
/// counter set, and the normalized explain trees.
fn observe(db: &mut Database) -> (Vec<String>, Vec<(String, u64)>, String) {
    db.enable_profiling();
    db.enable_explain();
    let mut results = run_query(db);
    results.extend(run_query(db));
    let counters = db.profile_report().counters;
    let mut trees = String::new();
    for t in db.explain_trees() {
        normalize_explain(t, &mut trees);
    }
    (results, counters, trees)
}

/// Mapped, owned, and eagerly-verified opens of the same checkpoint
/// must be observably identical at every thread count.
#[test]
fn mapped_and_owned_opens_are_equivalent_at_1_2_8_threads() {
    let dir = checkpointed_dir("equiv");
    for threads in [1usize, 2, 8] {
        let mut mapped = Database::open(&dir)
            .expect("mapped open")
            .with_threads(threads);
        let mut owned = Database::open_with(
            &dir,
            OpenOptions {
                mmap: false,
                verify: false,
            },
        )
        .expect("owned open")
        .with_threads(threads);
        let mut verified = Database::open_with(
            &dir,
            OpenOptions {
                mmap: true,
                verify: true,
            },
        )
        .expect("verified open")
        .with_threads(threads);
        if cfg!(unix) {
            assert!(mapped.is_mapped(), "default open must map on unix");
        }
        assert!(!owned.is_mapped(), "--no-mmap must not map");

        let (m_res, m_ctr, m_exp) = observe(&mut mapped);
        let (o_res, o_ctr, o_exp) = observe(&mut owned);
        let (v_res, v_ctr, v_exp) = observe(&mut verified);
        assert!(!m_res.is_empty(), "query must return matches");
        assert_eq!(m_res, o_res, "threads={threads}: results diverged");
        assert_eq!(m_res, v_res, "threads={threads}: verified results diverged");
        assert_eq!(m_ctr, o_ctr, "threads={threads}: counters diverged");
        assert_eq!(
            m_ctr, v_ctr,
            "threads={threads}: verified counters diverged"
        );
        assert_eq!(m_exp, o_exp, "threads={threads}: explain trees diverged");
        assert_eq!(m_exp, v_exp, "threads={threads}: verified explain diverged");
    }
    fs::remove_dir_all(&dir).ok();
}

fn seg_files(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".seg"))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

/// Compaction deletes the segment file whose pages the live snapshot's
/// adopted index slabs borrow. On unix the mapping keeps the pages
/// alive past the unlink — the held snapshot must keep answering
/// identically. Pinned here so a storage-layer change can't regress
/// the contract silently.
#[cfg(unix)]
#[test]
fn compaction_while_mapped_keeps_live_snapshots_answering() {
    let dir = checkpointed_dir("compact");
    let mut db = Database::open(&dir).expect("mapped open");
    assert!(db.is_mapped());
    let before_files = seg_files(&dir);
    let before = run_query(&mut db);
    let held = db.snapshot("G").cloned().expect("snapshot built by query");

    // Mutate an unrelated collection and checkpoint: the protocol
    // writes checkpoint-(n+1).seg and deletes checkpoint-n.seg — the
    // file backing `held`'s (and G's still-cached) index slabs.
    db.add_graph(
        "H",
        erdos_renyi(&ErConfig {
            nodes: 40,
            edges: 80,
            labels: 4,
            seed: 0xDEAD,
        }),
    );
    db.checkpoint().expect("second checkpoint");
    let after_files = seg_files(&dir);
    assert_ne!(before_files, after_files, "compaction must swap segments");
    for old in &before_files {
        assert!(
            !after_files.contains(old),
            "old segment {old} must be deleted by compaction"
        );
    }

    // G's snapshot is untouched by the mutation of H: same Arc, and the
    // unlinked file's pages still answer through the mapping.
    let same = db.snapshot("G").expect("G snapshot survives");
    assert_eq!(same.generation(), held.generation());
    let after = run_query(&mut db);
    assert_eq!(
        before, after,
        "answers changed after compaction unlinked the mapped segment"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A bit flipped at every byte offset of the checkpoint file: mapped
/// lazy opens must fail loudly (open error or rejected decode) or —
/// when the flip lands in padding or an unused region — answer
/// identically. Never a panic, never silent divergence. The eager
/// `--verify-checkpoint` open must reject at least everything the lazy
/// path rejects.
#[test]
fn bit_flips_in_the_mapped_checkpoint_fail_loudly_or_change_nothing() {
    let dir = tmpdir("bitflip");
    let mut db = Database::open(&dir).expect("create");
    db.add_graph(
        "G",
        erdos_renyi(&ErConfig {
            nodes: 60,
            edges: 150,
            labels: 6,
            seed: 0xB17,
        }),
    );
    db.execute(QUERY).expect("seed query");
    db.close().expect("checkpoint");

    let seg_name = seg_files(&dir).pop().expect("one segment");
    let seg_path = dir.join(&seg_name);
    let good = fs::read(&seg_path).expect("read segment");
    let baseline = run_query(&mut Database::open(&dir).expect("baseline open"));
    assert!(!baseline.is_empty());

    // Every byte for small segments; a covering stride for larger ones
    // (every region class — header, directory, each section, padding —
    // is still hit many times over).
    // Index-section validation is deferred to first touch, so a flip
    // can be rejected either by the open (header/directory/collection
    // sections) or by the first query (adopted index sections).
    let try_answers = |db: &mut Database| -> Result<Vec<String>, ()> {
        let out = db.execute(QUERY).map_err(|_| ())?;
        Ok(out
            .returned
            .iter()
            .flat_map(|c| c.iter().map(|g| g.to_string()))
            .collect())
    };
    let stride = (good.len() / 4_096).max(1);
    let mut rejected = 0usize;
    let mut query_rejected = 0usize;
    let mut silent_ok = 0usize;
    for i in (0..good.len()).step_by(stride) {
        let mut bad = good.clone();
        bad[i] ^= 0x40;
        fs::write(&seg_path, &bad).expect("write corrupted segment");

        let Ok(mut db) = Database::open(&dir) else {
            rejected += 1;
            continue;
        };
        match try_answers(&mut db) {
            Err(()) => {
                rejected += 1;
                query_rejected += 1;
                // A corrupt section that survived the lazy open and was
                // caught at first touch must not vanish with the failed
                // query: it degrades /healthz and bumps the
                // storage.crc_fail counter on the live registry.
                let health = db.metrics().health();
                assert!(
                    !health.ok,
                    "byte {i}: query-time rejection left /healthz ok"
                );
                assert!(
                    health.json.contains("\"status\": \"degraded\""),
                    "byte {i}: {}",
                    health.json
                );
                assert!(
                    db.metrics()
                        .obs()
                        .report()
                        .counter("storage.crc_fail")
                        .unwrap_or(0)
                        >= 1,
                    "byte {i}: rejection did not bump storage.crc_fail"
                );
            }
            Ok(res) => {
                // The flip survived open + adoption; it must be
                // invisible to queries.
                assert_eq!(
                    res, baseline,
                    "byte {i}: corrupted open silently changed answers"
                );
                silent_ok += 1;
                // The eager verifier may reject what lazy adoption
                // tolerated (padding flips are CRC-invisible), but when
                // it accepts, answers must match too.
                if let Ok(vres) = Database::open_with(
                    &dir,
                    OpenOptions {
                        mmap: true,
                        verify: true,
                    },
                )
                .map_err(|_| ())
                .and_then(|mut vdb| try_answers(&mut vdb))
                {
                    assert_eq!(vres, baseline, "byte {i}: verified open diverged");
                }
            }
        }
    }
    fs::write(&seg_path, &good).expect("restore segment");
    assert!(
        rejected > 0,
        "no flip was rejected — corruption checking is not engaged"
    );
    assert!(
        query_rejected > 0,
        "no flip was caught at first touch — lazy adoption validation is not engaged"
    );
    assert!(
        Database::open(&dir).is_ok(),
        "restored pristine segment must open"
    );
    eprintln!(
        "bitflip sweep: {} offsets, {} rejected ({} at first query), {} harmless",
        good.len().div_ceil(stride),
        rejected,
        query_rejected,
        silent_ok
    );
    fs::remove_dir_all(&dir).ok();
}
