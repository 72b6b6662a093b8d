//! `mol_mixed_rw`: a persistent database of molecule collections under a
//! seeded 90/10 read/write stream with periodic checkpoints.

use crate::replay::{self, outcome_digest};
use crate::run::{Recorder, RunCfg, Workload};
use crate::stats::Digest;
use crate::sys;
use gql_core::storage::encode_collection;
use gql_core::GraphCollection;
use gql_datagen::{molecule_collection, MoleculeConfig, Zipf};
use gql_engine::Database;
use gql_storage::{Store, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Contents a collection cycles through: a write puts the next variant,
/// so every read's expected answer is known from set-up.
const VARIANTS: usize = 4;
/// Ops per pass; the last one is the checkpoint.
const PASS_OPS: usize = 500;
const WRITE_SHARE: f64 = 0.10;

/// The `examples/chemistry.rs` pattern: a hetero-aromatic 6-ring with an
/// oxygen on the side chain, one result graph per match naming the
/// molecule and the atom.
fn read_program(collection: &str) -> String {
    format!(
        r#"for graph RingO {{
  node a1 <label="N">;
  node a2 <label="C">; node a3 <label="C">;
  node a4 <label="C">; node a5 <label="C">;
  node a6 <label="C">;
  node s1 <label="O">;
  edge b1 (a1, a2) <kind="aromatic">;
  edge b2 (a2, a3) <kind="aromatic">;
  edge b3 (a3, a4) <kind="aromatic">;
  edge b4 (a4, a5) <kind="aromatic">;
  edge b5 (a5, a6) <kind="aromatic">;
  edge b6 (a6, a1) <kind="aromatic">;
  edge c1 (a2, s1) <kind="single">;
}} exhaustive in doc("{collection}")
return graph {{ node hit <molecule=RingO.id, atom=RingO.s1.label>; }};
"#
    )
}

/// The inputs are a recipe, not a pool: variant `v` of collection `c` is
/// regenerated from its own seed whenever it is needed, so the runner's
/// peak RSS is the database's and not a four-fold copy of its contents.
pub struct MolInputs {
    collections: usize,
    molecules: usize,
    seed: u64,
}

impl MolInputs {
    fn variant(&self, c: usize, v: usize) -> GraphCollection {
        let generated = molecule_collection(&MoleculeConfig {
            count: self.molecules,
            heterocyclic_fraction: 0.3,
            seed: self
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add((c * VARIANTS + v) as u64),
        });
        // The molecule's ordinal, so a result names the molecule it
        // matched.
        let mut out = GraphCollection::named(collection_name(c));
        for (i, mut g) in generated.into_vec().into_iter().enumerate() {
            g.attrs.set("id", i as i64);
            out.push(g);
        }
        out
    }
}

fn collection_name(c: usize) -> String {
    format!("M{c:02}")
}

fn text_len(c: &GraphCollection) -> u64 {
    c.iter().map(|g| format!("{g};\n").len() as u64).sum()
}

pub struct MolMixed {
    db: Option<Database>,
    dir: PathBuf,
    /// A second store the traced run replays WAL appends on.
    wal_replay: Option<Store>,
    inputs: MolInputs,
    programs: Vec<String>,
    /// Expected read digest per (collection, variant), from warm-up.
    reference: Vec<Vec<Digest>>,
    /// Which variant each collection currently holds.
    live: Vec<usize>,
    rng: StdRng,
    zipf: Zipf,
    /// The database's own WAL counters (appends, bytes, fsyncs) when
    /// set-up ended.
    wal_base: [u64; 3],
}

/// Appends, bytes and fsyncs the database's always-on registry has
/// counted on its WAL since open.
fn wal_counters(db: &Database) -> [u64; 3] {
    let obs = db.metrics().obs();
    [
        obs.counter("storage.wal.appends").get(),
        obs.counter("storage.wal.append_bytes").get(),
        obs.report()
            .phase("storage.wal.fsync")
            .map_or(0, |p| p.count),
    ]
}

impl Workload for MolMixed {
    const NAME: &'static str = "mol_mixed_rw";
    type Inputs = MolInputs;

    fn generate(seed: u64, quick: bool) -> MolInputs {
        let (collections, molecules) = if quick { (4, 100) } else { (32, 500) };
        MolInputs {
            collections,
            molecules,
            seed,
        }
    }

    fn input_bytes(inputs: &MolInputs) -> Vec<u8> {
        let mut s = String::new();
        for c in 0..inputs.collections {
            for v in 0..VARIANTS {
                for g in &inputs.variant(c, v) {
                    let _ = writeln!(s, "{g};");
                }
            }
        }
        s.into_bytes()
    }

    fn setup(inputs: MolInputs, cfg: &RunCfg, work: &Path) -> Result<Self, String> {
        let dir = work.join("db");
        let mut db = Database::open(&dir)
            .map_err(|e| e.to_string())?
            .with_threads(1);
        let n = inputs.collections;
        let programs: Vec<String> = (0..n).map(|c| read_program(&collection_name(c))).collect();
        // Warm-up doubles as the reference: every variant is put and read
        // once, last to first, which leaves variant 0 live and indexed.
        let mut reference = vec![vec![Digest::default(); VARIANTS]; n];
        for v in (0..VARIANTS).rev() {
            for c in 0..n {
                db.add_collection(collection_name(c), inputs.variant(c, v));
                let out = db
                    .execute(&programs[c])
                    .map_err(|e| format!("warm-up: {e}"))?;
                reference[c][v] = outcome_digest(&out);
            }
        }
        db.checkpoint().map_err(|e| e.to_string())?;
        let wal_replay = if cfg.trace {
            let (store, _) = Store::open(&work.join("wal-replay")).map_err(|e| e.to_string())?;
            Some(store)
        } else {
            None
        };
        Ok(MolMixed {
            wal_base: wal_counters(&db),
            db: Some(db),
            dir,
            wal_replay,
            programs,
            reference,
            live: vec![0; n],
            rng: StdRng::seed_from_u64(inputs.seed ^ 0x05ee_d0b5),
            zipf: Zipf::new(n),
            inputs,
        })
    }

    fn reference(&self) -> Vec<Digest> {
        self.reference.iter().flatten().copied().collect()
    }

    fn oracle_check(&self, seed: u64) -> (u64, u64) {
        // Against whatever variant each sampled collection holds now.
        let db = self.db.as_ref().expect("database is open");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dac1e);
        let sample = (self.programs.len() * VARIANTS / 20).max(1);
        let (mut checked, mut wrong) = (0, 0);
        for _ in 0..sample {
            let c = rng.gen_range(0..self.programs.len());
            // A collection written since its last read has no snapshot
            // (no indexes) to answer from.
            if db.snapshot(&collection_name(c)).is_none() {
                continue;
            }
            checked += 1;
            if replay::baseline_answer(&self.programs[c], db) != self.reference[c][self.live[c]] {
                wrong += 1;
            }
        }
        (checked, wrong)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let db = self.db.as_mut().expect("database is open");
        for _ in 0..PASS_OPS - 1 {
            // Zipf-skewed choice of collection: a few are hot.
            let c = self.zipf.sample(&mut self.rng);
            let name = collection_name(c);
            if self.rng.gen_bool(WRITE_SHARE) {
                let v = (self.live[c] + 1) % VARIANTS;
                // Generating it is the client preparing its request.
                let coll = self.inputs.variant(c, v);
                let put_bytes = rec.tracer.is_some().then(|| encode_collection(coll.iter()));
                let (_, span) = rec.op("write", "engine.put", || {
                    db.add_collection(name.clone(), coll);
                });
                self.live[c] = v;
                let error = db.storage_error().map(str::to_string);
                rec.check(error.is_none(), || format!("put {name}: {error:?}"));
                if let (Some(t), Some((op, put)), Some(store), Some(payload)) = (
                    rec.tracer.as_mut(),
                    span,
                    self.wal_replay.as_mut(),
                    put_bytes,
                ) {
                    t.count("engine.put.bytes", payload.len() as u64);
                    let record = WalRecord::PutCollection { name, payload };
                    let (logged, _) =
                        t.span("storage.wal_append", op, Some(put), || store.log(&record));
                    if let Err(e) = logged {
                        eprintln!("warning: WAL replay append failed: {e}");
                    }
                }
            } else if let Some(out) = replay::execute(db, &self.programs[c], &name, "read", rec) {
                let got = outcome_digest(&out);
                let want = self.reference[c][self.live[c]];
                rec.check(got == want, || {
                    format!(
                        "read {name} variant {}: {got}, expected {want}",
                        self.live[c]
                    )
                });
            }
        }
        let (result, _) = rec.op("checkpoint", "storage.checkpoint", || db.checkpoint());
        rec.check(result.is_ok(), || format!("checkpoint: {result:?}"));
        if let Some(t) = rec.tracer.as_mut() {
            let seg_bytes = sys::dir_bytes(&self.dir);
            t.count("storage.checkpoint.bytes", seg_bytes);
        }
    }

    fn finish(mut self, rec: &mut Recorder) {
        let mut db = self.db.take().expect("database is open");
        if let Some(t) = rec.tracer.as_mut() {
            let now = wal_counters(&db);
            let names = [
                "storage.wal_append.appends",
                "storage.wal_append.bytes",
                "storage.wal_append.fsyncs",
            ];
            for (name, (now, base)) in names.into_iter().zip(now.into_iter().zip(self.wal_base)) {
                t.count(name, now - base);
            }
        }
        // The last op of every pass is a checkpoint, so the directory now
        // holds exactly the live collections.
        let user_bytes: u64 = (0..self.live.len())
            .map(|c| text_len(&self.inputs.variant(c, self.live[c])))
            .sum();
        rec.extra.insert(
            "storage.stored_bytes_per_user_byte",
            sys::dir_bytes(&self.dir) as f64 / user_bytes as f64,
        );

        // Crash-style end: a few more acknowledged puts that only the WAL
        // holds, then the handle is dropped with no close() and no
        // checkpoint(), and the directory must come back with every
        // collection at its last acknowledged variant. (Logical recovery
        // only: the OS page cache survives a dropped handle.)
        for c in 0..self.live.len().min(3) {
            let v = (self.live[c] + 1) % VARIANTS;
            db.add_collection(collection_name(c), self.inputs.variant(c, v));
            self.live[c] = v;
        }
        drop(db);
        rec.attempted += self.live.len() as u64;
        match Database::open(&self.dir) {
            Err(e) => rec.check(false, || format!("reopen failed: {e}")),
            Ok(db) => {
                for (c, &v) in self.live.iter().enumerate() {
                    let name = collection_name(c);
                    let got = db
                        .collection(&name)
                        .map(|coll| Digest::of_graphs(coll.iter()));
                    let want = Digest::of_graphs(self.inputs.variant(c, v).iter());
                    rec.check(got == Some(want), || {
                        format!("after reopen {name} is {got:?}, last acknowledged put was {want}")
                    });
                }
            }
        }
    }
}
