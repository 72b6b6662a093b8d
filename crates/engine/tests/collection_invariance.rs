//! Answers do not depend on where a member sits in its collection.
//! Definitions 4.3/4.4 define σ's answer per member as a set of
//! mappings, so over generated collections, run through
//! `Database::execute`:
//!
//! - reordering the members reorders the per-member answers and changes
//!   nothing else;
//! - a disjoint distractor member adds only its own answers.
//!
//! Answers are compared as sets of `(member, mapping)`: each member
//! carries a `gid` graph attribute and each node an `nid`, and the
//! `return` templates copy both into every result graph.

use gql_core::{Graph, GraphCollection, NodeId, Tuple, Value};
use gql_engine::Database;
use proptest::prelude::*;
use std::collections::BTreeSet;

const LABELS: [&str; 3] = ["A", "B", "C"];

/// An edge and a two-edge path, each returning one graph per mapping.
const PROGRAM: &str = r#"
for graph Q { node x <label="A">; node y <label="B">; edge e (x, y); }
exhaustive in doc("C")
return graph { node n <gid=Q.gid, x=Q.x.nid, y=Q.y.nid>; };
for graph Q { node x <label="A">; node y; node z <label="C">; edge e1 (x, y); edge e2 (y, z); }
exhaustive in doc("C")
return graph { node n <gid=Q.gid, x=Q.x.nid, y=Q.y.nid, z=Q.z.nid>; };
"#;

/// Up to this many members per collection.
const MAX_MEMBERS: usize = 6;

/// `(labels, edges)` of one member, as drawn.
type Shape = (Vec<u8>, Vec<(u8, u8)>);

fn shape() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec(0u8..3, 1..12),
        proptest::collection::vec((0u8..12, 0u8..12), 0..20),
    )
}

/// Member `gid` of the given shape: `gid` as a graph attribute, `nid`
/// (the node's position in `labels`) on every node.
fn member(gid: i64, (labels, edges): &Shape) -> Graph {
    let mut g = Graph::new();
    g.attrs = Tuple::new().with("gid", gid);
    for (nid, &l) in labels.iter().enumerate() {
        g.add_node(
            Tuple::new()
                .with("label", LABELS[l as usize])
                .with("nid", nid as i64),
        );
    }
    let n = labels.len() as u32;
    for &(a, b) in edges {
        let (a, b) = (a as u32 % n, b as u32 % n);
        if a != b {
            let _ = g.add_edge(NodeId(a), NodeId(b), Tuple::new());
        }
    }
    g
}

/// One answer: the member's `gid` and the matched `nid`s in template
/// order.
type Answer = (i64, Vec<Value>);

/// Per statement, the answers in return order, from a fresh database
/// holding `members` as collection `C`.
fn run(members: &[Graph]) -> Vec<Vec<Answer>> {
    let mut db = Database::new();
    db.add_collection("C", members.iter().cloned().collect::<GraphCollection>());
    let out = db.execute(PROGRAM).unwrap();
    assert_eq!(out.returned.len(), 2);
    out.returned
        .iter()
        .map(|coll| {
            coll.iter()
                .map(|g| {
                    assert_eq!(g.node_count(), 1);
                    let attrs = &g.node(NodeId(0)).attrs;
                    let Some(Value::Int(gid)) = attrs.get("gid") else {
                        panic!("result without a gid: {g}");
                    };
                    let mapping = attrs
                        .iter()
                        .filter(|(k, _)| *k != "gid")
                        .map(|(_, v)| v.clone())
                        .collect();
                    (*gid, mapping)
                })
                .collect()
        })
        .collect()
}

/// The answers of one statement as a set of `(member, mapping)`.
fn answer_set(answers: &[Answer]) -> BTreeSet<Answer> {
    let set: BTreeSet<Answer> = answers.iter().cloned().collect();
    assert_eq!(set.len(), answers.len(), "a mapping was returned twice");
    set
}

/// The members in the order their answers come back, each once; a
/// member's answers must be contiguous.
fn answer_order(answers: &[Answer]) -> Vec<i64> {
    let mut order: Vec<i64> = Vec::new();
    for (gid, _) in answers {
        if order.last() != Some(gid) {
            assert!(!order.contains(gid), "member {gid}'s answers are split");
            order.push(*gid);
        }
    }
    order
}

/// Expected answer order: `order`'s members that have answers.
fn expected_order(order: &[i64], answers: &[Answer]) -> Vec<i64> {
    let answered: BTreeSet<i64> = answers.iter().map(|(gid, _)| *gid).collect();
    order
        .iter()
        .copied()
        .filter(|gid| answered.contains(gid))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Permuting the members permutes the answer groups to the new
    /// member order and leaves the set of `(member, mapping)` alone.
    #[test]
    fn reordering_members_only_reorders_their_answers(
        shapes in proptest::collection::vec(shape(), 2..MAX_MEMBERS + 1),
        keys in proptest::collection::vec(any::<u32>(), MAX_MEMBERS..MAX_MEMBERS + 1),
    ) {
        let members: Vec<Graph> =
            shapes.iter().enumerate().map(|(i, s)| member(i as i64, s)).collect();
        let mut perm: Vec<usize> = (0..members.len()).collect();
        perm.sort_by_key(|&i| (keys[i], i));
        let permuted: Vec<Graph> = perm.iter().map(|&i| members[i].clone()).collect();
        let order: Vec<i64> = perm.iter().map(|&i| i as i64).collect();

        let base = run(&members);
        let moved = run(&permuted);
        for (b, m) in base.iter().zip(&moved) {
            prop_assert_eq!(answer_set(b), answer_set(m));
            prop_assert_eq!(answer_order(m), expected_order(&order, b));
        }
    }

    /// Inserting a distractor member anywhere adds exactly the answers
    /// it has on its own, in its position, and no other.
    #[test]
    fn a_distractor_member_adds_only_its_own_answers(
        shapes in proptest::collection::vec(shape(), 1..MAX_MEMBERS),
        extra in shape(),
        at in 0usize..MAX_MEMBERS,
    ) {
        let members: Vec<Graph> =
            shapes.iter().enumerate().map(|(i, s)| member(i as i64, s)).collect();
        let gid = members.len() as i64;
        let distractor = member(gid, &extra);
        let at = at % (members.len() + 1);
        let mut with = members.clone();
        with.insert(at, distractor.clone());
        let mut order: Vec<i64> = (0..gid).collect();
        order.insert(at, gid);

        let base = run(&members);
        let alone = run(&[distractor]);
        let both = run(&with);
        for ((b, a), w) in base.iter().zip(&alone).zip(&both) {
            let expected: Vec<Answer> = b.iter().chain(a).cloned().collect();
            prop_assert_eq!(answer_set(w), answer_set(&expected));
            prop_assert_eq!(answer_order(w), expected_order(&order, &expected));
        }
    }
}
