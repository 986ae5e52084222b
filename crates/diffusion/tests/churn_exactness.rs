//! Incremental churn maintenance equals a cold rebuild along random
//! mutation chains: `RisEstimator::refresh` against `RisEstimator::new` at
//! two pool sizes, and `WorldCollection::patch` against
//! `WorldCollection::sample` at two thread counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tcim_diffusion::{
    Deadline, ParallelismConfig, RisConfig, RisEstimator, RrSketches, WorldCollection, WorldsConfig,
};
use tcim_graph::{Graph, GraphBuilder, GroupId, MutationOp, NodeId};

const NODES: u32 = 60;
const POOL_SIZES: [usize; 2] = [500, 5_000];

/// The edges of the graph a chain has reached, keyed by `(source, target)`.
type Shadow = BTreeMap<(u32, u32), f64>;

/// A random 60-node, two-group graph with about four out-edges per node.
fn random_graph(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new();
    for v in 0..NODES {
        b.add_node(GroupId(u32::from(v % 3 == 0)));
    }
    for _ in 0..4 * NODES {
        let (s, t) = (rng.random_range(0..NODES), rng.random_range(0..NODES));
        if s != t {
            b.add_edge(NodeId(s), NodeId(t), rng.random_range(0.05..0.6)).unwrap();
        }
    }
    b.build().unwrap()
}

/// One batch of 1–6 ops valid in order against `shadow` (edited along).
/// Half the ops take their source from one pair of adjacent rows, so
/// batches repeat sources and splice neighbouring rows.
fn random_batch(rng: &mut StdRng, shadow: &mut Shadow) -> Vec<MutationOp> {
    let anchor = rng.random_range(0..NODES - 1);
    let mut ops = Vec::new();
    for _ in 0..rng.random_range(1..=6) {
        let s = if rng.random_bool(0.5) {
            anchor + rng.random_range(0..2u32)
        } else {
            rng.random_range(0..NODES)
        };
        let out: Vec<u32> = shadow.range((s, 0)..(s + 1, 0)).map(|(&(_, t), _)| t).collect();
        let p = rng.random_range(0.05..0.9);
        let kind = if out.is_empty() { 0 } else { rng.random_range(0..3) };
        let source = NodeId(s);
        let op = match kind {
            0 => {
                let t = rng.random_range(0..NODES);
                if t == s || shadow.contains_key(&(s, t)) {
                    continue;
                }
                shadow.insert((s, t), p);
                MutationOp::AddEdge { source, target: NodeId(t), probability: p }
            }
            1 => {
                let t = out[rng.random_range(0..out.len())];
                shadow.remove(&(s, t));
                MutationOp::RemoveEdge { source, target: NodeId(t) }
            }
            _ => {
                let t = out[rng.random_range(0..out.len())];
                shadow.insert((s, t), p);
                MutationOp::Reweight { source, target: NodeId(t), probability: p }
            }
        };
        ops.push(op);
    }
    ops
}

/// Every public view of two pools agrees, and so does the byte charge.
fn assert_same_pool(refreshed: &RisEstimator, cold: &RisEstimator, context: &str) {
    let (a, b) = (refreshed.sketches_arc(), cold.sketches_arc());
    assert_eq!(a.len(), b.len(), "{context}: sketch count");
    for (id, (x, y)) in a.sets().zip(b.sets()).enumerate() {
        assert_eq!(x.target_group, y.target_group, "{context}: group of sketch {id}");
        assert_eq!(x.nodes(), y.nodes(), "{context}: nodes of sketch {id}");
    }
    assert_eq!(a.sets_per_group(), b.sets_per_group(), "{context}: sets per group");
    for v in 0..NODES {
        assert_eq!(
            a.sets_containing(NodeId(v)),
            b.sets_containing(NodeId(v)),
            "{context}: sets containing node {v}"
        );
    }
    assert_eq!(refreshed.approx_owned_bytes(), cold.approx_owned_bytes(), "{context}: bytes");
    assert_eq!(*a, *b, "{context}: pool");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn refresh_and_patch_equal_cold_rebuilds_along_chains(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = Arc::new(random_graph(&mut rng));
        let mut shadow: Shadow = graph.edges().map(|(s, t, p)| ((s.0, t.0), p)).collect();
        let deadline = Deadline::finite(3);
        let ris_config = |num_sets| RisConfig { num_sets, seed: seed ^ 0x5eed, ..Default::default() };
        let mut pools: Vec<RisEstimator> = POOL_SIZES
            .iter()
            .map(|&size| RisEstimator::new(Arc::clone(&graph), deadline, &ris_config(size)).unwrap())
            .collect();
        let worlds_config = WorldsConfig { num_worlds: 16, seed: seed ^ 0xc0115 };
        let mut worlds = ParallelismConfig::serial()
            .run(|| WorldCollection::sample(&graph, &worlds_config))
            .unwrap();

        for step in 0..4 {
            let ops = random_batch(&mut rng, &mut shadow);
            let mutated = Arc::new(graph.apply(&ops).unwrap());
            let edited: Vec<(NodeId, NodeId)> = ops.iter().map(MutationOp::endpoints).collect();
            for (pool, &size) in pools.iter_mut().zip(&POOL_SIZES) {
                let context = format!("seed {seed}, step {step}, {size} sketches");
                let before = pool.clone();
                let snapshot = RrSketches::clone(&before.sketches_arc());
                pool.refresh(Arc::clone(&mutated), &edited).unwrap();
                let cold = RisEstimator::new(Arc::clone(&mutated), deadline, &ris_config(size))
                    .unwrap();
                assert_same_pool(pool, &cold, &context);
                assert_eq!(*before.sketches_arc(), snapshot, "{context}: the clone's pool moved");
                prop_assert_eq!(before.graph_arc().version(), graph.version());
            }
            let mut next = None;
            for threads in [1, 2] {
                let (patched, cold) = ParallelismConfig::fixed(threads).run(|| {
                    let patched = worlds.patch(&mutated, &edited, &worlds_config).unwrap();
                    (patched, WorldCollection::sample(&mutated, &worlds_config).unwrap())
                });
                prop_assert_eq!(patched.len(), cold.len());
                for (i, (x, y)) in patched.worlds().iter().zip(cold.worlds()).enumerate() {
                    assert_eq!(x, y, "seed {seed}, step {step}, world {i}, {threads} threads");
                }
                next = Some(patched);
            }
            worlds = next.unwrap();
            graph = mutated;
        }
    }
}
