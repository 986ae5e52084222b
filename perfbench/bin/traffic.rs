//! Seeded traffic generators: one per workload. The warm-up is fixed per
//! workload; the streams are a pure function of the workload seed and the
//! version-0 graphs of the datasets they read. The server only ever sees
//! the generated protocol lines.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use tcim_graph::{Graph, NodeId};
use tcim_service::{OracleCache, Request};

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold scenario sweep: compute-bound, every dataset built once.
    SweepCold,
    /// Sparse graph mutations interleaved with RIS and worlds reads.
    ChurnRis,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SweepCold, Workload::ChurnRis];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::ChurnRis => "churn_ris",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated request line; `problem` is `Some(k)` for a solve of
/// paper problem P(k+1).
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    pub text: String,
    pub problem: Option<usize>,
}

/// The lines the client connection sends, in order. The client stops only
/// at a pass boundary, so every run covers whole passes.
#[derive(Clone, Debug, PartialEq)]
pub struct Stream {
    pub lines: Vec<Line>,
    pub pass_len: usize,
}

/// Client connections per workload. One: the engine already spreads a
/// request over both cores, and a second closed loop on a 2-core machine
/// measured mostly how the scheduler interleaved the two.
pub const CLIENTS: usize = 1;

/// SplitMix64: a tiny, fully specified generator, so traffic bytes depend
/// on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to three decimals so lines stay short.
    pub fn prob(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)) * 1000.0).round() / 1000.0
    }

    /// `count` distinct nodes of `0..nodes`, ascending.
    pub fn nodes(&mut self, nodes: usize, count: usize) -> Vec<usize> {
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count {
            let node = self.below(nodes);
            if !picked.contains(&node) {
                picked.push(node);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Dataset seeds stay far below 2^53, the protocol's exact-integer range.
fn dataset_base(seed: u64) -> u64 {
    (seed % 1_000_000_007) * 64
}

fn node_list(nodes: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, node) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{node}");
    }
    out.push(']');
    out
}

/// P1..P6 as request fragments (op + problem fields). `seeds` caps cover
/// problems so their cost stays bounded on large graphs.
fn problem(k: usize, budget: usize, quota: f64, seeds: Option<usize>) -> (&'static str, String) {
    let cap = seeds.map(|s| format!(r#","max_seeds":{s}"#)).unwrap_or_default();
    match k {
        0 => ("solve_budget", format!(r#""budget":{budget}"#)),
        1 => ("solve_cover", format!(r#""quota":{quota}{cap}"#)),
        2 => ("solve_budget", format!(r#""budget":{budget},"disparity_cap":0.4"#)),
        3 => ("solve_budget", format!(r#""budget":{budget},"fair":true,"wrapper":"log""#)),
        4 => ("solve_cover", format!(r#""quota":{quota}{cap},"disparity_cap":0.4"#)),
        _ => ("solve_cover", format!(r#""quota":{quota}{cap},"fair":true"#)),
    }
}

fn plain(text: String) -> Line {
    Line { text, problem: None }
}

/// Lines served before the client starts: they fill the cache the timed
/// traffic then reads (none for `sweep_cold`, which must stay cold).
pub fn warmup(workload: Workload) -> Vec<Line> {
    match workload {
        Workload::SweepCold => Vec::new(),
        Workload::ChurnRis => (0..CHURN_DATASETS)
            .flat_map(|d| {
                let selector = churn_selector(d);
                [
                    plain(format!(
                        r#"{{"id":"w-ris-{d}","op":"estimate",{selector},"deadline":{CHURN_TAU},"estimator":"ris","samples":{CHURN_RR_SETS},"seeds":[0]}}"#
                    )),
                    plain(format!(
                        r#"{{"id":"w-worlds-{d}","op":"estimate",{selector},"deadline":{CHURN_TAU},"samples":{CHURN_WORLDS},"seeds":[0]}}"#
                    )),
                ]
            })
            .collect(),
    }
}

/// The client's stream, long enough for a run of `seconds` on a machine
/// several times faster than a 2-core 2.1 GHz VM (the length only cuts the
/// stream short; line `i` does not depend on it). `cache` must already
/// hold the warm-up's graphs: `churn_ris` reads them to generate valid
/// mutations.
pub fn stream(
    workload: Workload,
    seed: u64,
    seconds: f64,
    cache: &OracleCache,
) -> Result<Stream, String> {
    let per_second = |rate: f64| (seconds * rate).ceil() as usize;
    match workload {
        Workload::SweepCold => Ok(sweep_stream(seed, 3 + per_second(1.0))),
        Workload::ChurnRis => churn_stream(seed, CHURN_PASS_STEPS * (5 + per_second(4.0)), cache),
    }
}

// ---------------------------------------------------------------- sweep_cold

const SWEEP_SIZES: [usize; 3] = [150, 300, 600];
const SWEEP_FAMILIES: [&str; 3] = ["sbm", "ba", "ws"];

fn sweep_scenario(family: &str, nodes: usize) -> String {
    match family {
        "sbm" => format!(
            r#"{{"family":"sbm","nodes":{nodes},"p_within":0.05,"p_across":0.005,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.1}}"#
        ),
        "ba" => format!(
            r#"{{"family":"barabasi-albert","nodes":{nodes},"edges_per_node":3,"homophily_bias":4.0,"weights":"weighted-cascade"}}"#
        ),
        _ => format!(
            r#"{{"family":"watts-strogatz","nodes":{nodes},"neighbors":3,"rewire_probability":0.1,"weights":"uniform","edge_probability":0.1}}"#
        ),
    }
}

/// A pass is the scenario sweep of one dataset seed: 3 sizes x 3 families
/// x P1-P6, worlds estimator, 64 worlds, tau = 5. Pass `p` takes dataset
/// seed `p` above the workload's base, so every dataset is cold exactly
/// once.
fn sweep_stream(seed: u64, passes: usize) -> Stream {
    let mut lines = Vec::new();
    for pass in 0..passes {
        let dataset_seed = dataset_base(seed) + pass as u64;
        for nodes in SWEEP_SIZES {
            for family in SWEEP_FAMILIES {
                let scenario = sweep_scenario(family, nodes);
                for k in 0..6 {
                    let (op, fields) = problem(k, 3, 0.1, None);
                    lines.push(Line {
                        text: format!(
                            r#"{{"id":"p{pass}-{family}{nodes}-P{}","op":"{op}","scenario":{scenario},"dataset_seed":{dataset_seed},"deadline":5,"samples":64,{fields}}}"#,
                            k + 1
                        ),
                        problem: Some(k),
                    });
                }
            }
        }
    }
    Stream { lines, pass_len: SWEEP_SIZES.len() * SWEEP_FAMILIES.len() * 6 }
}

/// The version-0 graph of the dataset `selector` names, from `cache`.
fn dataset_graph(selector: &str, cache: &OracleCache) -> Result<Arc<Graph>, String> {
    let probe = format!(r#"{{"op":"estimate",{selector},"seeds":[0]}}"#);
    let request = Request::parse_line(&probe).map_err(|err| format!("selector: {err}"))?;
    let dataset = request.oracle.ok_or("selector names no dataset")?.dataset;
    cache.graph(&dataset).map_err(|err| format!("graph of {selector}: {err}"))
}

// ----------------------------------------------------------------- churn_ris

const CHURN_TAU: u32 = 5;
const CHURN_RR_SETS: usize = 20_000;
const CHURN_WORLDS: usize = 8;
const CHURN_POOL: usize = 200;
/// Mutation steps per pass: the graphs take turns, and every third step
/// solves one of P1-P6, so a pass holds each problem once.
const CHURN_PASS_STEPS: usize = 18;
const CHURN_DATASETS: usize = 2;

/// Dataset 0 is a 2*10^4-node Watts-Strogatz graph, dataset 1 a
/// 5*10^3-node SBM dense enough to have about as many edges (1.2*10^5
/// each), so a step costs about the same on both. With graphs five times
/// larger a run's timings moved about twice as much with the load other
/// tenants put on the host's memory. Both graphs and the candidate pools
/// are fixed; the workload seed draws the mutations and the estimated
/// seed sets.
fn churn_selector(dataset: usize) -> String {
    let scenario = if dataset == 0 {
        r#"{"family":"watts-strogatz","nodes":20000,"neighbors":3,"rewire_probability":0.1,"weights":"uniform","edge_probability":0.1}"#
    } else {
        r#"{"family":"sbm","nodes":5000,"p_within":0.008,"p_across":0.0008,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.02}"#
    };
    format!(r#""scenario":{scenario},"dataset_seed":{}"#, dataset + 1)
}

/// The generator's view of a dataset's graph as its mutations apply:
/// the version-0 graph plus the edges added and removed since, so every
/// mutation stays valid (additions new, removals and reweights existing)
/// without a copy of the edge list.
struct ShadowEdges {
    graph: Arc<Graph>,
    added: HashSet<(u32, u32)>,
    removed: HashSet<(u32, u32)>,
}

impl ShadowEdges {
    fn exists(&self, edge: (u32, u32)) -> bool {
        self.added.contains(&edge)
            || (!self.removed.contains(&edge)
                && self.graph.out_neighbors(NodeId(edge.0)).any(|v| v.0 == edge.1))
    }

    fn add(&mut self, rng: &mut Rng) -> (u32, u32) {
        let nodes = self.graph.num_nodes();
        loop {
            let edge = (rng.below(nodes) as u32, rng.below(nodes) as u32);
            if edge.0 != edge.1 && !self.exists(edge) {
                if !self.removed.remove(&edge) {
                    self.added.insert(edge);
                }
                return edge;
            }
        }
    }

    fn remove(&mut self, rng: &mut Rng) -> (u32, u32) {
        let edge = self.existing(rng);
        self.removed.insert(edge);
        edge
    }

    /// A version-0 edge that is still there: a random node with out-edges,
    /// then one of them. Edges added since are never removed or reweighted.
    fn existing(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let source = NodeId::from_index(rng.below(self.graph.num_nodes()));
            let degree = self.graph.out_degree(source);
            if degree == 0 {
                continue;
            }
            let target = self.graph.out_neighbors(source).nth(rng.below(degree));
            let edge = (source.0, target.expect("a neighbour below the degree").0);
            if !self.removed.contains(&edge) {
                return edge;
            }
        }
    }
}

/// Each step mutates one of the graphs, taking them in turn (four
/// additions, two removals, two reweights), then reads it: RIS P1 and P4
/// solves over a 200-node candidate pool, a RIS estimate, and a worlds
/// read, so the world pool is patched at every version. Every third step
/// that read is a solve over the same pool, cycling through P1-P6;
/// otherwise it is an estimate.
fn churn_stream(seed: u64, steps: usize, cache: &OracleCache) -> Result<Stream, String> {
    let mut datasets = Vec::new();
    for d in 0..CHURN_DATASETS {
        let selector = churn_selector(d);
        let graph = dataset_graph(&selector, cache)?;
        let pool = node_list(&Rng::new(0, 200 + d as u64).nodes(graph.num_nodes(), CHURN_POOL));
        let shadow = ShadowEdges { graph, added: HashSet::new(), removed: HashSet::new() };
        datasets.push((selector, pool, shadow));
    }
    let mut rng = Rng::new(seed, 200);
    let mut lines = Vec::new();
    for step in 0..steps {
        let (selector, pool, shadow) = &mut datasets[step % CHURN_DATASETS];
        let nodes = shadow.graph.num_nodes();
        let id = format!("s{step}");
        let mut ops = Vec::with_capacity(8);
        for _ in 0..4 {
            let (u, v) = shadow.add(&mut rng);
            ops.push(format!(r#"{{"add":[{u},{v}],"p":{}}}"#, rng.prob(0.05, 0.3)));
        }
        for _ in 0..2 {
            let (u, v) = shadow.remove(&mut rng);
            ops.push(format!(r#"{{"remove":[{u},{v}]}}"#));
        }
        for _ in 0..2 {
            let (u, v) = shadow.existing(&mut rng);
            ops.push(format!(r#"{{"reweight":[{u},{v}],"p":{}}}"#, rng.prob(0.05, 0.3)));
        }
        lines.push(plain(format!(
            r#"{{"id":"{id}-m","op":"mutate",{selector},"ops":[{}]}}"#,
            ops.join(",")
        )));
        let ris = format!(
            r#"{selector},"deadline":{CHURN_TAU},"estimator":"ris","samples":{CHURN_RR_SETS}"#
        );
        for k in [0, 3] {
            let (op, fields) = problem(k, 5, 0.0, None);
            lines.push(Line {
                text: format!(
                    r#"{{"id":"{id}-r{}","op":"{op}",{ris},"candidates":{pool},{fields}}}"#,
                    k + 1
                ),
                problem: Some(k),
            });
        }
        let seeds = node_list(&rng.nodes(nodes, 5));
        lines.push(plain(format!(r#"{{"id":"{id}-e","op":"estimate",{ris},"seeds":{seeds}}}"#)));
        let worlds = format!(r#"{selector},"deadline":{CHURN_TAU},"samples":{CHURN_WORLDS}"#);
        if step % 3 == 2 {
            let k = step / 3 % 6;
            let (op, fields) = problem(k, 3, 0.0005, Some(3));
            lines.push(Line {
                text: format!(
                    r#"{{"id":"{id}-w{}","op":"{op}",{worlds},"candidates":{pool},{fields}}}"#,
                    k + 1
                ),
                problem: Some(k),
            });
        } else {
            let seeds = node_list(&rng.nodes(nodes, 5));
            lines.push(plain(format!(
                r#"{{"id":"{id}-we","op":"estimate",{worlds},"seeds":{seeds}}}"#
            )));
        }
    }
    Ok(Stream { lines, pass_len: CHURN_PASS_STEPS * 5 })
}

/// A fixed request sequence on a dataset of its own that calls every layer
/// at least once: LT weights, world sampling, a cold RIS build, two
/// mutations, RIS refreshes, a keyed world rebuild, a world patch and one
/// small solve of each of P1-P6. Appended to every
/// traced replay so each layer's time is measured on every workload; on a
/// workload that never calls a layer, that layer's figure is this tail's.
pub fn coverage_tail() -> Vec<Line> {
    let ds = r#""dataset":"synthetic","dataset_seed":7777777"#;
    let lt = r#""scenario":{"family":"barabasi-albert","nodes":300,"edges_per_node":3,"weights":"lt"},"model":"lt","dataset_seed":7777777"#;
    let ris = format!(r#"{ds},"deadline":4,"estimator":"ris","samples":1000"#);
    let worlds = format!(r#"{ds},"deadline":4,"samples":16"#);
    [
        format!(r#"{{"id":"t-lt","op":"estimate",{lt},"deadline":4,"samples":16,"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-ris","op":"estimate",{ris},"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-w0","op":"estimate",{worlds},"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-m1","op":"mutate",{ds},"ops":[{{"add":[0,499],"p":0.2}}]}}"#),
        format!(r#"{{"id":"t-ris1","op":"estimate",{ris},"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-w1","op":"estimate",{worlds},"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-m2","op":"mutate",{ds},"ops":[{{"add":[1,498],"p":0.2}}]}}"#),
        format!(r#"{{"id":"t-w2","op":"estimate",{worlds},"seeds":[0,1]}}"#),
        format!(r#"{{"id":"t-ris2","op":"estimate",{ris},"seeds":[0,1]}}"#),
    ]
    .into_iter()
    .map(plain)
    .chain((0..6).map(|k| {
        let (op, fields) = problem(k, 1, 0.01, Some(1));
        Line {
            text: format!(
                r#"{{"id":"t-P{}","op":"{op}",{worlds},"candidates":[0,1,2],{fields}}}"#,
                k + 1
            ),
            problem: Some(k),
        }
    }))
    .collect()
}
