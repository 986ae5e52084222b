//! [`ScenarioSpec`] — a typed, eagerly-validated, canonically-fingerprinted
//! description of a *synthetic scenario*: which generator family, how many
//! nodes, how groups are planted, and how edges are weighted.
//!
//! The paper evaluates on a handful of fixed graphs; the serving stack wants
//! "as many scenarios as you can imagine". A scenario spec opens that space
//! the same way `tcim_core::ProblemSpec` opened the problem space:
//!
//! * **validated eagerly** — the `with_*` builders reject degenerate values
//!   (NaN probabilities, fractions that do not sum to one, a ring lattice
//!   wider than the node count, …) with an error naming the offending field;
//! * **canonically fingerprinted** — [`ScenarioSpec::fingerprint`] renders a
//!   stable one-line encoding that the service layer's `OracleCache` keys
//!   graphs, `LtWeights` tables and live-edge world pools by, so repeated
//!   queries against the same scenario share state exactly like the named
//!   datasets do;
//! * **deterministic** — [`ScenarioSpec::build`] is a pure function of
//!   `(spec, seed)`; the same spec and seed produce a bitwise-identical
//!   graph at any thread count (the generators are sequential by design).
//!
//! A scenario enters the registry through the [`Dataset::Scenario`] arm and
//! the service protocol through an inline `"scenario": {...}` request object
//! (see `tcim_service::protocol`); the `Campaign` facade accepts one via
//! `Campaign::on_scenario`.
//!
//! # Generator families
//!
//! **Stochastic block model** — homophily/heterophily knobs, contiguous
//! group blocks; the paper's own synthetic protocol generalized to any
//! group split:
//!
//! ```
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! // Three-block SBM, 150 nodes, strong homophily, weighted-cascade edges.
//! let spec = ScenarioSpec::sbm(150, 0.08, 0.01)?
//!     .with_group_fractions(vec![0.5, 0.3, 0.2])?
//!     .with_weighted_cascade();
//! let graph = spec.build(7)?;
//! assert_eq!(graph.num_nodes(), 150);
//! assert_eq!(graph.num_groups(), 3);
//! assert_eq!(graph, spec.build(7)?, "same spec + seed = bitwise-identical graph");
//! # Ok::<(), tcim_graph::GraphError>(())
//! ```
//!
//! **Barabási–Albert preferential attachment** — scale-free hubs with a
//! planted minority; the homophily bias dials how strongly hubs stay
//! in-group, reproducing the "majority is better connected" disparity
//! driver:
//!
//! ```
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::barabasi_albert(120, 3)?
//!     .with_homophily_bias(4.0)?
//!     .with_majority_fraction(0.8)?
//!     .with_uniform_weights(0.1)?;
//! let graph = spec.build(21)?;
//! assert_eq!(graph.num_nodes(), 120);
//! assert!(graph.num_edges() >= 2 * 3 * (120 - 4));
//! # Ok::<(), tcim_graph::GraphError>(())
//! ```
//!
//! **Watts–Strogatz small world** — high clustering, short paths, groups
//! planted independently of structure (no homophily confound):
//!
//! ```
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::watts_strogatz(100, 3, 0.1)?.with_lt_weights();
//! let graph = spec.build(3)?;
//! assert_eq!(graph.num_edges(), 100 * 2 * 3, "rewiring preserves the lattice edge count");
//! # Ok::<(), tcim_graph::GraphError>(())
//! ```
//!
//! **Named presets** — ready-made scenarios, including surrogate-statistics
//! presets that approximate the paper's real-world datasets through the open
//! families (the exact baked surrogates remain available as the named
//! [`Dataset`] arms):
//!
//! ```
//! use tcim_datasets::scenario::ScenarioSpec;
//!
//! for name in ScenarioSpec::PRESET_NAMES {
//!     let spec = ScenarioSpec::preset(name).unwrap();
//!     spec.validate().unwrap();
//! }
//! assert!(ScenarioSpec::preset("synthetic-sbm").unwrap().fingerprint().starts_with("sbm("));
//! assert!(ScenarioSpec::preset("no-such-preset").is_none());
//! ```
//!
//! [`Dataset`]: crate::registry::Dataset
//! [`Dataset::Scenario`]: crate::registry::Dataset::Scenario

use tcim_graph::generators::{
    barabasi_albert, stochastic_block_model, watts_strogatz, BarabasiAlbertConfig, SbmConfig,
    WattsStrogatzConfig,
};
use tcim_graph::{Graph, GraphError, Result};

/// Which random-graph family generates the scenario's structure.
///
/// Family-specific structural knobs live in the variant; the node count,
/// group assignment and edge weights are shared [`ScenarioSpec`] dimensions.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorFamily {
    /// Stochastic block model: independent ties with within-group
    /// probability `p_within` and across-group probability `p_across`
    /// (the paper's Section 6.1 protocol, any number of groups).
    Sbm {
        /// Within-group (homophily) tie probability.
        p_within: f64,
        /// Across-group (heterophily) tie probability.
        p_across: f64,
    },
    /// Barabási–Albert preferential attachment with group-biased
    /// attachment: every arriving node creates `edges_per_node` ties,
    /// preferring high-degree targets, with same-group targets weighted by
    /// `homophily_bias` (1.0 = classic unbiased model). Two groups.
    BarabasiAlbert {
        /// Undirected ties created per arriving node (the classic `m`).
        edges_per_node: usize,
        /// Multiplier on same-group attachment weight (positive; 1.0 =
        /// unbiased).
        homophily_bias: f64,
    },
    /// Watts–Strogatz small world: a ring lattice with `neighbors` ties on
    /// each side, each rewired to a random endpoint with probability
    /// `rewire_probability`. Two groups, planted independently of the ring.
    WattsStrogatz {
        /// Lattice neighbors on each side (initial degree `2 * neighbors`).
        neighbors: usize,
        /// Rewiring probability `β ∈ [0, 1]`.
        rewire_probability: f64,
    },
}

impl GeneratorFamily {
    /// The stable protocol / fingerprint name of the family.
    pub fn label(&self) -> &'static str {
        match self {
            GeneratorFamily::Sbm { .. } => "sbm",
            GeneratorFamily::BarabasiAlbert { .. } => "barabasi-albert",
            GeneratorFamily::WattsStrogatz { .. } => "watts-strogatz",
        }
    }
}

/// How nodes are assigned to fairness groups.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupModel {
    /// Two groups: a majority holding `majority_fraction` of the nodes and
    /// a minority holding the rest. Supported by every family.
    MajorityMinority {
        /// Fraction of nodes in group 0, in `[0, 1]`.
        majority_fraction: f64,
    },
    /// One group per entry, holding the given fraction of the nodes
    /// (fractions must be positive and sum to 1). Supported by the SBM
    /// family, whose blocks are exactly these groups.
    Fractions(Vec<f64>),
}

/// How activation probabilities are assigned to the generated edges.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightModel {
    /// Every edge carries the same probability `p` — the paper's uniform
    /// independent-cascade setting.
    UniformIc {
        /// The shared activation probability `p_e ∈ [0, 1]`.
        p: f64,
    },
    /// `p(u → v) = 1 / indeg(v)`: the weighted-cascade normalization
    /// (high-in-degree nodes are harder to activate through any single tie).
    WeightedCascade,
    /// The same `1 / indeg(v)` normalization, declared as linear-threshold
    /// edge weights: weights into every node sum to at most one, the LT
    /// admissibility condition, so `LtWeights::from_graph` consumes them
    /// directly. Pair with the service protocol's `"model": "lt"`.
    Lt,
}

impl WeightModel {
    /// The nominal per-edge probability, when the model has one (`None` for
    /// the degree-normalized models, whose probabilities vary per edge).
    pub fn nominal_edge_probability(&self) -> Option<f64> {
        match self {
            WeightModel::UniformIc { p } => Some(*p),
            WeightModel::WeightedCascade | WeightModel::Lt => None,
        }
    }

    fn fingerprint(&self) -> String {
        match self {
            WeightModel::UniformIc { p } => format!("uic:{p}"),
            WeightModel::WeightedCascade => "wc".to_string(),
            WeightModel::Lt => "lt".to_string(),
        }
    }
}

fn invalid(field: &str, detail: impl std::fmt::Display) -> GraphError {
    GraphError::InvalidParameter { message: format!("field '{field}': {detail}") }
}

fn check_probability(field: &str, p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(invalid(field, format!("must be in [0, 1], got {p}")));
    }
    Ok(())
}

/// The `group_fractions` rules, shared by [`ScenarioSpec::with_group_fractions`]
/// and [`ScenarioSpec::validate`] (literal construction must hit the same
/// checks and error text as the builder).
fn check_group_fractions(family: &GeneratorFamily, fractions: &[f64]) -> Result<()> {
    if !matches!(family, GeneratorFamily::Sbm { .. }) {
        return Err(invalid(
            "group_fractions",
            format!(
                "the {} family supports the two-group majority_fraction split only",
                family.label()
            ),
        ));
    }
    if fractions.is_empty() {
        return Err(invalid("group_fractions", "must not be empty"));
    }
    if fractions.iter().any(|f| *f <= 0.0 || f.is_nan()) {
        return Err(invalid("group_fractions", "every fraction must be positive"));
    }
    let sum: f64 = fractions.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(invalid("group_fractions", format!("must sum to 1, got {sum}")));
    }
    Ok(())
}

/// Service-safety bound on scenario size: scenario objects arrive on the
/// wire, so an unbounded node count would let one request allocate
/// arbitrarily (the estimator `samples` knob scales *work*, this one scales
/// *memory*). One million nodes comfortably covers the Instagram-scale
/// surrogates.
pub const MAX_SCENARIO_NODES: usize = 1_000_000;

/// Service-safety bound on the scenario's *expected directed edge count*:
/// the node cap alone would still admit `{"family":"sbm","nodes":…,
/// "p_within":1.0}` — a clique whose edge list dwarfs the node array — so
/// [`ScenarioSpec::validate`] also bounds what the density knobs imply.
pub const MAX_SCENARIO_EDGES: u128 = 16_000_000;

/// Service-safety bound on generation *work*: the Bernoulli SBM visits
/// every node pair and Barabási–Albert rescans earlier nodes per attachment,
/// so quadratic families are capped at roughly a second of generation even
/// when the resulting graph would be sparse.
pub const MAX_SCENARIO_WORK: u128 = 1_000_000_000;

/// A typed, validated, canonically-fingerprinted synthetic scenario.
///
/// Construct one through the family constructors ([`ScenarioSpec::sbm`],
/// [`ScenarioSpec::barabasi_albert`], [`ScenarioSpec::watts_strogatz`]) or a
/// named preset ([`ScenarioSpec::preset`]), refine it with the `with_*`
/// builders, and build graphs with [`ScenarioSpec::build`]. The generation
/// seed is deliberately **not** part of the spec: it rides the same
/// `dataset_seed` channel the named datasets use, so one spec fingerprints
/// one scenario *family member* per seed (`DatasetSpec` in `tcim-service`
/// pairs the two).
///
/// See the [module docs](self) for one example per generator family.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The structural generator family and its knobs.
    pub family: GeneratorFamily,
    /// Total number of nodes (at most [`MAX_SCENARIO_NODES`]).
    pub num_nodes: usize,
    /// How nodes are assigned to fairness groups.
    pub groups: GroupModel,
    /// How activation probabilities are assigned to edges.
    pub weights: WeightModel,
}

impl ScenarioSpec {
    /// An SBM scenario with the given homophily knobs, defaulted to the
    /// paper's 70:30 majority split and uniform `p_e = 0.05` edges.
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending field for out-of-range
    /// probabilities or a degenerate node count.
    pub fn sbm(num_nodes: usize, p_within: f64, p_across: f64) -> Result<Self> {
        let spec = ScenarioSpec {
            family: GeneratorFamily::Sbm { p_within, p_across },
            num_nodes,
            groups: GroupModel::MajorityMinority { majority_fraction: 0.7 },
            weights: WeightModel::UniformIc { p: 0.05 },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A Barabási–Albert scenario (unbiased attachment, 70:30 split,
    /// uniform `p_e = 0.05` edges); dial homophily with
    /// [`ScenarioSpec::with_homophily_bias`].
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending field for a zero
    /// `edges_per_node` or a node count too small to seed the attachment
    /// process.
    pub fn barabasi_albert(num_nodes: usize, edges_per_node: usize) -> Result<Self> {
        let spec = ScenarioSpec {
            family: GeneratorFamily::BarabasiAlbert { edges_per_node, homophily_bias: 1.0 },
            num_nodes,
            groups: GroupModel::MajorityMinority { majority_fraction: 0.7 },
            weights: WeightModel::UniformIc { p: 0.05 },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A Watts–Strogatz scenario (70:30 split, uniform `p_e = 0.05` edges).
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending field for a zero `neighbors`,
    /// an out-of-range `rewire_probability`, or a node count not exceeding
    /// `2 * neighbors`.
    pub fn watts_strogatz(
        num_nodes: usize,
        neighbors: usize,
        rewire_probability: f64,
    ) -> Result<Self> {
        let spec = ScenarioSpec {
            family: GeneratorFamily::WattsStrogatz { neighbors, rewire_probability },
            num_nodes,
            groups: GroupModel::MajorityMinority { majority_fraction: 0.7 },
            weights: WeightModel::UniformIc { p: 0.05 },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Sets a two-group majority/minority split (works with every family).
    ///
    /// # Errors
    ///
    /// Returns an error naming `majority_fraction` when it is NaN or outside
    /// `[0, 1]`.
    pub fn with_majority_fraction(mut self, majority_fraction: f64) -> Result<Self> {
        check_probability("majority_fraction", majority_fraction)?;
        self.groups = GroupModel::MajorityMinority { majority_fraction };
        Ok(self)
    }

    /// Sets an explicit multi-group split: group `i` holds `fractions[i]` of
    /// the nodes. SBM scenarios only (the blocks *are* the groups); the
    /// attachment families support the two-group
    /// [`ScenarioSpec::with_majority_fraction`] split.
    ///
    /// # Errors
    ///
    /// Returns an error naming `group_fractions` for an empty list,
    /// non-positive or NaN entries, a sum away from 1, or a non-SBM family.
    pub fn with_group_fractions(mut self, fractions: Vec<f64>) -> Result<Self> {
        check_group_fractions(&self.family, &fractions)?;
        self.groups = GroupModel::Fractions(fractions);
        Ok(self)
    }

    /// Sets uniform independent-cascade edge weights (`p` on every edge).
    ///
    /// # Errors
    ///
    /// Returns an error naming `edge_probability` when `p` is NaN or outside
    /// `[0, 1]`.
    pub fn with_uniform_weights(mut self, p: f64) -> Result<Self> {
        check_probability("edge_probability", p)?;
        self.weights = WeightModel::UniformIc { p };
        Ok(self)
    }

    /// Sets weighted-cascade edge weights (`1 / indeg(v)` per edge).
    pub fn with_weighted_cascade(mut self) -> Self {
        self.weights = WeightModel::WeightedCascade;
        self
    }

    /// Sets linear-threshold edge weights (the `1 / indeg(v)` normalization,
    /// declared for the LT model).
    pub fn with_lt_weights(mut self) -> Self {
        self.weights = WeightModel::Lt;
        self
    }

    /// Sets the same-group attachment bias of a Barabási–Albert scenario.
    ///
    /// # Errors
    ///
    /// Returns an error naming `homophily_bias` when it is not positive, or
    /// the family is not Barabási–Albert.
    pub fn with_homophily_bias(mut self, bias: f64) -> Result<Self> {
        let GeneratorFamily::BarabasiAlbert { homophily_bias, .. } = &mut self.family else {
            return Err(invalid("homophily_bias", "applies to the barabasi-albert family only"));
        };
        if bias <= 0.0 || bias.is_nan() {
            return Err(invalid("homophily_bias", format!("must be positive, got {bias}")));
        }
        *homophily_bias = bias;
        Ok(self)
    }

    /// The ready-made scenario names accepted by [`ScenarioSpec::preset`].
    ///
    /// `synthetic-sbm` mirrors the paper's Section 6.1 synthetic setting;
    /// `ba-hubs` and `ws-smallworld` are the reference members of the open
    /// families; `rice-like` and `fbsnap-like` approximate the published
    /// group statistics of the Rice-Facebook and Facebook-SNAP datasets
    /// through the SBM family (the exact baked surrogates remain the named
    /// [`Dataset`](crate::registry::Dataset) arms).
    pub const PRESET_NAMES: [&'static str; 5] =
        ["synthetic-sbm", "ba-hubs", "ws-smallworld", "rice-like", "fbsnap-like"];

    /// Resolves a named preset, or `None` for an unknown name.
    #[expect(
        clippy::expect_used,
        reason = "preset parameters are compile-time constants validated by tests"
    )]
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        let spec = match name {
            // The Section 6.1 synthetic protocol, expressed as a scenario.
            "synthetic-sbm" => ScenarioSpec::sbm(500, 0.025, 0.001)
                .and_then(|s| s.with_majority_fraction(0.7))
                .and_then(|s| s.with_uniform_weights(0.05)),
            // Scale-free hubs with a homophilous majority: the structural
            // condition the paper identifies as a disparity driver.
            "ba-hubs" => ScenarioSpec::barabasi_albert(1000, 3)
                .and_then(|s| s.with_homophily_bias(4.0))
                .and_then(|s| s.with_majority_fraction(0.7))
                .and_then(|s| s.with_uniform_weights(0.05)),
            // Small world with structure-independent groups.
            "ws-smallworld" => ScenarioSpec::watts_strogatz(1000, 3, 0.1)
                .and_then(|s| s.with_majority_fraction(0.7))
                .and_then(|s| s.with_uniform_weights(0.1)),
            // Rice-Facebook statistics through the open SBM family:
            // 1205 nodes, two groups at roughly 66:34, dense within-group
            // ties, p_e = 0.01 (the paper's Rice setting).
            "rice-like" => ScenarioSpec::sbm(1205, 0.055, 0.012)
                .and_then(|s| s.with_majority_fraction(0.66))
                .and_then(|s| s.with_uniform_weights(0.01)),
            // Facebook-SNAP statistics through the open SBM family:
            // 4039 nodes in five spectral-cluster-sized groups, p_e = 0.01.
            "fbsnap-like" => ScenarioSpec::sbm(4039, 0.03, 0.001)
                .and_then(|s| s.with_group_fractions(vec![0.35, 0.25, 0.2, 0.12, 0.08]))
                .and_then(|s| s.with_uniform_weights(0.01)),
            _ => return None,
        };
        Some(spec.expect("presets are statically valid"))
    }

    /// Full validation, including a spec assembled field-by-field (literal
    /// construction cannot bypass the checks — the registry and the wire
    /// codec both call this before building).
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.num_nodes == 0 {
            return Err(invalid("nodes", "must be at least 1"));
        }
        if self.num_nodes > MAX_SCENARIO_NODES {
            return Err(invalid(
                "nodes",
                format!("must be at most {MAX_SCENARIO_NODES}, got {}", self.num_nodes),
            ));
        }
        let n = self.num_nodes as u128;
        match &self.family {
            GeneratorFamily::Sbm { p_within, p_across } => {
                check_probability("p_within", *p_within)?;
                check_probability("p_across", *p_across)?;
                // The Bernoulli sampler visits every unordered pair, and the
                // density knobs bound what it keeps: cap both, or one wire
                // request can stall or OOM the server despite the node cap.
                let pairs = n * n.saturating_sub(1) / 2;
                if pairs > MAX_SCENARIO_WORK {
                    return Err(invalid(
                        "nodes",
                        format!(
                            "an SBM over {n} nodes needs {pairs} pair trials, above the \
                             service cap of {MAX_SCENARIO_WORK}"
                        ),
                    ));
                }
                let expected_edges = (2 * pairs) as f64 * p_within.max(*p_across);
                if expected_edges > MAX_SCENARIO_EDGES as f64 {
                    return Err(invalid(
                        "nodes",
                        format!(
                            "these densities imply up to {expected_edges:.0} directed edges, \
                             above the service cap of {MAX_SCENARIO_EDGES}"
                        ),
                    ));
                }
            }
            GeneratorFamily::BarabasiAlbert { edges_per_node, homophily_bias } => {
                if *edges_per_node == 0 {
                    return Err(invalid("edges_per_node", "must be at least 1"));
                }
                if self.num_nodes <= *edges_per_node {
                    return Err(invalid(
                        "nodes",
                        format!("must exceed edges_per_node ({edges_per_node})"),
                    ));
                }
                if *homophily_bias <= 0.0 || homophily_bias.is_nan() {
                    return Err(invalid(
                        "homophily_bias",
                        format!("must be positive, got {homophily_bias}"),
                    ));
                }
                // Attachment rescans earlier nodes once per created tie.
                let work = n * n * (*edges_per_node as u128);
                if work > MAX_SCENARIO_WORK {
                    return Err(invalid(
                        "nodes",
                        format!(
                            "Barabási–Albert attachment over {n} nodes with edges_per_node \
                             {edges_per_node} needs ~{work} scans, above the service cap of \
                             {MAX_SCENARIO_WORK}"
                        ),
                    ));
                }
            }
            GeneratorFamily::WattsStrogatz { neighbors, rewire_probability } => {
                if *neighbors == 0 {
                    return Err(invalid("neighbors", "must be at least 1"));
                }
                if self.num_nodes <= 2 * neighbors {
                    return Err(invalid(
                        "nodes",
                        format!("must exceed 2 * neighbors ({})", 2 * neighbors),
                    ));
                }
                check_probability("rewire_probability", *rewire_probability)?;
                let edges = 2 * n * (*neighbors as u128);
                if edges > MAX_SCENARIO_EDGES {
                    return Err(invalid(
                        "nodes",
                        format!(
                            "a {n}-node lattice with {neighbors} neighbors per side holds \
                             {edges} directed edges, above the service cap of \
                             {MAX_SCENARIO_EDGES}"
                        ),
                    ));
                }
            }
        }
        match &self.groups {
            GroupModel::MajorityMinority { majority_fraction } => {
                check_probability("majority_fraction", *majority_fraction)?;
            }
            GroupModel::Fractions(fractions) => {
                check_group_fractions(&self.family, fractions)?;
            }
        }
        if let WeightModel::UniformIc { p } = &self.weights {
            check_probability("edge_probability", *p)?;
        }
        Ok(())
    }

    /// A stable, human-readable one-line encoding of the scenario. The
    /// service layer keys its caches by `fingerprint() + seed`, so two specs
    /// agree on a fingerprint iff they describe the same scenario; floats
    /// render through Rust's shortest-roundtrip formatting, which is
    /// injective on distinct values.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.family {
            GeneratorFamily::Sbm { p_within, p_across } => {
                let _ = write!(out, "sbm(pw={p_within},pa={p_across})");
            }
            GeneratorFamily::BarabasiAlbert { edges_per_node, homophily_bias } => {
                let _ = write!(out, "ba(m={edges_per_node},bias={homophily_bias})");
            }
            GeneratorFamily::WattsStrogatz { neighbors, rewire_probability } => {
                let _ = write!(out, "ws(k={neighbors},beta={rewire_probability})");
            }
        }
        let _ = write!(out, "|n={}", self.num_nodes);
        match &self.groups {
            GroupModel::MajorityMinority { majority_fraction } => {
                let _ = write!(out, "|g=mm:{majority_fraction}");
            }
            GroupModel::Fractions(fractions) => {
                let rendered: Vec<String> = fractions.iter().map(|f| f.to_string()).collect();
                let _ = write!(out, "|g=[{}]", rendered.join(","));
            }
        }
        let _ = write!(out, "|w={}", self.weights.fingerprint());
        out
    }

    /// The nominal per-edge activation probability, when the weight model
    /// has one (`None` for the degree-normalized models).
    pub fn default_edge_probability(&self) -> Option<f64> {
        self.weights.nominal_edge_probability()
    }

    /// Builds the scenario graph for `seed` — a pure, deterministic function
    /// of `(self, seed)`.
    ///
    /// # Errors
    ///
    /// Returns a validation error naming the offending field, or propagates
    /// generator failures.
    pub fn build(&self, seed: u64) -> Result<Graph> {
        self.validate()?;
        // Degree-normalized models rewrite every probability after
        // generation, so the value handed to the generator is arbitrary (it
        // never influences the RNG stream).
        let generation_p = self.default_edge_probability().unwrap_or(0.1);
        let minority_fraction = match &self.groups {
            GroupModel::MajorityMinority { majority_fraction } => 1.0 - majority_fraction,
            GroupModel::Fractions(_) => 0.0, // SBM only; handled below.
        };
        let graph = match &self.family {
            GeneratorFamily::Sbm { p_within, p_across } => {
                let config = match &self.groups {
                    // Reuse the canonical two-group constructor so a
                    // majority/minority scenario and a hand-built
                    // `SbmConfig::two_group` agree on the split rounding.
                    GroupModel::MajorityMinority { majority_fraction } => SbmConfig::two_group(
                        self.num_nodes,
                        *majority_fraction,
                        *p_within,
                        *p_across,
                        generation_p,
                        seed,
                    ),
                    GroupModel::Fractions(fractions) => SbmConfig {
                        group_sizes: block_sizes(self.num_nodes, fractions),
                        p_within: *p_within,
                        p_across: *p_across,
                        edge_probability: generation_p,
                        seed,
                        expected_edges: None,
                    },
                };
                stochastic_block_model(&config)?
            }
            GeneratorFamily::BarabasiAlbert { edges_per_node, homophily_bias } => {
                barabasi_albert(&BarabasiAlbertConfig {
                    num_nodes: self.num_nodes,
                    edges_per_node: *edges_per_node,
                    minority_fraction,
                    homophily_bias: *homophily_bias,
                    edge_probability: generation_p,
                    seed,
                })?
            }
            GeneratorFamily::WattsStrogatz { neighbors, rewire_probability } => {
                watts_strogatz(&WattsStrogatzConfig {
                    num_nodes: self.num_nodes,
                    neighbors: *neighbors,
                    rewire_probability: *rewire_probability,
                    minority_fraction,
                    edge_probability: generation_p,
                    seed,
                })?
            }
        };
        Ok(match self.weights {
            WeightModel::UniformIc { .. } => graph,
            WeightModel::WeightedCascade | WeightModel::Lt => {
                graph.with_weighted_cascade_probabilities()
            }
        })
    }
}

/// Largest-remainder apportionment of `n` nodes over `fractions`: every
/// group gets its floor share, leftover nodes go to the largest remainders
/// (ties to the earlier group), so sizes are deterministic, sum to `n`
/// exactly, and track the fractions as closely as integers allow.
fn block_sizes(n: usize, fractions: &[f64]) -> Vec<usize> {
    let mut sizes: Vec<usize> = Vec::with_capacity(fractions.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(fractions.len());
    for (i, f) in fractions.iter().enumerate() {
        let exact = (n as f64) * f;
        let floor = exact.floor() as usize;
        sizes.push(floor);
        remainders.push((i, exact - floor as f64));
    }
    let assigned: usize = sizes.iter().sum();
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for k in 0..n.saturating_sub(assigned) {
        sizes[remainders[k % remainders.len()].0] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_graph::stats::graph_stats;
    use tcim_graph::GroupId;

    #[test]
    fn builders_reject_degenerate_values_naming_the_field() {
        let err = ScenarioSpec::sbm(0, 0.1, 0.1).unwrap_err().to_string();
        assert!(err.contains("'nodes'"), "{err}");
        let err = ScenarioSpec::sbm(100, 1.5, 0.1).unwrap_err().to_string();
        assert!(err.contains("'p_within'"), "{err}");
        let err = ScenarioSpec::sbm(100, 0.1, f64::NAN).unwrap_err().to_string();
        assert!(err.contains("'p_across'"), "{err}");
        let err = ScenarioSpec::barabasi_albert(100, 0).unwrap_err().to_string();
        assert!(err.contains("'edges_per_node'"), "{err}");
        let err = ScenarioSpec::barabasi_albert(3, 5).unwrap_err().to_string();
        assert!(err.contains("'nodes'"), "{err}");
        let err = ScenarioSpec::watts_strogatz(100, 2, -0.5).unwrap_err().to_string();
        assert!(err.contains("'rewire_probability'"), "{err}");
        let err = ScenarioSpec::watts_strogatz(4, 2, 0.1).unwrap_err().to_string();
        assert!(err.contains("'nodes'"), "{err}");
        let err = ScenarioSpec::sbm(MAX_SCENARIO_NODES + 1, 0.1, 0.1).unwrap_err().to_string();
        assert!(err.contains("'nodes'"), "{err}");

        let base = ScenarioSpec::sbm(100, 0.1, 0.01).unwrap();
        let err = base.clone().with_majority_fraction(1.5).unwrap_err().to_string();
        assert!(err.contains("'majority_fraction'"), "{err}");
        let err = base.clone().with_group_fractions(vec![]).unwrap_err().to_string();
        assert!(err.contains("'group_fractions'"), "{err}");
        let err = base.clone().with_group_fractions(vec![0.5, 0.2]).unwrap_err().to_string();
        assert!(err.contains("sum to 1"), "{err}");
        let err = base.clone().with_group_fractions(vec![1.5, -0.5]).unwrap_err().to_string();
        assert!(err.contains("positive"), "{err}");
        let err = base.clone().with_uniform_weights(2.0).unwrap_err().to_string();
        assert!(err.contains("'edge_probability'"), "{err}");
        let err = base.clone().with_homophily_bias(2.0).unwrap_err().to_string();
        assert!(err.contains("barabasi-albert"), "{err}");

        let ba = ScenarioSpec::barabasi_albert(100, 2).unwrap();
        let err = ba.clone().with_homophily_bias(0.0).unwrap_err().to_string();
        assert!(err.contains("'homophily_bias'"), "{err}");
        let err = ba.with_group_fractions(vec![0.5, 0.5]).unwrap_err().to_string();
        assert!(err.contains("majority_fraction"), "{err}");
    }

    #[test]
    fn generation_caps_reject_quadratic_bombs() {
        // Dense SBM at large n: the pair-trial work cap fires first.
        let err = ScenarioSpec::sbm(100_000, 1.0, 1.0).unwrap_err().to_string();
        assert!(err.contains("pair trials"), "{err}");
        // Moderate n, full density: the expected-edge cap fires.
        let err = ScenarioSpec::sbm(10_000, 1.0, 1.0).unwrap_err().to_string();
        assert!(err.contains("directed edges"), "{err}");
        // Quadratic attachment at the node cap.
        let err = ScenarioSpec::barabasi_albert(1_000_000, 3).unwrap_err().to_string();
        assert!(err.contains("scans"), "{err}");
        // A wide lattice at the node cap overflows the edge budget.
        let err = ScenarioSpec::watts_strogatz(1_000_000, 10, 0.1).unwrap_err().to_string();
        assert!(err.contains("directed edges"), "{err}");
        // Realistic large-sparse scenarios still pass every cap.
        assert!(ScenarioSpec::sbm(40_000, 1e-4, 1e-5).is_ok());
        assert!(ScenarioSpec::barabasi_albert(18_000, 3).is_ok());
        assert!(ScenarioSpec::watts_strogatz(1_000_000, 8, 0.1).is_ok());
    }

    #[test]
    fn majority_minority_sbm_matches_the_two_group_constructor() {
        // The scenario path must agree with `SbmConfig::two_group` on the
        // split rounding (it reuses it; this pins the equivalence).
        let scenario = ScenarioSpec::sbm(501, 0.025, 0.001).unwrap().build(42).unwrap();
        let direct =
            stochastic_block_model(&SbmConfig::two_group(501, 0.7, 0.025, 0.001, 0.05, 42))
                .unwrap();
        assert_eq!(scenario, direct);
    }

    #[test]
    fn literal_construction_cannot_bypass_validation() {
        let bypassed = ScenarioSpec {
            family: GeneratorFamily::BarabasiAlbert { edges_per_node: 2, homophily_bias: 1.0 },
            num_nodes: 100,
            groups: GroupModel::Fractions(vec![0.5, 0.5]),
            weights: WeightModel::UniformIc { p: 0.1 },
        };
        assert!(bypassed.validate().is_err());
        assert!(bypassed.build(1).is_err());
        let bad_weight = ScenarioSpec {
            weights: WeightModel::UniformIc { p: 7.0 },
            ..ScenarioSpec::sbm(50, 0.1, 0.01).unwrap()
        };
        assert!(bad_weight.validate().is_err());
    }

    #[test]
    fn fingerprints_discriminate_every_dimension() {
        let base = ScenarioSpec::sbm(200, 0.05, 0.01).unwrap();
        assert_eq!(base.fingerprint(), "sbm(pw=0.05,pa=0.01)|n=200|g=mm:0.7|w=uic:0.05");
        let mut seen = std::collections::HashSet::new();
        for spec in [
            base.clone(),
            ScenarioSpec::sbm(201, 0.05, 0.01).unwrap(),
            ScenarioSpec::sbm(200, 0.06, 0.01).unwrap(),
            ScenarioSpec::sbm(200, 0.05, 0.02).unwrap(),
            base.clone().with_majority_fraction(0.8).unwrap(),
            base.clone().with_group_fractions(vec![0.5, 0.3, 0.2]).unwrap(),
            base.clone().with_uniform_weights(0.1).unwrap(),
            base.clone().with_weighted_cascade(),
            base.clone().with_lt_weights(),
            ScenarioSpec::barabasi_albert(200, 3).unwrap(),
            ScenarioSpec::barabasi_albert(200, 3).unwrap().with_homophily_bias(2.0).unwrap(),
            ScenarioSpec::watts_strogatz(200, 3, 0.1).unwrap(),
            ScenarioSpec::watts_strogatz(200, 3, 0.2).unwrap(),
        ] {
            assert!(seen.insert(spec.fingerprint()), "collision: {}", spec.fingerprint());
        }
    }

    #[test]
    fn block_sizes_apportion_exactly() {
        assert_eq!(block_sizes(10, &[0.5, 0.5]), vec![5, 5]);
        assert_eq!(block_sizes(10, &[0.55, 0.45]), vec![6, 4]);
        let sizes = block_sizes(4039, &[0.35, 0.25, 0.2, 0.12, 0.08]);
        assert_eq!(sizes.iter().sum::<usize>(), 4039);
        assert_eq!(sizes.len(), 5);
        // One leftover node lands on the largest remainder, not the first
        // group.
        assert_eq!(block_sizes(7, &[0.3, 0.4, 0.3]), vec![2, 3, 2]);
    }

    #[test]
    fn every_family_builds_with_requested_groups_and_weights() {
        let sbm = ScenarioSpec::sbm(150, 0.08, 0.01)
            .unwrap()
            .with_group_fractions(vec![0.5, 0.3, 0.2])
            .unwrap()
            .build(5)
            .unwrap();
        assert_eq!(sbm.num_nodes(), 150);
        assert_eq!(sbm.num_groups(), 3);
        assert_eq!(sbm.group_size(GroupId(0)), 75);
        assert!(graph_stats(&sbm).assortativity > 0.2);
        assert!(sbm.edges().all(|(_, _, p)| (p - 0.05).abs() < 1e-12));

        let ba = ScenarioSpec::barabasi_albert(150, 3)
            .unwrap()
            .with_majority_fraction(0.8)
            .unwrap()
            .with_uniform_weights(0.1)
            .unwrap()
            .build(5)
            .unwrap();
        assert_eq!(ba.num_nodes(), 150);
        assert!(ba.edges().all(|(_, _, p)| (p - 0.1).abs() < 1e-12));

        let ws = ScenarioSpec::watts_strogatz(100, 3, 0.1).unwrap().build(5).unwrap();
        assert_eq!(ws.num_edges(), 100 * 2 * 3);
    }

    #[test]
    fn weighted_cascade_scenarios_normalize_by_in_degree() {
        for spec in [
            ScenarioSpec::sbm(120, 0.08, 0.01).unwrap().with_weighted_cascade(),
            ScenarioSpec::barabasi_albert(120, 2).unwrap().with_lt_weights(),
        ] {
            assert_eq!(spec.default_edge_probability(), None);
            let graph = spec.build(9).unwrap();
            for v in graph.nodes() {
                let sum: f64 = graph.edges().filter(|(_, t, _)| *t == v).map(|(_, _, p)| p).sum();
                assert!(sum <= 1.0 + 1e-9, "weights into {v:?} sum to {sum}");
            }
        }
        assert_eq!(
            ScenarioSpec::sbm(120, 0.08, 0.01).unwrap().default_edge_probability(),
            Some(0.05)
        );
    }

    #[test]
    fn builds_are_deterministic_per_seed_and_differ_across_seeds() {
        for spec in [
            ScenarioSpec::sbm(120, 0.05, 0.01).unwrap(),
            ScenarioSpec::barabasi_albert(120, 2).unwrap().with_homophily_bias(3.0).unwrap(),
            ScenarioSpec::watts_strogatz(120, 2, 0.2).unwrap(),
        ] {
            assert_eq!(spec.build(7).unwrap(), spec.build(7).unwrap(), "{}", spec.fingerprint());
            assert_ne!(spec.build(7).unwrap(), spec.build(8).unwrap(), "{}", spec.fingerprint());
        }
    }

    #[test]
    fn presets_resolve_and_validate() {
        for name in ScenarioSpec::PRESET_NAMES {
            let spec = ScenarioSpec::preset(name).unwrap();
            spec.validate().unwrap();
        }
        assert!(ScenarioSpec::preset("twitter").is_none());
        let synthetic = ScenarioSpec::preset("synthetic-sbm").unwrap();
        assert_eq!(synthetic.num_nodes, 500);
        let fbsnap = ScenarioSpec::preset("fbsnap-like").unwrap();
        assert_eq!(fbsnap.num_nodes, 4039);
        let graph = fbsnap.build(2).unwrap();
        assert_eq!(graph.num_groups(), 5);
    }
}
