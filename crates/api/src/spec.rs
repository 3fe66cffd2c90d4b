//! The `RunSpec` string grammar and the protocol registry.
//!
//! A run spec names a registered protocol and optionally overrides run
//! parameters, extending the `Topology::spec` / scenario-DSL precedent
//! to whole runs:
//!
//! ```text
//! spec     := protocol | protocol "?" params
//! params   := key "=" value ("&" key "=" value)*
//! ```
//!
//! Example: `leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5`.
//! Values reuse the existing sub-grammars verbatim — topologies parse
//! with [`Topology::parse_spec`], scenarios with [`Scenario::parse`],
//! latencies with [`Latency::parse_spec`] — so one string pins down an
//! entire reproducible experiment. [`RunSpec`] parses from and
//! [`std::fmt::Display`]s back to this grammar (`parse ∘ to_string` is
//! the identity), and the [`Registry`] resolves a spec into a runnable
//! ([`Protocol`], [`RunConfig`]) pair with teaching errors for unknown
//! protocols, unknown keys, and out-of-range values.

use crate::config::RunConfig;
use crate::cost::Cost;
use crate::protocol::{
    ClusterEngine, GossipEngine, LeaderEngine, LeaderMfEngine, Majority3MfEngine, PopulationEngine,
    PopulationMfEngine, Protocol, SyncEngine, UndecidedMfEngine, UrnEngine,
};
use crate::report::Report;
use plurality_agg::LeaderMfConfig;
use plurality_baselines::{Dynamics, PopulationProtocol};
use plurality_core::sync::ScheduleMode;
use plurality_core::RecordLevel;
use plurality_dist::{InvalidParameterError, Latency};
use plurality_scenario::Scenario;
use plurality_topology::Topology;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Why a run spec was rejected — by the grammar, the registry, or a
/// parameter range check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    /// Creates an error with a human-readable description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The bare description, without the `Display` prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid run spec: {}", self.message)
    }
}

impl Error for SpecError {}

impl From<InvalidParameterError> for SpecError {
    fn from(e: InvalidParameterError) -> Self {
        Self::new(e.message().to_string())
    }
}

/// A parsed (or hand-built) run spec: a protocol name plus ordered
/// `key=value` parameter overrides, kept as raw strings so that
/// `RunSpec::parse(&spec.to_string()) == Ok(spec)` holds exactly.
///
/// # Examples
///
/// ```
/// use plurality_api::RunSpec;
///
/// let spec = RunSpec::parse("leader?n=4096&k=8&topology=er:0.01").unwrap();
/// assert_eq!(spec.protocol(), "leader");
/// assert_eq!(spec.get("n"), Some("4096"));
/// assert_eq!(RunSpec::parse(&spec.to_string()), Ok(spec));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    protocol: String,
    params: Vec<(String, String)>,
}

/// Characters with grammatical meaning in a spec; parameter keys and
/// values must not contain them.
const RESERVED: [char; 3] = ['?', '&', '='];

impl RunSpec {
    /// Starts a spec for the given protocol name. The name is checked
    /// against the registry at [`Registry::resolve`] time, not here.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or contains a reserved character
    /// (`?`, `&`, `=`).
    pub fn new(protocol: impl Into<String>) -> Self {
        let protocol = protocol.into();
        assert!(
            !protocol.is_empty() && !protocol.contains(RESERVED),
            "protocol name must be non-empty and free of `?`, `&`, `=`"
        );
        Self {
            protocol,
            params: Vec::new(),
        }
    }

    /// Sets a parameter (replacing any existing value for the key).
    ///
    /// # Panics
    ///
    /// Panics if the key or rendered value is empty or contains a
    /// reserved character (`?`, `&`, `=`).
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        let value = value.to_string();
        assert!(
            !key.is_empty() && !key.contains(RESERVED),
            "parameter key must be non-empty and free of `?`, `&`, `=`"
        );
        assert!(
            !value.is_empty() && !value.contains(RESERVED),
            "parameter value must be non-empty and free of `?`, `&`, `=`"
        );
        match self.params.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.params.push((key.to_string(), value)),
        }
        self
    }

    /// Parses the spec grammar. This checks syntax only; protocol and
    /// key validity are checked by [`Registry::resolve`], so a spec for
    /// a protocol registered elsewhere still round-trips.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for an empty spec, a malformed `key=value`
    /// pair, or a duplicated key.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let (protocol, query) = match spec.split_once('?') {
            Some((head, query)) => (head, Some(query)),
            None => (spec, None),
        };
        if protocol.is_empty() {
            return Err(SpecError::new(
                "a run spec starts with a protocol name, e.g. `sync?n=1000&k=4` \
                 (run `plurality list` for the registered protocols)",
            ));
        }
        let mut params: Vec<(String, String)> = Vec::new();
        if let Some(query) = query {
            for part in query.split('&') {
                let Some((key, value)) = part.split_once('=') else {
                    return Err(SpecError::new(format!(
                        "parameter `{part}` must have the form key=value"
                    )));
                };
                if key.is_empty() || value.is_empty() {
                    return Err(SpecError::new(format!(
                        "parameter `{part}` must have a non-empty key and value"
                    )));
                }
                if params.iter().any(|(k, _)| k == key) {
                    return Err(SpecError::new(format!("duplicate parameter `{key}`")));
                }
                params.push((key.to_string(), value.to_string()));
            }
        }
        Ok(Self {
            protocol: protocol.to_string(),
            params,
        })
    }

    /// The protocol name.
    pub fn protocol(&self) -> &str {
        &self.protocol
    }

    /// The parameter overrides, in spec order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// The raw value of a parameter, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for RunSpec {
    /// Renders the canonical spec string; [`RunSpec::parse`] inverts it
    /// exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.protocol)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            f.write_str(if i == 0 { "?" } else { "&" })?;
            write!(f, "{key}={value}")?;
        }
        Ok(())
    }
}

/// Typed access to a spec's parameters, with teaching errors naming the
/// offending key.
struct KeyValues<'a>(&'a RunSpec);

impl KeyValues<'_> {
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, SpecError> {
        match self.0.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| SpecError::new(format!("parameter `{key}`: `{raw}` is not {what}"))),
        }
    }

    fn get_u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        self.parse(key, "an integer")
    }

    /// Like [`KeyValues::get_u64`] but also accepting scientific
    /// notation (`1e8`, `2.5e6`) for the large counts the aggregate
    /// engines take, as long as the value denotes an exact non-negative
    /// integer below `2^53` (where `f64` is still exact).
    fn get_count(&self, key: &str) -> Result<Option<u64>, SpecError> {
        let Some(raw) = self.0.get(key) else {
            return Ok(None);
        };
        if let Ok(v) = raw.parse::<u64>() {
            return Ok(Some(v));
        }
        let err = || {
            SpecError::new(format!(
                "parameter `{key}`: `{raw}` is not an integer (scientific \
                 notation like 1e8 is accepted when it denotes an exact \
                 non-negative integer)"
            ))
        };
        let x: f64 = raw.parse().map_err(|_| err())?;
        if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9.007_199_254_740_992e15) {
            return Err(err());
        }
        Ok(Some(x as u64))
    }

    fn get_u32(&self, key: &str) -> Result<Option<u32>, SpecError> {
        self.parse(key, "an integer")
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        self.parse(key, "a number")
    }

    /// The generation-density threshold `gamma`, which must lie in the
    /// open interval (0, 1).
    fn get_gamma(&self) -> Result<Option<f64>, SpecError> {
        match self.get_f64("gamma")? {
            Some(g) if !(g > 0.0 && g < 1.0) => Err(SpecError::new(format!(
                "parameter `gamma` must lie in (0, 1), got {g}"
            ))),
            other => Ok(other),
        }
    }
}

/// One registered protocol: its canonical name, aliases, a one-line
/// summary, and its protocol-specific parameter keys.
pub struct ProtocolEntry {
    name: &'static str,
    aliases: &'static [&'static str],
    summary: &'static str,
    /// `(key, help)` pairs for the protocol-specific parameters.
    keys: &'static [(&'static str, &'static str)],
    default_k: u32,
    build: fn(&KeyValues) -> Result<Box<dyn Protocol>, SpecError>,
}

impl ProtocolEntry {
    /// The canonical protocol name ([`RunSpec::protocol`]).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Accepted alternative names.
    pub fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    /// A one-line description for `--list`.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// The protocol-specific `(key, help)` pairs.
    pub fn keys(&self) -> &'static [(&'static str, &'static str)] {
        self.keys
    }

    fn matches(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

/// The common parameter keys every protocol accepts, with help strings
/// (`--list` prints them; unknown-key errors cite them).
pub const COMMON_KEYS: [(&str, &str); 9] = [
    (
        "n",
        "population size (default 10000; scientific notation like 1e8 accepted)",
    ),
    (
        "k",
        "number of opinions (default 4; 2 for population protocols)",
    ),
    (
        "alpha",
        "initial multiplicative bias of opinion 0 (default 2.0)",
    ),
    (
        "epsilon",
        "tolerance for ε-convergence reporting (default 0.05)",
    ),
    ("seed", "RNG seed (default 0)"),
    ("record", "telemetry level: outcome | generations | full"),
    (
        "topology",
        "communication graph: complete | ring | torus | er:P | regular:D | pa:M",
    ),
    (
        "scenario",
        "time-scripted environment, e.g. crash:0.2@5;burst-loss:0.5@8..12",
    ),
    (
        "max",
        "duration cap in the engine's native clock (rounds, steps, or parallel time)",
    ),
];

fn build_sync(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    let mode = match kv.get("mode") {
        None | Some("predefined") => ScheduleMode::Predefined,
        Some("adaptive") => ScheduleMode::Adaptive,
        Some(other) => {
            return Err(SpecError::new(format!(
                "parameter `mode`: `{other}` is not a schedule mode (predefined | adaptive)"
            )))
        }
    };
    let alpha_hint = match kv.get_f64("alpha_hint")? {
        Some(a) if !(a >= 1.0 && a.is_finite()) => {
            return Err(SpecError::new(format!(
                "parameter `alpha_hint` must be finite and at least 1, got {a}"
            )))
        }
        other => other,
    };
    Ok(Box::new(SyncEngine {
        gamma: kv.get_gamma()?,
        mode,
        alpha_hint,
    }))
}

fn build_urn(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    Ok(Box::new(UrnEngine {
        gamma: kv.get_gamma()?,
    }))
}

fn parse_latency_param(kv: &KeyValues) -> Result<Option<Latency>, SpecError> {
    match kv.get("latency") {
        None => Ok(None),
        Some(raw) => Latency::parse_spec(raw)
            .map(Some)
            .map_err(|e| SpecError::new(format!("parameter `latency`: {}", e.message()))),
    }
}

fn parse_c1(kv: &KeyValues) -> Result<Option<f64>, SpecError> {
    match kv.get_f64("c1")? {
        Some(c1) if !(c1 > 0.0 && c1.is_finite()) => Err(SpecError::new(format!(
            "parameter `c1` must be positive and finite, got {c1}"
        ))),
        other => Ok(other),
    }
}

fn build_leader(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    Ok(Box::new(LeaderEngine {
        latency: parse_latency_param(kv)?,
        steps_per_unit: parse_c1(kv)?,
    }))
}

fn build_cluster(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    let participation_size = match kv.get_u64("participation")? {
        Some(0) => return Err(SpecError::new("parameter `participation` must be positive")),
        other => other,
    };
    let leader_probability = match kv.get_f64("leader-prob")? {
        Some(p) if !(p > 0.0 && p <= 1.0) => {
            return Err(SpecError::new(format!(
                "parameter `leader-prob` must lie in (0, 1], got {p}"
            )))
        }
        other => other,
    };
    Ok(Box::new(ClusterEngine {
        latency: parse_latency_param(kv)?,
        steps_per_unit: parse_c1(kv)?,
        participation_size,
        leader_probability,
    }))
}

fn build_gossip(dynamics: Dynamics) -> fn(&KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    match dynamics {
        Dynamics::PullVoting => |_| Ok(Box::new(GossipEngine::new(Dynamics::PullVoting))),
        Dynamics::TwoChoices => |_| Ok(Box::new(GossipEngine::new(Dynamics::TwoChoices))),
        Dynamics::ThreeMajority => |_| Ok(Box::new(GossipEngine::new(Dynamics::ThreeMajority))),
        Dynamics::Undecided => |_| Ok(Box::new(GossipEngine::new(Dynamics::Undecided))),
    }
}

fn build_population(
    protocol: PopulationProtocol,
) -> fn(&KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    fn build(protocol: PopulationProtocol, kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
        Ok(Box::new(PopulationEngine {
            protocol,
            initial_a: kv.get_count("a")?,
        }))
    }
    match protocol {
        PopulationProtocol::ApproximateMajority => {
            |kv| build(PopulationProtocol::ApproximateMajority, kv)
        }
        PopulationProtocol::ExactMajority => |kv| build(PopulationProtocol::ExactMajority, kv),
    }
}

fn build_leader_mf(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    let dt = match kv.get_f64("dt")? {
        Some(dt) if !(LeaderMfConfig::MIN_DT..=1.0).contains(&dt) => {
            return Err(SpecError::new(format!(
                "parameter `dt` must lie in (0, 1] and be at least 1/64 = 0.015625 \
                 (a run's sub-steps and memory grow as 1/dt), got {dt}"
            )))
        }
        other => other,
    };
    Ok(Box::new(LeaderMfEngine { dt }))
}

fn build_population_mf(kv: &KeyValues) -> Result<Box<dyn Protocol>, SpecError> {
    Ok(Box::new(PopulationMfEngine {
        initial_a: kv.get_count("a")?,
    }))
}

const GAMMA_HELP: &str = "generation-density threshold γ in (0, 1) (default 0.5)";
const LATENCY_HELP: &str =
    "edge-latency law: exp:RATE | erlang:SHAPE:RATE | weibull:SHAPE:MEAN | uniform:LO:HI | det:V";
const C1_HELP: &str = "time-unit length C1 in steps (default: Monte-Carlo estimate)";

/// The registered protocols: every engine in the workspace.
pub struct Registry {
    entries: Vec<ProtocolEntry>,
}

impl Registry {
    /// The standard registry covering every engine — fourteen protocol
    /// names: the six per-node engines (the four gossip dynamics and
    /// the two population protocols are separate entries of their
    /// shared engines) plus the four mean-field aggregate (`*-mf`)
    /// backends from `plurality-agg`. `sync-mf` is an alias of `urn`,
    /// which already is the exact count-pool law of Algorithm 1.
    pub fn standard() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry {
            entries: vec![
                ProtocolEntry {
                    name: "sync",
                    aliases: &[],
                    summary: "synchronous generation protocol (Algorithm 1, Theorem 1)",
                    keys: &[
                        ("gamma", GAMMA_HELP),
                        ("mode", "schedule mode: predefined | adaptive"),
                        (
                            "alpha_hint",
                            "bias α₀ the predefined schedule assumes (default: the realized bias)",
                        ),
                    ],
                    default_k: 4,
                    build: build_sync,
                },
                ProtocolEntry {
                    name: "urn",
                    aliases: &["sync-mf"],
                    summary: "mean-field urn mode of the synchronous protocol (exact, n-independent cost)",
                    keys: &[("gamma", GAMMA_HELP)],
                    default_k: 4,
                    build: build_urn,
                },
                ProtocolEntry {
                    name: "leader",
                    aliases: &[],
                    summary: "asynchronous single-leader protocol (Algorithms 2+3, Theorem 13)",
                    keys: &[("latency", LATENCY_HELP), ("c1", C1_HELP)],
                    default_k: 4,
                    build: build_leader,
                },
                ProtocolEntry {
                    name: "cluster",
                    aliases: &[],
                    summary: "decentralized multi-leader protocol (Algorithms 4+5, Theorem 26)",
                    keys: &[
                        ("latency", LATENCY_HELP),
                        ("c1", C1_HELP),
                        ("participation", "cluster participation size (the paper's log^{c-1} n)"),
                        ("leader-prob", "leader self-election probability in (0, 1]"),
                    ],
                    default_k: 4,
                    build: build_cluster,
                },
                ProtocolEntry {
                    name: "pull",
                    aliases: &["pull-voting"],
                    summary: "pull-voting baseline: adopt one uniform sample",
                    keys: &[],
                    default_k: 4,
                    build: build_gossip(Dynamics::PullVoting),
                },
                ProtocolEntry {
                    name: "two-choices",
                    aliases: &[],
                    summary: "two-choices baseline: adopt when two uniform samples agree",
                    keys: &[],
                    default_k: 4,
                    build: build_gossip(Dynamics::TwoChoices),
                },
                ProtocolEntry {
                    name: "3-majority",
                    aliases: &["three-majority"],
                    summary: "3-majority baseline: adopt the majority of three samples",
                    keys: &[],
                    default_k: 4,
                    build: build_gossip(Dynamics::ThreeMajority),
                },
                ProtocolEntry {
                    name: "undecided",
                    aliases: &["undecided-state"],
                    summary: "undecided-state dynamics baseline",
                    keys: &[],
                    default_k: 4,
                    build: build_gossip(Dynamics::Undecided),
                },
                ProtocolEntry {
                    name: "approx-majority",
                    aliases: &["approximate-majority"],
                    summary: "3-state approximate-majority population protocol (AAE08)",
                    keys: &[("a", "initial support of opinion A (default: from n, k=2, alpha)")],
                    default_k: 2,
                    build: build_population(PopulationProtocol::ApproximateMajority),
                },
                ProtocolEntry {
                    name: "exact-majority",
                    aliases: &[],
                    summary: "4-state exact-majority population protocol (DV10/MNRS14)",
                    keys: &[("a", "initial support of opinion A (default: from n, k=2, alpha)")],
                    default_k: 2,
                    build: build_population(PopulationProtocol::ExactMajority),
                },
                ProtocolEntry {
                    name: "leader-mf",
                    aliases: &[],
                    summary: "mean-field aggregate single-leader engine (tau-leaped pools, n up to ~1e9)",
                    keys: &[("dt", "tau-leap sub-step in time units, in [1/64, 1] (default 0.125)")],
                    default_k: 4,
                    build: build_leader_mf,
                },
                ProtocolEntry {
                    name: "majority3-mf",
                    aliases: &["3-majority-mf"],
                    summary: "mean-field aggregate 3-majority dynamic (closed-form round law)",
                    keys: &[],
                    default_k: 4,
                    build: |_| Ok(Box::new(Majority3MfEngine)),
                },
                ProtocolEntry {
                    name: "undecided-mf",
                    aliases: &["undecided-state-mf"],
                    summary: "mean-field aggregate undecided-state dynamic",
                    keys: &[],
                    default_k: 4,
                    build: |_| Ok(Box::new(UndecidedMfEngine)),
                },
                ProtocolEntry {
                    name: "population-mf",
                    aliases: &["approx-majority-mf"],
                    summary: "mean-field aggregate approximate-majority jump chain (n up to ~1e9)",
                    keys: &[("a", "initial support of opinion A (default: from n, k=2, alpha)")],
                    default_k: 2,
                    build: build_population_mf,
                },
            ],
        })
    }

    /// The registered protocols, in listing order.
    pub fn entries(&self) -> &[ProtocolEntry] {
        &self.entries
    }

    /// The canonical protocol names, in listing order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Finds a protocol by canonical name or alias.
    pub fn find(&self, name: &str) -> Option<&ProtocolEntry> {
        self.entries.iter().find(|e| e.matches(name))
    }

    /// Resolves a spec into a runnable protocol and configuration,
    /// validating the protocol name, every parameter key, every value,
    /// and the protocol/config compatibility ([`Protocol::check`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with a teaching message for the first
    /// violated constraint.
    pub fn resolve(&self, spec: &RunSpec) -> Result<Resolved, SpecError> {
        let entry = self.find(spec.protocol()).ok_or_else(|| {
            SpecError::new(format!(
                "unknown protocol `{}` (registered: {})",
                spec.protocol(),
                self.names().join(", ")
            ))
        })?;

        for (key, _) in spec.params() {
            let known = COMMON_KEYS.iter().any(|(k, _)| k == key)
                || entry.keys.iter().any(|(k, _)| k == key);
            if !known {
                let specific = if entry.keys.is_empty() {
                    format!("`{}` has no protocol-specific parameters", entry.name)
                } else {
                    format!(
                        "{}-specific: {}",
                        entry.name,
                        entry
                            .keys
                            .iter()
                            .map(|(k, _)| *k)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                return Err(SpecError::new(format!(
                    "`{key}` is not a parameter of `{}` (common: {}; {specific})",
                    entry.name,
                    COMMON_KEYS
                        .iter()
                        .map(|(k, _)| *k)
                        .collect::<Vec<_>>()
                        .join(", "),
                )));
            }
        }

        let kv = KeyValues(spec);
        let n = kv.get_count("n")?.unwrap_or(10_000);
        let k = kv.get_u32("k")?.unwrap_or(entry.default_k);
        let alpha = kv.get_f64("alpha")?.unwrap_or(2.0);
        let mut config = RunConfig::with_bias(n, k, alpha)?;
        if let Some(epsilon) = kv.get_f64("epsilon")? {
            if !(0.0..=1.0).contains(&epsilon) {
                return Err(SpecError::new(format!(
                    "parameter `epsilon` must lie in [0, 1], got {epsilon}"
                )));
            }
            config = config.with_epsilon(epsilon);
        }
        if let Some(seed) = kv.get_u64("seed")? {
            config = config.with_seed(seed);
        }
        match kv.get("record") {
            None => {}
            Some("outcome") => config = config.with_record(RecordLevel::Outcome),
            Some("generations") => config = config.with_record(RecordLevel::Generations),
            Some("full") => config = config.with_record(RecordLevel::Full),
            Some(other) => {
                return Err(SpecError::new(format!(
                    "parameter `record`: `{other}` is not a record level \
                     (outcome | generations | full)"
                )))
            }
        }
        if let Some(raw) = kv.get("topology") {
            let topology = Topology::parse_spec(raw)
                .map_err(|e| SpecError::new(format!("parameter `topology`: {}", e.message())))?;
            config = config.with_topology(topology);
        }
        if let Some(raw) = kv.get("scenario") {
            let scenario = Scenario::parse(raw)
                .map_err(|e| SpecError::new(format!("parameter `scenario`: {e}")))?;
            config = config.with_scenario(scenario);
        }
        if let Some(max) = kv.get_f64("max")? {
            if !(max > 0.0 && max.is_finite()) {
                return Err(SpecError::new(format!(
                    "parameter `max` must be positive and finite, got {max}"
                )));
            }
            config = config.with_max_duration(max);
        }

        let protocol = (entry.build)(&kv)?;
        protocol.check(&config)?;
        Ok(Resolved { protocol, config })
    }

    /// Validates a spec without running anything — full
    /// [`Registry::resolve`] coverage (protocol name, every key, every
    /// value, protocol/config compatibility) — and prices the run
    /// ([`Protocol::cost`]).
    ///
    /// This is the server's 400 fast path: `plurality-serve` rejects a
    /// malformed `/run` request with the same teaching error a CLI user
    /// would see, before the request ever occupies a queue slot or a
    /// worker — resolution costs microseconds while a run costs
    /// milliseconds. The price orders its queue.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with a teaching message for the first
    /// violated constraint.
    pub fn validate_only(&self, spec: &RunSpec) -> Result<Cost, SpecError> {
        let resolved = self.resolve(spec)?;
        Ok(resolved.protocol.cost(&resolved.config))
    }
}

/// A resolved run spec: the protocol handle and the run configuration,
/// ready to run (and re-run with different seeds via
/// [`RunConfig::with_seed`]).
pub struct Resolved {
    /// The protocol to run.
    pub protocol: Box<dyn Protocol>,
    /// The shared run configuration.
    pub config: RunConfig,
}

impl fmt::Debug for Resolved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resolved")
            .field("protocol", &self.protocol.name())
            .field("config", &self.config)
            .finish()
    }
}

impl Resolved {
    /// Runs the resolved spec as-is.
    pub fn run(&self) -> Report {
        self.protocol.run(&self.config)
    }

    /// Runs the resolved spec with a different seed — the per-repetition
    /// entry point experiment harnesses use.
    pub fn run_seeded(&self, seed: u64) -> Report {
        self.protocol.run(&self.config.clone().with_seed(seed))
    }
}

/// Parses, resolves, and runs a spec string in one call.
///
/// # Examples
///
/// ```
/// let report = plurality_api::run_spec("sync?n=2000&k=4&alpha=2.0&seed=1").unwrap();
/// assert!(report.outcome.plurality_preserved());
/// ```
///
/// # Errors
///
/// Returns [`SpecError`] if the spec fails to parse or resolve.
pub fn run_spec(spec: &str) -> Result<Report, SpecError> {
    let spec = RunSpec::parse(spec)?;
    Ok(Registry::standard().resolve(&spec)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let raw = "leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5";
        let spec = RunSpec::parse(raw).unwrap();
        assert_eq!(spec.to_string(), raw);
        assert_eq!(RunSpec::parse(&spec.to_string()), Ok(spec));
    }

    #[test]
    fn bare_protocol_is_a_valid_spec() {
        let spec = RunSpec::parse("sync").unwrap();
        assert_eq!(spec.protocol(), "sync");
        assert!(spec.params().is_empty());
        assert_eq!(spec.to_string(), "sync");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(RunSpec::parse("").is_err());
        assert!(RunSpec::parse("?n=5").is_err());
        assert!(RunSpec::parse("sync?n").is_err());
        assert!(RunSpec::parse("sync?n=").is_err());
        assert!(RunSpec::parse("sync?=5").is_err());
        assert!(RunSpec::parse("sync?n=5&n=6").is_err());
    }

    #[test]
    fn with_replaces_existing_keys() {
        let spec = RunSpec::new("sync").with("n", 100).with("n", 200);
        assert_eq!(spec.get("n"), Some("200"));
        assert_eq!(spec.to_string(), "sync?n=200");
    }

    #[test]
    fn unknown_protocol_error_lists_the_registry() {
        let err = Registry::standard()
            .resolve(&RunSpec::parse("paxos").unwrap())
            .unwrap_err();
        assert!(err.message().contains("unknown protocol"), "{err}");
        assert!(err.message().contains("sync"), "{err}");
        assert!(err.message().contains("exact-majority"), "{err}");
    }

    #[test]
    fn unknown_key_error_teaches_the_valid_keys() {
        let err = Registry::standard()
            .resolve(&RunSpec::parse("leader?gamma=0.4").unwrap())
            .unwrap_err();
        assert!(err.message().contains("`gamma`"), "{err}");
        assert!(err.message().contains("leader-specific"), "{err}");
        assert!(err.message().contains("c1"), "{err}");
    }

    #[test]
    fn leader_only_keys_are_rejected_elsewhere() {
        for spec in [
            "sync?scenario=signal-loss:0.2",
            "3-majority?scenario=crash:0.1@5;stragglers:0.2",
        ] {
            let err = Registry::standard()
                .resolve(&RunSpec::parse(spec).unwrap())
                .unwrap_err();
            assert!(err.message().contains("run `leader` or `cluster`"), "{err}");
        }
        // The old leader keys are gone, with no alias.
        for spec in ["leader?loss=0.2", "leader?stragglers=0.2"] {
            let err = Registry::standard()
                .resolve(&RunSpec::parse(spec).unwrap())
                .unwrap_err();
            assert!(err.message().contains("is not a parameter"), "{err}");
        }
    }

    #[test]
    fn value_errors_name_the_parameter() {
        let cases = [
            ("sync?n=many", "`n`"),
            ("sync?gamma=1.5", "`gamma`"),
            ("sync?mode=psychic", "`mode`"),
            ("leader?latency=cauchy:1", "`latency`"),
            ("leader?scenario=signal-loss:1.5", "`scenario`"),
            ("sync?record=everything", "`record`"),
            ("sync?topology=hypercube", "`topology`"),
            ("sync?epsilon=2", "`epsilon`"),
            ("sync?max=-1", "`max`"),
            ("cluster?leader-prob=0", "`leader-prob`"),
            ("cluster?n=5", "`n`"),
            ("leader-mf?dt=2", "`dt`"),
            ("leader-mf?dt=0.01", "at least 1/64"),
            ("leader-mf?dt=1e-6", "at least 1/64"),
            ("sync-mf?gamma=0", "`gamma`"),
            ("sync?alpha_hint=0.5", "`alpha_hint`"),
            ("sync?alpha_hint=inf", "`alpha_hint`"),
            ("sync?alpha_hint=NaN", "`alpha_hint`"),
            ("sync?alpha_hint=big", "`alpha_hint`"),
        ];
        for (spec, needle) in cases {
            let err = Registry::standard()
                .resolve(&RunSpec::parse(spec).unwrap())
                .unwrap_err();
            assert!(err.message().contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn alpha_hint_is_a_key_of_sync_alone() {
        let registry = Registry::standard();
        assert!(registry
            .resolve(&RunSpec::parse("sync?n=600&alpha_hint=8").unwrap())
            .is_ok());
        for entry in registry.entries().iter().filter(|e| e.name() != "sync") {
            let spec = RunSpec::parse(&format!("{}?alpha_hint=8", entry.name())).unwrap();
            let err = registry.resolve(&spec).unwrap_err();
            assert!(
                err.message().contains("`alpha_hint` is not a parameter of"),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn aliases_resolve_to_the_canonical_protocol() {
        for (alias, canonical) in [
            ("pull-voting", "pull"),
            ("undecided-state", "undecided"),
            ("approximate-majority", "approx-majority"),
            ("three-majority", "3-majority"),
        ] {
            let entry = Registry::standard().find(alias).expect(alias);
            assert_eq!(entry.name(), canonical);
        }
    }

    #[test]
    fn every_registered_protocol_runs_from_a_spec() {
        for entry in Registry::standard().entries() {
            let spec = format!("{}?n=600&alpha=3.0&seed=5&c1=9.3", entry.name());
            // `c1` only exists on the event-driven engines; drop it
            // elsewhere.
            let spec = if entry.keys().iter().any(|(k, _)| *k == "c1") {
                spec
            } else {
                format!("{}?n=600&alpha=3.0&seed=5", entry.name())
            };
            let report = run_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(report.protocol, entry.name());
            assert_eq!(report.outcome.n, 600);
        }
    }

    #[test]
    fn scientific_notation_counts_parse_for_every_entry() {
        let report = run_spec("sync-mf?n=1e6&k=8&seed=1").unwrap();
        assert_eq!(report.protocol, "urn");
        assert_eq!(report.outcome.n, 1_000_000);
        assert!(report.outcome.plurality_preserved());
        // The notation is shared with the per-node entries.
        let report = run_spec("urn?n=1e4&seed=1").unwrap();
        assert_eq!(report.outcome.n, 10_000);
    }

    #[test]
    fn non_integer_counts_are_rejected() {
        for spec in [
            "sync?n=1.5",
            "sync-mf?n=-1e3",
            "sync-mf?n=1e300",
            "sync-mf?n=many",
            "population-mf?a=2.5e0",
        ] {
            let err = Registry::standard()
                .resolve(&RunSpec::parse(spec).unwrap())
                .unwrap_err();
            assert!(
                err.message().contains("`n`") || err.message().contains("`a`"),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn mean_field_specs_reject_topology_with_a_teaching_error() {
        let err = Registry::standard()
            .resolve(&RunSpec::parse("leader-mf?topology=ring").unwrap())
            .unwrap_err();
        assert!(err.message().contains("mean-field"), "{err}");
        assert!(err.message().contains("`leader`"), "{err}");
    }

    #[test]
    fn mean_field_aliases_resolve() {
        for (alias, canonical) in [
            ("sync-mf", "urn"),
            ("3-majority-mf", "majority3-mf"),
            ("undecided-state-mf", "undecided-mf"),
            ("approx-majority-mf", "population-mf"),
        ] {
            let entry = Registry::standard().find(alias).expect(alias);
            assert_eq!(entry.name(), canonical);
        }
    }

    #[test]
    fn resolved_specs_rerun_with_fresh_seeds() {
        let resolved = Registry::standard()
            .resolve(&RunSpec::parse("sync?n=600&k=2&alpha=3.0").unwrap())
            .unwrap();
        let a = resolved.run_seeded(1);
        let b = resolved.run_seeded(1);
        let c = resolved.run_seeded(2);
        assert_eq!(a, b);
        assert_ne!(a.outcome, c.outcome);
    }

    #[test]
    fn scenario_errors_keep_their_event_context() {
        let err = Registry::standard()
            .resolve(&RunSpec::parse("sync?scenario=crash:0.2@2;burst-loss:0.5@8").unwrap())
            .unwrap_err();
        assert!(err.message().contains("event #2"), "{err}");
        assert!(err.message().contains("window"), "{err}");
    }
}
