//! Exhaustive model of the decentralized cluster protocol
//! (Algorithms 4–5), for the consensus phase.
//!
//! The model starts where clustering ends: every node belongs to a
//! consensus-mode cluster with a live [`ClusterLeaderState`]. The
//! clustering phase itself (filling/pausing/accepting windows) is a
//! performance mechanism with no bearing on the safety properties checked
//! here, and modeling it would square the state space.
//!
//! As in the leader model, the checker owns no protocol rules: member
//! updates go through [`decide_member`] / [`finished_exchange`] and
//! leaders through [`ClusterLeaderState`]'s own `on_zero` / `on_promoted`
//! / `merge_from` — the exact functions the event-driven engine calls.
//! Scheduler actions:
//!
//! * `MemberZero { cluster }` — a member 0-signal reaches the cluster's
//!   leader (members tick forever; enabled whenever observable, i.e. the
//!   leader is not yet propagating).
//! * `DeliverPromoted { cluster }` — one in-flight promotion signal for
//!   the leader's *current* generation arrives. The same
//!   single-counter argument as in the leader model applies per cluster;
//!   the counter resets when the generation advances (organic birth or
//!   lattice merge), which is exactly when outstanding signals go stale.
//! * `Interact { v, s1, s2, s3 }` — node `v` completes an interaction:
//!   finished-flag exchange first, then the leader lattice sync between
//!   `v`'s cluster and `s3`'s cluster, then the member promotion rule
//!   against the *post-sync* observed leader — the engine's exact order.
//!
//! Canonicalization on the complete graph sorts members within each
//! cluster and cluster blocks among each other (blocks embed the cluster
//! cardinality, and all leader thresholds are derived from cardinality,
//! so equal blocks are genuinely isomorphic). On the ring no node
//! symmetry is exploited (cluster segments break most of the dihedral
//! group; identity is always sound).

use std::fmt;

use plurality_core::cluster::{
    decide_member, finished_exchange, ClusterLeaderParams, ClusterLeaderState, ClusterPhase,
    FinishedExchange, MemberDecision, MemberSample, MemberView,
};

use crate::explore::{Property, PropertyCheck, StepOracle};
use crate::CheckTopology;

/// Instance description for a cluster-protocol check.
#[derive(Debug, Clone)]
pub struct ClusterCheckConfig {
    /// Cluster cardinalities; nodes are assigned contiguously in order.
    pub sizes: Vec<usize>,
    /// Initial color per node (`init.len()` must equal the size sum).
    pub init: Vec<u32>,
    /// Number of opinions.
    pub k: u32,
    /// Communication topology (over the *global* node indices).
    pub topology: CheckTopology,
    /// Maximum generation.
    pub generation_cap: u32,
    /// Sleep threshold per unit of cardinality
    /// (`sleep_threshold = card · sleep_units`).
    pub sleep_units: u64,
    /// Additional propagation delay per unit of cardinality
    /// (`prop_threshold = sleep_threshold + card · prop_units`).
    pub prop_units: u64,
}

impl ClusterCheckConfig {
    /// A standard small instance: two clusters of `⌈n/2⌉` and `⌊n/2⌋`
    /// nodes, a color-0 majority of `n/2 + 1`, generation cap 2, unit
    /// thresholds.
    pub fn new(n: usize, k: u32, topology: CheckTopology) -> Self {
        let majority = n / 2 + 1;
        let mut init = vec![0u32; n];
        for (i, slot) in init.iter_mut().enumerate().skip(majority) {
            *slot = 1 + ((i - majority) as u32 % (k.max(2) - 1));
        }
        Self {
            sizes: vec![n.div_ceil(2), n / 2],
            init,
            k,
            topology,
            generation_cap: 2,
            sleep_units: 1,
            prop_units: 1,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.init.len()
    }

    /// The leader thresholds for a cluster of the given cardinality —
    /// every block of equal cardinality shares them, which is what makes
    /// sorted-block canonicalization sound.
    fn params_for(&self, card: usize) -> ClusterLeaderParams {
        let sleep = (card as u64 * self.sleep_units).max(1);
        ClusterLeaderParams {
            sleep_threshold: sleep,
            prop_threshold: sleep + (card as u64 * self.prop_units).max(1),
            gen_size_threshold: (card as u64).div_ceil(2),
            generation_cap: self.generation_cap,
        }
    }

    /// Validates instance bounds for the canonical encoding.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if !(2..=8).contains(&n) {
            return Err(format!("n = {n} out of the checkable range 2..=8"));
        }
        if self.topology == CheckTopology::Ring && n < 3 {
            return Err("ring topology needs n >= 3".into());
        }
        if self.sizes.is_empty() || self.sizes.contains(&0) {
            return Err("cluster sizes must be non-empty and positive".into());
        }
        if self.sizes.iter().sum::<usize>() != n {
            return Err(format!(
                "cluster sizes {:?} do not sum to n = {n}",
                self.sizes
            ));
        }
        if !(2..=15).contains(&self.k) {
            return Err(format!("k = {} out of range 2..=15", self.k));
        }
        if let Some(c) = self.init.iter().find(|c| **c >= self.k) {
            return Err(format!("initial color {c} out of range 0..{}", self.k));
        }
        if !(1..=15).contains(&self.generation_cap) {
            return Err(format!(
                "generation cap {} out of range 1..=15",
                self.generation_cap
            ));
        }
        for &card in &self.sizes {
            let p = self.params_for(card);
            if p.prop_threshold > 250 {
                return Err(format!(
                    "prop threshold {} for cardinality {card} exceeds the u8 encoding",
                    p.prop_threshold
                ));
            }
        }
        Ok(())
    }

    /// Builds the oracle, validating first.
    pub fn oracle(self) -> Result<ClusterOracle, String> {
        self.validate()?;
        let n = self.n();
        let neighbors = self.topology.neighbor_sets(n);
        // `locs` must describe the layout of *decoded* states. Under the
        // complete topology canonicalization sorts cluster blocks, and the
        // leading block byte is the cardinality — so decoded states always
        // carry their cardinalities in ascending order, whatever `sizes`
        // says. Ring states are never reordered.
        let mut layout = self.sizes.clone();
        if self.topology == CheckTopology::Complete {
            layout.sort_unstable();
        }
        let mut locs = Vec::with_capacity(n);
        for (ci, &card) in layout.iter().enumerate() {
            for mi in 0..card {
                locs.push((ci as u8, mi as u8));
            }
        }
        Ok(ClusterOracle {
            cfg: self,
            neighbors,
            locs,
        })
    }
}

/// One cluster member's full state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Member {
    /// Own generation.
    pub gen: u32,
    /// Own color.
    pub col: u32,
    /// Leader generation stored at the last communication.
    pub stored_gen: u32,
    /// Leader phase state stored at the last communication (0 before any).
    pub stored_phase: u8,
    /// Finished flag (line 20 / lines 5–7 of Algorithm 4).
    pub finished: bool,
}

/// Maximum checkable instance size (shared by the canonical encoding's
/// stack buffers).
const MAX_NODES: usize = 8;

/// Fixed-capacity inline member list. The explorer clones a full state on
/// every examined transition (hundreds of millions per instance), so
/// member storage must not live on the heap. Derefs to `[Member]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberVec {
    len: u8,
    buf: [Member; MAX_NODES],
}

impl MemberVec {
    const EMPTY: Member = Member {
        gen: 0,
        col: 0,
        stored_gen: 0,
        stored_phase: 0,
        finished: false,
    };

    /// An empty list.
    pub fn new() -> Self {
        Self {
            len: 0,
            buf: [Self::EMPTY; MAX_NODES],
        }
    }

    /// Appends a member; panics past the checkable capacity of 8.
    pub fn push(&mut self, m: Member) {
        self.buf[self.len as usize] = m;
        self.len += 1;
    }
}

impl Default for MemberVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for MemberVec {
    type Target = [Member];

    fn deref(&self) -> &[Member] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::DerefMut for MemberVec {
    fn deref_mut(&mut self) -> &mut [Member] {
        &mut self.buf[..self.len as usize]
    }
}

impl FromIterator<Member> for MemberVec {
    fn from_iter<I: IntoIterator<Item = Member>>(iter: I) -> Self {
        let mut v = Self::new();
        for m in iter {
            v.push(m);
        }
        v
    }
}

/// One cluster: its leader, its members, and its in-flight promotion
/// signals.
#[derive(Clone)]
pub struct ClusterUnit {
    /// The leader (the engine's own state machine).
    pub leader: ClusterLeaderState,
    /// In-flight promotion signals for the leader's current generation.
    pub pending: u8,
    /// The members, in global-index order.
    pub members: MemberVec,
}

/// A full configuration of the modeled system.
#[derive(Clone)]
pub struct ClusterModel {
    /// The clusters; global node `v` lives in the cluster containing the
    /// `v`-th member in concatenation order.
    pub clusters: Vec<ClusterUnit>,
}

impl ClusterModel {
    /// Locates global node index `v` as `(cluster, member)` indices.
    pub fn locate(&self, v: usize) -> (usize, usize) {
        let mut at = v;
        for (ci, c) in self.clusters.iter().enumerate() {
            if at < c.members.len() {
                return (ci, at);
            }
            at -= c.members.len();
        }
        panic!("node index {v} out of range");
    }

    /// The member at global index `v`.
    pub fn member(&self, v: usize) -> &Member {
        let (ci, mi) = self.locate(v);
        &self.clusters[ci].members[mi]
    }

    #[cfg(test)]
    fn member_mut(&mut self, v: usize) -> &mut Member {
        let (ci, mi) = self.locate(v);
        &mut self.clusters[ci].members[mi]
    }

    /// Iterates members in global-index order.
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        self.clusters.iter().flat_map(|c| c.members.iter())
    }
}

/// One scheduler choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAction {
    /// A member 0-signal arrives at the cluster's leader.
    MemberZero {
        /// Receiving cluster.
        cluster: u8,
    },
    /// A pending promotion signal (for the current generation) arrives.
    DeliverPromoted {
        /// Receiving cluster.
        cluster: u8,
    },
    /// Node `v` completes an interaction with samples `s1, s2, s3`.
    Interact {
        /// The initiating node.
        v: u8,
        /// First sampled node (opinion line).
        s1: u8,
        /// Second sampled node (opinion line).
        s2: u8,
        /// Third sampled node (the leader-observation line).
        s3: u8,
    },
}

impl fmt::Display for ClusterAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterAction::MemberZero { cluster } => {
                write!(f, "deliver 0-signal to cluster {cluster}")
            }
            ClusterAction::DeliverPromoted { cluster } => {
                write!(f, "deliver promotion signal to cluster {cluster}")
            }
            ClusterAction::Interact { v, s1, s2, s3 } => {
                write!(f, "node {v} interacts with samples ({s1}, {s2}, {s3})")
            }
        }
    }
}

/// The cluster-protocol [`StepOracle`].
pub struct ClusterOracle {
    cfg: ClusterCheckConfig,
    neighbors: Vec<Vec<u8>>,
    /// Global node index → (cluster, member) — fixed by `sizes`, so the
    /// hot path never walks the cluster list.
    locs: Vec<(u8, u8)>,
}

/// Maximum encoded block length: 6 header bytes plus one `u16` word per
/// member.
const MAX_BLOCK: usize = 6 + 2 * MAX_NODES;

fn phase_from_state(state: u8) -> ClusterPhase {
    match state {
        1 => ClusterPhase::TwoChoices,
        2 => ClusterPhase::Sleeping,
        3 => ClusterPhase::Propagation,
        other => panic!("invalid phase state {other}"),
    }
}

impl ClusterOracle {
    /// The instance configuration.
    pub fn config(&self) -> &ClusterCheckConfig {
        &self.cfg
    }

    #[inline]
    fn mem<'a>(&self, st: &'a ClusterModel, v: usize) -> &'a Member {
        let (ci, mi) = self.locs[v];
        &st.clusters[ci as usize].members[mi as usize]
    }

    #[inline]
    fn mem_mut<'a>(&self, st: &'a mut ClusterModel, v: usize) -> &'a mut Member {
        let (ci, mi) = self.locs[v];
        &mut st.clusters[ci as usize].members[mi as usize]
    }

    fn pack_member(m: &Member) -> u16 {
        ((m.gen as u16) << 12)
            | ((m.col as u16) << 8)
            | ((m.stored_gen as u16) << 4)
            | ((u16::from(m.stored_phase)) << 1)
            | u16::from(m.finished)
    }

    fn unpack_member(word: u16) -> Member {
        Member {
            gen: u32::from(word >> 12),
            col: u32::from((word >> 8) & 0xf),
            stored_gen: u32::from((word >> 4) & 0xf),
            stored_phase: ((word >> 1) & 0x7) as u8,
            finished: word & 1 == 1,
        }
    }

    /// Encodes one cluster as a block into `out`; members are pre-packed
    /// words in the order the caller wants them kept. Returns the block
    /// length.
    fn encode_block(&self, unit: &ClusterUnit, words: &[u16], out: &mut [u8; MAX_BLOCK]) -> usize {
        let cap = self.cfg.generation_cap;
        let leader = &unit.leader;
        let at_cap = leader.generation() >= cap;
        let tick_norm = if leader.phase() == ClusterPhase::Propagation {
            0
        } else {
            leader.tick_count() as u8
        };
        out[0] = words.len() as u8;
        out[1] = leader.generation() as u8;
        out[2] = leader.phase().as_state();
        out[3] = tick_norm;
        out[4] = if at_cap { 0 } else { leader.gen_size() as u8 };
        out[5] = if at_cap { 0 } else { unit.pending };
        for (i, w) in words.iter().enumerate() {
            out[6 + 2 * i..8 + 2 * i].copy_from_slice(&w.to_be_bytes());
        }
        6 + 2 * words.len()
    }

    /// Rebuilds a leader in state `(gen, phase, tick, size)` purely
    /// through its public transitions, mirroring the leader-model replay.
    fn replay_leader(
        &self,
        card: usize,
        gen: u32,
        phase: ClusterPhase,
        tick: u64,
        size: u64,
    ) -> ClusterLeaderState {
        let params = self.cfg.params_for(card);
        let mut leader = ClusterLeaderState::new(params);
        if (gen, phase) > (1, ClusterPhase::TwoChoices) {
            leader.merge_from(gen, phase);
        }
        let extra = match phase {
            ClusterPhase::TwoChoices => tick,
            ClusterPhase::Sleeping => tick - params.sleep_threshold,
            ClusterPhase::Propagation => 0,
        };
        for _ in 0..extra {
            leader.on_zero();
        }
        for _ in 0..size {
            leader.on_promoted(gen);
        }
        debug_assert_eq!(leader.generation(), gen);
        debug_assert_eq!(leader.phase(), phase);
        leader
    }
}

impl StepOracle for ClusterOracle {
    type State = ClusterModel;
    type Action = ClusterAction;

    fn initial(&self) -> ClusterModel {
        let mut init = self.cfg.init.iter().copied();
        let clusters = self
            .cfg
            .sizes
            .iter()
            .map(|&card| ClusterUnit {
                leader: ClusterLeaderState::new(self.cfg.params_for(card)),
                pending: 0,
                members: (0..card)
                    .map(|_| Member {
                        gen: 0,
                        col: init.next().expect("init covers all nodes"),
                        stored_gen: 0,
                        stored_phase: 0,
                        finished: false,
                    })
                    .collect(),
            })
            .collect();
        ClusterModel { clusters }
    }

    fn actions(&self, s: &ClusterModel, out: &mut Vec<ClusterAction>) {
        for (ci, c) in s.clusters.iter().enumerate() {
            if c.leader.phase() != ClusterPhase::Propagation {
                out.push(ClusterAction::MemberZero { cluster: ci as u8 });
            }
            if c.pending > 0 && c.leader.generation() < self.cfg.generation_cap {
                out.push(ClusterAction::DeliverPromoted { cluster: ci as u8 });
            }
        }
        if self.cfg.topology == CheckTopology::Complete {
            // Symmetry-reduced enumeration. On the complete graph, nodes
            // with equal member state *in the same cluster* are
            // interchangeable: the permutation swapping them fixes every
            // cluster (and therefore every leader) and fixes the state up
            // to canonical equivalence. Two interactions whose (v, s1,
            // s2, s3) agree pairwise on (cluster, member state) AND on
            // the identity-coincidence pattern (which positions are the
            // same concrete node — a Push flips a twice-sampled node once
            // but two distinct equal-state nodes twice) are therefore
            // related by such an automorphism and have canonically equal
            // successors. Emit one representative per class.
            let n = self.cfg.n();
            let mut class = [0u32; MAX_NODES];
            let mut at = 0;
            for (ci, c) in s.clusters.iter().enumerate() {
                for m in c.members.iter() {
                    class[at] = ((ci as u32) << 16) | u32::from(Self::pack_member(m));
                    at += 1;
                }
            }
            let mut combos: Vec<(u128, ClusterAction)> = Vec::with_capacity(n * n * n * n);
            for v in 0..n {
                for s1 in 0..n {
                    for s2 in 0..n {
                        for s3 in 0..n {
                            let samples = [s1, s2, s3];
                            let mut key = u128::from(class[v]);
                            for (i, &sx) in samples.iter().enumerate() {
                                let eq = if sx == v {
                                    0u32
                                } else if let Some(j) = (0..i).find(|&j| samples[j] == sx) {
                                    1 + j as u32
                                } else {
                                    // Fresh node, interchangeable with any
                                    // other fresh node of the same class.
                                    3
                                };
                                key = (key << 22) | u128::from((eq << 19) | class[sx]);
                            }
                            combos.push((
                                key,
                                ClusterAction::Interact {
                                    v: v as u8,
                                    s1: s1 as u8,
                                    s2: s2 as u8,
                                    s3: s3 as u8,
                                },
                            ));
                        }
                    }
                }
            }
            combos.sort_unstable_by_key(|c| c.0);
            combos.dedup_by_key(|c| c.0);
            out.extend(combos.into_iter().map(|c| c.1));
        } else {
            for (v, nbrs) in self.neighbors.iter().enumerate() {
                for &s1 in nbrs {
                    for &s2 in nbrs {
                        for &s3 in nbrs {
                            out.push(ClusterAction::Interact {
                                v: v as u8,
                                s1,
                                s2,
                                s3,
                            });
                        }
                    }
                }
            }
        }
    }

    fn step_into(&self, s: &ClusterModel, action: &ClusterAction, st: &mut ClusterModel) {
        st.clone_from(s);
        match *action {
            ClusterAction::MemberZero { cluster } => {
                st.clusters[cluster as usize].leader.on_zero();
            }
            ClusterAction::DeliverPromoted { cluster } => {
                let unit = &mut st.clusters[cluster as usize];
                unit.pending -= 1;
                let g = unit.leader.generation();
                if unit.leader.on_promoted(g).is_some() {
                    // A birth: every still-pending signal is now stale.
                    unit.pending = 0;
                }
            }
            ClusterAction::Interact { v, s1, s2, s3 } => {
                let (v, s1, s2, s3) = (v as usize, s1 as usize, s2 as usize, s3 as usize);
                let line = [s1, s2, s3];
                let line_finished = line.map(|x| self.mem(st, x).finished);
                // Lines 5–7: finished-flag exchange ends the interaction.
                match finished_exchange(self.mem(st, v).finished, &line_finished) {
                    FinishedExchange::Push => {
                        let col = self.mem(st, v).col;
                        for x in line {
                            // Live re-check: a repeated sample flips once.
                            let m = self.mem_mut(st, x);
                            if !m.finished {
                                m.finished = true;
                                m.col = col;
                            }
                        }
                        return;
                    }
                    FinishedExchange::Pull { from } => {
                        let col = self.mem(st, line[from]).col;
                        let m = self.mem_mut(st, v);
                        m.finished = true;
                        m.col = col;
                        return;
                    }
                    FinishedExchange::None => {}
                }

                let own = self.locs[v].0 as usize;
                let sampled = self.locs[s3].0 as usize;
                // Leader lattice sync on the *pre-merge* public states
                // (the engine reads both before merging either).
                if own != sampled {
                    let a_pub = {
                        let l = &st.clusters[own].leader;
                        (l.generation(), l.phase())
                    };
                    let b_pub = {
                        let l = &st.clusters[sampled].leader;
                        (l.generation(), l.phase())
                    };
                    for (ci, (peer_gen, peer_phase)) in [(own, b_pub), (sampled, a_pub)] {
                        let unit = &mut st.clusters[ci];
                        let pre_gen = unit.leader.generation();
                        unit.leader.merge_from(peer_gen, peer_phase);
                        if unit.leader.generation() > pre_gen {
                            // Generation advanced: outstanding promotion
                            // signals for the old generation are stale.
                            unit.pending = 0;
                        }
                    }
                }

                let (l_gen, l_phase) = {
                    let l = &st.clusters[sampled].leader;
                    (l.generation(), l.phase())
                };
                let view = {
                    let m = self.mem(st, v);
                    MemberView {
                        gen: m.gen,
                        col: m.col,
                        stored_gen: m.stored_gen,
                        stored_phase: m.stored_phase,
                    }
                };
                let sample = |x: usize| {
                    let m = self.mem(st, x);
                    MemberSample {
                        gen: m.gen,
                        col: m.col,
                    }
                };
                match decide_member(
                    view,
                    sample(s1),
                    sample(s2),
                    l_gen,
                    l_phase,
                    self.cfg.generation_cap,
                ) {
                    MemberDecision::Promote {
                        gen,
                        col,
                        increased,
                        finished,
                    } => {
                        {
                            let m = self.mem_mut(st, v);
                            m.gen = gen;
                            m.col = col;
                            if finished {
                                m.finished = true;
                            }
                        }
                        let unit = &mut st.clusters[own];
                        // Observable only while `gen` is the own leader's
                        // current generation and a birth is still possible
                        // (the engine's `!cluster_absorbed` gate is implied).
                        if increased
                            && gen == unit.leader.generation()
                            && unit.leader.generation() < self.cfg.generation_cap
                        {
                            let cap = unit.leader.params().gen_size_threshold.min(200) as u8;
                            unit.pending = (unit.pending + 1).min(cap);
                        }
                    }
                    MemberDecision::Refresh { gen, phase } => {
                        let m = self.mem_mut(st, v);
                        m.stored_gen = gen;
                        m.stored_phase = phase;
                    }
                }
            }
        }
    }

    fn canonicalize(&self, s: &ClusterModel, key: &mut Vec<u8>) {
        key.clear();
        let sort = self.cfg.topology == CheckTopology::Complete;
        let mut blocks = [[0u8; MAX_BLOCK]; MAX_NODES];
        let mut lens = [0usize; MAX_NODES];
        for ((unit, block), len) in s.clusters.iter().zip(&mut blocks).zip(&mut lens) {
            let mut words = [0u16; MAX_NODES];
            let m = unit.members.len();
            for (w, mem) in words.iter_mut().zip(unit.members.iter()) {
                *w = Self::pack_member(mem);
            }
            let words = &mut words[..m];
            if sort {
                words.sort_unstable();
            }
            *len = self.encode_block(unit, words, block);
        }
        let k = s.clusters.len();
        let mut order = [0usize, 1, 2, 3, 4, 5, 6, 7];
        if sort {
            order[..k].sort_unstable_by(|&a, &b| blocks[a][..lens[a]].cmp(&blocks[b][..lens[b]]));
        }
        for &bi in &order[..k] {
            key.extend_from_slice(&blocks[bi][..lens[bi]]);
        }
    }

    fn decode(&self, key: &[u8]) -> ClusterModel {
        let mut clusters = Vec::new();
        let mut at = 0;
        while at < key.len() {
            let card = key[at] as usize;
            let gen = u32::from(key[at + 1]);
            let phase = phase_from_state(key[at + 2]);
            let tick = u64::from(key[at + 3]);
            let size = u64::from(key[at + 4]);
            let pending = key[at + 5];
            let leader = self.replay_leader(card, gen, phase, tick, size);
            let members = key[at + 6..at + 6 + 2 * card]
                .chunks_exact(2)
                .map(|c| Self::unpack_member(u16::from_be_bytes([c[0], c[1]])))
                .collect();
            clusters.push(ClusterUnit {
                leader,
                pending,
                members,
            });
            at += 6 + 2 * card;
        }
        ClusterModel { clusters }
    }

    fn describe(&self, s: &ClusterModel) -> String {
        let blocks: Vec<String> = s
            .clusters
            .iter()
            .enumerate()
            .map(|(ci, unit)| {
                let members: Vec<String> = unit
                    .members
                    .iter()
                    .map(|m| format!("g{}c{}{}", m.gen, m.col, if m.finished { "!" } else { "" }))
                    .collect();
                format!(
                    "C{ci}(gen={}, ph={}, tick={}, size={}, pending={})[{}]",
                    unit.leader.generation(),
                    unit.leader.phase().as_state(),
                    unit.leader.tick_count(),
                    unit.leader.gen_size(),
                    unit.pending,
                    members.join(" ")
                )
            })
            .collect();
        blocks.join(" ")
    }
}

/// The four checked properties of the cluster protocol (plus two
/// sanity/reachability probes).
pub fn cluster_properties() -> Vec<Property<ClusterModel>> {
    vec![
        Property {
            name: "generation-monotonicity",
            check: PropertyCheck::Invariant(|pre, post| {
                for (i, (a, b)) in pre.members().zip(post.members()).enumerate() {
                    if b.gen < a.gen {
                        return Err(format!("node {i} generation fell {} -> {}", a.gen, b.gen));
                    }
                }
                for (ci, (a, b)) in pre.clusters.iter().zip(&post.clusters).enumerate() {
                    let la = (a.leader.generation(), a.leader.phase());
                    let lb = (b.leader.generation(), b.leader.phase());
                    if lb < la {
                        return Err(format!("cluster {ci} lattice fell {la:?} -> {lb:?}"));
                    }
                }
                Ok(())
            }),
        },
        Property {
            name: "decided-stability",
            check: PropertyCheck::Invariant(|pre, post| {
                for (i, (a, b)) in pre.members().zip(post.members()).enumerate() {
                    if a.finished {
                        if !b.finished {
                            return Err(format!("node {i} revoked its finished flag"));
                        }
                        if (b.gen, b.col) != (a.gen, a.col) {
                            return Err(format!(
                                "finished node {i} changed ({}, {}) -> ({}, {})",
                                a.gen, a.col, b.gen, b.col
                            ));
                        }
                    }
                }
                Ok(())
            }),
        },
        Property {
            name: "terminal-absorption",
            check: PropertyCheck::Invariant(|pre, post| {
                for (ci, (a, b)) in pre.clusters.iter().zip(&post.clusters).enumerate() {
                    if a.leader.is_terminal() && !b.leader.is_terminal() {
                        return Err(format!("cluster {ci} leader left its terminal state"));
                    }
                }
                Ok(())
            }),
        },
        Property {
            name: "member-gen-bounded",
            check: PropertyCheck::Invariant(|_pre, post| {
                let max_leader = post
                    .clusters
                    .iter()
                    .map(|c| c.leader.generation())
                    .max()
                    .unwrap_or(0);
                for (i, m) in post.members().enumerate() {
                    if m.gen > max_leader {
                        return Err(format!(
                            "node {i} at gen {} outran every leader (max {max_leader})",
                            m.gen
                        ));
                    }
                }
                Ok(())
            }),
        },
        Property {
            name: "finished-conflict",
            check: PropertyCheck::Reachable(|s| {
                let mut decided_col = None;
                for m in s.members() {
                    if m.finished {
                        match decided_col {
                            None => decided_col = Some(m.col),
                            Some(c) if c != m.col => return true,
                            Some(_) => {}
                        }
                    }
                }
                false
            }),
        },
        Property {
            name: "monochrome",
            check: PropertyCheck::Reachable(|s| {
                let mut cols = s.members().map(|m| m.col);
                let first = cols.next();
                first.is_some_and(|f| cols.all(|c| c == f))
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::canonical_key;

    fn oracle(n: usize, topology: CheckTopology) -> ClusterOracle {
        ClusterCheckConfig::new(n, 2, topology).oracle().unwrap()
    }

    #[test]
    fn initial_state_round_trips_through_key() {
        for topology in [CheckTopology::Complete, CheckTopology::Ring] {
            let o = oracle(5, topology);
            let init = o.initial();
            let key = canonical_key(&o, &init);
            let rep = o.decode(&key);
            assert_eq!(canonical_key(&o, &rep), key);
        }
    }

    #[test]
    fn locate_spans_cluster_boundaries() {
        let o = oracle(5, CheckTopology::Complete); // sizes [3, 2]
        let s = o.initial();
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(2), (0, 2));
        assert_eq!(s.locate(3), (1, 0));
        assert_eq!(s.locate(4), (1, 1));
    }

    #[test]
    fn push_flags_the_whole_line_once() {
        let o = oracle(4, CheckTopology::Complete);
        let mut s = o.initial();
        s.member_mut(0).finished = true;
        s.member_mut(0).col = 1;
        let t = o.step(
            &s,
            &ClusterAction::Interact {
                v: 0,
                s1: 1,
                s2: 1,
                s3: 2,
            },
        );
        assert!(t.member(1).finished);
        assert_eq!(t.member(1).col, 1, "pushed nodes adopt the pusher's color");
        assert!(t.member(2).finished);
        assert!(!t.member(3).finished);
    }

    #[test]
    fn pull_adopts_the_first_finished_sample() {
        let o = oracle(4, CheckTopology::Complete);
        let mut s = o.initial();
        s.member_mut(2).finished = true;
        s.member_mut(2).col = 1;
        let t = o.step(
            &s,
            &ClusterAction::Interact {
                v: 0,
                s1: 1,
                s2: 2,
                s3: 3,
            },
        );
        assert!(t.member(0).finished);
        assert_eq!(t.member(0).col, 1);
        assert!(!t.member(1).finished, "pull does not spread to samples");
    }

    #[test]
    fn promotion_feeds_pending_and_birth_clears_it() {
        let o = oracle(4, CheckTopology::Complete); // sizes [2,2], gen_size 1
        let mut s = o.initial();
        // Member 0, in sync with its gen-1 two-choices leader after one
        // refresh, promotes via two-choices on agreeing gen-0 samples.
        let act = ClusterAction::Interact {
            v: 0,
            s1: 1,
            s2: 1,
            s3: 1,
        };
        s = o.step(&s, &act); // refresh stored copy
        s = o.step(&s, &act); // two-choices promotion
        assert_eq!(s.member(0).gen, 1);
        assert_eq!(s.clusters[0].pending, 1);
        let t = o.step(&s, &ClusterAction::DeliverPromoted { cluster: 0 });
        assert_eq!(t.clusters[0].leader.generation(), 2, "gen_size 1 births");
        assert_eq!(t.clusters[0].pending, 0);
    }

    #[test]
    fn interact_syncs_leaders_and_drops_stale_pending() {
        let o = oracle(4, CheckTopology::Complete);
        let mut s = o.initial();
        // Advance cluster 1's leader to (2, TwoChoices) and give cluster 0
        // a pending signal for generation 1.
        s.clusters[1].leader.merge_from(2, ClusterPhase::TwoChoices);
        s.clusters[0].pending = 1;
        // Node 0 samples node 2 (cluster 1) on the observation line.
        let t = o.step(
            &s,
            &ClusterAction::Interact {
                v: 0,
                s1: 1,
                s2: 1,
                s3: 2,
            },
        );
        assert_eq!(t.clusters[0].leader.generation(), 2, "lattice merged");
        assert_eq!(t.clusters[0].pending, 0, "stale promotion dropped");
    }

    #[test]
    fn complete_canonicalization_sorts_equal_blocks() {
        let o = oracle(4, CheckTopology::Complete); // sizes [2, 2]
        let mut a = o.initial(); // colors [0, 0, 0, 1]
                                 // Mirror: put the odd color in cluster 0 instead.
        let mut b = o.initial();
        a.member_mut(3).col = 1;
        b.member_mut(3).col = 0;
        b.member_mut(1).col = 1;
        assert_eq!(canonical_key(&o, &a), canonical_key(&o, &b));
    }

    #[test]
    fn ring_canonicalization_is_identity() {
        let o = oracle(4, CheckTopology::Ring);
        let mut a = o.initial();
        let mut b = o.initial();
        a.member_mut(0).col = 1;
        a.member_mut(0).gen = 0;
        b.member_mut(1).col = 1;
        b.member_mut(0).col = 0;
        assert_ne!(
            canonical_key(&o, &a),
            canonical_key(&o, &b),
            "ring keys keep node positions"
        );
    }
}
