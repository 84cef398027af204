//! The dynamic CFG over control-register tuples.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{Design, SignalId};
use symbfuzz_telemetry::Mechanism;

use crate::trie::InputTrie;

/// Identifier of a CFG node (dense, in discovery order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Attribution for one covered node or edge: which mechanism generated
/// the input word that earned it, and under what circumstances.
///
/// [`Cfg::observe`] stamps every first-seen node and edge with the
/// provenance the caller supplies; the fuzzer threads it out of the
/// mutate / solve / replay paths and the `covmap` artifact persists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Input vectors consumed when the point was covered.
    pub vector: u64,
    /// The mechanism that generated the covering input word.
    pub mechanism: Mechanism,
    /// Goal id of the solve attempt (solver-guided words only).
    pub goal: Option<u64>,
    /// Checkpoint node active at the time, if any.
    pub checkpoint: Option<NodeId>,
}

impl Provenance {
    /// Constrained-random provenance (no goal, no active checkpoint).
    pub fn random(vector: u64) -> Provenance {
        Provenance {
            vector,
            mechanism: Mechanism::ConstrainedRandom,
            goal: None,
            checkpoint: None,
        }
    }
}

/// One covered edge: endpoints, first-crossing cycle and attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle at which the edge was first taken.
    pub cycle: u64,
    /// Attribution of the first crossing.
    pub prov: Provenance,
}

/// What [`Cfg::observe`] discovered at one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// The node the design is in after the sample.
    pub node: NodeId,
    /// This node was seen for the first time.
    pub new_node: bool,
    /// The (previous node → node) edge was seen for the first time.
    pub new_edge: bool,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    /// Outgoing edges: successor → edge id.
    out: HashMap<NodeId, u32>,
    /// Input-trie position of the word sequence that first reached
    /// this node from reset.
    pos: u32,
    first_cycle: u64,
    /// Attribution of the first visit.
    prov: Provenance,
}

/// The owner list [`Cfg::nearest_ancestor`] reuses from call to call,
/// taken out of its `Cell` for the call and put back after. A clone
/// starts empty.
#[derive(Default)]
struct OwnersBuf(Cell<Vec<(usize, u32)>>);

impl Clone for OwnersBuf {
    fn clone(&self) -> OwnersBuf {
        OwnersBuf::default()
    }
}

impl std::fmt::Debug for OwnersBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnersBuf")
    }
}

/// Dynamic CFG, coverage map, checkpoint table and replay recorder.
///
/// See the [crate docs](crate) for the model.
#[derive(Debug, Clone)]
pub struct Cfg {
    design: Arc<Design>,
    ctrl: Vec<SignalId>,
    /// Words per plane of a packed node key.
    key_words: usize,
    nodes: Vec<NodeInfo>,
    /// Packed node key → node: every control register's value bits end
    /// to end, then their unknown bits.
    index: HashMap<Box<[u64]>, NodeId>,
    /// Reused packing buffer for `index` lookups.
    key: Vec<u64>,
    edges: Vec<EdgeRec>,
    /// Node the design was in at the previous observation.
    current: Option<NodeId>,
    /// Every node's first-reach path; its cursor follows the words
    /// driven since the last reset or rollback.
    inputs: InputTrie,
    /// Values seen per control register (for target enumeration).
    seen_values: Vec<BTreeSet<u64>>,
    owners: OwnersBuf,
}

impl Cfg {
    /// Creates a CFG over the given control registers (order fixes the
    /// node key layout).
    pub fn new(design: Arc<Design>, ctrl: Vec<SignalId>) -> Cfg {
        let n = ctrl.len();
        let bits: usize = ctrl.iter().map(|s| design.signal(*s).width as usize).sum();
        Cfg {
            design,
            ctrl,
            key_words: bits.div_ceil(64),
            nodes: Vec::new(),
            index: HashMap::new(),
            key: Vec::new(),
            edges: Vec::new(),
            current: None,
            inputs: InputTrie::new(),
            seen_values: vec![BTreeSet::new(); n],
            owners: OwnersBuf::default(),
        }
    }

    /// The control registers in key order.
    pub fn control_registers(&self) -> &[SignalId] {
        &self.ctrl
    }

    /// Packs the control registers of a value table into `self.key`.
    fn pack_key(&mut self, values: &[LogicVec]) {
        self.key.clear();
        self.key.resize(2 * self.key_words, 0);
        let (val_plane, unk_plane) = self.key.split_at_mut(self.key_words);
        let mut at = 0;
        for s in &self.ctrl {
            let v = &values[s.index()];
            // Keys are laid out by declared width; a narrower or wider
            // value would alias another key.
            assert_eq!(v.width(), self.design.signal(*s).width, "{s:?} width");
            let (val, unk) = v.planes();
            for (i, (&vw, &uw)) in val.iter().zip(unk).enumerate() {
                put_bits(val_plane, at + 64 * i, vw);
                put_bits(unk_plane, at + 64 * i, uw);
            }
            at += v.width() as usize;
        }
    }

    /// Ingests one post-cycle sample: the full value table, the input
    /// word that was driven this cycle, and the provenance to stamp on
    /// anything covered for the first time.
    pub fn observe(
        &mut self,
        values: &[LogicVec],
        input_word: &LogicVec,
        cycle: u64,
        prov: Provenance,
    ) -> ObserveOutcome {
        self.inputs.step(input_word);
        self.pack_key(values);
        let (node, new_node) = match self.index.get(&self.key[..]) {
            Some(id) => (*id, false),
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(NodeInfo {
                    out: HashMap::new(),
                    pos: self.inputs.commit(),
                    first_cycle: cycle,
                    prov,
                });
                self.index.insert(self.key.as_slice().into(), id);
                for (i, s) in self.ctrl.iter().enumerate() {
                    if let Some(x) = values[s.index()].to_u64() {
                        self.seen_values[i].insert(x);
                    }
                }
                (id, true)
            }
        };
        let mut new_edge = false;
        if let Some(prev) = self.current {
            if prev != node {
                let edge_id = self.edges.len() as u32;
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.nodes[prev.index()].out.entry(node)
                {
                    e.insert(edge_id);
                    self.edges.push(EdgeRec {
                        src: prev,
                        dst: node,
                        cycle,
                        prov,
                    });
                    new_edge = true;
                }
            }
        }
        self.current = Some(node);
        ObserveOutcome {
            node,
            new_node,
            new_edge,
        }
    }

    /// Tells the CFG a reset happened: the driven path restarts empty
    /// and the next observation starts a fresh path (no edge from the
    /// pre-reset node).
    pub fn note_reset(&mut self) {
        self.current = None;
        self.inputs.restart(0);
    }

    /// Tells the CFG the simulator was rolled back to `node` (snapshot
    /// restore): subsequent edges originate there, and the driven path
    /// resumes from that node's recorded path (a cursor move).
    pub fn note_rollback(&mut self, node: NodeId) {
        self.inputs.restart(self.nodes[node.index()].pos);
        self.current = Some(node);
    }

    /// Number of distinct nodes observed.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges observed.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The paper's coverage-point count: it counts **nodes + edges**.
    /// Every distinct node and every distinct edge contributes exactly
    /// one point (an exercised `⟨edge, node⟩` tuple; a node with no
    /// incoming edge yet is a degenerate tuple).
    pub fn coverage_points(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Attribution of a node's first visit.
    pub fn provenance(&self, node: NodeId) -> Provenance {
        self.nodes[node.index()].prov
    }

    /// The record of edge `edge` (dense id, in discovery order).
    pub fn edge_record(&self, edge: u32) -> EdgeRec {
        self.edges[edge as usize]
    }

    /// Every covered edge, in discovery order.
    pub fn edge_records(&self) -> &[EdgeRec] {
        &self.edges
    }

    /// The node currently occupied, if known.
    pub fn current(&self) -> Option<NodeId> {
        self.current
    }

    /// Cycle at which the node was first reached.
    pub fn first_cycle(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].first_cycle
    }

    /// Observed fanout of a node.
    pub fn fanout(&self, node: NodeId) -> usize {
        self.nodes[node.index()].out.len()
    }

    /// Checkpoints: nodes whose fanout is at least `threshold`
    /// (the paper uses 3, §4.5), newest first.
    pub fn checkpoints(&self, threshold: usize) -> Vec<NodeId> {
        let mut cps: Vec<NodeId> = (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|n| self.fanout(*n) >= threshold)
            .collect();
        cps.sort_by_key(|n| std::cmp::Reverse(self.first_cycle(*n)));
        cps
    }

    /// The input-word sequence that first reached `node` from reset —
    /// the checkpoint replay sequence of §4.5.
    pub fn replay_sequence(&self, node: NodeId) -> Vec<LogicVec> {
        self.replay_suffix(node, 0)
    }

    /// Length of a node's first-reach path from reset, in input words.
    pub fn path_len(&self, node: NodeId) -> usize {
        self.inputs.depth(self.nodes[node.index()].pos)
    }

    /// Whether `anc`'s first-reach path is a (possibly equal) prefix of
    /// `node`'s: replaying `node`'s residual suffix from `anc`'s state
    /// lands exactly on `node`.
    pub fn is_ancestor(&self, anc: NodeId, node: NodeId) -> bool {
        self.inputs
            .is_prefix(self.nodes[anc.index()].pos, self.nodes[node.index()].pos)
    }

    /// Among `candidates`, the one whose path is the longest prefix of
    /// `node`'s path — the cheapest snapshot to re-enter before
    /// replaying the residual suffix. Ties (equal path length) resolve
    /// to the earliest candidate in iteration order, so the result is a
    /// pure function of the argument sequence. Returns `None` when no
    /// candidate is an ancestor (including `node` itself at distance 0,
    /// if present among the candidates).
    pub fn nearest_ancestor<I>(&self, node: NodeId, candidates: I) -> Option<NodeId>
    where
        I: IntoIterator<Item = NodeId>,
    {
        // The node-owned positions on `node`'s path, deepest first: a
        // candidate is an ancestor exactly when its position is one of
        // them, found by depth.
        let mut owners = self.owners.0.take();
        self.inputs
            .owners(self.nodes[node.index()].pos, &mut owners);
        let mut best: Option<(NodeId, usize)> = None;
        for c in candidates {
            let pos = self.nodes[c.index()].pos;
            let depth = self.inputs.depth(pos);
            if best.is_some_and(|(_, d)| d >= depth) {
                continue;
            }
            let hit = owners
                .binary_search_by(|&(d, _)| depth.cmp(&d))
                .is_ok_and(|i| owners[i].1 == pos);
            if hit {
                best = Some((c, depth));
            }
        }
        self.owners.0.set(owners);
        best.map(|(c, _)| c)
    }

    /// The residual input suffix that walks from a state `from_len`
    /// words along `node`'s first-reach path to `node` itself.
    ///
    /// # Panics
    ///
    /// Panics if `from_len` exceeds the node's path length.
    pub fn replay_suffix(&self, node: NodeId, from_len: usize) -> Vec<LogicVec> {
        self.inputs.path(self.nodes[node.index()].pos, from_len)
    }

    /// Values of control register `i` (tuple position) never observed,
    /// bounded by the register's legal encodings and capped at
    /// `limit` candidates — the paper's "unexplored nodes" the solver
    /// is pointed at (§4.7).
    pub fn unseen_values(&self, i: usize, limit: usize) -> Vec<LogicVec> {
        let sig = self.ctrl[i];
        let s = self.design.signal(sig);
        let total = s
            .legal_encodings
            .unwrap_or_else(|| 1u64.checked_shl(s.width.min(16)).unwrap_or(u64::MAX));
        let mut out = Vec::new();
        for v in 0..total {
            if out.len() >= limit {
                break;
            }
            if !self.seen_values[i].contains(&v) {
                out.push(LogicVec::from_u64(s.width, v));
            }
        }
        out
    }

    /// The Eqn.-3 node population: the product of each control
    /// register's legal-encoding count.
    fn node_population(&self) -> f64 {
        let mut population: f64 = 1.0;
        for sig in &self.ctrl {
            let s = self.design.signal(*sig);
            let n = s
                .legal_encodings
                .unwrap_or_else(|| 1u64.checked_shl(s.width.min(20)).unwrap_or(u64::MAX));
            population *= n as f64;
        }
        population
    }

    /// Fraction of the Eqn.-3 node population covered, in `[0, 1]`.
    pub fn node_coverage_ratio(&self) -> f64 {
        let population = self.node_population();
        if population == 0.0 {
            return 1.0;
        }
        (self.node_count() as f64 / population).min(1.0)
    }

    /// Fraction of the edge population covered, in `[0, 1]`: the edge
    /// population over the Eqn.-3 node population `P` is the ordered
    /// pairs `P·(P−1)` (self-loops are not edges). Vacuously `1.0`
    /// when fewer than two nodes are possible.
    pub fn edge_coverage_ratio(&self) -> f64 {
        let population = self.node_population();
        let pairs = population * (population - 1.0);
        if pairs <= 0.0 {
            return 1.0;
        }
        (self.edge_count() as f64 / pairs).min(1.0)
    }
}

/// ORs `word` into `plane` starting at bit `at`, spilling its high
/// bits into the next word (bits past the plane's end must be zero).
fn put_bits(plane: &mut [u64], at: usize, word: u64) {
    let (i, sh) = (at / 64, at % 64);
    plane[i] |= word << sh;
    if sh != 0 && word >> (64 - sh) != 0 {
        plane[i + 1] |= word >> (64 - sh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_netlist::{classify_registers, elaborate_src};

    fn setup() -> (Arc<Design>, Cfg) {
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input rst_n, input [1:0] go, output logic [1:0] st);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) st <= 2'd0;
                     else begin
                       case (st)
                         2'd0: if (go == 2'd1) st <= 2'd1;
                               else begin if (go == 2'd2) st <= 2'd2; else st <= 2'd3; end
                         default: st <= 2'd0;
                       endcase
                     end
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let ctrl = classify_registers(&d).control;
        let cfg = Cfg::new(Arc::clone(&d), ctrl);
        (d, cfg)
    }

    fn frame(d: &Design, st: u64, go: u64) -> Vec<LogicVec> {
        let mut vals: Vec<LogicVec> = d.signals.iter().map(|s| LogicVec::zeros(s.width)).collect();
        let sti = d.signal_by_name("st").unwrap();
        let goi = d.signal_by_name("go").unwrap();
        vals[sti.index()] = LogicVec::from_u64(2, st);
        vals[goi.index()] = LogicVec::from_u64(2, go);
        vals
    }

    fn pr(vector: u64) -> Provenance {
        Provenance::random(vector)
    }

    #[test]
    fn nodes_and_edges_accumulate() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        let o0 = cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        assert!(o0.new_node && !o0.new_edge);
        let o1 = cfg.observe(&frame(&d, 1, 1), &w, 1, pr(1));
        assert!(o1.new_node && o1.new_edge);
        // Re-observing the same transition adds nothing.
        cfg.note_reset();
        cfg.observe(&frame(&d, 0, 0), &w, 2, pr(2));
        let o = cfg.observe(&frame(&d, 1, 1), &w, 3, pr(3));
        assert!(!o.new_node && !o.new_edge);
        assert_eq!(cfg.node_count(), 2);
        assert_eq!(cfg.edge_count(), 1);
        assert_eq!(cfg.coverage_points(), 3);
    }

    #[test]
    fn self_loops_are_not_edges() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        cfg.observe(&frame(&d, 0, 0), &w, 1, pr(1));
        assert_eq!(cfg.edge_count(), 0);
    }

    #[test]
    fn checkpoints_require_fanout_three() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        // Node 0 fans out to 1, 2, 3 (via resets between runs).
        for target in [1u64, 2, 3] {
            cfg.note_reset();
            cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
            cfg.observe(&frame(&d, target, 0), &w, 1, pr(1));
        }
        let n0 = cfg.current().map(|_| NodeId(0)).unwrap();
        assert_eq!(cfg.fanout(n0), 3);
        assert_eq!(cfg.checkpoints(3), vec![n0]);
        assert!(cfg.checkpoints(4).is_empty());
    }

    #[test]
    fn replay_sequences_record_reset_to_node_paths() {
        let (d, mut cfg) = setup();
        let w1 = LogicVec::from_u64(2, 1);
        let w2 = LogicVec::from_u64(2, 2);
        cfg.note_reset();
        cfg.observe(&frame(&d, 0, 0), &w1, 0, pr(0));
        let o = cfg.observe(&frame(&d, 1, 1), &w2, 1, pr(1));
        let path = cfg.replay_sequence(o.node);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].to_u64(), Some(1));
        assert_eq!(path[1].to_u64(), Some(2));
    }

    #[test]
    fn rollback_resumes_edge_attribution_and_path() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        let at1 = cfg.observe(&frame(&d, 1, 0), &w, 1, pr(1));
        cfg.observe(&frame(&d, 2, 0), &w, 2, pr(2));
        // Roll back to node "1" and branch somewhere new.
        cfg.note_rollback(at1.node);
        let o = cfg.observe(&frame(&d, 3, 0), &w, 3, pr(3));
        assert!(o.new_node && o.new_edge);
        // The new node's path = path-to-1 plus one more word.
        assert_eq!(
            cfg.replay_sequence(o.node).len(),
            cfg.replay_sequence(at1.node).len() + 1
        );
    }

    #[test]
    fn unseen_values_shrink_as_coverage_grows() {
        let (d, mut cfg) = setup();
        assert_eq!(cfg.unseen_values(0, 10).len(), 4);
        let w = LogicVec::from_u64(2, 0);
        cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        cfg.observe(&frame(&d, 2, 0), &w, 1, pr(1));
        let unseen = cfg.unseen_values(0, 10);
        assert_eq!(unseen.len(), 2);
        assert!(unseen.iter().all(|v| {
            let x = v.to_u64().unwrap();
            x == 1 || x == 3
        }));
    }

    #[test]
    fn x_state_is_its_own_node() {
        let (d, mut cfg) = setup();
        let sti = d.signal_by_name("st").unwrap();
        let mut vals = frame(&d, 0, 0);
        vals[sti.index()] = LogicVec::xes(2);
        let w = LogicVec::from_u64(2, 0);
        let o = cfg.observe(&vals, &w, 0, pr(0));
        assert!(o.new_node);
        cfg.observe(&frame(&d, 0, 0), &w, 1, pr(1));
        assert_eq!(cfg.node_count(), 2);
        // The X node contributes no seen value.
        assert_eq!(cfg.unseen_values(0, 10).len(), 3);
    }

    #[test]
    fn provenance_is_stamped_on_first_visit_only() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        let solved = Provenance {
            vector: 7,
            mechanism: Mechanism::SolverGuided,
            goal: Some(3),
            checkpoint: Some(NodeId(0)),
        };
        let o = cfg.observe(&frame(&d, 1, 0), &w, 1, solved);
        assert!(o.new_node && o.new_edge);
        assert_eq!(cfg.provenance(o.node), solved);
        assert_eq!(cfg.provenance(NodeId(0)), pr(0));
        // The new edge carries the same attribution and its endpoints.
        let e = cfg.edge_record(0);
        assert_eq!(e.src, NodeId(0));
        assert_eq!(e.dst, o.node);
        assert_eq!(e.prov, solved);
        assert_eq!(cfg.edge_records().len(), 1);
        // Re-visiting does not overwrite the original attribution.
        cfg.note_reset();
        cfg.observe(&frame(&d, 0, 0), &w, 2, pr(2));
        cfg.observe(&frame(&d, 1, 0), &w, 3, pr(3));
        assert_eq!(cfg.provenance(o.node), solved);
        assert_eq!(cfg.edge_record(0).prov, solved);
    }

    #[test]
    fn checkpoints_are_newest_first_and_respect_threshold() {
        let (d, mut cfg) = setup();
        let w = LogicVec::from_u64(2, 0);
        // Node "0" (first_cycle 0) fans out to 1, 2, 3; node "1"
        // (first_cycle 1) fans out to 0, 2, 3.
        for target in [1u64, 2, 3] {
            cfg.note_reset();
            cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
            cfg.observe(&frame(&d, target, 0), &w, 1, pr(1));
        }
        for target in [0u64, 2, 3] {
            cfg.note_reset();
            cfg.observe(&frame(&d, 1, 0), &w, 10, pr(10));
            cfg.observe(&frame(&d, target, 0), &w, 11, pr(11));
        }
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        assert_eq!(cfg.fanout(n0), 3);
        assert_eq!(cfg.fanout(n1), 3);
        // The paper's threshold is fanout >= 3; newest first.
        assert_eq!(cfg.checkpoints(3), vec![n1, n0]);
        // Below threshold nothing qualifies; at 1 everything with any
        // fanout does.
        assert!(cfg.checkpoints(4).is_empty());
        assert_eq!(cfg.checkpoints(1).len(), 2);
    }

    #[test]
    fn unseen_values_honour_the_limit_cap() {
        let (_d, cfg) = setup();
        // 4 possible encodings, capped at 2 candidates.
        let unseen = cfg.unseen_values(0, 2);
        assert_eq!(unseen.len(), 2);
        assert_eq!(cfg.unseen_values(0, 0).len(), 0);
    }

    #[test]
    fn replay_sequence_restarts_after_reset() {
        let (d, mut cfg) = setup();
        let w1 = LogicVec::from_u64(2, 1);
        let w2 = LogicVec::from_u64(2, 2);
        cfg.observe(&frame(&d, 0, 0), &w1, 0, pr(0));
        cfg.note_reset();
        // After a reset the path to a new node starts from scratch.
        let o = cfg.observe(&frame(&d, 2, 0), &w2, 1, pr(1));
        let path = cfg.replay_sequence(o.node);
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].to_u64(), Some(2));
    }

    #[test]
    fn edge_ratio_bounded_and_grows() {
        let (d, mut cfg) = setup();
        assert_eq!(cfg.edge_coverage_ratio(), 0.0);
        let w = LogicVec::from_u64(2, 0);
        cfg.observe(&frame(&d, 0, 0), &w, 0, pr(0));
        cfg.observe(&frame(&d, 1, 0), &w, 1, pr(1));
        // 1 edge over a 4-node population: 4·3 ordered pairs.
        let r = cfg.edge_coverage_ratio();
        assert!((r - 1.0 / 12.0).abs() < 1e-9, "got {r}");
        assert!(r <= 1.0);
    }

    #[test]
    fn coverage_ratio_bounded() {
        let (d, mut cfg) = setup();
        assert_eq!(cfg.node_coverage_ratio(), 0.0);
        let w = LogicVec::from_u64(2, 0);
        for st in 0..4 {
            cfg.note_reset();
            cfg.observe(&frame(&d, st, 0), &w, st, pr(st));
        }
        assert!((cfg.node_coverage_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ancestry_follows_path_prefixes() {
        let (d, mut cfg) = setup();
        let w1 = LogicVec::from_u64(2, 1);
        let w2 = LogicVec::from_u64(2, 2);
        let w3 = LogicVec::from_u64(2, 3);
        cfg.note_reset();
        let a = cfg.observe(&frame(&d, 0, 0), &w1, 0, pr(0)).node;
        let b = cfg.observe(&frame(&d, 1, 1), &w2, 1, pr(1)).node;
        let c = cfg.observe(&frame(&d, 2, 2), &w3, 2, pr(2)).node;
        // A sibling reached on a different first word after reset.
        cfg.note_reset();
        let s = cfg.observe(&frame(&d, 3, 3), &w2, 3, pr(3)).node;

        assert!(cfg.is_ancestor(a, c) && cfg.is_ancestor(b, c));
        assert!(cfg.is_ancestor(c, c), "a node is its own ancestor");
        assert!(!cfg.is_ancestor(c, a), "ancestry is directional");
        assert!(!cfg.is_ancestor(s, c), "sibling paths do not prefix");
        assert_eq!(cfg.path_len(a), 1);
        assert_eq!(cfg.path_len(c), 3);
    }

    #[test]
    fn nearest_ancestor_picks_longest_prefix_deterministically() {
        let (d, mut cfg) = setup();
        let w1 = LogicVec::from_u64(2, 1);
        let w2 = LogicVec::from_u64(2, 2);
        let w3 = LogicVec::from_u64(2, 3);
        cfg.note_reset();
        let a = cfg.observe(&frame(&d, 0, 0), &w1, 0, pr(0)).node;
        let b = cfg.observe(&frame(&d, 1, 1), &w2, 1, pr(1)).node;
        let c = cfg.observe(&frame(&d, 2, 2), &w3, 2, pr(2)).node;
        cfg.note_reset();
        let s = cfg.observe(&frame(&d, 3, 3), &w2, 3, pr(3)).node;

        // The deepest snapshotted ancestor wins regardless of order.
        assert_eq!(cfg.nearest_ancestor(c, [a, b]), Some(b));
        assert_eq!(cfg.nearest_ancestor(c, [b, a]), Some(b));
        // An exact hit (node itself snapshotted) beats any strict
        // ancestor: zero residual replay.
        assert_eq!(cfg.nearest_ancestor(c, [a, c, b]), Some(c));
        // Non-ancestors never match.
        assert_eq!(cfg.nearest_ancestor(c, [s]), None);
        assert_eq!(cfg.nearest_ancestor(a, []), None);

        // The residual suffix from the winner replays only the gap.
        let suffix = cfg.replay_suffix(c, cfg.path_len(b));
        assert_eq!(suffix.len(), 1);
        assert_eq!(suffix[0].to_u64(), Some(3));
        assert_eq!(cfg.replay_suffix(c, cfg.path_len(c)).len(), 0);
    }
}
