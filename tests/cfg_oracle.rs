//! Differential oracle for the CFG's shared input trie.
//!
//! `Cfg` stores every input word once, in a trie all nodes share, and
//! keys nodes on packed bit planes. The reference below is the plain
//! model it replaced: a map from cloned control-register tuples to
//! nodes, and a full copy of the input path for every node. Seeded
//! random programs of `observe`, `note_reset` and `note_rollback` drive
//! both; after every step the node and edge ids, the first-visit flags,
//! path lengths, replay sequences and suffixes, `is_ancestor` over all
//! pairs and `nearest_ancestor` over random candidate lists must agree.
//!
//! Frames are drawn independently of the input words, and both carry
//! `X` and `Z` bits, so identical word sequences reach different states:
//! nodes with equal paths, and nodes first visited on a path that
//! already leads further, both occur. A failure names its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use symbfuzz_cfgx::{Cfg, NodeId, Provenance};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{elaborate_src, Design, SignalId};

const PROGRAMS: u64 = 200;
const SEED: u64 = 0xCF6_0000;

/// Control registers of 2, 70 and 3 bits: packed keys span two words
/// per plane, with the wide register straddling the word boundary.
const RTL: &str = "
module m(input clk, input rst_n, input [2:0] go,
         output logic [1:0] a, output logic [2:0] b, output logic [69:0] w);
  always_ff @(posedge clk or negedge rst_n)
    if (!rst_n) begin a <= 2'd0; b <= 3'd0; w <= 70'd0; end
    else begin a <= go[1:0]; b <= go; w <= {w[68:0], go[0]}; end
endmodule";

/// The path-copy model: cloned tuples as keys, a full input path per
/// node, and the ancestry matrix those paths imply.
#[derive(Default)]
struct Reference {
    index: HashMap<Vec<LogicVec>, usize>,
    paths: Vec<Vec<LogicVec>>,
    /// `anc[a][n]`: node `a`'s path is a prefix of node `n`'s.
    anc: Vec<Vec<bool>>,
    /// `(src, dst)` in discovery order.
    edges: Vec<(usize, usize)>,
    current: Option<usize>,
    log: Vec<LogicVec>,
    /// Nodes whose path equals an earlier node's.
    equal_paths: usize,
    /// Nodes first visited on a path an earlier node's path extends.
    inner_nodes: usize,
}

impl Reference {
    fn observe(&mut self, tuple: Vec<LogicVec>, word: &LogicVec) -> (usize, bool, bool) {
        self.log.push(word.clone());
        let (node, new_node) = match self.index.get(&tuple) {
            Some(&n) => (n, false),
            None => {
                let n = self.paths.len();
                let path = self.log.clone();
                let prefix =
                    |a: &[LogicVec], b: &[LogicVec]| a.len() <= b.len() && *a == b[..a.len()];
                self.equal_paths += self.paths.contains(&path) as usize;
                self.inner_nodes += self
                    .paths
                    .iter()
                    .any(|p| p.len() > path.len() && prefix(&path, p))
                    as usize;
                for (i, p) in self.paths.iter().enumerate() {
                    self.anc[i].push(prefix(p, &path));
                }
                let mut row: Vec<bool> = self.paths.iter().map(|p| prefix(&path, p)).collect();
                row.push(true);
                self.anc.push(row);
                self.paths.push(path);
                self.index.insert(tuple, n);
                (n, true)
            }
        };
        let mut new_edge = false;
        if let Some(prev) = self.current.filter(|&p| p != node) {
            if !self.edges.contains(&(prev, node)) {
                self.edges.push((prev, node));
                new_edge = true;
            }
        }
        self.current = Some(node);
        (node, new_node, new_edge)
    }

    fn nearest_ancestor(&self, node: usize, candidates: &[usize]) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&c| self.anc[c][node])
            .fold(None, |best: Option<usize>, c| match best {
                Some(b) if self.paths[b].len() >= self.paths[c].len() => Some(b),
                _ => Some(c),
            })
    }
}

/// A random 4-state bit: mostly 0/1, some `X`, rarely `Z`.
fn random_bit(rng: &mut StdRng) -> Bit {
    match rng.gen_range(0..16u32) {
        0..=6 => Bit::Zero,
        7..=13 => Bit::One,
        14 => Bit::X,
        _ => Bit::Z,
    }
}

fn random_vec(rng: &mut StdRng, width: u32) -> LogicVec {
    let bits: Vec<Bit> = (0..width).map(|_| random_bit(rng)).collect();
    LogicVec::from_bits(&bits)
}

fn check_paths(cfg: &Cfg, reference: &Reference, n: usize, rng: &mut StdRng) {
    let id = NodeId(n as u32);
    let path = &reference.paths[n];
    assert_eq!(
        cfg.replay_sequence(id),
        *path,
        "replay_sequence of node {n}"
    );
    let from = rng.gen_range(0..=path.len());
    assert_eq!(
        cfg.replay_suffix(id, from),
        path[from..],
        "replay_suffix({n}, {from})"
    );
}

fn run_program(design: &Arc<Design>, ctrl: &[SignalId], seed: u64, totals: &mut (usize, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = Cfg::new(Arc::clone(design), ctrl.to_vec());
    let mut reference = Reference::default();

    // A pool of states, each one or two bits away from an earlier one
    // (so keys that differ only in 1 vs X, or 0 vs Z, or across the
    // word boundary, all occur), drawn with a bias towards its front so
    // new nodes keep appearing late in the program.
    let mut states: Vec<Vec<LogicVec>> = vec![ctrl
        .iter()
        .map(|s| random_vec(&mut rng, design.signal(*s).width))
        .collect()];
    for _ in 1..rng.gen_range(3..=10usize) {
        let mut state = states[rng.gen_range(0..states.len())].clone();
        for _ in 0..rng.gen_range(1..=2u32) {
            let reg = &mut state[rng.gen_range(0..ctrl.len())];
            let bit = rng.gen_range(0..reg.width());
            reg.set_bit(bit, random_bit(&mut rng));
        }
        states.push(state);
    }
    // A small word pool, so word sequences repeat; one word in ten
    // has the other width, so equal bits at unequal widths differ.
    let width = rng.gen_range(2..=3u32);
    let mut words: Vec<LogicVec> = (0..rng.gen_range(2..=4usize))
        .map(|_| random_vec(&mut rng, width))
        .collect();
    words.push(random_vec(&mut rng, 5 - width));
    let mut frame: Vec<LogicVec> = design
        .signals
        .iter()
        .map(|s| LogicVec::zeros(s.width))
        .collect();

    let steps = rng.gen_range(50..=400u64);
    for step in 0..steps {
        let roll = rng.gen_range(0..100u32);
        let nodes = reference.paths.len();
        let touched = if roll < 7 {
            cfg.note_reset();
            reference.current = None;
            reference.log.clear();
            None
        } else if roll < 16 && nodes > 0 {
            let n = rng.gen_range(0..nodes);
            cfg.note_rollback(NodeId(n as u32));
            reference.current = Some(n);
            reference.log = reference.paths[n].clone();
            Some(n)
        } else {
            let s = rng
                .gen_range(0..states.len())
                .min(rng.gen_range(0..states.len()));
            for (sig, v) in ctrl.iter().zip(&states[s]) {
                frame[sig.index()] = v.clone();
            }
            let w = if rng.gen_range(0..10u32) == 0 {
                words.len() - 1
            } else {
                rng.gen_range(0..words.len() - 1)
            };
            let word = &words[w];
            let got = cfg.observe(&frame, word, step, Provenance::random(step));
            let (node, new_node, new_edge) = reference.observe(states[s].clone(), word);
            assert_eq!(
                (got.node.index(), got.new_node, got.new_edge),
                (node, new_node, new_edge),
                "observe at step {step}"
            );
            if new_edge {
                let e = cfg.edge_record(cfg.edge_count() as u32 - 1);
                assert_eq!(
                    Some(&(e.src.index(), e.dst.index())),
                    reference.edges.last(),
                    "new edge at step {step}"
                );
            }
            Some(node)
        };

        let nodes = reference.paths.len();
        assert_eq!(cfg.node_count(), nodes, "node count at step {step}");
        assert_eq!(
            cfg.edge_count(),
            reference.edges.len(),
            "edge count at step {step}"
        );
        assert_eq!(
            cfg.current().map(NodeId::index),
            reference.current,
            "current at step {step}"
        );
        for (n, path) in reference.paths.iter().enumerate() {
            assert_eq!(
                cfg.path_len(NodeId(n as u32)),
                path.len(),
                "path_len of node {n}"
            );
        }
        if let Some(n) = touched {
            check_paths(&cfg, &reference, n, &mut rng);
        }
        if nodes == 0 {
            continue;
        }
        check_paths(&cfg, &reference, rng.gen_range(0..nodes), &mut rng);
        for a in 0..nodes {
            for n in 0..nodes {
                assert_eq!(
                    cfg.is_ancestor(NodeId(a as u32), NodeId(n as u32)),
                    reference.anc[a][n],
                    "is_ancestor({a}, {n}) at step {step}"
                );
            }
        }
        for _ in 0..2 {
            let node = rng.gen_range(0..nodes);
            let candidates: Vec<usize> = (0..rng.gen_range(0..=2 * nodes))
                .map(|_| rng.gen_range(0..nodes))
                .collect();
            let got = cfg.nearest_ancestor(
                NodeId(node as u32),
                candidates.iter().map(|&c| NodeId(c as u32)),
            );
            assert_eq!(
                got.map(NodeId::index),
                reference.nearest_ancestor(node, &candidates),
                "nearest_ancestor({node}, {candidates:?}) at step {step}"
            );
        }
    }
    for n in 0..reference.paths.len() {
        check_paths(&cfg, &reference, n, &mut rng);
    }
    totals.0 += reference.equal_paths;
    totals.1 += reference.inner_nodes;
}

#[test]
fn trie_cfg_matches_the_path_copy_reference() {
    let design = Arc::new(elaborate_src(RTL, "m").expect("oracle design elaborates"));
    let ctrl: Vec<SignalId> = ["a", "w", "b"]
        .iter()
        .map(|n| design.signal_by_name(n).expect("register exists"))
        .collect();
    let mut totals = (0, 0);
    for k in 0..PROGRAMS {
        let seed = SEED + k;
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_program(&design, &ctrl, seed, &mut totals)
        }));
        if run.is_err() {
            panic!("cfg oracle failed at seed {seed:#x}");
        }
    }
    // The programs must reach the cases the trie handles specially.
    let (equal_paths, inner_nodes) = totals;
    assert!(
        equal_paths > 0,
        "no program produced nodes with equal paths"
    );
    assert!(
        inner_nodes > 0,
        "no program visited a node inside an existing path"
    );
}
