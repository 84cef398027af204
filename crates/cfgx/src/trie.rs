//! The input trie: every CFG node's first-reach input path, stored once.

use symbfuzz_logic::LogicVec;

/// "No position" in the child and sibling links (the root is never a
/// child, so index 0 is free to mean none).
const NONE: u32 = 0;

/// One input word on some node's first-reach path.
#[derive(Debug, Clone)]
struct Position {
    parent: u32,
    /// Path length from reset, in words.
    depth: u32,
    /// Nearest strict ancestor owned by some CFG node (0: none).
    up: u32,
    first_child: u32,
    next_sibling: u32,
    /// Some CFG node's first-reach path ends here.
    owned: bool,
    /// The word: its width, and where its value then unknown plane
    /// words start in [`InputTrie::planes`].
    width: u32,
    at: u32,
}

/// A tree of input words shared by every CFG node, plus the cursor
/// that tracks the path driven since the last reset or rollback.
///
/// Position 0 is the empty path (reset); every other position stands
/// for the path from the root to it. Siblings always hold different
/// words, so each path has exactly one position and a node's path is a
/// prefix of another's exactly when its position is an ancestor.
///
/// Positions from `committed` on are *pending*: words driven since the
/// cursor left committed ground. They join the tree only when a new
/// node is first visited ([`commit`](Self::commit)); a reset or
/// rollback ([`restart`](Self::restart)) drops them, so the tree holds
/// only words on some node's path.
#[derive(Debug, Clone)]
pub(crate) struct InputTrie {
    nodes: Vec<Position>,
    planes: Vec<u64>,
    committed: usize,
    cursor: u32,
}

impl InputTrie {
    /// A trie holding only the empty path, with the cursor on it.
    pub(crate) fn new() -> InputTrie {
        InputTrie {
            nodes: vec![Position {
                parent: 0,
                depth: 0,
                up: 0,
                first_child: NONE,
                next_sibling: NONE,
                owned: false,
                width: 0,
                at: 0,
            }],
            planes: Vec::new(),
            committed: 1,
            cursor: 0,
        }
    }

    /// Drops the pending words and puts the cursor on committed
    /// position `pos` (0 for reset).
    pub(crate) fn restart(&mut self, pos: u32) {
        if let Some(first) = self.nodes.get(self.committed) {
            self.planes.truncate(first.at as usize);
            self.nodes.truncate(self.committed);
        }
        self.cursor = pos;
    }

    /// Moves the cursor one driven word on: to its existing child for
    /// `word` on committed ground, else to a new pending position.
    pub(crate) fn step(&mut self, word: &LogicVec) {
        if (self.cursor as usize) < self.committed {
            let mut c = self.nodes[self.cursor as usize].first_child;
            while c != NONE {
                if self.holds(c, word) {
                    self.cursor = c;
                    return;
                }
                c = self.nodes[c as usize].next_sibling;
            }
        }
        let (val, unk) = word.planes();
        let at = u32::try_from(self.planes.len()).expect("input trie under 2^32 plane words");
        self.planes.extend_from_slice(val);
        self.planes.extend_from_slice(unk);
        let depth = self.nodes[self.cursor as usize].depth + 1;
        self.nodes.push(Position {
            parent: self.cursor,
            depth,
            up: 0,
            first_child: NONE,
            next_sibling: NONE,
            owned: false,
            width: word.width(),
            at,
        });
        self.cursor = u32::try_from(self.nodes.len() - 1).expect("input trie under 2^32 words");
    }

    /// Commits the cursor's path for a newly visited node: links any
    /// pending words into the tree and marks the cursor's position as
    /// owned. Returns that position.
    pub(crate) fn commit(&mut self) -> u32 {
        if self.nodes.len() > self.committed {
            // The pending chain hangs below a committed position and
            // owns nothing above its tail yet.
            let up = self.owner_at_or_above(self.nodes[self.committed].parent);
            for q in self.committed..self.nodes.len() {
                let parent = self.nodes[q].parent as usize;
                self.nodes[q].up = up;
                self.nodes[q].next_sibling = self.nodes[parent].first_child;
                self.nodes[parent].first_child = q as u32;
            }
            self.committed = self.nodes.len();
        }
        let pos = self.cursor as usize;
        if !self.nodes[pos].owned {
            self.nodes[pos].owned = true;
            if self.nodes[pos].first_child != NONE {
                // Rare: a node first visited on an existing path with
                // descendants. Parents precede children, so one pass
                // over the later positions relinks them all.
                for q in pos + 1..self.committed {
                    self.nodes[q].up = self.owner_at_or_above(self.nodes[q].parent);
                }
            }
        }
        self.cursor
    }

    /// `pos` itself if some node owns it, else its nearest owned
    /// ancestor (0 when there is none).
    fn owner_at_or_above(&self, pos: u32) -> u32 {
        let p = &self.nodes[pos as usize];
        if p.owned {
            pos
        } else {
            p.up
        }
    }

    /// Path length of `pos`, in words.
    pub(crate) fn depth(&self, pos: u32) -> usize {
        self.nodes[pos as usize].depth as usize
    }

    /// Whether owned position `anc` lies on the path to owned position
    /// `pos` (or is `pos`).
    pub(crate) fn is_prefix(&self, anc: u32, pos: u32) -> bool {
        let depth = self.nodes[anc as usize].depth;
        let mut v = pos;
        while self.nodes[v as usize].depth > depth {
            v = self.nodes[v as usize].up;
        }
        v == anc
    }

    /// Fills `out` with the owned positions on the path to owned
    /// position `pos` as `(depth, position)` pairs, `pos` first, in
    /// strictly falling depth.
    pub(crate) fn owners(&self, pos: u32, out: &mut Vec<(usize, u32)>) {
        out.clear();
        let mut v = pos;
        while v != 0 {
            out.push((self.depth(v), v));
            v = self.nodes[v as usize].up;
        }
    }

    /// The words from depth `from` down to `pos`, in driving order.
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds the depth of `pos`.
    pub(crate) fn path(&self, pos: u32, from: usize) -> Vec<LogicVec> {
        let depth = self.depth(pos);
        assert!(from <= depth, "suffix from {from} of a {depth}-word path");
        let mut out = Vec::with_capacity(depth - from);
        let mut v = pos as usize;
        for _ in from..depth {
            let p = &self.nodes[v];
            let n = (p.width as usize).div_ceil(64);
            let at = p.at as usize;
            out.push(LogicVec::from_planes(
                p.width,
                &self.planes[at..at + n],
                &self.planes[at + n..at + 2 * n],
            ));
            v = p.parent as usize;
        }
        out.reverse();
        out
    }

    /// Whether position `pos` holds exactly `word`.
    fn holds(&self, pos: u32, word: &LogicVec) -> bool {
        let p = &self.nodes[pos as usize];
        let (val, unk) = word.planes();
        let at = p.at as usize;
        p.width == word.width()
            && self.planes[at..at + val.len()] == *val
            && self.planes[at + val.len()..at + 2 * val.len()] == *unk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: u64) -> LogicVec {
        LogicVec::from_u64(3, v)
    }

    fn size(t: &InputTrie) -> (usize, usize) {
        (t.nodes.len(), t.planes.len())
    }

    #[test]
    fn replay_walks_existing_positions_and_restarts_drop_pending_words() {
        let mut t = InputTrie::new();
        for v in [1, 2, 3] {
            t.step(&w(v));
        }
        let end = t.commit();
        let committed = size(&t);
        // Replaying a committed path from reset stores nothing new.
        t.restart(0);
        for v in [1, 2, 3] {
            t.step(&w(v));
        }
        assert_eq!(t.cursor, end);
        assert_eq!(size(&t), committed);
        // Words off known ground are pending until a commit; a restart
        // drops them.
        t.step(&w(4));
        t.step(&w(5));
        assert_eq!(t.depth(t.cursor), 5);
        t.restart(end);
        assert_eq!(size(&t), committed);
        // Equal bits at another width are another word.
        t.restart(0);
        t.step(&LogicVec::from_u64(2, 1));
        assert_eq!(t.nodes.len(), committed.0 + 1);
    }
}
