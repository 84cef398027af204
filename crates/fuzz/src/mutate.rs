//! Corpus-based mutation engines for the baseline fuzzers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbfuzz_logic::{Bit, LogicVec};

/// Mutation granularity, distinguishing the baselines' styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Single-bit flips (RFuzz drives FPGA pins bit by bit).
    Bit,
    /// Whole-word splices (DifuzzRTL mutates register-sized chunks).
    Word,
    /// Byte-level havoc (HWFP treats stimuli as software fuzzer bytes).
    Byte,
}

/// A coverage-guided corpus mutator: whole multi-cycle testcases that
/// produced new coverage are kept as seeds; subsequent testcases mutate
/// a random seed.
#[derive(Debug, Clone)]
pub struct Mutator {
    rng: StdRng,
    width: u32,
    /// Multi-cycle testcase corpus (hardware fuzzers mutate input
    /// *programs*, not single cycles).
    case_corpus: Vec<Vec<LogicVec>>,
    granularity: Granularity,
    /// Probability (percent) of emitting a fresh random word instead of
    /// mutating a seed.
    explore_pct: u32,
}

impl Mutator {
    /// Creates a mutator for stimulus words of `width` bits.
    pub fn new(width: u32, granularity: Granularity, seed: u64) -> Mutator {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
            width: width.max(1),
            case_corpus: Vec::new(),
            granularity,
            explore_pct: 34,
        }
    }

    /// Number of testcase seeds retained.
    pub fn case_corpus_len(&self) -> usize {
        self.case_corpus.len()
    }

    /// Records a multi-cycle testcase that produced new coverage.
    pub fn keep_case(&mut self, case: Vec<LogicVec>) {
        if self.case_corpus.len() < 1024 {
            self.case_corpus.push(case);
        }
    }

    /// Produces the next testcase of `len` cycles: a mutation of a
    /// kept seed (a few words rewritten at the seed's granularity), or
    /// a fresh random case while the corpus is empty / for exploration.
    pub fn next_case(&mut self, len: usize) -> Vec<LogicVec> {
        if self.case_corpus.is_empty() || self.rng.gen_range(0..100) < self.explore_pct {
            return (0..len).map(|_| self.random_word()).collect();
        }
        let idx = self.rng.gen_range(0..self.case_corpus.len());
        let mut case = self.case_corpus[idx].clone();
        case.resize_with(len, || LogicVec::zeros(self.width));
        let edits = 1 + self.rng.gen_range(0..3);
        for _ in 0..edits {
            let pos = self.rng.gen_range(0..case.len());
            let word = case[pos].clone();
            case[pos] = self.mutate_word(word);
        }
        case
    }

    fn mutate_word(&mut self, mut w: LogicVec) -> LogicVec {
        match self.granularity {
            Granularity::Bit => {
                let flips = 1 + self.rng.gen_range(0..3);
                for _ in 0..flips {
                    let i = self.rng.gen_range(0..self.width);
                    w.set_bit(i, !w.bit(i));
                }
                w
            }
            Granularity::Word => {
                // Re-randomise a contiguous span (DifuzzRTL splices
                // register-sized chunks rather than whole inputs).
                let lo = self.rng.gen_range(0..self.width);
                let len = self.rng.gen_range(1..=(self.width - lo));
                for i in lo..lo + len {
                    w.set_bit(i, Bit::from_bool(self.rng.gen::<bool>()));
                }
                w
            }
            Granularity::Byte => {
                let byte = self.rng.gen_range(0..self.width.div_ceil(8));
                let lo = byte * 8;
                let val: u8 = self.rng.gen();
                for i in 0..8.min(self.width - lo) {
                    w.set_bit(lo + i, Bit::from_bool((val >> i) & 1 == 1));
                }
                w
            }
        }
    }

    fn random_word(&mut self) -> LogicVec {
        let mut w = LogicVec::zeros(self.width);
        for i in 0..self.width {
            w.set_bit(i, Bit::from_bool(self.rng.gen::<bool>()));
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let seed: Vec<LogicVec> = (0..8).map(|i| LogicVec::from_u64(32, i)).collect();
        let mut a = Mutator::new(32, Granularity::Bit, 5);
        let mut b = Mutator::new(32, Granularity::Bit, 5);
        a.keep_case(seed.clone());
        b.keep_case(seed);
        for _ in 0..10 {
            assert_eq!(a.next_case(8), b.next_case(8));
        }
    }

    #[test]
    fn cases_have_requested_length_and_width() {
        for g in [Granularity::Bit, Granularity::Word, Granularity::Byte] {
            let mut m = Mutator::new(13, g, 1);
            assert!(m.next_case(32).iter().all(|w| w.width() == 13));
            m.keep_case(vec![LogicVec::from_u64(13, 0x1234 & 0x1FFF); 4]);
            for _ in 0..50 {
                let case = m.next_case(32);
                assert_eq!(case.len(), 32);
                assert!(case.iter().all(|w| w.width() == 13 && !w.has_unknown()));
            }
        }
    }

    #[test]
    fn bit_mutations_stay_close_to_seed() {
        let mut m = Mutator::new(64, Granularity::Bit, 2);
        m.explore_pct = 0;
        let seed = vec![LogicVec::from_u64(64, 0xDEAD_BEEF_CAFE_F00D); 4];
        m.keep_case(seed.clone());
        for _ in 0..50 {
            let case = m.next_case(4);
            // At most three edits of at most three flips each.
            let diff: usize = case
                .iter()
                .zip(&seed)
                .map(|(w, s)| (w ^ s).iter_bits().filter(|b| *b == Bit::One).count())
                .sum();
            assert!(diff <= 9, "bit mutation flipped {diff} bits");
        }
    }

    #[test]
    fn byte_mutations_touch_one_byte() {
        let mut m = Mutator::new(64, Granularity::Byte, 3);
        m.explore_pct = 0;
        m.keep_case(vec![LogicVec::from_u64(64, 0); 4]);
        for _ in 0..50 {
            // Each of at most three edits rewrites one aligned byte.
            let touched: usize = m
                .next_case(4)
                .iter()
                .map(|w| {
                    let v = w.to_u64().unwrap();
                    (0..8).filter(|b| (v >> (b * 8)) & 0xFF != 0).count()
                })
                .sum();
            assert!(touched <= 3, "{touched} bytes touched");
        }
    }

    #[test]
    fn case_mutants_stay_close_to_their_seed() {
        let mut m = Mutator::new(16, Granularity::Bit, 12);
        m.explore_pct = 0;
        let seed: Vec<LogicVec> = (0..32).map(|i| LogicVec::from_u64(16, i * 3)).collect();
        m.keep_case(seed.clone());
        for _ in 0..20 {
            let case = m.next_case(32);
            let changed = case.iter().zip(&seed).filter(|(a, b)| a != b).count();
            assert!(changed <= 3, "mutated {changed} of 32 words");
        }
    }

    #[test]
    fn empty_case_corpus_yields_random_cases() {
        let mut m = Mutator::new(8, Granularity::Byte, 13);
        assert_eq!(m.case_corpus_len(), 0);
        let a = m.next_case(8);
        let b = m.next_case(8);
        assert_ne!(a, b, "fresh random cases should differ");
    }

    #[test]
    fn case_corpus_is_bounded() {
        let mut m = Mutator::new(8, Granularity::Word, 14);
        for i in 0..2000 {
            m.keep_case(vec![LogicVec::from_u64(8, i % 256); 4]);
        }
        assert!(m.case_corpus_len() <= 1024);
    }
}
