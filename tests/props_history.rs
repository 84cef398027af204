//! Differential oracle for the property checker's sampled history.
//!
//! `PropertyChecker` keeps past values only for the signals its
//! properties read in earlier cycles and reads "now" straight from the
//! simulator. The reference below keeps whole value-table copies and
//! evaluates through `Property::holds`, the full-frame form. On every
//! cycle both must report the same violations, for every shipped
//! property and for seeded generated ones, under random stimulus with
//! X-initialised registers, X-injected inputs and random history
//! resets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::Design;
use symbfuzz_props::{Property, PropertyChecker, Violation};
use symbfuzz_sim::{Reentry, Simulator};

const SEEDS: [u64; 2] = [0x5EED_0001, 0x5EED_0002];
const CYCLES: u64 = 160;
const GENERATED: usize = 12;

/// The full-frame reference: whole value-table copies, evaluated by
/// `Property::holds` over the last `depth + 1` of them.
struct Reference {
    properties: Vec<Property>,
    depth: usize,
    frames: Vec<Vec<LogicVec>>,
}

impl Reference {
    fn new(properties: Vec<Property>) -> Reference {
        let depth = properties
            .iter()
            .map(|p| p.history_depth() as usize)
            .max()
            .unwrap_or(0);
        Reference {
            properties,
            depth,
            frames: Vec::new(),
        }
    }

    fn on_cycle(&mut self, cycle: u64, values: &[LogicVec]) -> Vec<Violation> {
        self.frames.push(values.to_vec());
        if self.frames.len() > self.depth + 1 {
            self.frames.remove(0);
        }
        self.properties
            .iter()
            .filter(|p| !p.holds(&self.frames))
            .map(|p| Violation {
                property: p.name().to_string(),
                cycle,
            })
            .collect()
    }
}

/// A design that ships properties, with those properties parsed.
struct Shipped {
    name: String,
    design: Arc<Design>,
    properties: Vec<Property>,
}

impl Shipped {
    fn new(name: String, design: Arc<Design>, props: &[(&str, &str)]) -> Shipped {
        let properties = props
            .iter()
            .map(|(n, t)| {
                Property::parse(n, t, &design).unwrap_or_else(|e| panic!("{name} `{n}`: {e}"))
            })
            .collect();
        Shipped {
            name,
            design,
            properties,
        }
    }
}

/// The 14 Table 1 bugs, the four processor benchmarks, the goal fabric
/// and the factoring lock.
fn shipped() -> Vec<Shipped> {
    let mut out = Vec::new();
    for b in symbfuzz_designs::bug_benchmarks() {
        let name = format!("bug{:02}_{}", b.id, b.name);
        out.push(Shipped::new(
            name,
            b.design().unwrap(),
            &[(b.name, b.property)],
        ));
    }
    for b in symbfuzz_designs::processor_benchmarks() {
        out.push(Shipped::new(
            b.name.into(),
            b.design().unwrap(),
            b.properties,
        ));
    }
    out.push(Shipped::new(
        "goalfabric".into(),
        symbfuzz_designs::goal_fabric(),
        &[symbfuzz_designs::GOAL_FABRIC_PROPERTY],
    ));
    out.push(Shipped::new(
        "hardlock".into(),
        symbfuzz_designs::hard_factor(),
        &[symbfuzz_designs::HARD_FACTOR_PROPERTY],
    ));
    out
}

/// Random property text over a design's signals: `$past` at depths
/// 1–3, `$stable`, `$rose`, `$fell` and `$isunknown` nested inside
/// `&&`, `||`, `!`, comparisons and ternaries, under `|->`, `|=>` or no
/// implication.
struct Gen<'a> {
    rng: &'a mut StdRng,
    signals: &'a [(String, u32)],
}

impl Gen<'_> {
    fn leaf(&mut self) -> String {
        let (name, w) = &self.signals[self.rng.gen_range(0..self.signals.len())];
        let w = *w;
        match self.rng.gen_range(0..5) {
            0 => format!("{name}[{}]", self.rng.gen_range(0..w)),
            1 => {
                let lsb = self.rng.gen_range(0..w);
                let msb = self.rng.gen_range(lsb..w);
                format!("{name}[{msb}:{lsb}]")
            }
            2 => {
                let cw = w.min(16);
                format!("{cw}'d{}", self.rng.gen_range(0..1u64 << cw))
            }
            _ => name.clone(),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.leaf();
        }
        let d = depth - 1;
        match self.rng.gen_range(0..13) {
            0 => format!("$past({}, {})", self.expr(d), self.rng.gen_range(1..=3u32)),
            1 => format!("$past({})", self.expr(d)),
            2 => format!("$stable({})", self.expr(d)),
            3 => format!("$rose({})", self.expr(d)),
            4 => format!("$fell({})", self.expr(d)),
            5 => format!("$isunknown({})", self.expr(d)),
            6 => format!("({} && {})", self.expr(d), self.expr(d)),
            7 => format!("({} || {})", self.expr(d), self.expr(d)),
            8 => format!("({} ? {} : {})", self.expr(d), self.expr(d), self.expr(d)),
            9 => format!("!{}", self.expr(d)),
            10 => format!("({} == {})", self.expr(d), self.expr(d)),
            11 => format!("({} != {})", self.expr(d), self.expr(d)),
            _ => self.leaf(),
        }
    }

    fn property(&mut self) -> String {
        let a = self.expr(3);
        match self.rng.gen_range(0..3) {
            0 => a,
            1 => format!("{a} |-> {}", self.expr(3)),
            _ => format!("{a} |=> {}", self.expr(3)),
        }
    }
}

fn random_word(rng: &mut StdRng, width: u32) -> LogicVec {
    let inject_x = rng.gen_range(0..4) == 0;
    let bits: Vec<Bit> = (0..width)
        .map(|_| match rng.gen_range(0..16) {
            0 if inject_x => Bit::X,
            n if n % 2 == 0 => Bit::Zero,
            _ => Bit::One,
        })
        .collect();
    LogicVec::from_bits(&bits)
}

/// Drives one seeded run and compares checker and reference on every
/// cycle; returns (cycles with a violation, cycles without).
fn run(seed: u64, design: &str, d: &Arc<Design>, properties: &[Property]) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checker = PropertyChecker::new(properties.to_vec());
    let mut reference = Reference::new(properties.to_vec());
    let mut first: Vec<Violation> = Vec::new();
    // No reset: registers start X until the first random reset.
    let mut sim = Simulator::new(Arc::clone(d));
    let (mut failing, mut passing) = (0, 0);
    for cycle in 0..CYCLES {
        if rng.gen_range(0..40) == 0 {
            sim.reenter(Reentry::FullReset { cycles: 1 });
        }
        if rng.gen_range(0..12) == 0 {
            checker.reset_history();
            reference.frames.clear();
        }
        sim.apply_input_word(&random_word(&mut rng, d.fuzz_width()));
        sim.step();
        let got = checker.on_cycle(cycle, sim.values());
        let want = reference.on_cycle(cycle, sim.values());
        if got != want {
            let differing: Vec<String> = properties
                .iter()
                .filter(|p| {
                    let fired = |vs: &[Violation]| vs.iter().any(|v| v.property == p.name());
                    fired(&got) != fired(&want)
                })
                .map(|p| format!("`{}` = `{}`", p.name(), p.source()))
                .collect();
            panic!(
                "seed {seed:#x} design {design} cycle {cycle}: checker and reference \
                 disagree on {}\n  checker:   {got:?}\n  reference: {want:?}",
                differing.join(", ")
            );
        }
        for v in want {
            if !first.iter().any(|f| f.property == v.property) {
                first.push(v);
            }
        }
        if got.is_empty() {
            passing += 1;
        } else {
            failing += 1;
        }
    }
    assert_eq!(
        checker.violations(),
        &first[..],
        "seed {seed:#x} design {design}: first-violation log"
    );
    assert_eq!(checker.checked_cycles(), CYCLES);
    (failing, passing)
}

#[test]
fn sampled_history_matches_full_frame_reference() {
    let designs = shipped();
    assert_eq!(designs.len(), 20);
    let (mut failing, mut passing) = (0, 0);
    for Shipped {
        name,
        design,
        properties,
    } in &designs
    {
        // Signals a property can name (some internal names do not lex).
        let signals: Vec<(String, u32)> = design
            .signals
            .iter()
            .filter(|s| Property::parse("probe", &s.name, design).is_ok())
            .map(|s| (s.name.clone(), s.width))
            .collect();
        for seed in SEEDS {
            // The shipped set alone, as a campaign checks it, then with
            // generated properties of mixed history depths added.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
            let mut all = properties.clone();
            for i in 0..GENERATED {
                let mut generator = Gen {
                    rng: &mut rng,
                    signals: &signals,
                };
                let text = generator.property();
                let p = Property::parse(&format!("gen{i}"), &text, design)
                    .unwrap_or_else(|e| panic!("seed {seed:#x} design {name}: `{text}`: {e}"));
                all.push(p);
            }
            for set in [properties, &all] {
                let (f, p) = run(seed, name, design, set);
                failing += f;
                passing += p;
            }
        }
    }
    // The comparison saw both outcomes, so it was not vacuous.
    assert!(
        failing > 0 && passing > 0,
        "{failing} failing, {passing} passing"
    );
}
