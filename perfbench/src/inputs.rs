//! Seeded input generation: the designs the workloads draw from and the
//! generator that turns a seed into an op sequence. The program under test
//! only ever sees the generated specs and netlists.

use ipcl::core::archspec::ArchSpec;
use ipcl::core::example::ExampleArch;
use ipcl::core::FunctionalSpec;
use ipcl::pdr::deep::deep_pipeline;
use ipcl::rtl::Netlist;
use ipcl::synth::{
    synthesize_broken_interlock, synthesize_interlock_with, BrokenVariant, SynthesisOptions,
};

/// SplitMix64: a small, fixed generator, so a seed means the same inputs
/// whatever the program's own dependencies do.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `n` category indices in seeded order, each category appearing exactly
/// its weight's share of `n` times (largest remainder). Fixing the counts
/// keeps every seed's mix, and so where p50 and p90 fall, the same.
pub fn mix(n: usize, weights: &[f64], rng: &mut Rng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &category in order.iter().take(short) {
        counts[category] += 1;
    }
    let mut sequence: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(category, &count)| std::iter::repeat_n(category, count))
        .collect();
    rng.shuffle(&mut sequence);
    sequence
}

/// An architecture the interlock designs are synthesized for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Arch {
    /// The paper's example architecture.
    Paper,
    /// The FirePath-like two-sided LIW configuration.
    Firepath,
    /// `ArchSpec::synthetic(pipes, depth)`.
    Synthetic(u32, u32),
}

impl Arch {
    fn spec(self) -> FunctionalSpec {
        match self {
            Arch::Paper => ExampleArch::new().functional_spec(),
            Arch::Firepath => ArchSpec::firepath_like()
                .functional_spec()
                .expect("the FirePath-like architecture is well-formed"),
            Arch::Synthetic(pipes, depth) => ArchSpec::synthetic(pipes, depth)
                .functional_spec()
                .expect("synthetic architectures are well-formed"),
        }
    }

    fn label(self) -> String {
        match self {
            Arch::Paper => "paper".to_owned(),
            Arch::Firepath => "firepath".to_owned(),
            Arch::Synthetic(pipes, depth) => format!("synthetic-{pipes}x{depth}"),
        }
    }
}

/// The injected bug classes of `BrokenVariant`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Bug {
    Scoreboard,
    Grant,
    Reset,
}

impl Bug {
    pub const ALL: [Bug; 3] = [Bug::Scoreboard, Bug::Grant, Bug::Reset];

    fn variant(self) -> BrokenVariant {
        match self {
            Bug::Scoreboard => BrokenVariant::IgnoreScoreboard,
            Bug::Grant => BrokenVariant::IgnoreCompletionGrant,
            Bug::Reset => BrokenVariant::BadResetValues { cycles: 2 },
        }
    }
}

/// One design under check.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Design {
    /// The derived maximum-performance interlock, with combinational or
    /// registered `moe` outputs.
    Correct { arch: Arch, registered: bool },
    /// An interlock with an injected bug.
    Broken { arch: Arch, bug: Bug },
    /// `deep_pipeline(n)`: the deep wait-state chain.
    Deep(usize),
}

impl Design {
    pub fn build(self) -> (FunctionalSpec, Netlist) {
        match self {
            Design::Correct { arch, registered } => {
                let spec = arch.spec();
                let options = SynthesisOptions {
                    registered_outputs: registered,
                    reset_value: true,
                    ..Default::default()
                };
                let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
                (spec, netlist)
            }
            Design::Broken { arch, bug } => {
                let spec = arch.spec();
                let netlist = synthesize_broken_interlock(&spec, bug.variant())
                    .netlist()
                    .clone();
                (spec, netlist)
            }
            Design::Deep(depth) => deep_pipeline(depth),
        }
    }

    pub fn label(self) -> String {
        match self {
            Design::Correct { arch, registered } => format!(
                "{}-{}",
                arch.label(),
                if registered { "reg" } else { "comb" }
            ),
            Design::Broken { arch, bug } => format!("{}-{bug:?}", arch.label()).to_lowercase(),
            Design::Deep(depth) => format!("deep-{depth}"),
        }
    }
}
