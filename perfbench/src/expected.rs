//! The verdicts every op is checked against, fixed when the benchmark was
//! written (k-induction and PDR gave the same ones). For each design with an
//! injected bug the table lists the properties it falsifies; every other
//! property of every design — the rest of a bugged design's, all of a
//! correct interlock's and all of a deep chain's — is proved. The program's
//! answers are never compared with answers it computed itself.

use crate::inputs::Design;

/// The falsified properties of each bugged design, by design label.
const FALSIFIED: [(&str, &[&str]); 24] = [
    (
        "paper-scoreboard",
        &["long.1/functional", "short.1/functional"],
    ),
    ("paper-grant", &["long.4/functional", "short.2/functional"]),
    (
        "paper-reset",
        &[
            "long.4/functional",
            "long.1/functional",
            "short.2/functional",
            "short.1/functional",
        ],
    ),
    (
        "firepath-scoreboard",
        &[
            "deep_a.1/functional",
            "mul_a.1/functional",
            "short_a.1/functional",
            "deep_b.1/functional",
            "mul_b.1/functional",
            "short_b.1/functional",
        ],
    ),
    (
        "firepath-grant",
        &[
            "deep_a.6/functional",
            "mul_a.4/functional",
            "short_a.2/functional",
            "deep_b.6/functional",
            "mul_b.4/functional",
            "short_b.2/functional",
        ],
    ),
    (
        "firepath-reset",
        &[
            "deep_a.6/functional",
            "deep_a.1/functional",
            "mul_a.4/functional",
            "mul_a.1/functional",
            "short_a.2/functional",
            "short_a.1/functional",
            "deep_b.6/functional",
            "deep_b.1/functional",
            "mul_b.4/functional",
            "mul_b.1/functional",
            "short_b.2/functional",
            "short_b.1/functional",
        ],
    ),
    (
        "synthetic-3x4-scoreboard",
        &[
            "pipe0.1/functional",
            "pipe1.1/functional",
            "pipe2.1/functional",
        ],
    ),
    (
        "synthetic-3x4-grant",
        &[
            "pipe0.4/functional",
            "pipe1.4/functional",
            "pipe2.4/functional",
        ],
    ),
    (
        "synthetic-3x4-reset",
        &[
            "pipe0.4/functional",
            "pipe0.1/functional",
            "pipe1.4/functional",
            "pipe1.1/functional",
            "pipe2.4/functional",
            "pipe2.1/functional",
        ],
    ),
    (
        "synthetic-3x5-scoreboard",
        &[
            "pipe0.1/functional",
            "pipe1.1/functional",
            "pipe2.1/functional",
        ],
    ),
    (
        "synthetic-3x5-grant",
        &[
            "pipe0.5/functional",
            "pipe1.5/functional",
            "pipe2.5/functional",
        ],
    ),
    (
        "synthetic-3x5-reset",
        &[
            "pipe0.5/functional",
            "pipe0.1/functional",
            "pipe1.5/functional",
            "pipe1.1/functional",
            "pipe2.5/functional",
            "pipe2.1/functional",
        ],
    ),
    (
        "synthetic-4x3-scoreboard",
        &[
            "pipe0.1/functional",
            "pipe1.1/functional",
            "pipe2.1/functional",
            "pipe3.1/functional",
        ],
    ),
    (
        "synthetic-4x3-grant",
        &[
            "pipe0.3/functional",
            "pipe1.3/functional",
            "pipe2.3/functional",
            "pipe3.3/functional",
        ],
    ),
    (
        "synthetic-4x3-reset",
        &[
            "pipe0.3/functional",
            "pipe0.1/functional",
            "pipe1.3/functional",
            "pipe1.1/functional",
            "pipe2.3/functional",
            "pipe2.1/functional",
            "pipe3.3/functional",
            "pipe3.1/functional",
        ],
    ),
    (
        "synthetic-4x4-scoreboard",
        &[
            "pipe0.1/functional",
            "pipe1.1/functional",
            "pipe2.1/functional",
            "pipe3.1/functional",
        ],
    ),
    (
        "synthetic-4x4-grant",
        &[
            "pipe0.4/functional",
            "pipe1.4/functional",
            "pipe2.4/functional",
            "pipe3.4/functional",
        ],
    ),
    (
        "synthetic-4x4-reset",
        &[
            "pipe0.4/functional",
            "pipe0.1/functional",
            "pipe1.4/functional",
            "pipe1.1/functional",
            "pipe2.4/functional",
            "pipe2.1/functional",
            "pipe3.4/functional",
            "pipe3.1/functional",
        ],
    ),
    (
        "synthetic-2x6-scoreboard",
        &["pipe0.1/functional", "pipe1.1/functional"],
    ),
    (
        "synthetic-2x6-grant",
        &["pipe0.6/functional", "pipe1.6/functional"],
    ),
    (
        "synthetic-2x6-reset",
        &[
            "pipe0.6/functional",
            "pipe0.1/functional",
            "pipe1.6/functional",
            "pipe1.1/functional",
        ],
    ),
    ("synthetic-1x4-scoreboard", &["pipe0.1/functional"]),
    ("synthetic-1x4-grant", &["pipe0.4/functional"]),
    (
        "synthetic-1x4-reset",
        &["pipe0.4/functional", "pipe0.1/functional"],
    ),
];

/// Whether `property` of `design` is expected falsified (otherwise it is
/// expected proved).
///
/// # Panics
///
/// For a bugged design the table does not list: a workload drew a design
/// it has no expected verdicts for.
pub fn falsified(design: Design, property: &str) -> bool {
    let falsified: &[&str] = match design {
        Design::Broken { .. } => {
            let label = design.label();
            FALSIFIED
                .iter()
                .find(|(name, _)| *name == label)
                .unwrap_or_else(|| panic!("no expected verdicts for {label}"))
                .1
        }
        Design::Correct { .. } | Design::Deep(_) => &[],
    };
    falsified.contains(&property)
}
