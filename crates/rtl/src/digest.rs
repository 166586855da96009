//! Canonical structural digests of netlists — the cache key of
//! verification-as-a-service.
//!
//! A proof cache (`ipcl-serve`) must recognise a re-submitted design even
//! when the client renamed its internal wires or emitted the signals in a
//! different order, yet must *never* identify two netlists whose observable
//! behaviour differs. [`structural_digest`] walks the cone of influence of
//! a set of *interface* signals (the signals a specification or property
//! refers to by name) and hashes the graph structure, not the text:
//!
//! * every signal gets an iteratively refined colour — a 64-bit hash of its
//!   gate kind and its children's colours, seeded by the only semantic
//!   per-node facts (input-ness, register reset values, constants) — in the
//!   spirit of Weisfeiler–Leman graph colouring, with enough rounds to
//!   traverse the longest register chain in the cone;
//! * commutative gates (`And`, `Or`) sort their children's colours, so
//!   operand order cannot leak into the digest; `Buf` is transparent;
//! * the final digest is a SHA-256 over the sorted `(interface name,
//!   colour)` pairs — interface names *do* participate, because the
//!   property text refers to them, while internal wire names never do.
//!
//! The digest is **renaming- and reordering-invariant** (pinned by
//! proptests in `crates/serve/tests/digest_soundness.rs`) and sensitive to every semantic
//! mutation the workspace's bug-injection matrix produces. It is *not* a
//! semantic equivalence check — two structurally different encodings of
//! the same function digest differently, and a hash collision between
//! different functions is theoretically possible — which is exactly why
//! `ipcl-serve` re-validates every cached certificate and replays every
//! cached trace before serving it: the digest only decides where to look,
//! never what to trust.

use std::collections::BTreeSet;

use crate::netlist::{Gate, Netlist, SignalId, SignalKind};

/// A tiny, dependency-free SHA-256 (FIPS 180-4). Only used to finalise
/// digests — the per-round colour refinement uses cheap 64-bit mixing.
struct Sha256 {
    state: [u32; 8],
    buffer: Vec<u8>,
    length: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: Vec::with_capacity(64),
            length: 0,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        self.length = self.length.wrapping_add(bytes.len() as u64);
        self.buffer.extend_from_slice(bytes);
        while self.buffer.len() >= 64 {
            let block: [u8; 64] = self.buffer[..64].try_into().expect("64-byte block");
            self.compress(&block);
            self.buffer.drain(..64);
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffer.len() != 56 {
            self.update(&[0]);
        }
        // The padding bytes above were counted into `length`; the encoded
        // length must reflect only the message, so it was captured first.
        let block_tail = bit_length.to_be_bytes();
        self.buffer.extend_from_slice(&block_tail);
        let block: [u8; 64] = self.buffer[..64].try_into().expect("final block");
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256 of `bytes`, as lowercase hex. Public so `ipcl-serve` can derive
/// composite cache keys (netlist digest ‖ property text) with the same
/// primitive.
pub fn sha256_hex(bytes: &[u8]) -> String {
    let mut sha = Sha256::new();
    sha.update(bytes);
    let digest = sha.finish();
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// splitmix64 — the per-round colour mixer. Strong enough avalanche that
/// iterated refinement separates non-isomorphic cones; collisions are
/// caught downstream by certificate re-validation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn combine(tag: u64, parts: &[u64]) -> u64 {
    let mut acc = mix(tag ^ 0x1bc1_5eed_0f0f_a7a7);
    for &part in parts {
        acc = mix(acc ^ part);
    }
    acc
}

fn hash_str(s: &str) -> u64 {
    let mut acc = 0xcbf29ce484222325;
    for byte in s.bytes() {
        acc = mix(acc ^ byte as u64);
    }
    acc
}

/// The cone of influence of `roots`: every signal reachable through gate
/// inputs *and* register next-state edges. Sequential behaviour flows
/// through registers, so the cone must cross them.
fn cone_of(netlist: &Netlist, roots: &[SignalId]) -> BTreeSet<SignalId> {
    let mut cone = BTreeSet::new();
    let mut stack: Vec<SignalId> = roots.to_vec();
    while let Some(signal) = stack.pop() {
        if !cone.insert(signal) {
            continue;
        }
        match &netlist.signal(signal).kind {
            SignalKind::Input => {}
            SignalKind::Wire(gate) => stack.extend(gate.inputs()),
            SignalKind::Register { next, .. } => {
                if let Some(next) = next {
                    stack.push(*next);
                }
            }
        }
    }
    cone
}

/// One refinement round: recompute every cone signal's colour from its
/// kind tag and its children's previous colours.
fn refine(netlist: &Netlist, cone: &BTreeSet<SignalId>, colors: &mut [u64]) {
    let previous = colors.to_owned();
    let of = |id: SignalId| previous[id.index()];
    for &signal in cone {
        let color = match &netlist.signal(signal).kind {
            // Inputs keep their seed: they have no structure to refine.
            SignalKind::Input => previous[signal.index()],
            SignalKind::Register { init, next } => {
                let next_color = next.map(of).unwrap_or(0);
                combine(hash_str("register"), &[*init as u64, next_color])
            }
            SignalKind::Wire(gate) => match gate {
                Gate::Const(value) => combine(hash_str("const"), &[*value as u64]),
                // A buffer is the identity: fully transparent, so inserting
                // or removing buffers cannot change the digest.
                Gate::Buf(a) => of(*a),
                Gate::Not(a) => combine(hash_str("not"), &[of(*a)]),
                Gate::And(ops) => {
                    let mut child: Vec<u64> = ops.iter().map(|&op| of(op)).collect();
                    child.sort_unstable();
                    combine(hash_str("and"), &child)
                }
                Gate::Or(ops) => {
                    let mut child: Vec<u64> = ops.iter().map(|&op| of(op)).collect();
                    child.sort_unstable();
                    combine(hash_str("or"), &child)
                }
                Gate::Xor(a, b) => {
                    let mut child = [of(*a), of(*b)];
                    child.sort_unstable();
                    combine(hash_str("xor"), &child)
                }
                Gate::Mux { sel, high, low } => {
                    combine(hash_str("mux"), &[of(*sel), of(*high), of(*low)])
                }
            },
        };
        colors[signal.index()] = color;
    }
}

/// Canonical structural digest of the cone of influence of the named
/// interface signals, as 64 hex characters.
///
/// `interface` is the set of signal names an external observer (a
/// specification, a property, a testbench) refers to — typically the `moe`
/// outputs plus the environment inputs. Names absent from the netlist are
/// folded into the digest as explicitly absent, so "implements the signal"
/// vs "leaves it to an auxiliary variable" are distinct cache keys.
///
/// Guarantees (see the module docs for the caveat on hash collisions):
///
/// * independent of internal wire/register *names* and of signal
///   *declaration order*;
/// * independent of the module name and of signals outside the cone;
/// * sensitive to gate structure, register reset values, constants and the
///   interface binding itself.
pub fn structural_digest(netlist: &Netlist, interface: &[String]) -> String {
    // Deduplicate and sort the interface: the digest must not depend on
    // how the caller ordered the names.
    let names: BTreeSet<&str> = interface.iter().map(String::as_str).collect();
    let mut bound: Vec<(&str, SignalId)> = Vec::new();
    let mut absent: Vec<&str> = Vec::new();
    for name in names {
        match netlist.find(name) {
            Some(signal) => bound.push((name, signal)),
            None => absent.push(name),
        }
    }

    let roots: Vec<SignalId> = bound.iter().map(|&(_, signal)| signal).collect();
    let cone = cone_of(netlist, &roots);

    // Seed colours: interface signals start from their (external) name so
    // that swapping two symmetric interface nets changes the digest;
    // everything else starts from a kind tag only.
    let mut colors = vec![0u64; netlist.len()];
    for &signal in &cone {
        colors[signal.index()] = match &netlist.signal(signal).kind {
            SignalKind::Input => hash_str("input"),
            SignalKind::Register { init, .. } => combine(hash_str("register"), &[*init as u64]),
            SignalKind::Wire(_) => hash_str("wire"),
        };
    }
    for &(name, signal) in &bound {
        colors[signal.index()] =
            combine(hash_str("iface"), &[hash_str(name), colors[signal.index()]]);
    }

    // Enough rounds for a colour to traverse the longest simple path in the
    // cone — registers included, since behaviour crosses them: the cone
    // size bounds that path, and two extra rounds separate near-fixpoints.
    let rounds = cone.len() + 2;
    for _ in 0..rounds {
        refine(netlist, &cone, &mut colors);
        // Re-pin the interface names after each round: refinement rebuilds
        // a bound signal's colour from pure structure, and the binding is
        // part of what the digest must witness.
        for &(name, signal) in &bound {
            colors[signal.index()] =
                combine(hash_str("iface"), &[hash_str(name), colors[signal.index()]]);
        }
    }

    let mut sha = Sha256::new();
    sha.update(b"ipcl-structural-digest-v1\n");
    for (name, signal) in &bound {
        sha.update(name.as_bytes());
        sha.update(b"=");
        sha.update(&colors[signal.index()].to_be_bytes());
        sha.update(b"\n");
    }
    for name in &absent {
        sha.update(name.as_bytes());
        sha.update(b"=absent\n");
    }
    let digest = sha.finish();
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    /// FIPS 180-4 test vectors.
    #[test]
    fn sha256_matches_reference_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Crosses one 64-byte block boundary.
        let long = "a".repeat(100);
        assert_eq!(
            sha256_hex(long.as_bytes()),
            "2816597888e4a0d3a36b82b83316ab32680eb8f00f8cd3b904d681246d285a0e"
        );
    }

    fn toggler(names: [&str; 2]) -> Netlist {
        let mut n = Netlist::new("toggler");
        let toggle = n.register(names[0], false);
        let inverted = n.not_gate(names[1], toggle);
        n.connect_register(toggle, inverted).unwrap();
        n.mark_output(toggle);
        n
    }

    #[test]
    fn digest_ignores_internal_names_and_module_name() {
        let a = toggler(["t", "t_next"]);
        let mut b = Netlist::new("другое_имя");
        let toggle = b.register("t", false);
        let inverted = b.not_gate("completely_different", toggle);
        b.connect_register(toggle, inverted).unwrap();
        b.mark_output(toggle);
        let interface = vec!["t".to_owned()];
        assert_eq!(
            structural_digest(&a, &interface),
            structural_digest(&b, &interface)
        );
    }

    #[test]
    fn digest_sees_reset_values_and_gate_structure() {
        let a = toggler(["t", "t_next"]);
        let interface = vec!["t".to_owned()];
        let base = structural_digest(&a, &interface);

        // Flipped reset value.
        let mut b = Netlist::new("toggler");
        let toggle = b.register("t", true);
        let inverted = b.not_gate("t_next", toggle);
        b.connect_register(toggle, inverted).unwrap();
        assert_ne!(structural_digest(&b, &interface), base);

        // Different gate (buffer instead of inverter = a constant flop).
        let mut c = Netlist::new("toggler");
        let toggle = c.register("t", false);
        let buffered = c.buf_gate("t_next", toggle);
        c.connect_register(toggle, buffered).unwrap();
        assert_ne!(structural_digest(&c, &interface), base);
    }

    #[test]
    fn digest_ignores_logic_outside_the_cone() {
        let mut a = toggler(["t", "t_next"]);
        let interface = vec!["t".to_owned()];
        let base = structural_digest(&a, &interface);
        // Dangling logic unrelated to the interface.
        let x = a.input("x");
        let _ = a.not_gate("unrelated", x);
        assert_eq!(structural_digest(&a, &interface), base);
    }

    #[test]
    fn digest_distinguishes_interface_bindings() {
        // Two symmetric registers; binding the interface name to one vs the
        // other must digest differently even though the graph is symmetric
        // modulo the binding.
        let build = |bind_first: bool| {
            let mut n = Netlist::new("pair");
            let r0 = n.register(if bind_first { "out" } else { "other" }, false);
            let r1 = n.register(if bind_first { "other" } else { "out" }, true);
            let n0 = n.not_gate("n0", r0);
            let n1 = n.not_gate("n1", r1);
            n.connect_register(r0, n0).unwrap();
            n.connect_register(r1, n1).unwrap();
            n
        };
        let interface = vec!["out".to_owned()];
        assert_ne!(
            structural_digest(&build(true), &interface),
            structural_digest(&build(false), &interface)
        );
    }

    #[test]
    fn digest_marks_absent_interface_signals() {
        let n = toggler(["t", "t_next"]);
        let with = structural_digest(&n, &["t".to_owned(), "missing".to_owned()]);
        let without = structural_digest(&n, &["t".to_owned()]);
        assert_ne!(with, without);
    }

    #[test]
    fn digest_is_order_invariant_in_the_interface_list() {
        let n = toggler(["t", "t_next"]);
        let ab = structural_digest(&n, &["t".to_owned(), "t_next".to_owned()]);
        let ba = structural_digest(&n, &["t_next".to_owned(), "t".to_owned()]);
        assert_eq!(ab, ba);
    }
}
