//! The host-speed gauge.
//!
//! The benchmark shares a host whose speed follows the load of other
//! guests: in a busy phase the same code runs up to 2.4 times as slow, in
//! waves of seconds to hours, and the guest records little steal time, so
//! neither wall nor CPU time tells a slower program from a slower host. The
//! gauge runs a fixed piece of the benchmark's own work between ops and
//! scales every time the benchmark reports by how long that work took around
//! the moment it was measured. A reported time is in ms at the reference
//! speed, the speed at which the gauge's work takes [`REFERENCE_MS`]. The
//! program never runs the gauge's code, so a change to the program moves its
//! own times and not the gauge's.
//!
//! The work has two parts, both in buffers the gauge owns and never
//! reallocates. Table work — SipHash map inserts and lookups like the
//! encoders', open-addressed hashing, a sort and a table walk — runs out of
//! the core's L2 cache in a few small loops; on its own it slowed only 0.7%
//! for each 1% the checker slowed. Text work — formatting numbers and
//! parsing them back — runs through a large body of branchy library code
//! and slowed 1.1% for each 1%. Weighted about one to two in time, the two
//! slow about as the checker does: over two busy stretches in which the
//! checker's speed varied 1.9-fold, its op times over the gauge's varied by
//! 3–5% (standard deviation of the log ratio), over the table work's alone
//! by 5–6%.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::Rng;

/// How long the gauge's work takes at the reference speed: about its median
/// on a 2-vCPU Sapphire Rapids KVM guest (Xeon, 2.0 GHz) in a quiet phase of
/// its host, as estimated from its parts (see the README's *Host speed*).
pub const REFERENCE_MS: f64 = 0.45;

/// The gauge samples at most this often, after an op, so its work stays a
/// small share of a run whatever the length of the ops.
const INTERVAL: Duration = Duration::from_millis(20);

/// A time is scaled by the median of this many samples, the ones nearest
/// to it: at least half a second of the host's speed on either side.
const WINDOW: usize = 51;

/// Samples taken right after set-up, before the first timed op.
const WARM_UP: usize = 16;

/// Sizes of the table work: a `HashMap` of 1,024 entries, an open-addressed
/// table of 2^13 slots (64 KiB) filled to a third, a sort of 4,096 values and
/// a walk of 8,192 steps over a 16,384-entry cycle (64 KiB).
const MAPPED: usize = 1_024;
const SLOTS: usize = 1 << 13;
const KEYS: usize = 2_500;
const SORTED: usize = 4_096;
const CYCLE: usize = 1 << 14;
const STEPS: usize = 8_192;

/// Numbers the text work formats and parses back: about twice the table
/// work's time.
const NUMBERS: usize = 800;

/// A SipHash map with fixed keys, so every process hashes alike.
type SipMap = HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>;

pub struct Gauge {
    epoch: Instant,
    map: SipMap,
    keys: Vec<u64>,
    table: Vec<u64>,
    values: Vec<u32>,
    sorted: Vec<u32>,
    cycle: Vec<u32>,
    numbers: Vec<f64>,
    text: String,
    /// When each sample started, since `epoch`, and how long it took in ms.
    samples: Vec<(Duration, f64)>,
    last: Option<Instant>,
}

impl Gauge {
    /// A gauge whose sample times count from `epoch`, the epoch of the
    /// times it scales.
    pub fn new(epoch: Instant) -> Gauge {
        let mut rng = Rng::new(0x0067_6175_6765);
        // Nonzero keys; zero marks an empty slot.
        let keys = (0..2 * KEYS).map(|_| rng.next_u64() | 1).collect();
        let values = (0..SORTED).map(|_| rng.next_u64() as u32).collect();
        let cycle = random_cycle(CYCLE, &mut rng);
        let numbers = (0..NUMBERS)
            .map(|_| (rng.next_u64() >> 11) as f64 * 1e-9)
            .collect();
        let mut map = SipMap::default();
        map.reserve(MAPPED);
        let mut gauge = Gauge {
            epoch,
            map,
            keys,
            table: vec![0; SLOTS],
            values,
            sorted: vec![0; SORTED],
            cycle,
            numbers,
            text: String::new(),
            samples: Vec::new(),
            last: None,
        };
        // The text's capacity settles in the first run.
        black_box(gauge.work());
        gauge
    }

    /// The gauge's fixed work. Table work: maps the first keys and looks up
    /// twice as many; inserts the first half of the keys into the
    /// open-addressed table and looks up all of them (half are absent);
    /// sorts the values and walks the cycle. Text work: writes every number
    /// three ways with an index and a tuple, then parses every field back as
    /// a number (about half are not).
    fn work(&mut self) -> u64 {
        self.map.clear();
        for (i, &key) in self.keys[..MAPPED].iter().enumerate() {
            self.map.insert(key, i as u32);
        }
        let mut found = 0;
        for key in &self.keys[..2 * MAPPED] {
            found += u64::from(self.map.contains_key(key));
        }
        let mask = SLOTS - 1;
        let slot = |key: u64| (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        self.table.fill(0);
        for &key in &self.keys[..KEYS] {
            let mut at = slot(key);
            while self.table[at] != 0 && self.table[at] != key {
                at = (at + 1) & mask;
            }
            self.table[at] = key;
        }
        for &key in &self.keys {
            let mut at = slot(key);
            while self.table[at] != 0 {
                if self.table[at] == key {
                    found += 1;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        self.sorted.copy_from_slice(&self.values);
        self.sorted.sort_unstable();
        let mut at = 0;
        let mut walked = 0u64;
        for _ in 0..STEPS {
            at = self.cycle[at as usize];
            walked += u64::from(at);
        }

        self.text.clear();
        for (i, &x) in self.numbers.iter().enumerate() {
            write!(
                self.text,
                "{x:e} {:.3} {} {:?};",
                x * 3.7,
                i * 7919,
                (i as u8, x.to_bits() as u16)
            )
            .expect("writing to a String cannot fail");
        }
        let mut sum = 0.0;
        for field in self.text.split([' ', ';']) {
            if let Ok(value) = field.parse::<f64>() {
                sum += value;
                found += 1;
            }
        }
        found + u64::from(self.sorted[SORTED / 2]) + walked + sum as u64
    }

    /// Runs the work twice and records how long the second run took. The
    /// first brings the gauge's code and buffers back into the cache, so
    /// that the sample reads the host's speed and not how much of the cache
    /// the program's last op took over.
    fn sample(&mut self) {
        black_box(self.work());
        let start = Instant::now();
        black_box(self.work());
        self.samples
            .push((start - self.epoch, start.elapsed().as_secs_f64() * 1e3));
        self.last = Some(start);
    }

    /// The samples that open a run, right after its set-up.
    pub fn warm_up(&mut self) {
        for _ in 0..WARM_UP {
            self.sample();
        }
    }

    /// Samples if the last sample started at least [`INTERVAL`] ago.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// The factor that turns a host time measured at `at` (since the
    /// epoch) into a time at the reference speed: [`REFERENCE_MS`] over the
    /// median of the [`WINDOW`] samples nearest to `at`.
    pub fn scale(&self, at: Duration) -> f64 {
        let next = self.samples.partition_point(|&(start, _)| start < at);
        let end = (next + WINDOW / 2).clamp(WINDOW.min(self.samples.len()), self.samples.len());
        let start = end.saturating_sub(WINDOW);
        let near: Vec<f64> = self.samples[start..end].iter().map(|&(_, ms)| ms).collect();
        if near.is_empty() {
            return 1.0;
        }
        REFERENCE_MS / crate::measure::quantile(&near, 0.5)
    }

    /// The memory the gauge's buffers hold, in MiB: it counts in the
    /// process's resident set, but it is the benchmark's, not the program's.
    pub fn resident_mb(&self) -> f64 {
        let bytes = (self.keys.len() + self.table.len() + self.numbers.len()) * 8
            + (self.values.len() + self.sorted.len() + self.cycle.len()) * 4
            + self.map.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.text.capacity();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// The median time of the gauge's work over every sample, in host ms.
    pub fn median_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        if all.is_empty() {
            return 0.0;
        }
        crate::measure::quantile(&all, 0.5)
    }
}

/// A table of `len` entries that links every index into one cycle in a
/// random order: following it from any entry visits every entry once.
/// Sattolo's shuffle builds it in place.
fn random_cycle(len: usize, rng: &mut Rng) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        next.swap(i, rng.below(i));
    }
    next
}
