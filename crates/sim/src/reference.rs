//! Test-only reference models: the simulator's structures as they were
//! first written, kept as oracles for the flat, masked versions the
//! pipeline runs. Each is the obvious implementation — an MRU-ordered
//! `Vec` per set, a stack with `remove(0)` on overflow, a ring indexed
//! by `%` with a `u64::MAX` "never reserved" sentinel — so the
//! differential tests next to each fast structure compare it against
//! code whose correctness is evident by reading.

/// A set-associative true-LRU cache as one MRU-first tag list per set.
pub struct VecCache {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    pub accesses: u64,
    pub misses: u64,
}

impl VecCache {
    pub fn new(bytes: u32, assoc: u32, line: u32) -> VecCache {
        let n_sets = (bytes / (line * assoc)) as usize;
        VecCache {
            sets: vec![Vec::with_capacity(assoc as usize); n_sets],
            assoc: assoc as usize,
            line_shift: line.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            accesses: 0,
            misses: 0,
        }
    }

    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            self.misses += 1;
            if ways.len() == self.assoc {
                ways.pop();
            }
            ways.insert(0, tag);
            false
        }
    }
}

/// The branch target buffer: 512 sets × 4 ways of (tag, target), one
/// MRU-first list per set.
pub struct VecBtb {
    sets: Vec<Vec<(u64, u64)>>,
}

impl VecBtb {
    pub fn new() -> VecBtb {
        VecBtb { sets: vec![Vec::new(); 512] }
    }

    /// True when the BTB held `pc` with this `target`; installs it.
    pub fn lookup_update(&mut self, pc: u64, target: u64) -> bool {
        let set = ((pc >> 3) as usize) & (self.sets.len() - 1);
        let tag = pc >> 12;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            let (_, old_target) = ways.remove(pos);
            ways.insert(0, (tag, target));
            old_target == target
        } else {
            if ways.len() == 4 {
                ways.pop();
            }
            ways.insert(0, (tag, target));
            false
        }
    }
}

/// The return-address stack as a `Vec` that drops its oldest entry on
/// overflow.
pub struct VecRas {
    stack: Vec<u64>,
    depth: usize,
}

impl VecRas {
    pub fn new(depth: usize) -> VecRas {
        VecRas { stack: Vec::new(), depth }
    }

    pub fn push(&mut self, ret: u64) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(ret);
    }

    pub fn pop_matches(&mut self, actual: u64) -> bool {
        self.stack.pop() == Some(actual)
    }
}

/// A per-cycle bandwidth ring of `(cycle, used)` slots indexed by
/// `cycle % len`, with `u64::MAX` marking a slot never reserved.
pub struct ModRing {
    slots: Vec<(u64, u8)>,
}

impl ModRing {
    pub fn new(len: usize) -> ModRing {
        ModRing { slots: vec![(u64::MAX, 0); len] }
    }

    pub fn reserve(&mut self, mut cycle: u64, cap: u8) -> u64 {
        loop {
            let n = self.slots.len() as u64;
            let s = &mut self.slots[(cycle % n) as usize];
            if s.0 != cycle {
                *s = (cycle, 0);
            }
            if s.1 < cap {
                s.1 += 1;
                return cycle;
            }
            cycle += 1;
        }
    }
}

/// SplitMix64: a seeded stream for the differential tests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
