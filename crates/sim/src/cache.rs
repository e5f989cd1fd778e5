//! Set-associative LRU caches.

/// A set-associative cache with true-LRU replacement, modelling hits and
/// misses (contents are irrelevant: the emulator supplies values).
///
/// The tags live in one flat `n_sets × assoc` array, set-major, each set
/// ordered MRU first. A way holds `tag + 1`, so 0 marks an empty way and
/// a new cache is a single zeroed allocation. A hit rotates the ways in
/// front of it down by one and moves the tag to the front; a miss
/// rotates the whole set (the LRU or an empty way falls off the end) and
/// writes the new tag at the front.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `bytes` capacity, `assoc` ways and `line` bytes
    /// per line.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two, the capacity is
    /// smaller than one set, or a one-byte line in a one-set cache would
    /// leave no address bits to drop from the tag.
    pub fn new(bytes: u32, assoc: u32, line: u32) -> Cache {
        assert!(line.is_power_of_two() && bytes.is_multiple_of(line * assoc));
        let n_sets = (bytes / (line * assoc)) as usize;
        assert!(n_sets.is_power_of_two() && n_sets > 0);
        assert!(line > 1 || n_sets > 1, "tag + 1 must not overflow");
        Cache {
            ways: vec![0; n_sets * assoc as usize],
            assoc: assoc as usize,
            line_shift: line.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            tag_shift: n_sets.trailing_zeros(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses install the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let key = (line >> self.tag_shift) + 1;
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == key) {
            ways[..=pos].rotate_right(1);
            true
        } else {
            self.misses += 1;
            ways.rotate_right(1);
            ways[0] = key;
            false
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Miss rate over all accesses so far (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{Rng, VecCache};

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(1024, 2, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31));
        assert!(!c.access(32));
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, line 32, sets = 1024/(32*2) = 16 → addresses 0, 512, 1024
        // map to the same set (stride 16 lines * 32B = 512).
        let mut c = Cache::new(1024, 2, 32);
        c.access(0);
        c.access(512);
        assert!(c.access(0), "still resident");
        c.access(1024); // evicts 512 (LRU)
        assert!(c.access(0));
        assert!(!c.access(512), "512 was evicted");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(1024, 2, 32);
        for i in 0..16u64 {
            assert!(!c.access(i * 32));
        }
        for i in 0..16u64 {
            assert!(c.access(i * 32), "line {i} resident");
        }
    }

    #[test]
    fn miss_rate() {
        let mut c = Cache::new(1024, 2, 32);
        c.access(0);
        c.access(0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn address_zero_is_not_an_empty_way() {
        let mut c = Cache::new(64, 1, 32);
        assert!(!c.access(0), "a cold cache misses on tag 0");
        assert!(c.access(0));
    }

    /// The flat cache against the `Vec<Vec>` MRU-list reference over
    /// seeded address streams: the same hit/miss on every access. The
    /// streams mix a hot working set (hits, LRU reordering) with a wide
    /// random range (conflicts, evictions) and the top of the address
    /// space (the largest tags).
    #[test]
    fn matches_the_mru_list_reference() {
        let table2 = [(64 * 1024, 2, 32), (64 * 1024, 2, 32), (256 * 1024, 4, 64)];
        let small = [(512, 1, 32), (1024, 2, 32), (2048, 4, 64), (4096, 4, 16)];
        for (g, &(bytes, assoc, line)) in table2.iter().chain(&small).enumerate() {
            for seed in 0..4u64 {
                let mut rng = Rng::new(seed * 131 + g as u64);
                let mut flat = Cache::new(bytes, assoc, line);
                let mut reference = VecCache::new(bytes, assoc, line);
                let span = 4 * bytes as u64;
                for step in 0..20_000 {
                    let addr = match rng.below(8) {
                        0..=3 => rng.below(bytes as u64 / 2),
                        4..=6 => rng.below(span),
                        _ => u64::MAX - rng.below(span),
                    };
                    assert_eq!(
                        flat.access(addr),
                        reference.access(addr),
                        "{bytes}B/{assoc}-way/{line}B seed {seed} step {step} addr {addr:#x}"
                    );
                }
                assert_eq!((flat.accesses, flat.misses), (reference.accesses, reference.misses));
            }
        }
    }
}
