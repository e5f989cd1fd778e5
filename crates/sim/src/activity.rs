//! Per-structure activity accounting with per-scheme active byte lanes.
//!
//! Every access to a value-carrying structure is recorded with the
//! software (opcode) width and the dynamic significance of the value; the
//! active byte lanes under each gating scheme are accumulated so the
//! power model can price any scheme from one simulation run.

use og_json::{FromJson, Json, ToJson};
use serde::{Deserialize, Serialize};

/// The data-path structures the paper reports energy for (Figures 3, 9
/// and 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Structure {
    /// Rename map table.
    Rename,
    /// Branch predictor.
    BranchPred,
    /// Instruction (issue) queue.
    InstQueue,
    /// Reorder buffer.
    Rob,
    /// Rename (result) buffers — values awaiting commit.
    RenameBufs,
    /// Load/store queue.
    Lsq,
    /// Architectural register file.
    RegFile,
    /// L1 instruction cache.
    ICache,
    /// L1 data cache.
    DCacheL1,
    /// Unified L2 cache.
    DCacheL2,
    /// Functional units.
    Fu,
    /// Result (bypass) buses.
    ResultBus,
}

impl Structure {
    /// All structures, in the paper's Figure 9 order.
    pub const ALL: [Structure; 12] = [
        Structure::Rename,
        Structure::BranchPred,
        Structure::InstQueue,
        Structure::Rob,
        Structure::RenameBufs,
        Structure::Lsq,
        Structure::RegFile,
        Structure::ICache,
        Structure::DCacheL1,
        Structure::DCacheL2,
        Structure::Fu,
        Structure::ResultBus,
    ];

    /// Display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            Structure::Rename => "Rename",
            Structure::BranchPred => "Branch Pred",
            Structure::InstQueue => "Instruction Queue",
            Structure::Rob => "ROB",
            Structure::RenameBufs => "Rename Buffers",
            Structure::Lsq => "LSQ",
            Structure::RegFile => "Register File",
            Structure::ICache => "I-cache",
            Structure::DCacheL1 => "D-cache (L1)",
            Structure::DCacheL2 => "D-cache (L2)",
            Structure::Fu => "FU",
            Structure::ResultBus => "Result bus",
        }
    }

    /// Dense index.
    pub const fn index(self) -> usize {
        match self {
            Structure::Rename => 0,
            Structure::BranchPred => 1,
            Structure::InstQueue => 2,
            Structure::Rob => 3,
            Structure::RenameBufs => 4,
            Structure::Lsq => 5,
            Structure::RegFile => 6,
            Structure::ICache => 7,
            Structure::DCacheL1 => 8,
            Structure::DCacheL2 => 9,
            Structure::Fu => 10,
            Structure::ResultBus => 11,
        }
    }

    /// Can this structure gate byte lanes by operand width? (Structures
    /// that only handle instruction bookkeeping or addresses cannot —
    /// §4.4: rename logic, branch prediction and the instruction caches
    /// are unaffected by operand gating.)
    pub const fn width_gateable(self) -> bool {
        matches!(
            self,
            Structure::InstQueue
                | Structure::RenameBufs
                | Structure::Lsq
                | Structure::RegFile
                | Structure::DCacheL1
                | Structure::Fu
                | Structure::ResultBus
        )
    }
}

/// Accumulated active-byte counts under each gating scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeBytes {
    /// No gating: full 8-byte lanes.
    pub none: u64,
    /// Software operand gating (opcode widths).
    pub software: u64,
    /// Hardware significance compression (exact byte count, 7 tag bits).
    pub hw_significance: u64,
    /// Hardware size compression ({1,2,5,8} bytes, 2 tag bits).
    pub hw_size: u64,
    /// Cooperative software+hardware (§4.7).
    pub cooperative: u64,
}

/// Round a byte count up to the {1, 2, 5, 8} size-compression classes
/// (§4.6: the 5-byte class covers the 33..40-bit addresses of Figure 12).
pub fn round_size_class(bytes: u8) -> u8 {
    match bytes {
        0 | 1 => 1,
        2 => 2,
        3..=5 => 5,
        _ => 8,
    }
}

/// One structure's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructActivity {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that carry a tagged data value (tag-bit overhead applies
    /// to these under the hardware schemes).
    pub value_accesses: u64,
    /// Active byte lanes per scheme, summed over value accesses.
    pub bytes: SchemeBytes,
}

/// Activity counts for the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityCounts {
    structs: [StructActivity; 12],
}

impl ActivityCounts {
    /// A zeroed activity record.
    pub fn new() -> ActivityCounts {
        ActivityCounts::default()
    }

    /// Record a bookkeeping access that carries no gateable data value
    /// (rename map lookup, predictor access, ROB entry, tag match…).
    pub fn record_plain(&mut self, s: Structure) {
        self.structs[s.index()].accesses += 1;
    }

    /// Record an access that moves a data value: `sw_bytes` is the opcode
    /// width after the software passes, `sig_bytes` the dynamic
    /// significance of the value (1..=8).
    pub fn record_value(&mut self, s: Structure, sw_bytes: u8, sig_bytes: u8) {
        self.record_values(s, sw_bytes, sig_bytes, 1);
    }

    /// Record `n` value accesses that share one (`sw_bytes`,
    /// `sig_bytes`) pair — the same totals as `n` calls of
    /// [`record_value`](ActivityCounts::record_value).
    pub fn record_values(&mut self, s: Structure, sw_bytes: u8, sig_bytes: u8, n: u64) {
        let a = &mut self.structs[s.index()];
        a.accesses += n;
        a.value_accesses += n;
        let sw = sw_bytes.clamp(1, 8);
        let sig = sig_bytes.clamp(1, 8);
        a.bytes.none += 8 * n;
        a.bytes.software += sw as u64 * n;
        a.bytes.hw_significance += sig as u64 * n;
        a.bytes.hw_size += round_size_class(sig) as u64 * n;
        a.bytes.cooperative += round_size_class(sig).min(sw) as u64 * n;
    }

    /// The activity of one structure.
    pub fn of(&self, s: Structure) -> &StructActivity {
        &self.structs[s.index()]
    }

    /// Merge another activity record into this one.
    pub fn merge(&mut self, other: &ActivityCounts) {
        for i in 0..self.structs.len() {
            let (a, b) = (&mut self.structs[i], &other.structs[i]);
            a.accesses += b.accesses;
            a.value_accesses += b.value_accesses;
            a.bytes.none += b.bytes.none;
            a.bytes.software += b.bytes.software;
            a.bytes.hw_significance += b.bytes.hw_significance;
            a.bytes.hw_size += b.bytes.hw_size;
            a.bytes.cooperative += b.bytes.cooperative;
        }
    }
}

impl ToJson for SchemeBytes {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("none".into(), self.none.to_json()),
            ("software".into(), self.software.to_json()),
            ("hw_significance".into(), self.hw_significance.to_json()),
            ("hw_size".into(), self.hw_size.to_json()),
            ("cooperative".into(), self.cooperative.to_json()),
        ])
    }
}

impl FromJson for SchemeBytes {
    fn from_json(json: &Json) -> Result<SchemeBytes, og_json::Error> {
        Ok(SchemeBytes {
            none: json.field("none")?,
            software: json.field("software")?,
            hw_significance: json.field("hw_significance")?,
            hw_size: json.field("hw_size")?,
            cooperative: json.field("cooperative")?,
        })
    }
}

impl ToJson for StructActivity {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("accesses".into(), self.accesses.to_json()),
            ("value_accesses".into(), self.value_accesses.to_json()),
            ("bytes".into(), self.bytes.to_json()),
        ])
    }
}

impl FromJson for StructActivity {
    fn from_json(json: &Json) -> Result<StructActivity, og_json::Error> {
        Ok(StructActivity {
            accesses: json.field("accesses")?,
            value_accesses: json.field("value_accesses")?,
            bytes: json.field("bytes")?,
        })
    }
}

/// Encoded as the bare 12-element array, indexed in [`Structure::ALL`]
/// order.
impl ToJson for ActivityCounts {
    fn to_json(&self) -> Json {
        self.structs.to_json()
    }
}

impl FromJson for ActivityCounts {
    fn from_json(json: &Json) -> Result<ActivityCounts, og_json::Error> {
        Ok(ActivityCounts { structs: FromJson::from_json(json)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_match_section_4_6() {
        assert_eq!(round_size_class(1), 1);
        assert_eq!(round_size_class(2), 2);
        assert_eq!(round_size_class(3), 5);
        assert_eq!(round_size_class(4), 5);
        assert_eq!(round_size_class(5), 5);
        assert_eq!(round_size_class(6), 8);
        assert_eq!(round_size_class(8), 8);
    }

    #[test]
    fn value_access_accumulates_all_schemes() {
        let mut a = ActivityCounts::new();
        a.record_value(Structure::RegFile, 4, 3);
        let s = a.of(Structure::RegFile);
        assert_eq!(s.accesses, 1);
        assert_eq!(s.value_accesses, 1);
        assert_eq!(s.bytes.none, 8);
        assert_eq!(s.bytes.software, 4);
        assert_eq!(s.bytes.hw_significance, 3);
        assert_eq!(s.bytes.hw_size, 5);
        assert_eq!(s.bytes.cooperative, 4, "min(sw=4, size=5)");
    }

    #[test]
    fn plain_access_has_no_value_bytes() {
        let mut a = ActivityCounts::new();
        a.record_plain(Structure::Rename);
        assert_eq!(a.of(Structure::Rename).accesses, 1);
        assert_eq!(a.of(Structure::Rename).value_accesses, 0);
        assert_eq!(a.of(Structure::Rename).bytes.software, 0);
    }

    #[test]
    fn merge_adds() {
        let mut a = ActivityCounts::new();
        a.record_value(Structure::Fu, 8, 8);
        let mut b = ActivityCounts::new();
        b.record_value(Structure::Fu, 1, 1);
        a.merge(&b);
        assert_eq!(a.of(Structure::Fu).accesses, 2);
        assert_eq!(a.of(Structure::Fu).bytes.software, 9);
    }

    #[test]
    fn gateable_classification() {
        assert!(Structure::Fu.width_gateable());
        assert!(Structure::RegFile.width_gateable());
        assert!(!Structure::Rename.width_gateable());
        assert!(!Structure::ICache.width_gateable());
        assert!(!Structure::BranchPred.width_gateable());
    }
}
