//! Uniquely keyed measurement records.
//!
//! Every record is keyed by workload, seed, the fingerprint of the
//! `CaptiveConfig` that produced it, image and pass.  Inserting a key twice
//! is refused: two records under one key are the bug class where one label
//! silently names two different configurations.

use captive::CaptiveConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a of the configuration's full `Debug` rendering: any knob that
/// differs gives a different fingerprint.
pub fn config_fingerprint(cfg: &CaptiveConfig) -> u64 {
    dbt::fnv1a(format!("{cfg:?}").as_bytes())
}

/// Identity of one record.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecordKey {
    /// Workload name.
    pub workload: &'static str,
    /// The run's seed.
    pub seed: u64,
    /// [`config_fingerprint`] of the engine configuration.
    pub config: u64,
    /// Image name (unique within a pass).
    pub image: String,
    /// Pass number within the run.
    pub pass: usize,
}

/// Measured values of one image run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Modeled cycles.
    pub cycles: u64,
    /// Host wall-clock milliseconds from engine construction to halt.
    pub wall_ms: f64,
    /// Whether the run matched the reference.
    pub ok: bool,
}

/// A set of records that refuses duplicate keys.
#[derive(Debug, Default)]
pub struct RecordSet {
    records: BTreeMap<RecordKey, Record>,
}

impl RecordSet {
    /// Adds a record; refuses a key that is already present.
    pub fn insert(&mut self, key: RecordKey, record: Record) -> Result<(), String> {
        if self.records.contains_key(&key) {
            return Err(format!("duplicate record key {key:?}"));
        }
        self.records.insert(key, record);
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record was inserted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a JSON array, in key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (k, r)) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"workload\": \"{}\", \"seed\": {}, \"config\": \"{:016x}\", \"image\": \"{}\", \"pass\": {}, \"cycles\": {}, \"wall_ms\": {}, \"ok\": {}}}{sep}",
                k.workload, k.seed, k.config, k.image, k.pass, r.cycles, r.wall_ms, r.ok
            );
        }
        out.push(']');
        out
    }
}
