//! The run-statistics record both engines report.
//!
//! [`RunStats`] is the one place a run counter is declared: each scalar is
//! a plain `pub u64` field, and its field name is also its registry name in
//! [`RunStats::counters`], the list the `figures` JSON records and the
//! determinism tests are built from.  A new counter is one field line here
//! plus the line that fills it.

use dbt::{RuleKind, RULE_COUNT};
use hvm::VirtioBlk;

/// Declares the [`RunStats`] fields and the name list that mirrors them.
/// `counters` are modeled (deterministic per run); `wall` are host
/// wall-clock readings, the only fields two identical runs may disagree on.
macro_rules! run_stats {
    (
        counters { $($(#[$cmeta:meta])* $counter:ident,)* }
        wall { $($(#[$wmeta:meta])* $wall:ident,)* }
    ) => {
        /// Aggregate statistics of a run, for Captive and the QEMU-style
        /// baseline alike (a counter an engine has no mechanism for stays 0).
        ///
        /// Concurrency audit: every field here is owned and written by the
        /// run thread only — tier-1 workers report through
        /// [`crate::tier::FormationResult`] messages and never touch shared
        /// counters — so plain `u64`s are sound.  The shared-state counters
        /// (code-cache lookups, evictions, epochs) live in
        /// [`dbt::CodeCache`] as atomics and are *sampled* into this struct
        /// by [`crate::Captive::stats`].
        #[derive(Debug, Clone, Default)]
        pub struct RunStats {
            $($(#[$cmeta])* pub $counter: u64,)*
            $($(#[$wmeta])* pub $wall: u64,)*
            /// Per-rule idiom rewrites applied, indexed by
            /// [`RuleKind::index`] (static).
            pub idiom_hits: [u64; RULE_COUNT],
            /// Per-rule idiom candidate sites — matched and proven sound
            /// whether or not the rule was enabled; the rule miner's input
            /// (static).
            pub idiom_candidates: [u64; RULE_COUNT],
        }

        impl RunStats {
            /// Registry names of the wall-clock fields: excluded from every
            /// determinism comparison.
            pub const WALL: &'static [&'static str] = &[$(stringify!($wall)),*];

            /// Every counter as `(name, value)`, in field order, followed by
            /// the per-rule `idiom.hit.<rule>` and `idiom.cand.<rule>`
            /// entries.  Names use only `[a-z0-9._]`.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                let mut out = vec![
                    $((stringify!($counter), self.$counter),)*
                    $((stringify!($wall), self.$wall),)*
                ];
                let per_rule = [&self.idiom_hits, &self.idiom_candidates];
                for (slot, values) in per_rule.into_iter().enumerate() {
                    out.extend(
                        RuleKind::ALL
                            .iter()
                            .map(|k| (k.counter_names()[slot], values[k.index()])),
                    );
                }
                out
            }
        }
    };
}

run_stats! {
    counters {
        /// Simulated host cycles consumed by guest execution.
        cycles,
        /// Host instructions executed.
        host_insns,
        /// Guest instructions attributed (blocks entered × block length).
        guest_insns,
        /// Blocks executed (chained and dispatched).
        blocks,
        /// Translations performed.
        translations,
        /// Guest exceptions delivered (synchronous + asynchronous).
        guest_exceptions,
        /// Bytes of host code generated.
        code_bytes,
        /// Blocks entered through the dispatcher slow path (page resolution +
        /// cache lookup + EL read).
        slow_dispatches,
        /// Control transfers that followed a patched chain link, bypassing
        /// the dispatcher.
        chained_transfers,
        /// Cross-page chained transfers (baseline with `goto_tb` only; subset
        /// of `chained_transfers`).
        goto_tb_transfers,
        /// Successor links patched (lazy chain resolutions).
        chain_patches,
        /// Fetch-side iTLB hits (instruction fetches resolved without a guest
        /// page-table walk).
        itlb_hits,
        /// Fetch-side iTLB misses.
        itlb_misses,
        /// Data-side gTLB hits (host data faults whose guest walk was
        /// answered from the cache).
        dtlb_hits,
        /// Data-side gTLB misses (host data faults that walked guest tables).
        dtlb_misses,
        /// Intra-region constituent transfers: stitched block boundaries
        /// crossed without an interpreter entry (each would have been a
        /// chained transfer under chaining alone).
        region_transfers,
        /// Multi-constituent regions formed from hot chain paths.
        regions_formed,
        /// Regions formed by unrolling a loop body — single- or multi-block
        /// (subset of `regions_formed`).
        regions_unrolled,
        /// Regions whose loop closed as a region-internal back-edge (subset
        /// of `regions_formed`): these iterate inside translated code.
        loop_regions_formed,
        /// Back-edge transfers taken: loop trips that stayed inside one
        /// region (each would have been at least a chained transfer, usually
        /// several, without looping regions).
        backedge_transfers,
        /// Interpreter entries that executed a multi-constituent region
        /// (subset of `blocks`).
        region_entries,
        /// Stale-generation regions evicted by the context-generation sweep.
        regions_evicted,
        /// Regfile stores deleted by the LIR optimiser across all
        /// translations (static count).
        opt_dead_stores,
        /// Regfile loads the optimiser rewrote into register moves (static).
        opt_forwarded_loads,
        /// Partial-width forwards (subset of `opt_forwarded_loads`): 32-bit
        /// loads satisfied by the low half of a 64-bit store (static).
        opt_partial_forwarded,
        /// Register-copy uses folded by the optimiser's copy propagation
        /// (static).
        opt_copies_folded,
        /// LIR instructions marked dead by the allocator's iterative DCE
        /// (static).
        opt_dce_insns,
        /// Register-file slots promoted to loop-carried host registers
        /// (static).
        opt_promoted_slots,
        /// In-loop regfile loads satisfied from a carrier register instead of
        /// a memory round-trip (static).
        opt_hoisted_loads,
        /// Vector (XMM) regfile loads forwarded from earlier vector values,
        /// including cross-file GPR↔XMM transfers (static).
        opt_fp_forwarded,
        /// Guest-idiom rewrites applied across all translations (static
        /// total over every rule; see [`dbt::idiom`]).
        opt_idioms_fused,
        /// Dynamic host instructions saved: per block entry, the LIR
        /// instructions eliminated from that translation before encoding.
        elided_dyn_insns,
        /// Asynchronous IRQs delivered (subset of `guest_exceptions`).
        irqs_delivered,
        /// Timer-originated IRQs delivered (subset of `irqs_delivered`).
        timer_irqs,
        /// Regions evicted because the cache hit its capacity bound.
        capacity_evictions,
        /// Encoded bytes currently resident in the code cache.
        bytes_live,
        /// Regions currently resident in the code cache.
        regions_live,
        /// Region-formation attempts that produced no multi-constituent
        /// region (trace too short, or translation bailed out).
        formation_failures,
        /// Trace heads permanently quarantined after repeated formation
        /// failures (no further attempts are made for them).
        regions_quarantined,
        /// Translations abandoned by the typed lowering-error fallback.
        lower_bailouts,
        /// Tier-1 formation requests published to the background service.
        tier1_requests,
        /// Regions formed by a background worker and installed after
        /// revalidation (subset of `regions_formed`).
        regions_installed_async,
        /// Worker-formed regions discarded at the install gate: formed
        /// against a stale context generation or a since-patched page.
        stale_discards,
        /// Regions installed from the content-keyed reuse cache without any
        /// formation work (subset of `regions_formed`).
        reuse_hits,
        /// Reuse-cache lookups that found no validated template.
        reuse_misses,
        /// Virtio queue notifications (`msr VblkNotify`) the device received.
        virtio_kicks,
        /// Virtio requests submitted (available-ring entries consumed).
        virtio_submissions,
        /// Virtio completions retired (used-ring entries written).
        virtio_completions,
        /// IRQs the virtio device raised on its latch line.
        virtio_irqs,
        /// Requests whose seeded fault decision was not `None`.
        virtio_fault_injections,
        /// Bytes DMA'd into guest memory through the external-store path.
        virtio_dma_bytes,
        /// Completions retired with a non-OK status (typed device errors).
        virtio_io_errors,
        /// Device DMA stores that landed on translated code: per-page
        /// invalidations of live translations in Captive, full-cache flushes
        /// in the virtually-indexed baseline.
        external_invalidations,
    }
    wall {
        /// JIT wall-clock the run thread blocked on, in nanoseconds: tier-0
        /// translation, snapshot capture, waits for in-flight results, and
        /// inline formation (wall time, NOT modeled cycles).
        jit_wall_ns,
        /// Wall-clock spent inside tier-1 workers, in nanoseconds (runs
        /// hidden behind tier-0 execution).
        tier_worker_wall_ns,
        /// Nanoseconds from engine construction to the first gated-region
        /// install (0 when none was installed).
        first_region_install_ns,
    }
}

impl RunStats {
    /// [`RunStats::counters`] minus the [`RunStats::WALL`] set: every entry
    /// that must repeat exactly when one configuration reruns one guest.
    pub fn modeled_counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.counters();
        out.retain(|(name, _)| !Self::WALL.contains(name));
        out
    }

    /// Samples the virtio device's counters (when one is attached) and the
    /// engine's count of device-originated code invalidations.
    pub fn sample_virtio(&mut self, dev: Option<&VirtioBlk>, external_invalidations: u64) {
        if let Some(dev) = dev {
            self.virtio_kicks = dev.stats.kicks;
            self.virtio_submissions = dev.stats.submissions;
            self.virtio_completions = dev.stats.completions;
            self.virtio_irqs = dev.stats.irqs_raised;
            self.virtio_fault_injections = dev.stats.fault_injections;
            self.virtio_dma_bytes = dev.stats.dma_bytes;
            self.virtio_io_errors = dev.stats.io_errors;
        }
        self.external_invalidations = external_invalidations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_plain_and_wall_is_the_ns_fields() {
        let names: Vec<&str> = RunStats::default()
            .counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate counter name");
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_'
                    }),
                "{n:?} needs escaping"
            );
        }
        let ns: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| n.ends_with("_ns"))
            .collect();
        assert_eq!(
            ns,
            [
                "jit_wall_ns",
                "tier_worker_wall_ns",
                "first_region_install_ns"
            ]
        );
        assert_eq!(RunStats::WALL, &ns[..]);
        assert_eq!(
            RunStats::default().modeled_counters().len(),
            names.len() - RunStats::WALL.len()
        );
    }

    #[test]
    fn counters_read_the_fields_they_name() {
        let mut s = RunStats {
            slow_dispatches: 7,
            jit_wall_ns: 9,
            ..RunStats::default()
        };
        s.idiom_candidates[RuleKind::FuseCbz.index()] = 3;
        let c = s.counters();
        let get = |name: &str| c.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        assert_eq!(get("slow_dispatches"), Some(7));
        assert_eq!(get("jit_wall_ns"), Some(9));
        assert_eq!(get("idiom.cand.fuse.cbz"), Some(3));
        assert_eq!(get("idiom.hit.fuse.cbz"), Some(0));
        assert!(!s
            .modeled_counters()
            .iter()
            .any(|(n, _)| *n == "jit_wall_ns"));
    }
}
