//! Benchmark harness shared by the Criterion benches, the `figures` binary
//! and the examples: loads a guest program into Captive or the QEMU-style
//! baseline, runs it to completion, and reports simulated-cycle statistics.

use captive::{Captive, CaptiveConfig, FpMode, RunExit, RunStats};
use qemu_ref::QemuRef;
use workloads::Workload;

pub mod chaos;

/// Maximum dispatched blocks per run (safety net against guest hangs).
pub const BLOCK_BUDGET: u64 = 200_000_000;

/// Runs a workload under Captive (hardware FP, chaining on).
pub fn run_captive(w: &Workload) -> RunStats {
    run_captive_with(w, FpMode::Hardware, false)
}

/// Runs a workload under Captive with explicit FP mode / per-block stats.
pub fn run_captive_with(w: &Workload, fp: FpMode, per_block: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            fp_mode: fp,
            per_block_stats: per_block,
            ..CaptiveConfig::default()
        },
    )
}

/// Runs a workload under Captive with chaining forced on or off.
///
/// Region formation is pinned off: this entry point measures *chaining
/// alone*, and the chaining-gap equality checks (tests and `figures --
/// chaining`) pin chain-only cycle accounting.
pub fn run_captive_chaining(w: &Workload, chaining: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            chaining,
            form_regions: false,
            ..CaptiveConfig::default()
        },
    )
}

/// Runs a workload under Captive with the tiered translation service forced
/// on or off (everything else default).  Modeled cycles are identical either
/// way; the wall-clock fields (`jit_wall_ns`, `tier_worker_wall_ns`) are what
/// differ — this is the `figures -- tiers` comparison pair.
pub fn run_captive_tiered(w: &Workload, tiered: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            tiered,
            ..CaptiveConfig::default()
        },
    )
}

/// Same as [`run_captive_tiered`] with a shared content-keyed reuse cache,
/// for repeated-image sweeps where later runs should hit templates published
/// by earlier ones.
pub fn run_captive_tiered_reuse(w: &Workload, reuse: &std::sync::Arc<dbt::ReuseCache>) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            tiered: true,
            reuse_cache: Some(std::sync::Arc::clone(reuse)),
            ..CaptiveConfig::default()
        },
    )
}

/// The base configuration of the single-knob ablation entry points below:
/// the default engine in pump mode (`tier_workers: 0`), so each ablation
/// measures the default formation schedule — requests published at half
/// the threshold, collected at the threshold — single-threaded and
/// deterministic.
fn ablation_base() -> CaptiveConfig {
    CaptiveConfig {
        tier_workers: 0,
        ..CaptiveConfig::default()
    }
}

/// Runs a workload under Captive with the LIR optimiser forced on or off
/// (everything else default: chaining and regions on).
pub fn run_captive_opt(w: &Workload, opt: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            opt,
            ..ablation_base()
        },
    )
}

/// Runs a workload under Captive with chaining plus region formation.
pub fn run_captive_regions(w: &Workload) -> RunStats {
    run_captive_cfg(w, ablation_base())
}

/// Runs a workload under Captive with looping regions (chaining, region
/// formation and unrolling on) and loop promotion pinned OFF, so this entry
/// point isolates the back-edge-closing machinery; the promotion comparison
/// lives in [`run_captive_promote`].
pub fn run_captive_loops(w: &Workload) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            promote: false,
            ..ablation_base()
        },
    )
}

/// Runs a workload under Captive with loop-carried register promotion forced
/// on or off; everything else default (chaining, regions, looping regions and
/// unrolling on) — the `figures -- promote` comparison pair.
pub fn run_captive_promote(w: &Workload, promote: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            promote,
            ..ablation_base()
        },
    )
}

/// Runs a workload under Captive with the guest-idiom layer forced on or
/// off (everything else default) — the `figures -- idioms` comparison pair.
pub fn run_captive_idioms(w: &Workload, idioms: bool) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            idioms,
            ..ablation_base()
        },
    )
}

/// The profile-mined idiom flow: one observe-only pass (candidates counted,
/// nothing rewritten), mine a [`dbt::RuleTable`] from the hot-region
/// profiles, then re-run with the mined table applied.  Returns
/// `(observe, mined, table)`.
pub fn run_captive_idioms_mined(w: &Workload) -> (RunStats, RunStats, dbt::RuleTable) {
    let mut observer = Captive::new(ablation_base());
    observer.set_idiom_rules(dbt::RuleTable::observe_only());
    let observe = drive_captive(w, &mut observer);
    let table = observer.mine_idiom_rules();
    let mut miner = Captive::new(ablation_base());
    miner.set_idiom_rules(table.clone());
    let mined = drive_captive(w, &mut miner);
    (observe, mined, table)
}

/// Runs a workload under Captive with a fully explicit configuration.
pub fn run_captive_cfg(w: &Workload, cfg: CaptiveConfig) -> RunStats {
    let mut c = Captive::new(cfg);
    drive_captive(w, &mut c)
}

/// Loads, runs to the halt and returns the statistics of an already
/// constructed engine (so callers can pre-seat a rule table or inspect the
/// engine afterwards).
pub fn drive_captive(w: &Workload, c: &mut Captive) -> RunStats {
    c.load_program(workloads::CODE_BASE, &w.words);
    c.set_entry(w.entry);
    let exit = c.run(BLOCK_BUDGET);
    assert!(
        matches!(exit, RunExit::GuestHalted { .. }),
        "{}: unexpected exit {exit:?}",
        w.name
    );
    c.stats()
}

/// Runs a workload under the QEMU-style baseline (no chaining).
pub fn run_qemu(w: &Workload) -> RunStats {
    run_qemu_chaining(w, false)
}

/// Runs a workload under the QEMU-style baseline with same-page chaining
/// configured explicitly (the tightened baseline of real QEMU).
pub fn run_qemu_chaining(w: &Workload, chaining: bool) -> RunStats {
    drive_qemu(w, &mut QemuRef::with_chaining(32 * 1024 * 1024, chaining))
}

/// Runs a workload under the strongest honest baseline: same-page chaining
/// plus TCG-style `goto_tb` cross-page linking.  The `figures -- promote`
/// headline speedups are measured against this configuration.
pub fn run_qemu_goto_tb(w: &Workload) -> RunStats {
    drive_qemu(w, &mut QemuRef::with_goto_tb(32 * 1024 * 1024))
}

/// The baseline counterpart of [`drive_captive`].
pub fn drive_qemu(w: &Workload, q: &mut QemuRef) -> RunStats {
    q.load_program(workloads::CODE_BASE, &w.words);
    q.set_entry(w.entry);
    let exit = q.run(BLOCK_BUDGET);
    assert!(
        matches!(exit, qemu_ref::RunExit::GuestHalted { .. }),
        "{}: unexpected exit {exit:?}",
        w.name
    );
    q.stats()
}

/// Runs a workload under Captive with a virtio-blk device attached on top
/// of an arbitrary engine configuration.
pub fn run_captive_io(w: &Workload, vcfg: hvm::VirtioBlkConfig, cfg: CaptiveConfig) -> RunStats {
    run_captive_cfg(
        w,
        CaptiveConfig {
            virtio: Some(vcfg),
            ..cfg
        },
    )
}

/// Runs a workload under the QEMU-style baseline with a virtio-blk device
/// attached (plain non-chaining configuration, like [`run_qemu`]).
pub fn run_qemu_io(w: &Workload, vcfg: hvm::VirtioBlkConfig) -> RunStats {
    let mut q = QemuRef::new(32 * 1024 * 1024);
    q.attach_virtio(vcfg);
    drive_qemu(w, &mut q)
}

/// Wraps a SimBench micro-benchmark as a [`Workload`] so it can go through
/// the same measurement entry points as the SPEC-shaped workloads.
pub fn micro_workload(b: &simbench::MicroBench) -> Workload {
    Workload {
        name: b.name,
        suite: workloads::Suite::Int,
        words: b.words.clone(),
        entry: b.entry,
    }
}

/// Runs a raw instruction-word program (SimBench) on both systems, returning
/// (captive cycles, qemu cycles).
pub fn run_both_raw(name: &str, words: &[u32], entry: u64) -> (u64, u64) {
    let w = Workload {
        name: "micro",
        suite: workloads::Suite::Int,
        words: words.to_vec(),
        entry,
    };
    let c = run_captive(&w);
    let q = run_qemu(&w);
    let _ = name;
    (c.cycles, q.cycles)
}

/// Geometric mean of a sequence of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Simple calibrated IPC models for the two native Arm machines of Fig. 22,
/// used only to place Captive's performance between them as the paper does.
pub mod native_model {
    /// Estimated cycles a Cortex-A53 (1.2 GHz, in-order) needs for a workload
    /// that executes `guest_insns` instructions: IPC ≈ 0.8, scaled to the
    /// host simulator's 3.5 GHz-equivalent cycle domain.
    pub fn cortex_a53_cycles(guest_insns: u64) -> u64 {
        let cycles_native = guest_insns as f64 / 0.8;
        (cycles_native * (3.5 / 1.2)) as u64
    }

    /// Estimated cycles for a Cortex-A57 (2.0 GHz, out-of-order): IPC ≈ 1.9.
    pub fn cortex_a57_cycles(guest_insns: u64) -> u64 {
        let cycles_native = guest_insns as f64 / 1.9;
        (cycles_native * (3.5 / 2.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn captive_and_qemu_agree_on_results_and_captive_is_faster_on_mcf() {
        let w = &workloads::spec_int(workloads::Scale(1))[3]; // 429.mcf
        assert_eq!(w.name, "429.mcf");
        let c = run_captive(w);
        let q = run_qemu(w);
        assert!(c.cycles > 0 && q.cycles > 0);
        assert!(
            c.cycles < q.cycles,
            "captive {} should beat qemu {} on mcf",
            c.cycles,
            q.cycles
        );
    }

    #[test]
    fn fp_workload_speedup_exceeds_integer_speedup() {
        let int = &workloads::spec_int(workloads::Scale(1))[5]; // hmmer
        let fp = &workloads::spec_fp(workloads::Scale(1))[0]; // sphinx3
        let int_speedup = run_qemu(int).cycles as f64 / run_captive(int).cycles as f64;
        let fp_speedup = run_qemu(fp).cycles as f64 / run_captive(fp).cycles as f64;
        assert!(
            fp_speedup > int_speedup,
            "fp {fp_speedup:.2} vs int {int_speedup:.2}"
        );
    }
}
