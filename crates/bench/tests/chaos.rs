//! Deterministic chaos tests: the same fault-injection seed must produce
//! byte-identical final architectural state on every engine configuration,
//! and repeated runs of one configuration must reproduce every counter.
//!
//! The pinned seeds below run in CI on every push; the proptest widens the
//! seed space locally.

use bench::chaos::{
    chaos_captive_configs, chaos_plan, run_chaos_captive, run_chaos_qemu, ChaosOutcome,
};
use proptest::prelude::*;

/// Seeds pinned in CI: chosen arbitrarily, then frozen so a regression on
/// any of them reproduces on every machine.
const PINNED_SEEDS: [u64; 4] = [0x5EED_0001, 0xDEAD_BEEF, 0xCAFE_F00D, 42];

/// Runs one seed on every Captive configuration plus the QEMU baseline and
/// asserts a single architectural outcome.
fn assert_one_outcome(seed: u64) -> ChaosOutcome {
    let plan = chaos_plan(seed);
    let (reference, _) = run_chaos_qemu(&plan);
    // The guest's own books must balance: x20 counted one IRQ per delivery
    // (the scheduled lines plus exactly one one-shot timer fire plus one per
    // virtio completion), and x21 counted one synchronous exception per
    // injected faulting op.
    assert_eq!(
        reference.regs[20],
        plan.schedule.len() as u64 + 1 + plan.virtio_submits,
        "seed {seed:#x}: IRQ deliveries"
    );
    assert_eq!(reference.regs[20], reference.irqs_delivered);
    assert_eq!(
        reference.regs[21], plan.sync_ops as u64,
        "seed {seed:#x}: synchronous exceptions"
    );
    assert_eq!(
        reference.completions, plan.virtio_submits,
        "seed {seed:#x}: every submitted request retires"
    );
    for (name, cfg) in chaos_captive_configs() {
        let (outcome, stats) = run_chaos_captive(&plan, cfg);
        assert_eq!(
            outcome, reference,
            "seed {seed:#x}: {name} diverged from the QEMU baseline"
        );
        // The forced final identity read DMAs over the live used.idx wait
        // loop, so the default engine must have walked its external
        // invalidation path (the tiny cache may legitimately have evicted
        // the page's translations first, so only the full-cache configs are
        // held to it).
        if name == "captive" {
            assert!(
                stats.external_invalidations > 0,
                "seed {seed:#x}: device DMA onto live code must invalidate"
            );
        }
    }
    reference
}

#[test]
fn pinned_seed_0() {
    assert_one_outcome(PINNED_SEEDS[0]);
}

#[test]
fn pinned_seed_1() {
    assert_one_outcome(PINNED_SEEDS[1]);
}

#[test]
fn pinned_seed_2() {
    assert_one_outcome(PINNED_SEEDS[2]);
}

#[test]
fn pinned_seed_3() {
    assert_one_outcome(PINNED_SEEDS[3]);
}

#[test]
fn same_seed_reproduces_every_counter() {
    let plan = chaos_plan(PINNED_SEEDS[0]);
    // Every modeled counter must repeat, tier-1 ones included: requests
    // publish at fixed link heats and results are consumed at the blocking
    // install point, and virtio completion order is fixed at kick time.
    for (name, cfg) in chaos_captive_configs() {
        let (out_a, stats_a) = run_chaos_captive(&plan, cfg.clone());
        let (out_b, stats_b) = run_chaos_captive(&plan, cfg);
        assert_eq!(out_a, out_b, "{name}: architectural state");
        assert_eq!(
            stats_a.modeled_counters(),
            stats_b.modeled_counters(),
            "{name}: run counters"
        );
    }
    let (qa, qstats_a) = run_chaos_qemu(&plan);
    let (qb, qstats_b) = run_chaos_qemu(&plan);
    assert_eq!(qa, qb);
    assert_eq!(qstats_a.modeled_counters(), qstats_b.modeled_counters());
}

#[test]
fn worker_queue_flood_is_deterministic_and_mode_blind() {
    // Many loop heads publish tier-1 requests in the same outer pass and all
    // hit their install points in the next: with a single worker the queue
    // backs up and results arrive out of order (the parked-result path).
    // Architectural state and modeled cycles must match the synchronous
    // engine exactly, and a tiered rerun must reproduce every counter.
    let w = workloads::loop_flood(12, 9, 30);
    let run = |tiered: bool, workers: usize| {
        let mut c = captive::Captive::new(captive::CaptiveConfig {
            tiered,
            tier_workers: workers,
            ..captive::CaptiveConfig::default()
        });
        c.load_program(workloads::CODE_BASE, &w.words);
        c.set_entry(w.entry);
        let exit = c.run(bench::BLOCK_BUDGET);
        assert!(
            matches!(exit, captive::RunExit::GuestHalted { .. }),
            "flood: unexpected exit {exit:?}"
        );
        // Every engine must count all 12 loops x 9 trips x 30 passes.
        assert_eq!(c.guest_reg(9), 12 * 9 * 30, "flood increment count");
        c.stats()
    };
    let flooded = run(true, 1);
    let flooded_again = run(true, 1);
    let sync = run(false, 0);
    assert!(
        flooded.tier1_requests >= 12,
        "every loop head publishes: {} requests",
        flooded.tier1_requests
    );
    assert!(
        flooded.regions_installed_async >= 10,
        "the flood drains through the worker: {} async installs",
        flooded.regions_installed_async
    );
    // Workers trace from branch heats frozen at publish time while the
    // synchronous former sees live heats at fire time, so in a dense
    // multi-head program the chosen region shapes (and therefore modeled
    // cost) may differ slightly — loop promotion widens the stakes, since a
    // differently-shaped region also promotes a different carrier set — but
    // never by more than a few percent, and the architectural result (x9
    // above) is identical in every mode.
    assert!(
        flooded.cycles <= sync.cycles + sync.cycles * 3 / 100,
        "tiered cost stays within 3% of synchronous: {} vs {}",
        flooded.cycles,
        sync.cycles
    );
    assert_eq!(flooded.regions_formed, sync.regions_formed);
    assert_eq!(flooded.modeled_counters(), flooded_again.modeled_counters());
}

#[test]
fn tiny_cache_evicts_but_still_agrees() {
    // The tiny-cache configuration is only a meaningful degradation test if
    // the bound actually bites during the chaos run.
    let plan = chaos_plan(PINNED_SEEDS[1]);
    let (_, stats) = run_chaos_captive(
        &plan,
        captive::CaptiveConfig {
            cache_capacity_regions: Some(4),
            ..captive::CaptiveConfig::default()
        },
    );
    assert!(
        stats.capacity_evictions > 0,
        "a 4-region cache must evict under the chaos working set"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adversarial-schedule sweep: any seed's injected SMC stores, faults
    /// and interrupt schedule must leave all engines in one final state.
    #[test]
    fn random_seeds_agree_across_engines(seed in 0u64..u64::MAX) {
        let plan = chaos_plan(seed);
        let (reference, _) = run_chaos_qemu(&plan);
        for (name, cfg) in chaos_captive_configs() {
            let (outcome, _) = run_chaos_captive(&plan, cfg);
            prop_assert_eq!(
                &outcome,
                &reference,
                "seed {:#x}: {} diverged",
                seed,
                name
            );
        }
    }
}
