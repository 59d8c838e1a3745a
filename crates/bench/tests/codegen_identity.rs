//! Code identity: the JIT back end's output is pinned byte for byte.
//!
//! Every loop, idiom and SPEC-named kernel runs at `Scale(1)` and the
//! resident host code of each run is hashed ([`dbt::CodeCache::code_digest`])
//! into one folded digest per formation schedule:
//!
//! * pump mode (`tier_workers: 0`): requests published at half the
//!   formation threshold are formed inline at the drain point, so the set
//!   of installed regions is deterministic;
//! * `tiered: false`: every formation captures its snapshot at the
//!   threshold and runs inline on the run thread.
//!
//! Both digests are pinned, so a change that was meant to leave generated
//! code alone — a faster pass, a refactor of the optimiser, allocator or
//! region former — is proven byte-identical under both schedules.
//!
//! Re-pinning after an *intended* codegen change: run this test, copy the
//! digest from the failure message into the matching constant, and say in
//! the change's description which codegen change moved it.

use captive::{Captive, CaptiveConfig, RunExit};
use workloads::{Scale, Workload};

const PINNED_PUMP: u64 = 0x8543_f594_6789_121a;
const PINNED_SYNC: u64 = 0xcec6_05cf_31cd_4441;

fn resident_code_digest(w: &Workload, cfg: CaptiveConfig) -> u64 {
    let mut c = Captive::new(cfg);
    c.load_program(workloads::CODE_BASE, &w.words);
    c.set_entry(w.entry);
    let exit = c.run(bench::BLOCK_BUDGET);
    assert!(
        matches!(exit, RunExit::GuestHalted { .. }),
        "{}: unexpected exit {exit:?}",
        w.name
    );
    c.cache.code_digest()
}

/// Folds the resident-code digests of every pinned kernel run under `cfg`,
/// returning the digest and the kernel count.
fn suite_digest(cfg: CaptiveConfig) -> (u64, usize) {
    let kernels: Vec<Workload> = workloads::loop_kernels(Scale(1))
        .into_iter()
        .chain(workloads::idiom_kernels(Scale(1)))
        .chain(workloads::spec_int(Scale(1)))
        .chain(workloads::spec_fp(Scale(1)))
        .collect();
    let mut folded = Vec::new();
    for w in &kernels {
        folded.extend_from_slice(&resident_code_digest(w, cfg.clone()).to_le_bytes());
    }
    (dbt::fnv1a(&folded), kernels.len())
}

#[test]
fn generated_code_matches_the_pinned_digest() {
    let (digest, kernels) = suite_digest(CaptiveConfig {
        tier_workers: 0,
        ..CaptiveConfig::default()
    });
    assert_eq!(
        digest, PINNED_PUMP,
        "pump-mode generated code changed over {kernels} kernels: digest {digest:#018x}"
    );
}

#[test]
fn sync_mode_generated_code_matches_the_pinned_digest() {
    let (digest, kernels) = suite_digest(CaptiveConfig {
        tiered: false,
        ..CaptiveConfig::default()
    });
    assert_eq!(
        digest, PINNED_SYNC,
        "sync-mode generated code changed over {kernels} kernels: digest {digest:#018x}"
    );
}
