//! Code identity: the JIT back end's output is pinned byte for byte.
//!
//! Every loop, idiom and SPEC-named kernel runs at `Scale(1)` on the default
//! engine in pump mode (`tier_workers: 0`: tier-1 formation runs inline at
//! the drain point, so the set of installed regions is deterministic), and
//! the resident host code of each run is hashed
//! ([`dbt::CodeCache::code_digest`]).  The folded digest is pinned, so a
//! change that was meant to leave generated code alone — a faster pass, a
//! refactor of the optimiser or allocator — is proven byte-identical.
//!
//! Re-pinning after an *intended* codegen change: run this test, copy the
//! digest from the failure message into `PINNED`, and say in the change's
//! description which codegen change moved it.

use captive::{Captive, CaptiveConfig, RunExit};
use workloads::{Scale, Workload};

const PINNED: u64 = 0x8543_f594_6789_121a;

fn resident_code_digest(w: &Workload) -> u64 {
    let mut c = Captive::new(CaptiveConfig {
        tier_workers: 0,
        ..CaptiveConfig::default()
    });
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

#[test]
fn generated_code_matches_the_pinned_digest() {
    let kernels: Vec<Workload> = workloads::loop_kernels(Scale(1))
        .into_iter()
        .chain(workloads::idiom_kernels(Scale(1)))
        .chain(workloads::spec_int(Scale(1)))
        .chain(workloads::spec_fp(Scale(1)))
        .collect();
    let mut folded = Vec::new();
    for w in &kernels {
        folded.extend_from_slice(&resident_code_digest(w).to_le_bytes());
    }
    let digest = dbt::fnv1a(&folded);
    assert_eq!(
        digest,
        PINNED,
        "generated code changed over {} kernels: digest {digest:#018x}",
        kernels.len()
    );
}
