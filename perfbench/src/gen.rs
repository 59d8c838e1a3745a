//! Seeded generators for the three workloads.
//!
//! Each generator takes the run's seed and returns the images of one pass.
//! The engine sees nothing but these images.  Every generator keeps the
//! *amount* of work per pass fixed and lets the seed choose *which* work
//! (order, operand values, op placement), so a metric's spread across seeds
//! measures the engine rather than the seed.

use guest_aarch64::asm::{self, Assembler};
use guest_aarch64::isa::Cond;
use guest_aarch64::{esr_class, SysReg};
use hvm::virtio::{mmio, DESC_F_NEXT, DESC_F_WRITE, REQ_READ, SECTOR_SIZE};
use hvm::VirtioBlkConfig;
use workloads::{
    Scale, CODE_BASE, DATA_BASE, VBLK_AVAIL, VBLK_DESC, VBLK_HDR, VBLK_MMIO_BASE, VBLK_STATUS,
    VBLK_USED,
};

/// One guest program plus the devices and interrupts it runs with.
#[derive(Debug, Clone)]
pub struct Image {
    /// Unique within a pass; part of every record key.
    pub name: String,
    /// Instruction words loaded at [`CODE_BASE`].
    pub words: Vec<u32>,
    /// Entry point.
    pub entry: u64,
    /// Virtio-blk device to attach, if any.
    pub virtio: Option<VirtioBlkConfig>,
    /// `(cycle, line)` interrupts raised on the engine's latch.
    pub irqs: Vec<(u64, u32)>,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The distinct kernels of the repository's suites, run long enough that
    /// translation is a few percent of the time.
    Steady,
    /// Many distinct short images, each block run just past the region
    /// formation threshold.
    Cold,
    /// Hostile system-level programs that keep invalidating their own code.
    Churn,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Cold, Workload::Churn];

    /// The name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Cold => "cold",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The images of one pass for `seed`.
    pub fn images(self, seed: u64) -> Vec<Image> {
        match self {
            Workload::Steady => steady(seed),
            Workload::Cold => cold(seed),
            Workload::Churn => churn(seed),
        }
    }
}

/// xorshift64*: small, seedable and reproducible on every platform.
struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included).
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

fn plain(name: String, words: Vec<u32>) -> Image {
    Image {
        name,
        words,
        entry: CODE_BASE,
        virtio: None,
        irqs: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// steady
// ---------------------------------------------------------------------------

/// Scales of the two images each steady kernel runs as.
const STEADY_SCALES: [u32; 2] = [1, 3];

/// The repository's kernels at `scale`, with identical images removed (the
/// SPEC-named suites repeat programs under several names).
fn steady_kernels(scale: u32) -> Vec<workloads::Workload> {
    let s = Scale(scale);
    let mut all = workloads::spec_int(s);
    all.extend(workloads::spec_fp(s));
    all.extend(workloads::loop_kernels(s));
    all.extend(workloads::idiom_kernels(s));
    let mut distinct: Vec<workloads::Workload> = Vec::new();
    for w in all {
        if !distinct.iter().any(|d| d.words == w.words) {
            distinct.push(w);
        }
    }
    distinct
}

/// Every distinct kernel at each of [`STEADY_SCALES`], in a seed-drawn
/// order.  The seed draws nothing else: the control workload does exactly
/// the same guest work for every seed, so its image-time percentiles do not
/// move with the seed.
fn steady(seed: u64) -> Vec<Image> {
    let mut rng = Rng::new(seed ^ 0x0057_EAD1);
    let mut images: Vec<Image> = STEADY_SCALES
        .iter()
        .flat_map(|&scale| {
            steady_kernels(scale)
                .into_iter()
                .map(move |w| plain(format!("{}@{scale}", w.name), w.words))
        })
        .collect();
    rng.shuffle(&mut images);
    images
}

// ---------------------------------------------------------------------------
// cold
// ---------------------------------------------------------------------------

/// Images per cold pass.
const COLD_IMAGES: usize = 80;
/// Outer trips of each cold image's hot section: just past the default
/// region-formation threshold (16), so most blocks are formed and then
/// barely used.
const COLD_TRIPS: u32 = 20;
/// Body lengths of the hot section's blocks (rotated per image).
const COLD_BODIES: [usize; 12] = [3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 32];
/// Straight-line blocks run once at the end of each cold image.
const COLD_ONCE_BLOCKS: usize = 6;
/// Instructions per straight-line block.
const COLD_ONCE_LEN: usize = 47;

/// Kinds of [`cold_op`]; every cold image has the same count of each kind.
const COLD_OP_KINDS: u64 = 12;

/// Emits one flag-free instruction of `kind` with seed-drawn registers and
/// immediates over x2..x13 (x1 is the data base, x0 the trip counter).
fn cold_op(a: &mut Assembler, rng: &mut Rng, kind: u64) {
    let r = |rng: &mut Rng| 2 + rng.below(12) as u32;
    let (d, n, m) = (r(rng), r(rng), r(rng));
    let word = match kind {
        0 => asm::add(d, n, m),
        1 => asm::sub(d, n, m),
        2 => asm::eor(d, n, m),
        3 => asm::orr(d, n, m),
        4 => asm::and(d, n, m),
        5 => asm::mul(d, n, m),
        6 => asm::addi(d, n, rng.below(4096) as u32),
        7 => asm::subi(d, n, rng.below(4096) as u32),
        8 => asm::lsli(d, n, 1 + rng.below(62) as u32),
        9 => asm::lsri(d, n, 1 + rng.below(62) as u32),
        10 => asm::ldr(d, 1, rng.below(512) as u32 * 8),
        _ => asm::str(d, 1, rng.below(512) as u32 * 8),
    };
    a.push(word);
}

/// A short image: a hot section of [`COLD_BODIES`] blocks looped
/// [`COLD_TRIPS`] times, then straight-line blocks run once.  The shape and
/// the count of each op kind are the same in every image; the seed draws
/// which op goes where and every register and immediate.  The block order
/// is a rotation fixed by the image index, because the order decides
/// whether the former closes a looping region (four rotations in twelve
/// do), and that doubles an image's translation time; every other hot
/// block holds a diamond whose direction depends only on the trip count.
/// So the seed cannot change how much code gets formed.
fn cold_image(image_seed: u64, index: usize) -> Image {
    let mut rng = Rng::new(image_seed);
    let diamonds = COLD_BODIES.len() / 2;
    let total = COLD_BODIES.iter().sum::<usize>() + diamonds + COLD_ONCE_BLOCKS * COLD_ONCE_LEN;
    let mut kinds: Vec<u64> = (0..total as u64).map(|i| i % COLD_OP_KINDS).collect();
    rng.shuffle(&mut kinds);
    let mut kinds = kinds.into_iter();
    let mut op = |a: &mut Assembler, rng: &mut Rng| {
        cold_op(a, rng, kinds.next().expect("one kind per op"));
    };
    let mut a = Assembler::new();
    a.mov_imm64(1, DATA_BASE);
    for reg in 2..=13 {
        a.mov_imm64(reg, rng.next_u64());
    }
    a.mov_imm64(0, COLD_TRIPS as u64);
    let mut bodies = COLD_BODIES;
    bodies.rotate_left(index % COLD_BODIES.len());
    a.label("outer");
    for (blk, &len) in bodies.iter().enumerate() {
        for _ in 0..len {
            op(&mut a, &mut rng);
        }
        if blk % 2 == 1 {
            let skip = format!("skip{blk}");
            a.push(asm::cmpi(0, 4 + blk as u32));
            a.bcond_to(Cond::Hi, &skip);
            op(&mut a, &mut rng);
            a.label(&skip);
        }
        a.push(asm::b(4));
    }
    a.push(asm::subi(0, 0, 1));
    a.cbnz_to(0, "outer");
    for _ in 0..COLD_ONCE_BLOCKS {
        for _ in 0..COLD_ONCE_LEN {
            op(&mut a, &mut rng);
        }
        a.push(asm::b(4));
    }
    a.push(asm::hlt());
    plain(format!("cold.{index}"), a.finish())
}

fn cold(seed: u64) -> Vec<Image> {
    let mut master = Rng::new(seed ^ 0xC01D);
    (0..COLD_IMAGES)
        .map(|i| cold_image(master.next_u64(), i))
        .collect()
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

/// Images per churn pass.
const CHURN_IMAGES: usize = 12;
/// Passes each churn image makes over its op section.
const CHURN_PASSES: u32 = 24;
/// Words per op slot, so a patch op can address a later placeholder
/// before it is assembled.
const OP_WORDS: usize = 4;
/// Cycles from arming the per-pass timer to its interrupt.
const CHURN_TIMER_DELAY: u32 = 1_000;
/// Latch interrupts scheduled per churn image, on distinct lines.
const CHURN_SCHEDULED_IRQS: u32 = 3;
/// Window of cycles the scheduled interrupts fire in: after the prologue
/// installed the vector, long before any engine halts.
const SCHEDULE_CYCLES: (u64, u64) = (20_000, 60_000);

/// One op of the churn section, occupying one [`OP_WORDS`] slot.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Fold a constant into the x25/x24 accumulators.
    Alu(u16),
    /// Store/load round trip through guest data, folded into x24.
    Mem(u16),
    /// `movz x19, #v` (the word patches rewrite), folded into x24.
    Placeholder(u16),
    /// Rewrite the placeholder in slot `target` (later in program order)
    /// with `movz x19, #value`: a store onto live translated code.  From
    /// the second pass on it rewrites the same bytes, so the page content
    /// repeats and re-formation can hit the content-keyed reuse cache.
    Patch { value: u16, target: usize },
    /// Guest TLB invalidate.
    Tlbi,
    /// Same-value write of TTBR0 or SCTLR: tears down translation state.
    RegFlip { ttbr: bool },
    /// Undefined instruction: a synchronous guest exception.
    Undef,
    /// Load beyond guest RAM: a data abort.
    OobLoad,
    /// Supervisor call.
    Svc(u16),
}

/// The op mix of every churn image: fixed counts, so each image does the
/// same kinds of hostile work per pass.
const CHURN_MIX: [(u8, usize); 9] = [
    (0, 10), // Alu
    (1, 6),  // Mem
    (2, 6),  // Placeholder
    (3, 6),  // Patch
    (4, 2),  // Tlbi
    (5, 3),  // RegFlip
    (6, 2),  // Undef
    (7, 2),  // OobLoad
    (8, 3),  // Svc
];

fn emit_op(a: &mut Assembler, op: Op, ops_start: usize) {
    let slot = a.here();
    match op {
        Op::Alu(c) => {
            a.push(asm::movz(14, c as u32, 0));
            a.push(asm::eor(25, 25, 14));
            a.push(asm::add(24, 24, 25));
        }
        Op::Mem(off) => {
            a.push(asm::str(25, 1, off as u32));
            a.push(asm::ldr(26, 1, off as u32));
            a.push(asm::add(24, 24, 26));
        }
        Op::Placeholder(v) => {
            a.push(asm::movz(19, v as u32, 0));
            a.push(asm::add(24, 24, 19));
        }
        Op::Patch { value, target } => {
            let va = CODE_BASE + ((ops_start + target * OP_WORDS) as u64) * 4;
            assert!(va <= 0xFFFF, "churn program outgrew single-movz addresses");
            let word = asm::movz(19, value as u32, 0);
            a.push(asm::movz(10, va as u32, 0));
            a.push(asm::movz(11, word & 0xFFFF, 0));
            a.push(asm::movk(11, word >> 16, 1));
            a.push(asm::strw(11, 10, 0));
        }
        Op::Tlbi => {
            a.push(asm::tlbi());
        }
        Op::RegFlip { ttbr } => {
            let sr = if ttbr { SysReg::Ttbr0 } else { SysReg::Sctlr } as u32;
            a.push(asm::mrs(12, sr));
            a.push(asm::msr(sr, 12));
        }
        Op::Undef => {
            a.push(0x7F << 25);
        }
        Op::OobLoad => {
            // 0x4000_0000 is far past the 32 MiB of guest RAM.
            a.push(asm::movz(10, 0, 0));
            a.push(asm::movk(10, 0x4000, 1));
            a.push(asm::ldr(13, 10, 0));
        }
        Op::Svc(imm) => {
            a.push(asm::svc(imm as u32));
        }
    }
    let used = a.here() - slot;
    assert!(used <= OP_WORDS, "op {op:?} overran its slot");
    for _ in used..OP_WORDS {
        a.push(asm::nop());
    }
}

/// Stores the immediate `val` at `[x<base> + off]` through x6,
/// which the exception vector never touches.
fn store_imm(a: &mut Assembler, base: u32, off: u64, val: u64) {
    a.mov_imm64(6, val);
    a.push(asm::str(6, base, off as u32));
}

/// A hostile program that repeats its churn for [`CHURN_PASSES`] passes.
///
/// Every pass arms a one-shot timer, runs the op section (self-
/// modifying stores, TLBI, TTBR0/SCTLR writes, SVC, UNDEF, data aborts),
/// then sends a virtio read of disk sector 0 whose data lands on the wait
/// loop it is spinning in (sector 0 is a byte copy of that code, so the DMA
/// is architecturally invisible but invalidates a live looping region), and
/// waits for both the completion and the timer.  Three latch interrupts are
/// scheduled on top.  As in the repository's chaos harness, every
/// architectural effect is driven by program order or by event counts,
/// never by cycle counts, so every engine must end in the same state:
/// the vector only counts and accumulates (commutatively) and zeroes its
/// temporary registers, and the guest waits on counts before it halts.
///
/// The op order comes from the image index, not the seed: where a store
/// lands relative to the code after it decides how much code each pass
/// re-translates, so a seed-drawn order would make the work per pass
/// depend on the seed.  The seed draws every operand and the interrupt
/// schedule.
fn churn_image(image_seed: u64, index: usize) -> Image {
    let mut rng = Rng::new(image_seed);
    let mut layout = Rng::new(0xC4C4_0000 + index as u64);
    let mut kinds: Vec<u8> = CHURN_MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    layout.shuffle(&mut kinds);
    let mut ops: Vec<Op> = kinds
        .iter()
        .map(|&k| {
            let imm = rng.below(0x10000) as u16;
            match k {
                0 => Op::Alu(imm),
                1 => Op::Mem((rng.below(0x200) * 8) as u16),
                2 => Op::Placeholder(imm),
                3 => Op::Patch {
                    value: imm,
                    target: usize::MAX,
                },
                4 => Op::Tlbi,
                5 => Op::RegFlip {
                    ttbr: layout.below(2) == 0,
                },
                6 => Op::Undef,
                7 => Op::OobLoad,
                _ => Op::Svc(imm),
            }
        })
        .collect();
    // A patch with no placeholder after it trades places with the first
    // placeholder; then every patch aims at the next placeholder after it.
    let is_placeholder = |o: &Op| matches!(o, Op::Placeholder(_));
    for i in (0..ops.len()).rev() {
        if matches!(ops[i], Op::Patch { .. }) && !ops[i + 1..].iter().any(is_placeholder) {
            let j = ops
                .iter()
                .position(is_placeholder)
                .expect("the mix has placeholders");
            ops.swap(i, j);
        }
    }
    for i in 0..ops.len() {
        if let Op::Patch { value, .. } = ops[i] {
            let target = (i + 1..ops.len())
                .find(|&j| is_placeholder(&ops[j]))
                .expect("every patch has a later placeholder");
            ops[i] = Op::Patch { value, target };
        }
    }

    let timer_esr = (esr_class::IRQ << 26) | hvm::event::TIMER_LINE as u64;
    let mut a = Assembler::new();
    // Prologue: vector first, then counters and constants.
    a.adr_to(9, "vec");
    a.push(asm::msr(SysReg::Vbar as u32, 9));
    for reg in [3, 5, 20, 21, 23, 24] {
        a.push(asm::movz(reg, 0, 0));
    }
    a.push(asm::movz(25, (image_seed & 0xFFFF) as u32, 0));
    a.mov_imm64(1, DATA_BASE);
    a.mov_imm64(29, timer_esr);
    a.push(asm::movz(2, CHURN_TIMER_DELAY, 0));
    a.push(asm::movz(4, CHURN_PASSES, 0));
    // Virtio bring-up and the one request chain every pass re-submits:
    // descriptors 0 (header), 1 (data, aimed at the wait loop), 2 (status).
    a.mov_imm64(8, VBLK_MMIO_BASE);
    a.mov_imm64(18, VBLK_DESC);
    a.mov_imm64(28, VBLK_AVAIL);
    a.mov_imm64(22, VBLK_USED);
    a.push(asm::str(18, 8, mmio::QUEUE_DESC as u32));
    a.push(asm::str(28, 8, mmio::QUEUE_AVAIL as u32));
    a.push(asm::str(22, 8, mmio::QUEUE_USED as u32));
    a.push(asm::movz(6, 1, 0));
    a.push(asm::str(6, 8, mmio::IRQ_ENABLE as u32));
    a.push(asm::movz(27, 0, 0));
    store_imm(&mut a, 18, 0, VBLK_HDR);
    store_imm(&mut a, 18, 8, 16);
    store_imm(&mut a, 18, 16, DESC_F_NEXT);
    store_imm(&mut a, 18, 24, 1);
    a.adr_to(6, "vwait");
    a.push(asm::str(6, 18, 32));
    store_imm(&mut a, 18, 40, SECTOR_SIZE);
    store_imm(&mut a, 18, 48, DESC_F_NEXT | DESC_F_WRITE);
    store_imm(&mut a, 18, 56, 2);
    store_imm(&mut a, 18, 64, VBLK_STATUS);
    store_imm(&mut a, 18, 72, 8);
    store_imm(&mut a, 18, 80, DESC_F_WRITE);
    store_imm(&mut a, 18, 88, 0);
    a.mov_imm64(7, VBLK_HDR);
    store_imm(&mut a, 7, 0, REQ_READ);
    store_imm(&mut a, 7, 8, 0);

    a.label("pass");
    a.push(asm::addi(5, 5, 1)); // passes started
    a.push(asm::msr(SysReg::CntTval as u32, 2)); // one-shot timer
    let ops_start = a.here();
    for &op in &ops {
        emit_op(&mut a, op, ops_start);
    }
    // Publish chain 0 at avail.ring[x27 % queue size] and kick.
    a.push(asm::movz(7, 63, 0));
    a.push(asm::and(7, 27, 7));
    a.push(asm::lsli(7, 7, 3));
    a.push(asm::add(7, 7, 28));
    a.push(asm::movz(6, 0, 0));
    a.push(asm::str(6, 7, 8));
    a.push(asm::addi(27, 27, 1));
    a.push(asm::str(27, 28, 0));
    a.push(asm::msr(SysReg::VblkNotify as u32, 27));
    let wait_word = a.here();
    a.label("vwait");
    a.push(asm::ldr(7, 22, 0));
    a.push(asm::cmp(7, 27));
    a.bcond_to(Cond::Ne, "vwait");
    a.label("twait");
    a.push(asm::cmp(3, 5));
    a.bcond_to(Cond::Ne, "twait");
    a.push(asm::subi(4, 4, 1));
    a.cbnz_to(4, "pass");
    // Every timer, completion and scheduled interrupt has been taken.
    let expected_irqs = 2 * CHURN_PASSES as u64 + CHURN_SCHEDULED_IRQS as u64;
    a.mov_imm64(7, expected_irqs);
    a.label("iwait");
    a.push(asm::cmp(20, 7));
    a.bcond_to(Cond::Ne, "iwait");
    a.push(asm::hlt());

    // Vector: accumulate ESR, count IRQs (timer IRQs also in x3), skip the
    // faulting instruction of a synchronous exception, zero the temporaries.
    a.label("vec");
    a.push(asm::mrs(15, SysReg::Esr as u32));
    a.push(asm::add(23, 23, 15));
    a.push(asm::lsri(16, 15, 26));
    a.push(asm::cmpi(16, esr_class::IRQ as u32));
    a.bcond_to(Cond::Eq, "irq");
    a.push(asm::addi(21, 21, 1));
    a.push(asm::mrs(17, SysReg::Elr as u32));
    a.push(asm::addi(17, 17, 4));
    a.push(asm::msr(SysReg::Elr as u32, 17));
    a.b_to("out");
    a.label("irq");
    a.push(asm::addi(20, 20, 1));
    a.push(asm::cmp(15, 29));
    a.bcond_to(Cond::Ne, "out");
    a.push(asm::addi(3, 3, 1));
    a.label("out");
    a.push(asm::movz(15, 0, 0));
    a.push(asm::movz(16, 0, 0));
    a.push(asm::movz(17, 0, 0));
    a.push(asm::eret());
    // A full sector of code from the wait loop on becomes disk sector 0.
    while a.here() < wait_word + SECTOR_SIZE as usize / 4 {
        a.push(asm::nop());
    }
    let words = a.finish();
    let sector0: Vec<u8> = words[wait_word..wait_word + SECTOR_SIZE as usize / 4]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let irqs = (0..CHURN_SCHEDULED_IRQS)
        .map(|i| {
            let cycle = SCHEDULE_CYCLES.0 + rng.below(SCHEDULE_CYCLES.1 - SCHEDULE_CYCLES.0);
            (cycle, 1 + i)
        })
        .collect();
    Image {
        name: format!("churn.{index}"),
        words,
        entry: CODE_BASE,
        virtio: Some(VirtioBlkConfig {
            mmio_base: VBLK_MMIO_BASE,
            completion_latency: 2_000,
            disk_image: Some(sector0),
            ..VirtioBlkConfig::default()
        }),
        irqs,
    }
}

fn churn(seed: u64) -> Vec<Image> {
    let mut master = Rng::new(seed ^ 0xC4C4);
    (0..CHURN_IMAGES)
        .map(|i| churn_image(master.next_u64(), i))
        .collect()
}
