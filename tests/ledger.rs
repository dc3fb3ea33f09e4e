//! The behaviour ledger: every exact count of a fixed set of small
//! canonical runs, compared byte for byte with `results/ledger/*.txt`.
//!
//! Each platform case runs under the per-cycle reference
//! (`set_fast_path(false)`) and fast-serial (`run`, the epoch driver). The
//! file holds the fast-serial rendering: the cycle, `stats()`,
//! `metrics().snapshot_text()`, the image's raw bytes, section count and
//! state digest, and the epoch count. The reference must render the same
//! text apart from `host.`-prefixed lines, which hold what legitimately
//! depends on the stepper (epoch widths, fabric hop meters, and the image
//! digest, which covers the `host.stepper` section). The fleet case folds a mixed job
//! fleet's report digests under the serial scheduler and a two-worker
//! preempting pool.
//!
//! A change that moves a count fails here and shows up as a diff of
//! `results/ledger/` once re-recorded:
//! `LEDGER_UPDATE=1 cargo test --release --test ledger`.
//!
//! Release only (≈5 s there; minutes in a debug build).

mod common;

use smappic::isa::assemble;
use smappic::platform::{Config, Platform, Topology, DRAM_BASE};
use smappic::service::{JobSpec, PreemptMode, Scheduler, SchedulerConfig, TenantQuota};
use smappic::sim::{CountingSink, EthParams, SimRng};
use smappic::tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

/// The counter every trace core's atomics contend on (homed on node 0).
const COUNTER: u64 = DRAM_BASE + 0xA000;

/// Compares `text` with `results/ledger/{name}.txt`, or rewrites the file
/// when `LEDGER_UPDATE` is set.
fn check(name: &str, text: &str) {
    let path = format!("{}/results/ledger/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LEDGER_UPDATE").is_some() {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if text != want {
        let (mut got, mut exp) = (text.lines(), want.lines());
        for n in 1.. {
            match (got.next(), exp.next()) {
                (Some(a), Some(b)) if a == b => continue,
                (None, None) => break,
                (a, b) => panic!(
                    "{name} no longer reproduces results/ledger/{name}.txt at line {n}:\n  \
                     now:      {}\n  recorded: {}",
                    a.unwrap_or("<end>"),
                    b.unwrap_or("<end>")
                ),
            }
        }
    }
}

/// Everything the ledger records about one platform.
fn render(p: &Platform) -> String {
    let mut image = CountingSink::new();
    p.snapshot_to(&mut image).expect("counting walk");
    let metrics = p.metrics();
    let epochs = metrics.histogram("host.epoch_width").map_or(0, |h| h.count());
    format!(
        "now {}\n\n[stats]\n{}\n[metrics]\n{}\n[snapshot]\nraw_bytes {}\nsections {}\n\
         host.state_digest {:#018x}\n\n[epochs]\nhost.core.epochs {epochs}\n",
        p.now(),
        p.stats(),
        metrics.snapshot_text(),
        image.raw_bytes(),
        image.sections(),
        image.state_digest(),
    )
}

/// `text` without its stepper-dependent lines.
fn architectural(text: &str) -> String {
    text.lines().filter(|l| !l.starts_with("host.")).collect::<Vec<_>>().join("\n")
}

/// Runs `build()` for `cycles` under both steppers, requires them to
/// agree, and checks the fast-serial rendering against the ledger.
fn platform_case(name: &str, cycles: u64, build: impl Fn() -> Platform) {
    let mut reference = build();
    reference.set_fast_path(false);
    reference.run(cycles);
    let mut fast = build();
    fast.run(cycles);
    let want = render(&fast);
    assert_eq!(
        fast.snapshot().first_divergence(&reference.snapshot()),
        None,
        "{name}: reference state diverged from fast-serial"
    );
    assert_eq!(
        architectural(&render(&reference)),
        architectural(&want),
        "{name}: reference rendered differently from fast-serial"
    );
    check(name, &want);
}

/// A trace core's program: `compute` busy cycles drawn from
/// `lo + [0, span)`, one atomic on [`COUNTER`], and a private store with
/// probability `store`.
fn trace_program(
    rng: &mut SimRng,
    ops: u64,
    (lo, span, store): (u64, u64, f64),
    private: u64,
) -> Vec<TraceOp> {
    let mut program = Vec::new();
    for i in 0..ops {
        program.push(TraceOp::Compute(lo + rng.gen_range(span)));
        program.push(TraceOp::AmoAdd(COUNTER, 1));
        if rng.chance(store) {
            program.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
        }
    }
    program
}

/// `cfg` with a trace core on every tile; `private(g)` is core `g`'s
/// private region.
fn trace_fleet(
    cfg: Config,
    seed: u64,
    ops: u64,
    duty: (u64, u64, f64),
    private: impl Fn(u64) -> u64,
) -> Platform {
    let tiles = cfg.tiles_per_node;
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed);
    for g in 0..total {
        let program = trace_program(&mut rng, ops, duty, private(g as u64));
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let map = p.addr_map(node);
        p.set_engine(node, tile, Box::new(TraceCore::with_addr_map(format!("w{g}"), program, map)));
    }
    p
}

/// An Ariane core on every tile of a 2x2x2, each running its own copy of
/// `kernel(rng)`; a `.zero`-filled `array` symbol is seeded with data.
fn ariane_fleet(seed: u64, kernel: fn(&mut SimRng) -> String) -> Platform {
    let cfg = Config::new(2, 2, 2);
    let tiles = cfg.tiles_per_node;
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed);
    for g in 0..total {
        let base = DRAM_BASE + 0x100_0000 + g as u64 * 0x1_0000;
        let img = assemble(&kernel(&mut rng), base).expect("kernel assembles");
        p.load_image(&img);
        if let (Some(start), Some(end)) = (img.symbol("array"), img.symbol("array_end")) {
            let data: Vec<u8> = (start..end).map(|_| rng.next_u64() as u8).collect();
            p.write_mem(start, &data);
        }
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let map = p.addr_map(node);
        p.set_engine(node, tile, Box::new(ArianeCore::new(ArianeConfig::new(g as u64, base, map))));
    }
    p
}

/// A taus88-style shift/xor loop: straight-line arithmetic between short
/// backward branches.
fn alu_kernel(rng: &mut SimRng) -> String {
    let mut state = || (rng.next_u64() & 0x3fff_ffff) | 0x1000;
    format!(
        "li s3, {}\n li s4, {}\n li a1, 0x7fffffff\n step:\n slliw t0, s3, 13\n \
         xor t0, t0, s3\n srliw t0, t0, 19\n andi t1, s3, -2\n slliw t1, t1, 12\n \
         xor s3, t1, t0\n slliw t0, s4, 2\n xor t0, t0, s4\n srliw t0, t0, 25\n \
         andi t1, s4, -8\n slliw t1, t1, 4\n xor s4, t1, t0\n addi a1, a1, -1\n \
         bnez a1, step\n li a7, 93\n li a0, 0\n ecall\n",
        state(),
        state()
    )
}

/// Load / add / store over a private 4 KiB array.
fn memwalk_kernel(rng: &mut SimRng) -> String {
    format!(
        "la s0, array\n la s1, array_end\n li s2, {}\n li a1, 0x7fffffff\n outer:\n \
         mv t0, s0\n walk:\n ld t1, 0(t0)\n add t1, t1, s2\n xor t1, t1, t0\n sd t1, 0(t0)\n \
         addi t0, t0, 8\n bne t0, s1, walk\n addi a1, a1, -1\n bnez a1, outer\n li a7, 93\n \
         li a0, 0\n ecall\n .align 12\n array:\n .zero 4096\n array_end:\n",
        1 + rng.gen_range(1000)
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn amo_saturated_2x2x2() {
    let private = |g| DRAM_BASE + 0x40_0000 + g * 4096;
    platform_case("amo_saturated", 30_000, || {
        trace_fleet(Config::new(2, 2, 2), 0x1ED6E, 3_000, (1, 20, 0.5), private)
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn bursty_sleep_2x2x2() {
    let private = |g| DRAM_BASE + 0x40_0000 + g * 4096;
    platform_case("bursty_sleep", 60_000, || {
        trace_fleet(Config::new(2, 2, 2), 0xB0257, 700, (100, 400, 0.25), private)
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn ariane_alu_2x2x2() {
    platform_case("ariane_alu", 30_000, || ariane_fleet(0xA1, alu_kernel));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn ariane_memwalk_2x2x2() {
    platform_case("ariane_memwalk", 30_000, || ariane_fleet(0xA2, memwalk_kernel));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn rack_eth16() {
    const BYTES_PER_NODE: u64 = 16 << 20;
    platform_case("rack_eth16", 12_000, || {
        let mut cfg = Config::rack(16, 1, 1, Topology::Ethernet(EthParams::default()));
        cfg.params.bytes_per_node = BYTES_PER_NODE;
        let private = |g| DRAM_BASE + g * BYTES_PER_NODE + 0x4_0000;
        trace_fleet(cfg, 0x2AC6, 200, (1, 20, 0.5), private)
    });
}

/// The image `tests/snapshot_roundtrip.rs` captures every way it can: its
/// size, section count and state digest move only when the image format
/// does, and then `SNAP_VERSION` moves with them.
#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn pinned_image() {
    let p = common::pinned_platform();
    let mut image = CountingSink::new();
    p.snapshot_to(&mut image).expect("counting walk");
    let text = format!(
        "raw_bytes {}\nsections {}\nstate_digest {:#018x}\n",
        image.raw_bytes(),
        image.sections(),
        image.state_digest()
    );
    check("pinned_image", &text);
}

/// A 24-job fleet over four shapes and three tenants.
fn fleet_specs() -> Vec<JobSpec> {
    const SHAPES: [&str; 4] = [
        "shape 2 1 2\ntopology star\nstepper serial\nworkload amoheavy",
        "shape 2 2 2\ntopology star\nstepper serial\nworkload bursty",
        "shape 4 1 2\ntopology eth 2\nstepper serial\nworkload bursty",
        "shape 2 1 4\ntopology star\nstepper serial\nworkload sort",
    ];
    const TENANTS: [(&str, u8); 3] = [("interactive", 6), ("ci", 4), ("batch", 1)];
    let mut rng = SimRng::new(0xF1EE7);
    (0..24)
        .map(|i| {
            let workload = match i % 4 {
                0 => format!(" 90 {:#x}", rng.next_u64() >> 16),
                1 => format!(" 42 {:#x}", rng.next_u64() >> 16),
                2 => format!(" 32 {:#x}", rng.next_u64() >> 16),
                _ => " 256 4".to_string(),
            };
            let (tenant, priority) = TENANTS[i % 3];
            let text = format!(
                "smappic-jobspec v1\nname fleet-{i}\n{}{workload}\nfaults none\nbudget 20000000\n\
                 trace off\ntenant {tenant}\npriority {priority}\n",
                SHAPES[i % 4]
            );
            JobSpec::from_text(&text).expect("fleet spec parses")
        })
        .collect()
}

/// FNV-1a-style fold of a sequence of digests.
fn fold(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(0xcbf2_9ce4_8422_2325, |h, d| (h ^ d).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the ledger runs in release builds: use --release")]
fn mixed_fleet() {
    let specs = fleet_specs();
    let serial = Scheduler::serial().run(&specs);
    let pool = Scheduler::new(SchedulerConfig {
        workers: 2,
        quantum: 20_000,
        preempt: PreemptMode::WhenOutranked,
        quotas: vec![TenantQuota::in_flight("interactive", 1)],
        ..SchedulerConfig::default()
    })
    .run_fleet(&specs);
    let mut text = String::new();
    for r in &serial {
        assert!(r.is_completed(), "{} did not complete", r.name);
        text.push_str(&format!("{} cycles {} digest {:#018x}\n", r.name, r.cycles, r.digest));
    }
    let serial_fold = fold(serial.iter().map(|r| r.digest));
    let pool_fold = fold(pool.reports.iter().map(|r| r.digest));
    text.push_str(&format!("fold serial {serial_fold:#018x}\nfold two_worker {pool_fold:#018x}\n"));
    assert_eq!(pool_fold, serial_fold, "the preempting pool changed a job's outcome");
    check("fleet", &text);
}
