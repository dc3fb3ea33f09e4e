//! Workload generators: everything the simulated platform runs is made
//! here from the `--seed`, and the program under test receives only the
//! generated inputs.

use smappic_core::{Config, Platform, Topology, DRAM_BASE};
use smappic_isa::{assemble, Image};
use smappic_service::JobSpec;
use smappic_sim::{EthParams, SimRng};
use smappic_tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

use crate::trace::Tracer;

/// The seed every mode uses unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 0x51AB;

/// The counter every trace core's atomics contend on (homed on node 0).
const COUNTER: u64 = DRAM_BASE + 0xA000;
/// Guest DRAM per node on the rack shapes: small enough that sixteen
/// nodes stay cheap, sparse so untouched pages cost nothing.
const RACK_BYTES_PER_NODE: u64 = 16 << 20;
/// Patterned guest DRAM the checkpoint workload installs, in total.
const CKPT_PATTERN_BYTES: u64 = 16 << 20;

/// The five platform workloads and the checkpoint workload's platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    AmoSaturated,
    BurstySleep,
    ArianeAlu,
    ArianeMemwalk,
    RackEth16,
    CkptRack16,
}

impl Shape {
    pub fn config(self) -> Config {
        match self {
            Shape::RackEth16 | Shape::CkptRack16 => {
                let mut cfg = Config::rack(16, 1, 1, Topology::Ethernet(EthParams::default()));
                cfg.params.bytes_per_node = RACK_BYTES_PER_NODE;
                cfg
            }
            _ => Config::new(2, 2, 2),
        }
    }
}

/// Duty cycle of a trace program: `compute_lo + [0, compute_span)` busy
/// cycles, one atomic on the shared counter, and a private store with
/// probability `store_chance`.
#[derive(Debug, Clone, Copy)]
struct Duty {
    compute_lo: u64,
    compute_span: u64,
    store_chance: f64,
}

const SATURATED: Duty = Duty { compute_lo: 1, compute_span: 20, store_chance: 0.5 };
const BURSTY: Duty = Duty { compute_lo: 100, compute_span: 400, store_chance: 0.25 };

/// One core's trace program. `ops` is chosen by the caller so that no
/// core runs out of program inside the measured window.
fn trace_program(rng: &mut SimRng, ops: u64, duty: Duty, private: u64) -> Vec<TraceOp> {
    let mut program = Vec::with_capacity(ops as usize * 5 / 2);
    for i in 0..ops {
        program.push(TraceOp::Compute(duty.compute_lo + rng.gen_range(duty.compute_span)));
        program.push(TraceOp::AmoAdd(COUNTER, 1));
        if rng.chance(duty.store_chance) {
            program.push(TraceOp::StoreVal(private + (i % 16) * 64, i));
        }
    }
    program
}

/// The taus88 ALU loop: straight-line arithmetic between short backward
/// branches, state seeded per core.
fn alu_kernel(rng: &mut SimRng) -> String {
    let mut state = || (rng.next_u64() & 0x3fff_ffff) | 0x1000;
    format!(
        r#"
        li   s3, {}
        li   s4, {}
        li   s5, {}
        li   a1, 0x7fffffff
    step:
        slliw t0, s3, 13
        xor   t0, t0, s3
        srliw t0, t0, 19
        andi  t1, s3, -2
        slliw t1, t1, 12
        xor   s3, t1, t0
        slliw t0, s4, 2
        xor   t0, t0, s4
        srliw t0, t0, 25
        andi  t1, s4, -8
        slliw t1, t1, 4
        xor   s4, t1, t0
        slliw t0, s5, 3
        xor   t0, t0, s5
        srliw t0, t0, 11
        andi  t1, s5, -16
        slliw t1, t1, 17
        xor   s5, t1, t0
        addi  a1, a1, -1
        bnez  a1, step
        li   a7, 93
        li   a0, 0
        ecall
    "#,
        state(),
        state(),
        state()
    )
}

/// Bytes the memory walk covers: half the 8 KiB BPC, so it stays resident.
const WALK_BYTES: u64 = 4096;

/// Load / add / store over a private array: a basic block ends at a
/// memory operation every few instructions.
fn memwalk_kernel(rng: &mut SimRng) -> String {
    format!(
        r#"
        la   s0, array
        la   s1, array_end
        li   s2, {}
        li   a1, 0x7fffffff
    outer:
        mv   t0, s0
    walk:
        ld   t1, 0(t0)
        add  t1, t1, s2
        xor  t1, t1, t0
        sd   t1, 0(t0)
        addi t0, t0, 8
        bne  t0, s1, walk
        addi a1, a1, -1
        bnez a1, outer
        li   a7, 93
        li   a0, 0
        ecall
        .align 12
    array:
        .zero {WALK_BYTES}
    array_end:
    "#,
        1 + rng.gen_range(1000)
    )
}

/// `bytes` of guest memory as 4 KiB pages that compress but not
/// trivially, each stamped with a seeded word: what the checkpoint
/// workload snapshots and the codec kernel compresses.
pub fn patterned_pages(rng: &mut SimRng, bytes: usize) -> Vec<u8> {
    let mut data = vec![0u8; bytes];
    for (pg, page) in data.chunks_exact_mut(4096).enumerate() {
        for (i, b) in page.iter_mut().enumerate() {
            *b = ((pg * 7 + i / 16) & 0xFF) as u8;
        }
        page[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    data
}

/// Everything a platform workload installs, generated before the
/// platform exists so that set-up time splits into build and install.
pub struct Install {
    shape: Shape,
    traces: Vec<Vec<TraceOp>>,
    images: Vec<Image>,
    /// `(address, bytes)` written through the host backdoor.
    memory: Vec<(u64, Vec<u8>)>,
}

impl Install {
    /// Generates the inputs of `shape` for a measured window of `window`
    /// cycles from `seed`.
    pub fn generate(shape: Shape, seed: u64, window: u64) -> Self {
        let cfg = shape.config();
        let total = cfg.total_tiles();
        let mut rng = SimRng::new(seed);
        let mut install =
            Install { shape, traces: Vec::new(), images: Vec::new(), memory: Vec::new() };
        for g in 0..total as u64 {
            match shape {
                Shape::AmoSaturated | Shape::BurstySleep => {
                    // A core retires at most one op per `compute_lo + 1`
                    // cycles, and far fewer once the counter is contended.
                    let (duty, ops) = match shape {
                        Shape::AmoSaturated => (SATURATED, window / 12 + 64),
                        _ => (BURSTY, window / 100 + 64),
                    };
                    let private = DRAM_BASE + 0x40_0000 + g * 4096;
                    install.traces.push(trace_program(&mut rng, ops, duty, private));
                }
                Shape::RackEth16 | Shape::CkptRack16 => {
                    // An atomic crosses the Ethernet fabric (>= 2 x 100
                    // cycles of NIC links each way).
                    let private = DRAM_BASE + g * RACK_BYTES_PER_NODE + 0x4_0000;
                    install.traces.push(trace_program(
                        &mut rng,
                        window / 200 + 64,
                        SATURATED,
                        private,
                    ));
                }
                Shape::ArianeAlu | Shape::ArianeMemwalk => {
                    // Per-tile code so every core fetches its own lines.
                    let base = DRAM_BASE + 0x100_0000 + g * 0x1_0000;
                    let source = match shape {
                        Shape::ArianeAlu => alu_kernel(&mut rng),
                        _ => memwalk_kernel(&mut rng),
                    };
                    let img = assemble(&source, base).expect("generated kernel assembles");
                    if let Some(array) = img.symbol("array") {
                        let mut data = vec![0u8; WALK_BYTES as usize];
                        for word in data.chunks_exact_mut(8) {
                            word.copy_from_slice(&rng.next_u64().to_le_bytes());
                        }
                        install.memory.push((array, data));
                    }
                    install.images.push(img);
                }
            }
        }
        if shape == Shape::CkptRack16 {
            // Compressible but not trivial pages, spread evenly over the
            // nodes' windows, each stamped with a seeded word.
            let per_node = CKPT_PATTERN_BYTES / total as u64;
            for g in 0..total as u64 {
                let bytes = patterned_pages(&mut rng, per_node as usize);
                install.memory.push((DRAM_BASE + g * RACK_BYTES_PER_NODE + 0x10_0000, bytes));
            }
        }
        install
    }

    /// Fingerprint of the generated inputs: equal seeds give equal
    /// digests, different seeds different ones.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        use smappic_sim::fnv1a;
        use std::fmt::Write as _;
        let mut text = String::new();
        for t in &self.traces {
            write!(text, "{t:?}").expect("write to String");
        }
        for img in &self.images {
            write!(text, "{:x}:{:?}", img.base, img.bytes).expect("write to String");
        }
        for (addr, bytes) in &self.memory {
            write!(text, "{addr:x}:{:x}", fnv1a(bytes)).expect("write to String");
        }
        fnv1a(text.as_bytes())
    }

    /// Builds a fresh platform (span `core.build`) and installs the
    /// generated inputs on it (span `core.install`). Modelled caches start
    /// empty.
    pub fn platform(&self, tr: &mut Tracer) -> Platform {
        let cfg = self.shape.config();
        let tiles = cfg.tiles_per_node;
        let mut p = tr.scope("core.build", || Platform::new(cfg));
        let open = tr.begin("core.install");
        for img in &self.images {
            p.load_image(img);
        }
        for (addr, bytes) in &self.memory {
            p.write_mem(*addr, bytes);
        }
        for (g, program) in self.traces.iter().enumerate() {
            let (node, tile) = (g / tiles, (g % tiles) as u16);
            let map = p.addr_map(node);
            let core = TraceCore::with_addr_map(format!("w{g}"), program.clone(), map);
            p.set_engine(node, tile, Box::new(core));
        }
        for (g, img) in self.images.iter().enumerate() {
            let (node, tile) = (g / tiles, (g % tiles) as u16);
            let map = p.addr_map(node);
            let core = ArianeCore::new(ArianeConfig::new(g as u64, img.base, map));
            p.set_engine(node, tile, Box::new(core));
        }
        tr.end(open);
        p
    }
}

/// The four job shapes of the fleet, in submission rotation.
const FLEET_SHAPES: [&str; 4] = [
    "shape 2 1 2\ntopology star\nstepper serial\nworkload amoheavy",
    "shape 2 2 2\ntopology star\nstepper serial\nworkload bursty",
    "shape 4 1 2\ntopology eth 2\nstepper serial\nworkload bursty",
    "shape 2 1 4\ntopology star\nstepper serial\nworkload sort",
];
/// Tenants with their priorities, in submission rotation.
const FLEET_TENANTS: [(&str, u8); 3] = [("interactive", 6), ("ci", 4), ("batch", 1)];

/// The fleet as replay text, one spec per entry: `jobs` jobs over four
/// shapes and three tenants, workload seeds drawn from `seed`. `scale`
/// multiplies every job's size (the quick mode shrinks it).
pub fn fleet_text(seed: u64, jobs: usize, scale: f64) -> Vec<String> {
    let mut rng = SimRng::new(seed ^ 0xF1EE7);
    let sized = |n: u64| ((n as f64 * scale) as u64).max(8);
    (0..jobs)
        .map(|i| {
            let workload = match i % 4 {
                0 => format!(" {} {:#x}", sized(90), rng.next_u64() >> 16),
                1 => format!(" {} {:#x}", sized(42), rng.next_u64() >> 16),
                2 => format!(" {} {:#x}", sized(32), rng.next_u64() >> 16),
                _ => format!(" {} 4", sized(256)),
            };
            let (tenant, priority) = FLEET_TENANTS[i % 3];
            format!(
                "smappic-jobspec v1\nname fleet-{i}\n{}{workload}\nfaults none\nbudget 20000000\n\
                 trace off\ntenant {tenant}\npriority {priority}\n",
                FLEET_SHAPES[i % 4]
            )
        })
        .collect()
}

/// Parses the fleet text into specs.
pub fn parse_fleet(text: &[String]) -> Vec<JobSpec> {
    text.iter()
        .map(|t| {
            let spec = JobSpec::from_text(t).expect("generated spec parses");
            spec.validate().expect("generated spec is valid");
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [Shape; 6] = [
        Shape::AmoSaturated,
        Shape::BurstySleep,
        Shape::ArianeAlu,
        Shape::ArianeMemwalk,
        Shape::RackEth16,
        Shape::CkptRack16,
    ];

    #[test]
    fn the_same_seed_generates_identical_inputs_and_another_seed_different_ones() {
        for shape in SHAPES {
            let a = Install::generate(shape, 7, 20_000).digest();
            assert_eq!(a, Install::generate(shape, 7, 20_000).digest(), "{shape:?}");
            assert_ne!(a, Install::generate(shape, 8, 20_000).digest(), "{shape:?}");
        }
    }

    #[test]
    fn the_fleet_text_is_seeded_and_parses_into_the_advertised_mix() {
        let text = fleet_text(7, 24, 1.0);
        assert_eq!(text, fleet_text(7, 24, 1.0));
        assert_ne!(text, fleet_text(8, 24, 1.0));
        let specs = parse_fleet(&text);
        assert_eq!(specs.len(), 24);
        assert_eq!(specs.iter().filter(|s| s.tenant == "interactive").count(), 8);
        assert_eq!(specs[0].priority, 6);
        assert_eq!(specs[2].priority, 1);
        assert_eq!((specs[2].fpgas, specs[2].tiles), (4, 2));
        // The text round-trips through the service's own writer.
        assert_eq!(JobSpec::from_text(&specs[5].to_text()).unwrap(), specs[5]);
    }

    #[test]
    fn generated_platforms_build_and_run() {
        let mut tr = Tracer::new(true);
        for shape in [Shape::ArianeMemwalk, Shape::BurstySleep] {
            let install = Install::generate(shape, 7, 4_000);
            let mut p = install.platform(&mut tr);
            p.run(4_000);
            assert_eq!(p.now(), 4_000);
        }
        assert_eq!(tr.durations("core.build").len(), 2);
        assert_eq!(tr.durations("core.install").len(), 2);
    }
}
