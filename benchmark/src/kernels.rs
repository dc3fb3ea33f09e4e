//! Isolated layer kernels and the model-accuracy probe: each crate's
//! public API driven standalone, so a layer's own speed can be told apart
//! from the speed of the platform loop around it. Workload-independent.

use std::hint::black_box;
use std::time::Instant;

use smappic_axi::{AxiRead, AxiReq, PcieItem, PcieLink};
use smappic_core::{Config, Platform, DRAM_BASE};
use smappic_isa::{assemble, run_functional, Hart, VecBus};
use smappic_noc::{Gid, Mesh, MeshConfig, Msg, NodeId, Packet};
use smappic_sim::{codec, EthFabric, EthParams, SimRng};
use smappic_tile::{TraceCore, TraceOp};

use crate::programs::patterned_pages;
use crate::Outcome;

/// Repeats `batch` (which returns how many events it processed) until
/// `secs` have passed; returns million events per host second.
fn mevents_per_s(secs: f64, mut batch: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut events = 0u64;
    loop {
        events += batch();
        let spent = started.elapsed().as_secs_f64();
        if spent >= secs {
            return events as f64 / 1e6 / spent;
        }
    }
}

fn isa_kernel(secs: f64) -> f64 {
    let img = assemble(
        "li t0, 0\n li t1, 20000\n loop:\n addi t0, t0, 1\n xor t2, t0, t1\n and t3, t2, t0\n \
         or t4, t3, t1\n blt t0, t1, loop\n ecall\n",
        0x1000,
    )
    .expect("kernel assembles");
    let mut bus = VecBus::new(1 << 16);
    bus.load_image(&img);
    mevents_per_s(secs, || {
        let mut hart = Hart::new(0, 0x1000);
        run_functional(&mut hart, &mut bus, 1_000_000).expect("kernel runs to its ecall");
        black_box(hart.reg(5)) * 5 + 3
    })
}

/// Uniform random traffic on a 12-tile mesh; counts flits moved.
fn noc_kernel(secs: f64, rng: &mut SimRng) -> f64 {
    const TILES: u16 = 12;
    let mut mesh = Mesh::new(MeshConfig::new(NodeId(0), TILES as usize));
    let mut now = 0u64;
    mevents_per_s(secs, || {
        let before = mesh.stats().get("noc.flits");
        for _ in 0..2_000 {
            let src = rng.gen_range(u64::from(TILES)) as u16;
            let dst = rng.gen_range(u64::from(TILES)) as u16;
            let pkt = Packet::on_canonical_vn(
                Gid::tile(NodeId(0), dst),
                Gid::tile(NodeId(0), src),
                Msg::ReqS { line: now * 64 },
            );
            // A refused injection is back-pressure, not an error.
            let _ = mesh.inject(src, pkt);
            mesh.tick(now);
            for t in 0..TILES {
                while let Some(p) = mesh.eject(t) {
                    black_box(p);
                }
            }
            now += 1;
        }
        mesh.stats().get("noc.flits") - before
    })
}

fn pcie_kernel(secs: f64) -> f64 {
    let mut link = PcieLink::f1_default();
    let mut now = 0u64;
    mevents_per_s(secs, || {
        let mut received = 0u64;
        for i in 0..2_000u64 {
            link.send_from_a(now, PcieItem::Req(AxiReq::Read(AxiRead::new(i * 64, 64, i as u16))));
            while let Some(item) = link.recv_at_b(now) {
                black_box(item);
                received += 1;
            }
            now += 1;
        }
        received
    })
}

fn eth_kernel(secs: f64, rng: &mut SimRng) -> f64 {
    let mut fab: EthFabric<u64> = EthFabric::new(16, EthParams::default(), None);
    let mut now = 0u64;
    mevents_per_s(secs, || {
        let mut delivered = 0u64;
        for _ in 0..2_000 {
            let (src, dst) = (rng.gen_range(16) as usize, rng.gen_range(16) as usize);
            fab.send(now, src, dst, 64, now);
            fab.exchange(now + 1);
            for m in 0..fab.members() {
                delivered += fab.take_delivered(m, now + 1).len() as u64;
            }
            fab.process_all(now + 1);
            now += 1;
        }
        delivered
    })
}

/// Mean miss latency of 32 cold loads from node 0 to lines homed on
/// `home_node`, and the mean PCIe round trip they saw.
fn load_probe(home_node: u64) -> (f64, f64) {
    let cfg = Config::new(2, 1, 2);
    let region = DRAM_BASE + home_node * cfg.params.bytes_per_node + 0x80_0000;
    let ops = (0..32).map(|k| TraceOp::Load(region + k * 64)).collect();
    let mut p = Platform::new(cfg);
    p.set_engine(0, 0, Box::new(TraceCore::new("probe", ops)));
    p.run(40_000);
    let m = p.metrics();
    let mean = |name: &str| m.histogram(name).map_or(0.0, |h| h.mean());
    (mean("bpc.miss_latency"), mean("pcie.rtt"))
}

/// Runs every kernel for `secs` each and the model probe once.
pub fn run(secs: f64, seed: u64, out: &mut Outcome) {
    let mut rng = SimRng::new(seed ^ 0x6B65726E);
    out.set("isa.kernel_minst_per_s", isa_kernel(secs));
    out.set("noc.kernel_mflits_per_s", noc_kernel(secs, &mut rng));
    out.set("pcie.kernel_mitems_per_s", pcie_kernel(secs));
    out.set("eth.kernel_mframes_per_s", eth_kernel(secs, &mut rng));
    let input = patterned_pages(&mut rng, 1 << 20);
    let packed = codec::compress(&input);
    let mb = input.len() as f64 / 1e6;
    let compress = mevents_per_s(secs, || {
        black_box(codec::compress(black_box(&input)));
        1
    });
    out.set("codec.kernel_compress_mbps", compress * 1e6 * mb);
    let decompress = mevents_per_s(secs, || {
        black_box(codec::decompress(black_box(&packed)).expect("own output decompresses"));
        1
    });
    out.set("codec.kernel_decompress_mbps", decompress * 1e6 * mb);

    // The paper: 125-cycle inter-node round trip, remote about 2.5x local.
    let (local, _) = load_probe(0);
    let (remote, rtt) = load_probe(1);
    out.set("model.pcie_rtt_err_pct", (rtt - 125.0) / 125.0 * 100.0);
    out.set("model.numa_ratio_err_pct", (remote / local - 2.5) / 2.5 * 100.0);
}
