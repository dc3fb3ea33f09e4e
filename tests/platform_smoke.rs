//! End-to-end integration: whole-platform runs across crates.

use smappic::coherence::HomingMode;
use smappic::isa::assemble;
use smappic::platform::{Config, Platform, DRAM_BASE};
use smappic::tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

fn trace_core_done(p: &Platform, node: usize, tile: u16) -> bool {
    p.node(node)
        .tile(tile)
        .engine()
        .as_any()
        .downcast_ref::<TraceCore>()
        .is_some_and(|c| c.finished_at().is_some())
}

#[test]
fn single_node_trace_core_store_load() {
    let mut p = Platform::new(Config::new(1, 1, 2));
    let addr = DRAM_BASE + 0x1000;
    p.set_engine(
        0,
        0,
        Box::new(TraceCore::new("t0", vec![TraceOp::StoreVal(addr, 777), TraceOp::Load(addr)])),
    );
    assert!(p.run_until(200_000, |p| trace_core_done(p, 0, 0)), "program must finish");
    let core = p.node(0).tile(0).engine().as_any().downcast_ref::<TraceCore>().unwrap();
    assert_eq!(core.last_load(), 777);
}

#[test]
fn two_cores_communicate_through_shared_memory() {
    // Core 0 stores a flag; core 1 spins on it, then reads the payload.
    let mut p = Platform::new(Config::new(1, 1, 4));
    let flag = DRAM_BASE + 0x2000;
    let payload = DRAM_BASE + 0x2040;
    p.set_engine(
        0,
        0,
        Box::new(TraceCore::new(
            "writer",
            vec![
                TraceOp::StoreVal(payload, 0xDADA),
                TraceOp::Compute(50),
                TraceOp::StoreVal(flag, 1),
            ],
        )),
    );
    p.set_engine(
        0,
        1,
        Box::new(TraceCore::new(
            "reader",
            vec![TraceOp::SpinUntilEq(flag, 1), TraceOp::Load(payload)],
        )),
    );
    assert!(p.run_until(500_000, |p| trace_core_done(p, 0, 1)));
    let reader = p.node(0).tile(1).engine().as_any().downcast_ref::<TraceCore>().unwrap();
    assert_eq!(reader.last_load(), 0xDADA, "release/acquire through coherence must work");
}

#[test]
fn amo_counter_is_coherent_across_cores() {
    // Four cores each add 100 to a shared counter; a final load checks 400.
    let mut p = Platform::new(Config::new(1, 1, 4));
    let counter = DRAM_BASE + 0x3000;
    let done = DRAM_BASE + 0x3040;
    for t in 0..4u16 {
        let mut ops = Vec::new();
        for _ in 0..100 {
            ops.push(TraceOp::AmoAdd(counter, 1));
        }
        ops.push(TraceOp::AmoAdd(done, 1));
        if t == 0 {
            ops.push(TraceOp::SpinUntilGe(done, 4));
            ops.push(TraceOp::Load(counter));
        }
        p.set_engine(0, t, Box::new(TraceCore::new(format!("c{t}"), ops)));
    }
    assert!(p.run_until(2_000_000, |p| trace_core_done(p, 0, 0)));
    let c0 = p.node(0).tile(0).engine().as_any().downcast_ref::<TraceCore>().unwrap();
    assert_eq!(c0.last_load(), 400, "atomics must be globally ordered");
}

#[test]
fn cross_node_shared_memory_over_pcie() {
    // 2 FPGAs, 1 node each: a writer on node 0, a reader on node 1,
    // communicating through a line homed on node 0 (partitioned homing).
    let mut p = Platform::new(Config::new(2, 1, 2));
    let flag = DRAM_BASE + 0x4000; // homed at node 0
    let payload = DRAM_BASE + 0x4040;
    p.set_engine(
        0,
        0,
        Box::new(TraceCore::new(
            "writer",
            vec![TraceOp::StoreVal(payload, 4242), TraceOp::StoreVal(flag, 7)],
        )),
    );
    p.set_engine(
        1,
        0,
        Box::new(TraceCore::new(
            "reader",
            vec![TraceOp::SpinUntilEq(flag, 7), TraceOp::Load(payload)],
        )),
    );
    assert!(p.run_until(2_000_000, |p| trace_core_done(p, 1, 0)), "cross-node spin must complete");
    let reader = p.node(1).tile(0).engine().as_any().downcast_ref::<TraceCore>().unwrap();
    assert_eq!(reader.last_load(), 4242);
}

#[test]
fn cross_node_latency_exceeds_local() {
    // Measure one remote load vs one local load via finish times.
    let run_one = |local: bool| -> u64 {
        let mut p = Platform::new(Config::new(2, 1, 1));
        // Node 0 owns [DRAM_BASE, +256 MiB); node 1 the next region.
        let addr = if local {
            DRAM_BASE + 0x100
        } else {
            DRAM_BASE + p.config().params.bytes_per_node + 0x100
        };
        p.set_engine(0, 0, Box::new(TraceCore::new("probe", vec![TraceOp::Load(addr)])));
        assert!(p.run_until(1_000_000, |p| trace_core_done(p, 0, 0)));
        p.node(0)
            .tile(0)
            .engine()
            .as_any()
            .downcast_ref::<TraceCore>()
            .unwrap()
            .finished_at()
            .unwrap()
    };
    let local = run_one(true);
    let remote = run_one(false);
    assert!(
        remote > local + 100,
        "remote miss ({remote} cyc) must pay the ~125-cycle PCIe round trip over local ({local} cyc)"
    );
}

#[test]
fn ariane_runs_and_prints_over_the_real_uart() {
    let mut p = Platform::new(Config::new(1, 1, 1));
    let img = assemble(
        r#"
        li   t0, 0x60000000     # UART0 THR
        la   t1, msg
    next:
        lbu  t2, 0(t1)
        beqz t2, done
        sw   t2, 0(t0)
        addi t1, t1, 1
        j    next
    done:
        li   a7, 93
        li   a0, 0
        ecall
    msg:
        .asciz "hello, smappic"
    "#,
        DRAM_BASE,
    )
    .expect("assembles");
    p.load_image(&img);
    let map = p.addr_map(0);
    p.set_engine(0, 0, Box::new(ArianeCore::new(ArianeConfig::new(0, DRAM_BASE, map))));

    let mut console = Vec::new();
    for _ in 0..40 {
        p.run(50_000);
        console.extend(p.console_mut(0).take_output());
        if console.len() >= 14 {
            break;
        }
    }
    assert_eq!(String::from_utf8_lossy(&console), "hello, smappic");
    let core = p.node(0).tile(0).engine().as_any().downcast_ref::<ArianeCore>().unwrap();
    assert_eq!(core.exit_code(), Some(0));
}

#[test]
fn homing_modes_change_where_lines_live() {
    for mode in [HomingMode::StripeAllNodes, HomingMode::NodeLocal] {
        let mut cfg = Config::new(2, 1, 1);
        cfg.homing = Some(mode);
        let mut p = Platform::new(cfg);
        let addr = DRAM_BASE + 0x40; // line 1: stripes to node 1, local stays at 0
        p.set_engine(
            0,
            0,
            Box::new(TraceCore::new("w", vec![TraceOp::StoreVal(addr, 5), TraceOp::Load(addr)])),
        );
        assert!(p.run_until(1_000_000, |p| trace_core_done(p, 0, 0)), "mode {mode:?}");
        let c = p.node(0).tile(0).engine().as_any().downcast_ref::<TraceCore>().unwrap();
        assert_eq!(c.last_load(), 5, "mode {mode:?}");
    }
}

/// Runs a fixed mixed read/write working set from tile 0 of a 2x1x2
/// prototype under `homing`, with `extra` cycles added to the inter-node
/// bridge, and returns the cycle it finished at.
fn working_set_cycles(homing: Option<HomingMode>, extra: u64) -> u64 {
    let mut cfg = Config::new(2, 1, 2);
    cfg.homing = homing;
    cfg.params.bridge_extra_latency = extra;
    let mut p = Platform::new(cfg);
    let mut ops = Vec::new();
    for i in 0..256u64 {
        ops.push(TraceOp::Store(DRAM_BASE + i * 64));
        ops.push(TraceOp::Load(DRAM_BASE + ((i * 37) % 256) * 64));
    }
    p.set_engine(0, 0, Box::new(TraceCore::new("ws", ops)));
    assert!(p.run_until(5_000_000, |p| trace_core_done(p, 0, 0)), "working set hung");
    p.now()
}

#[test]
fn homing_and_link_latency_ablations_have_the_documented_shape() {
    // DESIGN.md §4's two ablations; the simulated cycle count is the result.
    let striped_plus = |extra| working_set_cycles(Some(HomingMode::StripeAllNodes), extra);

    // Homing: a working set inside node 0's window is all-local under
    // SMAPPIC's partitioned default, exactly as under BYOC-style
    // node-local homing; line-striping sends every other line across PCIe.
    let partitioned = working_set_cycles(None, 0);
    let striped = striped_plus(0);
    assert_eq!(partitioned, working_set_cycles(Some(HomingMode::NodeLocal), 0));
    assert!(partitioned < striped, "partitioned {partitioned} vs striped {striped}");

    // Link latency (the §3.5 traffic shaper, striped to force remote
    // traffic): runtime grows with the added cycles, and linearly — the
    // working set is a dependent chain of remote misses.
    let (plus100, plus400) = (striped_plus(100), striped_plus(400));
    assert!(striped < plus100 && plus100 < plus400, "{striped} / {plus100} / {plus400}");
    assert_eq!((plus100 - striped) * 4, plus400 - striped, "not linear in the added latency");
}
