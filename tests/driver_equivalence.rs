//! Epoch-driver differential table: one driver serves every topology and
//! both executors, so every (topology, budget shape) cell must be the same
//! simulation under the per-cycle reference, `run` (units on the calling
//! thread) and `run_parallel` (a worker per unit).
//!
//! The budgets are the cases the per-topology suites leave open: a budget
//! of `k * global + 17` ends in a truncated epoch on the racks as well as
//! on the stars, and splitting the same budget into two calls away from an
//! epoch boundary puts a second truncated epoch mid-run, with traffic in
//! flight across it.
//!
//! The second table is the stop rule: `run_preemptible` is one drive whose
//! barrier probes for idleness at grain boundaries, and must be the same
//! run — `host.stepper` epoch schedule included — as the loop of
//! grain-sized `run`/`run_parallel` calls it replaced.

use smappic::platform::{Config, Platform, Topology, DRAM_BASE};
use smappic::sim::{EthParams, SimRng};
use smappic::tile::{TraceCore, TraceOp};

const COUNTER: u64 = DRAM_BASE + 0xB000;
const PRIVATE_BASE: u64 = DRAM_BASE + 0x80_0000;

/// Every core hammers a counter homed on node 0 for `rounds` rounds, so
/// all traffic from FPGA > 0 crosses the interconnect for the whole run.
fn build_rounds(cfg: Config, rounds: u64) -> Platform {
    let (total, tiles) = (cfg.total_tiles(), cfg.tiles_per_node);
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0xD21E);
    for g in 0..total {
        let private = PRIVATE_BASE + g as u64 * 4096;
        let mut ops = Vec::new();
        for i in 0..rounds {
            if rng.chance(0.35) {
                ops.push(TraceOp::Compute(rng.gen_range(24) + 1));
            }
            ops.push(TraceOp::AmoAdd(COUNTER, 1));
            ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
        }
        ops.push(TraceOp::Checksum(COUNTER));
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let map = p.addr_map(node);
        p.set_engine(node, tile, Box::new(TraceCore::with_addr_map(format!("d{g}"), ops, map)));
    }
    p
}

fn build(cfg: Config) -> Platform {
    build_rounds(cfg, 24)
}

fn rack(fpgas: usize, group_size: usize, hybrid: bool) -> Config {
    let params = EthParams {
        link_latency: 12,
        link_bytes_per_cycle: 32,
        switch_latency: 4,
        uplink_latency: 40,
        uplink_bytes_per_cycle: 128,
        group_size,
        frame_overhead_bytes: 38,
    };
    let topology = if hybrid { Topology::Hybrid(params) } else { Topology::Ethernet(params) };
    Config::rack(fpgas, 1, 1, topology)
}

fn assert_bit_identical(a: &Platform, b: &Platform, label: &str) {
    assert_eq!(a.now(), b.now(), "{label}: cycle counts diverged");
    assert_eq!(a.snapshot().first_divergence(&b.snapshot()), None, "{label}: state diverged");
    assert_eq!(a.stats().to_string(), b.stats().to_string(), "{label}: statistics diverged");
    assert_eq!(
        a.metrics().architectural(),
        b.metrics().architectural(),
        "{label}: architectural metrics diverged"
    );
}

/// `(count, sum)` of the recorded epoch widths.
fn epoch_widths(p: &Platform) -> (u64, u128) {
    p.metrics().histogram("host.epoch_width").map_or((0, 0), |h| (h.count(), h.sum()))
}

#[test]
fn reference_inline_and_threads_agree_on_every_topology_and_budget_shape() {
    let table = [
        ("2-FPGA star", Config::new(2, 1, 1)),
        ("4-FPGA star", Config::new(4, 1, 1)),
        ("16-FPGA ethernet, groups of 8", rack(16, 8, false)),
        ("16-FPGA hybrid, groups of 4", rack(16, 4, true)),
    ];
    for (name, cfg) in &table {
        let probe = Platform::new(cfg.clone());
        let is_rack = !matches!(probe.config().topology, Topology::PcieStar);
        let global = if is_rack { probe.grouped_lookaheads().1 } else { probe.lookahead() };
        let budget = 60 * global + 17;
        // One call, then the same budget cut 5 cycles into an epoch.
        for calls in [vec![budget], vec![7 * global + 5, budget - (7 * global + 5)]] {
            let label = format!("{name}, {} call(s)", calls.len());
            let mut reference = build(cfg.clone());
            reference.set_fast_path(false);
            let mut inline = build(cfg.clone());
            let mut threads = build(cfg.clone());
            for &n in &calls {
                reference.run(n);
                inline.run(n);
                threads.run_parallel(n);
            }
            assert_eq!(reference.now(), budget);
            assert_bit_identical(&reference, &inline, &format!("{label}: reference vs run"));
            assert_bit_identical(&reference, &threads, &format!("{label}: reference vs parallel"));

            // Both executors walked the same epoch schedule, truncated
            // epochs included; the reference recorded none.
            let (count, sum) = epoch_widths(&inline);
            assert_eq!((count, sum), epoch_widths(&threads), "{label}: epoch schedules differ");
            assert_eq!(sum, u128::from(budget), "{label}: epochs must tile the budget");
            assert_eq!(count, 60 + calls.len() as u64, "{label}: one truncated epoch per call");
            assert_eq!(epoch_widths(&reference), (0, 0));

            // Not vacuous: the workload is still running at the cut, and on
            // the racks frames crossed the spine, so the truncated-epoch
            // exchange carried traffic.
            assert!(!reference.is_idle(), "{label}: workload drained before the final epoch");
            if is_rack {
                let m = reference.metrics();
                let spine = m.counters().get("host.port.eth.sw0.uplink.pushes")
                    + m.counters().get("host.port.eth.sw1.uplink.pushes");
                assert!(spine > 0, "{label}: no spine traffic exercised");
            }
        }
    }
}

/// `run_preemptible` as it was before the idle probe moved into the drive:
/// one `run`/`run_parallel` call per grain, idleness checked in between.
fn grain_loop(p: &mut Platform, budget: u64, parallel: bool) -> u64 {
    let grain = p.preemption_grain();
    let mut spent = 0;
    while spent < budget {
        let step = grain.min(budget - spent);
        if parallel {
            p.run_parallel(step);
        } else {
            p.run(step);
        }
        spent += step;
        if p.is_idle() {
            break;
        }
    }
    spent
}

#[test]
fn run_preemptible_is_the_grain_loop_it_replaced() {
    const PAST_IDLE: u64 = 5_000_000;
    // (name, shape, fast path, workload rounds: enough to outlast the
    // short budgets, few enough to quiesce quickly).
    let table = [
        ("2x2x2 star", Config::new(2, 2, 2), true, 6),
        ("2x2x2 star, reference mode", Config::new(2, 2, 2), false, 6),
        ("16-FPGA ethernet, groups of 8", rack(16, 8, false), true, 6),
        ("16-FPGA hybrid, groups of 4", rack(16, 4, true), true, 6),
        ("single FPGA, no lookahead", Config::new(1, 1, 2), true, 60),
    ];
    for (name, cfg, fast_path, rounds) in &table {
        let grain = Platform::new(cfg.clone()).preemption_grain();
        let budgets = [
            vec![3 * grain],
            vec![3 * grain + 17],
            vec![PAST_IDLE],
            vec![0],
            vec![2 * grain, PAST_IDLE],
        ];
        for parallel in [false, true] {
            for calls in &budgets {
                let label = format!("{name}, parallel={parallel}, budgets {calls:?}");
                let mut looped = build_rounds(cfg.clone(), *rounds);
                let mut driven = build_rounds(cfg.clone(), *rounds);
                looped.set_fast_path(*fast_path);
                driven.set_fast_path(*fast_path);
                for &budget in calls {
                    let spent = grain_loop(&mut looped, budget, parallel);
                    assert_eq!(driven.run_preemptible(budget, parallel), spent, "{label}: spent");
                    assert_eq!(driven.is_idle(), looped.is_idle(), "{label}: idleness");
                    // Not vacuous: the short budgets cut a live workload,
                    // the long ones stop at quiescence well before the end.
                    assert_eq!(driven.is_idle(), budget == PAST_IDLE, "{label}: where it stopped");
                    assert!(
                        spent == budget || spent.is_multiple_of(grain),
                        "{label}: stop off the grain"
                    );
                }
                assert_eq!(driven.now(), looped.now(), "{label}: now");
                // Every byte, the epoch schedule in `host.stepper` included
                // (`first_divergence` skips host sections but names the rest).
                let (d, l) = (driven.snapshot(), looped.snapshot());
                assert_eq!(d.first_divergence(&l), None, "{label}");
                assert!(d.to_bytes() == l.to_bytes(), "{label}: host.stepper diverged");
            }
        }
    }
}
