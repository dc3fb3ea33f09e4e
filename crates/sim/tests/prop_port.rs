//! Property tests for the credit-accounted port layer: randomized
//! push/pop/remove workloads against a model, driven by [`SimRng`] —
//! hand-rolled property loops (many seeds × many ops), no external
//! proptest dependency.
//!
//! Invariants covered (per the flow-control layer contract):
//! - credits never go negative and always equal `capacity - len`,
//! - push + pop conserves items (count and FIFO order),
//! - the meters the owning [`Meters`] block holds for a port — pushes,
//!   stalls, the peak-occupancy watermark (monotone and exact) and the
//!   occupancy histogram — match the model's own tallies,
//! - a push on a full port returns the rejected item untouched,
//! - [`DelayPort`] never reorders equal-stamp items,
//! - elastic ports grow without losing or reordering elements.

// The model the ports are checked against is the plain deque they wrap.
#![allow(clippy::disallowed_types)]

use std::collections::VecDeque;

use smappic_sim::{DelayPort, Histogram, MetersBuilder, Port, Ring, SimRng, ELASTIC_PREALLOC_CAP};

/// Drives a bounded port and a `VecDeque` model through the same random
/// op sequence, checking structural invariants after every op.
fn drive_bounded(seed: u64, capacity: usize, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut names = MetersBuilder::new();
    let mut port: Port<u64> = Port::bounded(names.port("prop.q"), capacity);
    let mut meters = names.build();
    let slot = port.slot();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut occupancy = Histogram::new();
    let mut next_item = 0u64;
    let (mut pushed, mut popped, mut stalled) = (0u64, 0u64, 0u64);
    let mut peak_seen = 0u64;
    let mut last_peak = 0u64;

    for step in 0..ops {
        match rng.gen_range(10) {
            // Push-heavy mix so the port actually fills.
            0..=4 => {
                let item = next_item;
                next_item += 1;
                match port.try_push(item, &mut meters) {
                    Ok(()) => {
                        model.push_back(item);
                        occupancy.record(model.len() as u64);
                        pushed += 1;
                    }
                    Err(back) => {
                        // Full-port push returns the rejected item untouched
                        // and leaves the queue unchanged.
                        assert_eq!(back, item, "seed {seed} step {step}: rejected item mangled");
                        assert_eq!(model.len(), capacity, "rejected while not full");
                        assert_eq!(port.len(), capacity);
                        stalled += 1;
                    }
                }
            }
            5..=7 => {
                let got = port.pop();
                assert_eq!(got, model.pop_front(), "seed {seed} step {step}: pop order diverged");
                if got.is_some() {
                    popped += 1;
                }
            }
            8 => {
                if !model.is_empty() {
                    let i = rng.gen_range(model.len() as u64) as usize;
                    let got = port.remove(i);
                    assert_eq!(got, model.remove(i), "seed {seed} step {step}: remove diverged");
                    popped += 1;
                }
            }
            _ => {
                assert_eq!(port.peek(), model.front());
                if !model.is_empty() {
                    let i = rng.gen_range(model.len() as u64) as usize;
                    assert_eq!(port.get(i), model.get(i));
                }
            }
        }

        // Credits never go negative (usize by construction) and always
        // mirror the occupancy exactly.
        assert_eq!(port.len(), model.len());
        assert_eq!(
            port.credits(),
            capacity - model.len(),
            "seed {seed} step {step}: credit accounting drifted"
        );
        assert_eq!(port.is_full(), model.len() == capacity);

        // Watermark: monotone, exact, never exceeded by live occupancy.
        peak_seen = peak_seen.max(model.len() as u64);
        let peak = meters.peak(slot);
        assert!(peak >= last_peak, "seed {seed} step {step}: watermark regressed");
        assert_eq!(peak, peak_seen, "seed {seed} step {step}: watermark inexact");
        last_peak = peak;
        assert_eq!(meters.stalls(slot), stalled, "seed {seed} step {step}: stalls drifted");
    }

    // Conservation: everything pushed is either popped or still queued,
    // and the block's meters agree with the model's arithmetic.
    assert_eq!(pushed - popped, model.len() as u64);
    assert_eq!(meters.pushes(slot), pushed);
    assert_eq!(meters.occupancy(slot), &occupancy, "seed {seed}: occupancy histogram drifted");
    let leftover: Vec<u64> = port.iter().copied().collect();
    assert_eq!(leftover, model.iter().copied().collect::<Vec<_>>());
}

#[test]
fn bounded_port_matches_model_across_seeds_and_capacities() {
    for seed in 0..16u64 {
        for capacity in [1usize, 2, 3, 7, 16, 64] {
            drive_bounded(seed, capacity, 600);
        }
    }
}

#[test]
fn full_port_push_counts_a_stall_per_rejection() {
    let mut names = MetersBuilder::new();
    let mut p: Port<u32> = Port::bounded(names.port("prop.stall"), 2);
    let mut m = names.build();
    p.try_push(1, &mut m).unwrap();
    p.try_push(2, &mut m).unwrap();
    for k in 0..5u32 {
        assert_eq!(p.try_push(100 + k, &mut m), Err(100 + k));
    }
    assert_eq!(m.stalls(p.slot()), 5);
    assert_eq!(p.len(), 2, "rejections must not change occupancy");
    p.pop();
    p.try_push(3, &mut m).unwrap();
    assert_eq!(m.stalls(p.slot()), 5, "accepted push must not count as stall");
    assert_eq!(m.occupancy(p.slot()).count(), 3, "only accepted pushes are sampled");
}

#[test]
fn elastic_port_conserves_order_through_growth() {
    for seed in 0..8u64 {
        let mut rng = SimRng::new(seed);
        let mut names = MetersBuilder::new();
        let mut port: Port<u64> = Port::elastic_with(names.port("prop.elastic"), 2);
        let mut m = names.build();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..2_000 {
            if rng.chance(0.6) {
                port.try_push(next, &mut m).expect("elastic ports never reject");
                model.push_back(next);
                next += 1;
            } else {
                assert_eq!(port.pop(), model.pop_front());
            }
            assert_eq!(port.len(), model.len());
            assert_eq!(port.credits(), usize::MAX, "elastic credits are unbounded");
        }
        assert_eq!(m.stalls(port.slot()), 0);
        let rest: Vec<u64> = port.iter().copied().collect();
        assert_eq!(rest, model.iter().copied().collect::<Vec<_>>());
    }
}

#[test]
fn delay_port_never_reorders_equal_stamp_items() {
    for seed in 0..16u64 {
        let mut rng = SimRng::new(seed);
        for latency in [0u64, 1, 4] {
            let mut names = MetersBuilder::new();
            let mut d: DelayPort<u64> = DelayPort::new(names.port("prop.delay"), latency);
            let mut m = names.build();
            let mut now = 0u64;
            let mut seq = 0u64;
            // Push in bursts: several items share one cycle stamp.
            for _ in 0..50 {
                let burst = 1 + rng.gen_range(4);
                for _ in 0..burst {
                    d.push(now, seq, &mut m);
                    seq += 1;
                }
                now += rng.gen_range(3);
            }
            // Drain; matured items must come out in exact push order, so
            // equal-stamp bursts keep their relative order.
            let mut out = Vec::new();
            while out.len() < seq as usize {
                while let Some(v) = d.pop_ready(now) {
                    out.push(v);
                }
                now += 1;
            }
            assert_eq!(out, (0..seq).collect::<Vec<_>>(), "seed {seed} latency {latency}");
            assert!(d.is_empty());
            assert_eq!(m.pushes(d.slot()), seq);
        }
    }
}

#[test]
fn delay_port_pops_exactly_at_maturity() {
    let mut names = MetersBuilder::new();
    let mut d: DelayPort<u8> = DelayPort::new(names.port("prop.mature"), 7);
    let mut m = names.build();
    d.push(100, 1, &mut m);
    assert_eq!(d.peek_ready(106), None);
    assert_eq!(d.pop_ready(106), None, "must not mature early");
    assert_eq!(d.next_ready_at(), Some(107));
    assert_eq!(d.next_event_after(100), Some(107));
    assert_eq!(d.next_event_after(200), Some(201), "past-due events clamp to now+1");
    assert_eq!(d.pop_ready(107), Some(1));
    assert_eq!(d.next_event_after(107), None);
}

#[test]
fn ring_matches_model_under_mixed_front_back_ops() {
    for seed in 0..16u64 {
        let mut rng = SimRng::new(seed);
        let mut ring: Ring<u64> = Ring::with_prealloc(1 + rng.gen_range(8) as usize);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for step in 0..1_500 {
            match rng.gen_range(8) {
                0..=2 => {
                    ring.push_back(next);
                    model.push_back(next);
                    next += 1;
                }
                3 => {
                    ring.push_front(next);
                    model.push_front(next);
                    next += 1;
                }
                4..=5 => assert_eq!(ring.pop_front(), model.pop_front()),
                6 => {
                    if !model.is_empty() {
                        let i = rng.gen_range(model.len() as u64) as usize;
                        assert_eq!(ring.remove(i), model.remove(i));
                    }
                }
                _ => {
                    assert_eq!(ring.front(), model.front());
                    assert_eq!(ring.back(), model.back());
                }
            }
            assert_eq!(ring.len(), model.len(), "seed {seed} step {step}");
        }
        assert_eq!(ring.drain_all(), model.iter().copied().collect::<Vec<_>>());
    }
}

#[test]
fn elastic_prealloc_hint_is_capped() {
    let r: Ring<u8> = Ring::with_prealloc(1 << 20);
    assert_eq!(r.slots(), ELASTIC_PREALLOC_CAP, "hints must clamp to the documented cap");
    let p: Port<u8> = Port::elastic_with(MetersBuilder::new().port("prop.capped"), 1 << 20);
    assert_eq!(p.capacity(), usize::MAX);
}
