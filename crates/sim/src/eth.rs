//! Switched-Ethernet interconnect model: network-attached FPGAs behind
//! store-and-forward switches, a peer of the PCIe point-to-point links.
//!
//! cloudFPGA packs 1024 network-attached FPGAs per rack and FireSim
//! simulated a whole datacenter over a switched-Ethernet model; this module
//! makes those topologies representable. Endpoints ("members" — one per
//! FPGA) attach to top-of-rack switches in groups of
//! [`EthParams::group_size`]; every switch additionally owns one uplink
//! toward the spine, over which cross-group frames travel. Each physical
//! hop is an [`EthLink`]: a serialization cursor (bandwidth) feeding a
//! fixed-latency [`DelayPort`] (propagation), so a frame's ready time is
//! `max(now, link free) + ceil(bytes/bw) + latency`, exactly like the
//! [`TrafficShaper`](crate::TrafficShaper) the PCIe model uses.
//!
//! # Determinism contract
//!
//! The fabric is driven through three horizon-parameterized operations —
//! [`EthFabric::exchange`] (spine hand-off between switches),
//! [`EthSwitch::process`] (forward every matured frame strictly below a
//! horizon, in canonical `(time, remote-before-ingress, port)` order), and
//! [`EthSwitch::take_delivered`] (egress extraction through the fault
//! jitter stage) — each of which pops *every* event strictly below its
//! horizon. Because a member's send at cycle `t` cannot mature anywhere
//! before `t + 1 + link_latency`, and an uplink frame cannot arrive at the
//! remote switch before `t + 1 + uplink_latency` after its forwarding
//! event, any schedule of calls whose horizons advance by at most
//! `link_latency` (locally) and `uplink_latency` (globally) between
//! rendezvous processes the same totally-ordered event sequence. The
//! per-cycle reference stepper (horizon `now + 1`) and the grouped epoch
//! drivers are therefore bit-identical by construction — the property the
//! scale differential suite pins.
//!
//! Faults ride the same `(seed, stream, seq)` streams as the PCIe links
//! ([`fault_streams::link`]): each delivered frame consults the plan at its
//! egress maturity and is deferred (or ghost-duplicated) through a
//! deterministic per-member jitter buffer, ordered by
//! `(release, src, seq, copy)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{
    fault_streams, Cycle, DelayPort, FaultInjector, FaultPlan, MetricsRegistry, Pack, SaveState,
    SnapReader, SnapWriter, Stats,
};

/// Shape of a switched-Ethernet fabric: hop latencies/bandwidths in member
/// clock cycles and bytes per cycle, and the top-of-rack group size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthParams {
    /// NIC↔switch propagation delay, one way, in cycles (also the fabric's
    /// *local* lookahead: members of one group may advance this far between
    /// switch rendezvous). Must be ≥ 1.
    pub link_latency: Cycle,
    /// NIC↔switch serialization bandwidth in bytes per cycle. Must be ≥ 1.
    pub link_bytes_per_cycle: u64,
    /// Store-and-forward decision delay added by a switch to every frame.
    pub switch_latency: Cycle,
    /// Switch↔switch (spine) propagation delay, one way, in cycles (also
    /// the *global* lookahead: groups synchronize this often). Must be ≥ 1.
    pub uplink_latency: Cycle,
    /// Spine serialization bandwidth in bytes per cycle. Must be ≥ 1.
    pub uplink_bytes_per_cycle: u64,
    /// Members per top-of-rack switch. Must be ≥ 1.
    pub group_size: usize,
    /// Per-frame wire overhead (header + FCS + interframe gap) added to
    /// every payload before serialization.
    pub frame_overhead_bytes: u64,
}

impl Default for EthParams {
    /// A 25G-NIC / 100G-spine rack at a 100 MHz member clock: 1 µs NIC
    /// links (100 cycles), 3 µs spine (300 cycles), 8 members per switch.
    fn default() -> Self {
        Self {
            link_latency: 100,
            link_bytes_per_cycle: 32,
            switch_latency: 30,
            uplink_latency: 300,
            uplink_bytes_per_cycle: 128,
            group_size: 8,
            frame_overhead_bytes: 38,
        }
    }
}

impl EthParams {
    /// Checks the invariants the determinism argument rests on.
    ///
    /// # Panics
    ///
    /// Panics when a latency, bandwidth, or the group size is zero.
    pub fn validate(&self) {
        assert!(self.link_latency >= 1, "eth link latency must be >= 1 cycle");
        assert!(self.uplink_latency >= 1, "eth uplink latency must be >= 1 cycle");
        assert!(self.link_bytes_per_cycle >= 1, "eth link bandwidth must be >= 1 byte/cycle");
        assert!(self.uplink_bytes_per_cycle >= 1, "eth uplink bandwidth must be >= 1 byte/cycle");
        assert!(self.group_size >= 1, "eth group size must be >= 1");
    }
}

/// One frame in flight: an opaque payload plus the addressing and
/// accounting the fabric routes and faults by.
#[derive(Debug, Clone)]
pub struct Frame<T> {
    /// Sending member (global index).
    pub src: u32,
    /// Receiving member (global index).
    pub dst: u32,
    /// Per-`(src, dst)` send-order sequence number (the fault-stream seq
    /// and the receiver guard's ordering key).
    pub seq: u64,
    /// Wire size in bytes, overhead included.
    pub bytes: u64,
    /// The transported item.
    pub payload: T,
}

impl<T: Pack> Pack for Frame<T> {
    fn pack(&self, w: &mut SnapWriter) {
        w.u32(self.src);
        w.u32(self.dst);
        w.u64(self.seq);
        w.u64(self.bytes);
        self.payload.pack(w);
    }

    fn unpack(r: &mut SnapReader) -> Self {
        Self { src: r.u32(), dst: r.u32(), seq: r.u64(), bytes: r.u64(), payload: T::unpack(r) }
    }
}

/// One physical Ethernet hop: a serialization cursor (bandwidth model) in
/// front of a fixed-latency wire. Frames pushed at `now` become ready at
/// `max(now, free) + ceil(bytes / bw) + latency`, in push order.
#[derive(Debug, Clone)]
pub struct EthLink<T> {
    bytes_per_cycle: u64,
    /// Cycle at which the serializer becomes free again.
    free: Cycle,
    bytes_sent: u64,
    wire: DelayPort<Frame<T>>,
}

impl<T> EthLink<T> {
    /// Creates a hop with the given propagation `latency` and bandwidth.
    pub fn new(name: impl Into<String>, latency: Cycle, bytes_per_cycle: u64) -> Self {
        Self {
            bytes_per_cycle: bytes_per_cycle.max(1),
            free: 0,
            bytes_sent: 0,
            wire: DelayPort::new(name, latency),
        }
    }

    /// Enqueues `frame` at cycle `now`; returns the cycle it matures at the
    /// far end. Pushes must be monotone in `now` (they are: every producer
    /// pushes in event order).
    pub fn push(&mut self, now: Cycle, frame: Frame<T>) -> Cycle {
        let ser = frame.bytes.div_ceil(self.bytes_per_cycle).max(1);
        let start = now.max(self.free);
        self.free = start + ser;
        self.bytes_sent += frame.bytes;
        self.wire.push(start + ser, frame);
        start + ser + self.wire.latency()
    }

    /// Removes the oldest frame maturing strictly before `horizon`, with
    /// its maturity cycle.
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, Frame<T>)> {
        self.wire.pop_before(horizon)
    }

    /// Maturity cycle of the oldest in-flight frame, if any.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.wire.next_ready_at()
    }

    /// Frames in flight on this hop.
    pub fn len(&self) -> usize {
        self.wire.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.wire.is_empty()
    }

    /// Total payload+overhead bytes ever serialized onto this hop.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The underlying wire's meter (for `port.*` metrics merging).
    pub fn meter(&self) -> &crate::PortMeter {
        self.wire.meter()
    }
}

impl<T: Pack> SaveState for EthLink<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.free);
        w.u64(self.bytes_sent);
        // Ring only: the wire's meter samples occupancy at push/pop *call*
        // time, which the batched epoch driver legitimately shifts
        // relative to the per-cycle pump. The frames in flight are
        // architectural; the meter is a host-side diagnostic.
        self.wire.save_ring_only(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.free = r.u64();
        self.bytes_sent = r.u64();
        self.wire.restore_ring_only(r);
    }
}

/// Jitter key: `(release cycle, src member, seq, copy)` — `copy` is 0 for
/// the clean delivery and 1 for a fault-injected ghost duplicate.
type JitterKey = (Cycle, u32, u64, u8);

/// A top-of-rack switch: per-member ingress/egress hops, one spine uplink,
/// the remote-arrival queue fed by [`EthFabric::exchange`], and the
/// per-member fault jitter stage. Owns everything its group's epoch driver
/// touches, so the epoch driver can move whole switches onto worker threads.
#[derive(Debug, Clone)]
pub struct EthSwitch<T> {
    params: EthParams,
    /// First global member index of this group.
    first: usize,
    /// Total members of the whole fabric (for seq-table addressing).
    members_total: usize,
    ingress: Vec<EthLink<T>>,
    egress: Vec<EthLink<T>>,
    uplink: EthLink<T>,
    /// Cross-group frames that arrived over the spine, keyed by
    /// `(arrival, src, seq)`, awaiting forwarding onto a local egress hop.
    remote: BTreeMap<(Cycle, u32, u64), Frame<T>>,
    /// Per local member: faulted/clean deliveries awaiting release.
    jitter: Vec<BTreeMap<JitterKey, T>>,
    /// Send-order counters, one per `(local src, global dst)` pair,
    /// flattened as `local * members_total + dst`.
    seq: Vec<u64>,
    plan: Option<Arc<FaultPlan>>,
    frames: u64,
    frame_bytes: u64,
    delayed: u64,
    duplicated: u64,
}

impl<T: Clone> EthSwitch<T> {
    fn new(
        index: usize,
        first: usize,
        locals: usize,
        members_total: usize,
        params: &EthParams,
        plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        let ingress = (0..locals)
            .map(|m| {
                EthLink::new(
                    format!("sw{index}.in{}", first + m),
                    params.link_latency,
                    params.link_bytes_per_cycle,
                )
            })
            .collect();
        let egress = (0..locals)
            .map(|m| {
                EthLink::new(
                    format!("sw{index}.out{}", first + m),
                    params.link_latency,
                    params.link_bytes_per_cycle,
                )
            })
            .collect();
        let uplink = EthLink::new(
            format!("sw{index}.uplink"),
            params.uplink_latency,
            params.uplink_bytes_per_cycle,
        );
        Self {
            params: params.clone(),
            first,
            members_total,
            ingress,
            egress,
            uplink,
            remote: BTreeMap::new(),
            jitter: vec![BTreeMap::new(); locals],
            seq: vec![0; locals * members_total],
            plan,
            frames: 0,
            frame_bytes: 0,
            delayed: 0,
            duplicated: 0,
        }
    }

    /// A zero-member placeholder: what [`EthFabric::switch_mut`] holds while
    /// the real switch is moved onto a worker thread and back.
    pub fn placeholder() -> Self {
        Self::new(usize::MAX, 0, 0, 0, &EthParams::default(), None)
    }

    /// Members attached to this switch.
    pub fn locals(&self) -> usize {
        self.ingress.len()
    }

    /// First global member index of this group.
    pub fn first_member(&self) -> usize {
        self.first
    }

    fn is_local(&self, member: u32) -> bool {
        (member as usize) >= self.first && (member as usize) < self.first + self.locals()
    }

    /// Enqueues `payload` from local member `src` to any member `dst` at
    /// cycle `now`. `payload_bytes` is the payload's wire size; the frame
    /// overhead is added here. Sends from one member must be pushed in
    /// time order (they are: producers drain in cycle order).
    pub fn send(&mut self, now: Cycle, src: usize, dst: usize, payload_bytes: u64, payload: T) {
        debug_assert!(self.is_local(src as u32), "send from a non-local member");
        let local = src - self.first;
        let slot = local * self.members_total + dst;
        let seq = self.seq[slot];
        self.seq[slot] += 1;
        let bytes = payload_bytes + self.params.frame_overhead_bytes;
        self.frames += 1;
        self.frame_bytes += bytes;
        let frame = Frame { src: src as u32, dst: dst as u32, seq, bytes, payload };
        self.ingress[local].push(now, frame);
    }

    /// Forwards every matured event strictly before `horizon`, in the
    /// canonical total order `(time, remote-before-ingress, ingress port)`.
    /// Local-destination frames go onto the member's egress hop, others
    /// onto the uplink, both `switch_latency` after the event.
    ///
    /// Callers must not let `horizon` run more than `link_latency` past the
    /// youngest send, nor more than `uplink_latency` past the last
    /// [`EthFabric::exchange`] — the epoch driver's lookahead bounds.
    pub fn process(&mut self, horizon: Cycle) {
        loop {
            // Min event below the horizon: remote arrivals beat ingress at
            // equal time, lower ingress ports beat higher ones.
            let remote_at = self.remote.first_key_value().map(|(k, _)| k.0);
            let mut best: Option<(Cycle, usize)> = None; // (time, class-and-port)
            if let Some(t) = remote_at.filter(|&t| t < horizon) {
                best = Some((t, 0));
            }
            for (i, hop) in self.ingress.iter().enumerate() {
                if let Some(t) = hop.next_ready_at().filter(|&t| t < horizon) {
                    if best.is_none_or(|(bt, bi)| (t, i + 1) < (bt, bi)) {
                        best = Some((t, i + 1));
                    }
                }
            }
            let Some((time, which)) = best else { return };
            let frame = if which == 0 {
                self.remote.pop_first().expect("remote front exists").1
            } else {
                self.ingress[which - 1].pop_before(horizon).expect("ingress front exists").1
            };
            let fwd = time + self.params.switch_latency;
            if self.is_local(frame.dst) {
                let local = frame.dst as usize - self.first;
                self.egress[local].push(fwd, frame);
            } else {
                self.uplink.push(fwd, frame);
            }
        }
    }

    /// Drains spine frames maturing strictly before `horizon` (their
    /// arrival cycle at the far switch), for [`EthFabric::exchange`].
    pub fn uplink_take(&mut self, horizon: Cycle) -> Vec<(Cycle, Frame<T>)> {
        let mut out = Vec::new();
        while let Some(e) = self.uplink.pop_before(horizon) {
            out.push(e);
        }
        out
    }

    /// Installs a spine arrival (from [`EthFabric::exchange`]).
    pub fn remote_insert(&mut self, arrival: Cycle, frame: Frame<T>) {
        self.remote.insert((arrival, frame.src, frame.seq), frame);
    }

    /// Extracts deliveries for local member `member` releasing strictly
    /// before `horizon`, in `(release, src, seq, copy)` order. Matured
    /// egress frames first pass the fault stage: the plan is consulted at
    /// the frame's clean maturity and may defer it or add a ghost copy.
    pub fn take_delivered(&mut self, member: usize, horizon: Cycle) -> Vec<(Cycle, u32, u64, T)> {
        debug_assert!(self.is_local(member as u32), "delivery for a non-local member");
        let local = member - self.first;
        while let Some((ready, frame)) = self.egress[local].pop_before(horizon) {
            match &self.plan {
                Some(plan) => {
                    let inj = FaultInjector::new(
                        Arc::clone(plan),
                        fault_streams::link(frame.src as usize, frame.dst as usize),
                    );
                    let action = inj.link_action(frame.seq, ready);
                    if action.delay > 0 {
                        self.delayed += 1;
                    }
                    if let Some(extra) = action.duplicate {
                        self.duplicated += 1;
                        self.jitter[local].insert(
                            (ready + extra, frame.src, frame.seq, 1),
                            frame.payload.clone(),
                        );
                    }
                    self.jitter[local]
                        .insert((ready + action.delay, frame.src, frame.seq, 0), frame.payload);
                }
                None => {
                    self.jitter[local].insert((ready, frame.src, frame.seq, 0), frame.payload);
                }
            }
        }
        let mut out = Vec::new();
        while let Some((&(release, src, seq, _copy), _)) = self.jitter[local].first_key_value() {
            if release >= horizon {
                break;
            }
            let payload = self.jitter[local].pop_first().expect("jitter front exists").1;
            out.push((release, src, seq, payload));
        }
        out
    }

    /// True when nothing is in flight anywhere in this switch (a
    /// black-holed frame parks in the jitter stage, keeping the fabric
    /// visibly non-idle for the watchdog).
    pub fn is_idle(&self) -> bool {
        self.ingress.iter().all(EthLink::is_empty)
            && self.egress.iter().all(EthLink::is_empty)
            && self.uplink.is_empty()
            && self.remote.is_empty()
            && self.jitter.iter().all(BTreeMap::is_empty)
    }

    /// Frames in flight across all hops and stages of this switch.
    pub fn in_flight(&self) -> usize {
        self.ingress.iter().map(EthLink::len).sum::<usize>()
            + self.egress.iter().map(EthLink::len).sum::<usize>()
            + self.uplink.len()
            + self.remote.len()
            + self.jitter.iter().map(BTreeMap::len).sum::<usize>()
    }

    /// The earliest pending event cycle anywhere in this switch (hop
    /// maturity, remote arrival, or jitter release), unclamped: a value
    /// `<= now` means the per-cycle pump has work to do *this* cycle, so a
    /// warp over it would skip a real event.
    pub fn earliest_event(&self) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut fold = |t: Option<Cycle>| {
            if let Some(t) = t {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        };
        for hop in self.ingress.iter().chain(self.egress.iter()) {
            fold(hop.next_ready_at());
        }
        fold(self.uplink.next_ready_at());
        fold(self.remote.first_key_value().map(|(k, _)| k.0));
        for j in &self.jitter {
            fold(j.first_key_value().map(|(k, _)| k.0));
        }
        best
    }

    /// The earliest cycle strictly after `now` at which this switch has an
    /// event (hop maturity, remote arrival, or jitter release).
    pub fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        self.earliest_event().map(|t| t.max(now + 1))
    }

    /// Total wire bytes serialized by this switch's hops (progress
    /// signature input).
    pub fn bytes_transferred(&self) -> u64 {
        self.frame_bytes
    }

    /// `(frames, wire bytes, fault-delayed, fault-duplicated)` counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.frames, self.frame_bytes, self.delayed, self.duplicated)
    }

    /// Merges all hop meters into `m` under `port.<prefix>.<hop name>.*`.
    pub fn merge_port_metrics(&self, prefix: &str, m: &mut MetricsRegistry) {
        for hop in &self.ingress {
            hop.meter().merge_into(prefix, m);
        }
        for hop in &self.egress {
            hop.meter().merge_into(prefix, m);
        }
        self.uplink.meter().merge_into(prefix, m);
    }
}

impl<T: Pack + Clone> SaveState for EthSwitch<T> {
    fn save(&self, w: &mut SnapWriter) {
        for (i, hop) in self.ingress.iter().enumerate() {
            w.scoped(&format!("in{i}"), |w| hop.save(w));
        }
        for (i, hop) in self.egress.iter().enumerate() {
            w.scoped(&format!("out{i}"), |w| hop.save(w));
        }
        w.scoped("uplink", |w| self.uplink.save(w));
        w.usize(self.remote.len());
        for (k, frame) in &self.remote {
            k.pack(w);
            frame.pack(w);
        }
        for j in &self.jitter {
            w.usize(j.len());
            for (k, payload) in j {
                k.pack(w);
                payload.pack(w);
            }
        }
        self.seq.pack(w);
        w.u64(self.frames);
        w.u64(self.frame_bytes);
        w.u64(self.delayed);
        w.u64(self.duplicated);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for i in 0..self.ingress.len() {
            r.scoped(&format!("in{i}"), |r| self.ingress[i].restore(r));
        }
        for i in 0..self.egress.len() {
            r.scoped(&format!("out{i}"), |r| self.egress[i].restore(r));
        }
        r.scoped("uplink", |r| self.uplink.restore(r));
        self.remote.clear();
        let n = r.usize();
        for _ in 0..n {
            if !r.ok() {
                break;
            }
            let k = <(Cycle, u32, u64)>::unpack(r);
            self.remote.insert(k, Frame::unpack(r));
        }
        for j in &mut self.jitter {
            j.clear();
            let n = r.usize();
            for _ in 0..n {
                if !r.ok() {
                    break;
                }
                let k = JitterKey::unpack(r);
                j.insert(k, T::unpack(r));
            }
        }
        self.seq = Vec::unpack(r);
        self.frames = r.u64();
        self.frame_bytes = r.u64();
        self.delayed = r.u64();
        self.duplicated = r.u64();
    }
}

/// The whole switched fabric: one switch per `group_size` members plus the
/// spine connecting them. Generic over the transported payload so the
/// platform can ship its PCIe items over it unchanged.
#[derive(Debug, Clone)]
pub struct EthFabric<T> {
    params: EthParams,
    members: usize,
    switches: Vec<EthSwitch<T>>,
}

impl<T: Clone> EthFabric<T> {
    /// Builds a fabric for `members` endpoints grouped by
    /// `params.group_size`, with an optional fault plan applied to every
    /// link stream.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`EthParams::validate`].
    pub fn new(members: usize, params: EthParams, plan: Option<Arc<FaultPlan>>) -> Self {
        params.validate();
        let groups = members.div_ceil(params.group_size).max(1);
        let switches = (0..groups)
            .map(|g| {
                let first = g * params.group_size;
                let locals = params.group_size.min(members - first);
                EthSwitch::new(g, first, locals, members, &params, plan.clone())
            })
            .collect();
        Self { params, members, switches }
    }

    /// The fabric's shape parameters.
    pub fn params(&self) -> &EthParams {
        &self.params
    }

    /// Total attached members.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Number of switch-local groups.
    pub fn groups(&self) -> usize {
        self.switches.len()
    }

    /// The group (switch index) member `m` attaches to.
    pub fn group_of(&self, m: usize) -> usize {
        m / self.params.group_size
    }

    /// The global member range of group `g`.
    pub fn group_members(&self, g: usize) -> std::ops::Range<usize> {
        let first = self.switches[g].first_member();
        first..first + self.switches[g].locals()
    }

    /// Members of one group may advance this many cycles between local
    /// switch rendezvous.
    pub fn local_lookahead(&self) -> Cycle {
        self.params.link_latency
    }

    /// Groups synchronize with each other (via [`EthFabric::exchange`])
    /// this often.
    pub fn global_lookahead(&self) -> Cycle {
        self.params.uplink_latency
    }

    /// Sends `payload` from member `src` to member `dst` at cycle `now`.
    pub fn send(&mut self, now: Cycle, src: usize, dst: usize, payload_bytes: u64, payload: T) {
        let g = self.group_of(src);
        self.switches[g].send(now, src, dst, payload_bytes, payload);
    }

    /// Spine hand-off: moves every uplink frame arriving strictly before
    /// `horizon` into its destination switch's remote queue. Must run at a
    /// global barrier (all groups processed up to the previous horizon),
    /// *before* the groups' local epochs resume.
    pub fn exchange(&mut self, horizon: Cycle) {
        for s in 0..self.switches.len() {
            let moved = self.switches[s].uplink_take(horizon);
            for (arrival, frame) in moved {
                let d = self.group_of(frame.dst as usize);
                self.switches[d].remote_insert(arrival, frame);
            }
        }
    }

    /// Forwards matured frames below `horizon` on every switch (the
    /// per-cycle reference pump; the epoch driver processes each group's
    /// switch on its own instead).
    pub fn process_all(&mut self, horizon: Cycle) {
        for sw in &mut self.switches {
            sw.process(horizon);
        }
    }

    /// Extracts deliveries for `member` releasing strictly before
    /// `horizon`; see [`EthSwitch::take_delivered`].
    pub fn take_delivered(&mut self, member: usize, horizon: Cycle) -> Vec<(Cycle, u32, u64, T)> {
        let g = self.group_of(member);
        self.switches[g].take_delivered(member, horizon)
    }

    /// Mutable access to group `g`'s switch (for the epoch driver).
    pub fn switch_mut(&mut self, g: usize) -> &mut EthSwitch<T> {
        &mut self.switches[g]
    }

    /// True when no frame is in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.switches.iter().all(EthSwitch::is_idle)
    }

    /// Frames in flight across the whole fabric.
    pub fn in_flight(&self) -> usize {
        self.switches.iter().map(EthSwitch::in_flight).sum()
    }

    /// The earliest pending event cycle anywhere in the fabric, unclamped
    /// (see [`EthSwitch::earliest_event`]).
    pub fn earliest_event(&self) -> Option<Cycle> {
        self.switches.iter().filter_map(EthSwitch::earliest_event).min()
    }

    /// The earliest cycle strictly after `now` at which any switch has an
    /// event.
    pub fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        self.switches.iter().filter_map(|sw| sw.next_event_after(now)).min()
    }

    /// Total wire bytes serialized fabric-wide (progress signature input).
    pub fn bytes_transferred(&self) -> u64 {
        self.switches.iter().map(EthSwitch::bytes_transferred).sum()
    }

    /// `(fault-delayed, fault-duplicated)` frame counts fabric-wide.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.switches.iter().fold((0, 0), |(d, p), sw| {
            let (_, _, delayed, duplicated) = sw.counters();
            (d + delayed, p + duplicated)
        })
    }

    /// Merges fabric counters (`eth.frames`, `eth.bytes`) into `stats`.
    pub fn merge_stats(&self, stats: &mut Stats) {
        let (frames, bytes) = self.switches.iter().fold((0, 0), |(f, b), sw| {
            let (frames, bytes, _, _) = sw.counters();
            (f + frames, b + bytes)
        });
        stats.add("eth.frames", frames);
        stats.add("eth.bytes", bytes);
    }

    /// Merges every hop meter into `m` under
    /// `port.<prefix>.sw<g>.{in,out}<member>.*` names.
    pub fn merge_port_metrics(&self, prefix: &str, m: &mut MetricsRegistry) {
        for sw in &self.switches {
            sw.merge_port_metrics(prefix, m);
        }
    }
}

impl<T: Pack + Clone> SaveState for EthFabric<T> {
    fn save(&self, w: &mut SnapWriter) {
        for (g, sw) in self.switches.iter().enumerate() {
            w.scoped(&format!("sw{g}"), |w| sw.save(w));
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for g in 0..self.switches.len() {
            r.scoped(&format!("sw{g}"), |r| self.switches[g].restore(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultProfile;

    fn params() -> EthParams {
        EthParams {
            link_latency: 10,
            link_bytes_per_cycle: 8,
            switch_latency: 3,
            uplink_latency: 40,
            uplink_bytes_per_cycle: 16,
            group_size: 2,
            frame_overhead_bytes: 6,
        }
    }

    /// Drives the fabric one cycle at a time (the reference discipline) and
    /// collects deliveries as `(member, release, src, seq, payload)`.
    fn pump_until_idle(
        fab: &mut EthFabric<u64>,
        mut now: Cycle,
        budget: u64,
    ) -> Vec<(usize, Cycle, u32, u64, u64)> {
        let mut out = Vec::new();
        for _ in 0..budget {
            fab.exchange(now + 1);
            for m in 0..fab.members() {
                for (release, src, seq, payload) in fab.take_delivered(m, now + 1) {
                    out.push((m, release, src, seq, payload));
                }
            }
            fab.process_all(now + 1);
            if fab.is_idle() {
                break;
            }
            now += 1;
        }
        out
    }

    #[test]
    fn same_group_delivery_timing() {
        let mut fab: EthFabric<u64> = EthFabric::new(4, params(), None);
        // 10-byte payload + 6 overhead = 16 bytes → ser 2 cycles per hop.
        fab.send(100, 0, 1, 10, 0xAB);
        let got = pump_until_idle(&mut fab, 100, 500);
        // ingress: 100+2+10 = 112 matures; forward at 115; egress:
        // 115+2+10 = 127.
        assert_eq!(got, vec![(1, 127, 0, 0, 0xAB)]);
    }

    #[test]
    fn cross_group_goes_over_the_spine() {
        let mut fab: EthFabric<u64> = EthFabric::new(4, params(), None);
        fab.send(100, 0, 3, 10, 0xCD); // group 0 → group 1
        let got = pump_until_idle(&mut fab, 100, 1000);
        // ingress matures 112, fwd 115, uplink ser ceil(16/16)=1 → arrives
        // 115+1+40 = 156, fwd 159, egress 159+2+10 = 171.
        assert_eq!(got, vec![(3, 171, 0, 0, 0xCD)]);
    }

    #[test]
    fn serialization_backpressure_is_modeled() {
        let mut fab: EthFabric<u64> = EthFabric::new(2, params(), None);
        // Two 10-byte frames in the same cycle share the NIC serializer:
        // the second starts only when the first's 2 ser cycles are done.
        fab.send(100, 0, 1, 10, 1);
        fab.send(100, 0, 1, 10, 2);
        let got = pump_until_idle(&mut fab, 100, 500);
        assert_eq!(
            got,
            vec![(1, 127, 0, 0, 1), (1, 129, 0, 1, 2)],
            "second frame trails by its serialization time"
        );
    }

    #[test]
    fn epoch_and_percycle_schedules_are_bit_identical() {
        // The same traffic driven per-cycle vs with grouped horizons must
        // produce identical deliveries — the determinism contract the
        // platform's steppers rely on.
        let build = |fab: &mut EthFabric<u64>| {
            fab.send(0, 0, 1, 30, 7);
            fab.send(0, 1, 2, 5, 8); // cross-group
            fab.send(3, 3, 0, 64, 9); // cross-group, reverse
            fab.send(9, 0, 3, 1, 10);
        };
        let mut reference: EthFabric<u64> = EthFabric::new(4, params(), None);
        build(&mut reference);
        let expected = pump_until_idle(&mut reference, 9, 2000);

        let mut epoch: EthFabric<u64> = EthFabric::new(4, params(), None);
        build(&mut epoch);
        let (local, global) = (epoch.local_lookahead(), epoch.global_lookahead());
        let mut got = Vec::new();
        let mut tg = 10; // all sends happened before the first barrier
        for _ in 0..40 {
            epoch.exchange(tg + global);
            for g in 0..epoch.groups() {
                let mut t = tg;
                while t < tg + global {
                    let step = local.min(tg + global - t);
                    for m in epoch.group_members(g) {
                        for (release, src, seq, payload) in epoch.take_delivered(m, t + step) {
                            got.push((m, release, src, seq, payload));
                        }
                    }
                    epoch.switch_mut(g).process(t + step);
                    t += step;
                }
            }
            tg += global;
        }
        assert!(epoch.is_idle());
        let mut want = expected.clone();
        // The per-cycle pump emits in time order globally; the epoch driver
        // emits per group — compare as sets ordered by (member, release).
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn fault_plan_defers_but_never_drops() {
        let plan = Arc::new(FaultPlan::seeded(42, FaultProfile::light()));
        let mut clean: EthFabric<u64> = EthFabric::new(4, params(), None);
        let mut faulted: EthFabric<u64> = EthFabric::new(4, params(), Some(plan));
        for fab in [&mut clean, &mut faulted] {
            for k in 0..32u64 {
                fab.send(k * 3, (k % 4) as usize, ((k + 1) % 4) as usize, 8 + k, k);
            }
        }
        let clean_got = pump_until_idle(&mut clean, 96, 5000);
        let faulted_got = pump_until_idle(&mut faulted, 96, 5000);
        let (delayed, duplicated) = faulted.fault_counts();
        assert!(delayed + duplicated > 0, "light plan must fire on 32 frames");
        // Every clean delivery appears in the faulted run (possibly later,
        // possibly twice); nothing is lost.
        let key = |v: &Vec<(usize, Cycle, u32, u64, u64)>| {
            let mut k: Vec<(usize, u32, u64, u64)> =
                v.iter().map(|&(m, _, s, q, p)| (m, s, q, p)).collect();
            k.sort();
            k.dedup();
            k
        };
        assert_eq!(key(&clean_got), key(&faulted_got));
        assert_eq!(faulted_got.len() as u64, clean_got.len() as u64 + duplicated);
    }

    #[test]
    fn snapshot_round_trips_in_flight_state() {
        let plan = Arc::new(FaultPlan::seeded(7, FaultProfile::light()));
        let mut fab: EthFabric<u64> = EthFabric::new(4, params(), Some(plan.clone()));
        for k in 0..16u64 {
            fab.send(k * 2, (k % 4) as usize, ((k + 3) % 4) as usize, 12, k);
        }
        // Advance part-way so frames sit in every stage.
        for now in 32..80 {
            fab.exchange(now + 1);
            for m in 0..4 {
                let _ = fab.take_delivered(m, now + 1);
            }
            fab.process_all(now + 1);
        }
        assert!(!fab.is_idle(), "cut must land mid-flight");

        let mut w = SnapWriter::new();
        w.scoped("eth", |w| fab.save(w));
        let snap = crate::Snapshot::new(0, 80, w);

        let mut restored: EthFabric<u64> = EthFabric::new(4, params(), Some(plan));
        let mut r = SnapReader::new(&snap);
        r.scoped("eth", |r| restored.restore(r));
        r.finish().expect("clean restore");

        // Saving the restored fabric reproduces the bytes exactly.
        let mut w2 = SnapWriter::new();
        w2.scoped("eth", |w| restored.save(w));
        assert_eq!(snap.sections(), crate::Snapshot::new(0, 80, w2).sections());

        // And both continue identically.
        let a = pump_until_idle(&mut fab, 80, 5000);
        let b = pump_until_idle(&mut restored, 80, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn ragged_last_group_works() {
        let mut fab: EthFabric<u64> = EthFabric::new(5, params(), None);
        assert_eq!(fab.groups(), 3);
        assert_eq!(fab.group_members(2), 4..5);
        fab.send(0, 4, 0, 4, 99);
        let got = pump_until_idle(&mut fab, 0, 2000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].4, 99);
    }
}
