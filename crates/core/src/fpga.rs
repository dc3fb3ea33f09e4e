//! One F1 FPGA: up to four nodes, an AXI crossbar binding them, and the
//! AWS Hard Shell.

use smappic_axi::{Crossbar, HardShell};
use smappic_coherence::Homing;
use smappic_noc::NodeId;
use smappic_sim::{Cycle, SaveState, SnapReader, SnapWriter};

use crate::bridge::NODE_WINDOW;
use crate::config::Config;
use crate::node::Node;

/// One FPGA of the prototype.
///
/// The crossbar has one master+slave port pair per local node bridge plus
/// one pair for the Hard Shell: same-FPGA inter-node traffic turns around
/// inside the crossbar (§3.1: *"connecting nodes on the same FPGA using
/// the AXI4 crossbar"*); everything else leaves via the shell and PCIe.
#[derive(Debug)]
pub struct Fpga {
    index: usize,
    nodes: Vec<Node>,
    xbar: Crossbar,
    shell: HardShell,
    first_global_node: usize,
    total_nodes: usize,
    /// Host-side switch: allow the AXI quiet path in [`Fpga::tick`]. Not
    /// architectural state — never serialized.
    fast_path: bool,
}

impl Fpga {
    /// Builds FPGA `index` of the prototype described by `cfg`.
    pub fn new(cfg: &Config, index: usize, homing: Homing) -> Self {
        let b = cfg.nodes_per_fpga;
        let first_global_node = index * b;
        let nodes = (0..b)
            .map(|i| Node::new(cfg, NodeId((first_global_node + i) as u16), homing))
            .collect();
        // Masters/slaves: b node bridges + 1 shell port.
        let mut xbar = Crossbar::new(b + 1, b + 1);
        let total_nodes = cfg.total_nodes();
        for g in 0..total_nodes {
            let base = g as u64 * NODE_WINDOW;
            let slave = if (first_global_node..first_global_node + b).contains(&g) {
                g - first_global_node
            } else {
                b // shell-outbound port
            };
            xbar.map_range(base, NODE_WINDOW, slave);
        }
        let mut shell = HardShell::new(index);
        shell.set_fpga_count(cfg.fpgas);
        Self { index, nodes, xbar, shell, first_global_node, total_nodes, fast_path: true }
    }

    /// Toggles the whole FPGA's host fast path: every node's (engines,
    /// component sleep, mesh elision) plus this FPGA's AXI quiet path.
    /// Off reproduces the plain reference simulator, bit-identically.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        for n in &mut self.nodes {
            n.set_fast_path(on);
        }
    }

    /// Global FPGA index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The nodes on this FPGA.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable node access by local index.
    pub fn node_mut(&mut self, local: usize) -> &mut Node {
        &mut self.nodes[local]
    }

    /// The Hard Shell (the platform pumps its PCIe side).
    pub fn shell_mut(&mut self) -> &mut HardShell {
        &mut self.shell
    }

    /// Read-only Hard Shell access (statistics).
    pub fn shell(&self) -> &HardShell {
        &self.shell
    }

    /// Mutable crossbar access (fault-injection wiring, statistics).
    pub fn xbar_mut(&mut self) -> &mut Crossbar {
        &mut self.xbar
    }

    /// Read-only crossbar access.
    pub fn xbar(&self) -> &Crossbar {
        &self.xbar
    }

    /// Everything on this FPGA is quiescent.
    pub fn is_idle(&self) -> bool {
        self.nodes.iter().all(Node::is_idle) && self.xbar.is_idle() && self.shell.is_idle()
    }

    /// Which global node a bridge address targets.
    fn addr_node(addr: u64) -> usize {
        (addr / NODE_WINDOW) as usize
    }

    /// The first cycle after `now` at which ticking this FPGA may do real
    /// work, when every tick until then is provably reducible to aging
    /// (every node quiet, every bridge's AXI side silent, crossbar ports
    /// empty, shell holding nothing); `None` when the FPGA must tick at
    /// `now`. `Cycle::MAX` means only PCIe deliveries can create work.
    /// Always `None` in reference mode so a warp never fires there.
    pub fn quiet_bound(&self, now: Cycle) -> Option<Cycle> {
        if !self.fast_path || !self.xbar.pump_is_noop() || !self.shell.warp_quiet_ok() {
            return None;
        }
        let mut bound = Cycle::MAX;
        for n in &self.nodes {
            bound = bound.min(n.quiet_bound(now)?);
            if !n.chipset().bridge_axi_quiet(now) {
                return None;
            }
            // An in-flight shaped request bounds the window even though
            // the bridge is quiet this cycle.
            if let Some(t) = n.chipset().bridge_next_axi_ready() {
                if t <= now {
                    return None;
                }
                bound = bound.min(t);
            }
        }
        Some(bound)
    }

    /// Applies `delta` quiet ticks in one step: exactly what that many
    /// per-cycle quiet paths would have done across the FPGA, including the
    /// crossbar's round-robin pointer advance. Caller guarantees
    /// [`Fpga::quiet_bound`] covers the whole window.
    pub fn warp_quiet(&mut self, delta: u64) {
        for n in &mut self.nodes {
            n.warp_quiet(delta);
        }
        self.xbar.advance_quiet(delta);
    }

    /// Advances one cycle: nodes, then the AXI plumbing between bridges,
    /// the crossbar, and the shell. Returns true when every node and the
    /// AXI plumbing took their quiet paths. The epoch driver asks
    /// [`Fpga::quiet_bound`] for a warp only after such a cycle, so a busy
    /// stretch pays for no probes; the price is that the first quiet cycle
    /// after one is ticked rather than warped, which is bit-identical.
    pub fn tick(&mut self, now: Cycle) -> bool {
        // Retry guard-held PCIe deliveries first so a delivery that slots
        // in this cycle is visible to the shell-inbound drain below (no-op
        // without the fault guard). Both steppers tick every simulated
        // cycle, so retry timing is identical under each.
        self.shell.pump_guard(now);
        let mut quiet = true;
        for n in &mut self.nodes {
            quiet &= n.tick(now);
        }
        let b = self.nodes.len();

        // AXI quiet path: when every bridge's AXI side is quiet at `now`,
        // every crossbar port is empty, and the shell's CL side holds
        // nothing, every pump loop below pops `None` immediately (each
        // probe is exact, and pops on empty ports are meter-neutral). The
        // tick's only state change is the crossbar's round-robin pointer
        // advance, which `tick_quiet` preserves so snapshot bytes match a
        // reference run bit for bit.
        if self.fast_path
            && self.xbar.pump_is_noop()
            && self.shell.cl_quiet()
            && self.nodes.iter().all(|n| n.chipset().bridge_axi_quiet(now))
        {
            self.xbar.tick_quiet();
            return quiet;
        }

        // Node bridges → crossbar masters; responses back.
        for i in 0..b {
            let bridge = self.nodes[i].chipset_mut().bridge_mut();
            while self.xbar.master_can_push(i) {
                let Some(req) = bridge.axi_pop_req(now) else { break };
                self.xbar.master_push(i, req).expect("capacity checked");
            }
            while let Some(resp) = self.xbar.master_pop(i) {
                self.nodes[i].chipset_mut().bridge_mut().axi_push_resp(now, resp);
            }
        }

        // Shell inbound (requests from peer FPGAs) → crossbar master b.
        while self.xbar.master_can_push(b) {
            let Some(req) = self.shell.cl_pop_inbound() else { break };
            self.xbar.master_push(b, req).expect("capacity checked");
        }
        while self.shell.cl_can_push_resp() {
            let Some(resp) = self.xbar.master_pop(b) else { break };
            self.shell.cl_push_resp(resp).expect("cl_can_push_resp checked");
        }

        self.xbar.tick(now);

        // Crossbar slaves: local node bridges receive; shell transmits.
        for i in 0..b {
            while let Some(req) = self.xbar.slave_pop(i) {
                self.nodes[i].chipset_mut().bridge_mut().axi_push_req(now, req);
            }
            while self.xbar.slave_can_push(i) {
                let bridge = self.nodes[i].chipset_mut().bridge_mut();
                let Some((_peer, resp)) = bridge.axi_pop_resp_for_peer() else { break };
                self.xbar.slave_push(i, resp).expect("slave_can_push checked");
            }
        }
        // Shell-outbound slave: add the PCIe window for the target FPGA.
        while self.shell.cl_can_push() {
            let Some(req) = self.xbar.slave_pop(b) else { break };
            let g = Self::addr_node(req.addr());
            debug_assert!(g < self.total_nodes, "bridge address beyond prototype");
            let dst_fpga = g / self.nodes.len();
            let window = HardShell::fpga_window(dst_fpga);
            let rewritten = match req {
                smappic_axi::AxiReq::Write(mut w) => {
                    w.addr += window;
                    smappic_axi::AxiReq::Write(w)
                }
                smappic_axi::AxiReq::Read(mut r) => {
                    r.addr += window;
                    smappic_axi::AxiReq::Read(r)
                }
            };
            self.shell.cl_push_outbound(rewritten).expect("cl_can_push checked");
        }
        while self.xbar.slave_can_push(b) {
            let Some(resp) = self.shell.cl_pop_resp() else { break };
            self.xbar.slave_push(b, resp).expect("slave_can_push checked");
        }
        false
    }

    /// The first global node index hosted here.
    pub fn first_global_node(&self) -> usize {
        self.first_global_node
    }
}

impl SaveState for Fpga {
    fn save(&self, w: &mut SnapWriter) {
        // Nodes keyed by *global* index, matching the metrics layer's
        // `node{g}` naming, so divergence reports name the same component
        // the dashboards do. Index and node counts are configuration; the
        // fast-path switch is host-side.
        let Self { index: _, nodes, xbar, shell, first_global_node, total_nodes: _, fast_path: _ } =
            self;
        for (i, n) in nodes.iter().enumerate() {
            w.scoped(&format!("node{}", first_global_node + i), |w| n.save(w));
        }
        w.scoped("xbar", |w| xbar.save(w));
        w.scoped("shell", |w| shell.save(w));
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            r.scoped(&format!("node{}", self.first_global_node + i), |r| n.restore(r));
        }
        r.scoped("xbar", |r| self.xbar.restore(r));
        r.scoped("shell", |r| self.shell.restore(r));
    }
}
