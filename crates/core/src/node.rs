//! One node: a BYOC instance — tiles, mesh, and chipset.

use smappic_coherence::{Bpc, BpcConfig, Geometry, Homing, LlcConfig, LlcSlice};
use smappic_mem::{Dram, DramConfig, MemController, MemControllerConfig};
use smappic_noc::{Gid, Mesh, MeshConfig, NodeId, TileId};
use smappic_sim::{Cycle, SaveState, SnapReader, SnapWriter};
use smappic_tile::{Engine, IdleEngine, Tile};

use crate::bridge::InterNodeBridge;
use crate::chipset::Chipset;
use crate::config::Config;

/// One node of the prototype (one chip/die of the target system).
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    mesh: Mesh,
    tiles: Vec<Tile>,
    chipset: Chipset,
}

impl Node {
    /// Builds a node for `cfg` with idle engines in every tile; the
    /// platform installs cores/accelerators afterwards.
    pub fn new(cfg: &Config, id: NodeId, homing: Homing) -> Self {
        let tiles_n = cfg.tiles_per_node;
        let p = &cfg.params;
        let mesh = Mesh::new(MeshConfig::new(id, tiles_n).with_hop_latency(p.hop_latency));
        let tiles = (0..tiles_n as TileId)
            .map(|t| {
                let gid = Gid::tile(id, t);
                let mut bpc_cfg = BpcConfig::new(gid, homing);
                bpc_cfg.geometry = Geometry::new(p.bpc_bytes, p.bpc_ways);
                bpc_cfg.mshrs = p.bpc_mshrs;
                bpc_cfg.hit_latency = p.bpc_hit_latency;
                let mut llc_cfg = LlcConfig::new(gid);
                llc_cfg.geometry = Geometry::new(p.llc_slice_bytes, p.llc_ways);
                llc_cfg.latency = p.llc_latency;
                Tile::new(gid, Bpc::new(bpc_cfg), LlcSlice::new(llc_cfg), Box::new(IdleEngine))
            })
            .collect();
        // Partitioned homing places node g's window at
        // DRAM_BASE + g * bytes_per_node, so rack-scale node counts push
        // the top of guest DRAM past the classic 16 GiB — size the
        // capacity to cover every homed window or far accesses would trip
        // the out-of-bounds fault counter.
        let homed_top = crate::config::DRAM_BASE + cfg.total_nodes() as u64 * p.bytes_per_node;
        let dram = Dram::new(DramConfig {
            latency: p.dram_latency,
            // DDR4-2133 behind a 100 MHz fabric: ~17 GB/s ≈ 170 B/cycle;
            // 128 keeps the channel from becoming a false bottleneck when
            // many threads share one node (Fig 9's single-node case).
            bytes_per_cycle: 128,
            capacity: (16u64 << 30).max(homed_top),
        });
        let memctl = MemController::new(MemControllerConfig::new(Gid::chipset(id)), dram);
        let bridge = InterNodeBridge::new(id, p.bridge_extra_latency, p.bridge_bytes_per_cycle);
        let chipset = Chipset::new(id, tiles_n, memctl, bridge);
        Self { id, mesh, tiles, chipset }
    }

    /// The node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Installs a compute engine into tile `t`.
    pub fn set_engine(&mut self, t: TileId, engine: Box<dyn Engine>) {
        self.tiles[t as usize].set_engine(engine);
    }

    /// Direct tile access.
    pub fn tile(&self, t: TileId) -> &Tile {
        &self.tiles[t as usize]
    }

    /// Mutable tile access (engine installation, result inspection).
    pub fn tile_mut(&mut self, t: TileId) -> &mut Tile {
        &mut self.tiles[t as usize]
    }

    /// The chipset.
    pub fn chipset(&self) -> &Chipset {
        &self.chipset
    }

    /// The node's mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutable mesh access (fault-injection wiring).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// Mutable chipset access (UART consoles, memory backdoor, bridge).
    pub fn chipset_mut(&mut self) -> &mut Chipset {
        &mut self.chipset
    }

    /// Toggles the node's entire host-side fast path: decoded-block
    /// dispatch in every engine, per-component sleep in tiles and the
    /// chipset, and the mesh's empty-tick elision. Off reproduces the
    /// plain reference simulator, bit-identically.
    pub fn set_fast_path(&mut self, on: bool) {
        for t in &mut self.tiles {
            t.set_fast_path(on);
        }
        self.chipset.set_fast_path(on);
        self.mesh.set_fast_path(on);
    }

    /// Host-side scheduler diagnostics: component ticks elided across the
    /// node's tiles and chipset, and decoded-block cache totals.
    pub fn host_perf(&self) -> (u64, u64, u64, u64) {
        let mut skipped = 0;
        let mut hits = 0;
        let mut misses = 0;
        for t in &self.tiles {
            skipped += t.skipped_cycles();
            if let Some((h, m)) = t.engine().block_cache_stats() {
                hits += h;
                misses += m;
            }
        }
        (skipped, self.chipset.skipped_cycles(), hits, misses)
    }

    /// The first cycle after `now` at which ticking this node may do real
    /// work, when every tick until then is provably the quiet path (all
    /// tiles sleeping, chipset skip guaranteed, mesh drained); `None` when
    /// the node must tick at `now`. `Cycle::MAX` means only external input
    /// (bridge AXI traffic) can create work.
    pub fn quiet_bound(&self, now: Cycle) -> Option<Cycle> {
        if !self.mesh.is_drained() {
            return None;
        }
        let mut bound = self.chipset.quiet_bound(now)?;
        for t in &self.tiles {
            let wake = t.wake_at()?;
            if wake <= now {
                return None;
            }
            bound = bound.min(wake);
        }
        Some(bound)
    }

    /// Applies `delta` quiet-path ticks in one step: exactly what that
    /// many per-cycle quiet paths would have done. Caller guarantees
    /// [`Node::quiet_bound`] covers the whole window.
    pub fn warp_quiet(&mut self, delta: u64) {
        for t in &mut self.tiles {
            t.warp_quiet(delta);
        }
        self.chipset.warp_quiet(delta);
    }

    /// All tiles' engines finished and every queue in the node drained.
    pub fn is_idle(&self) -> bool {
        self.tiles.iter().all(Tile::is_idle) && self.mesh.is_idle() && self.chipset.is_idle()
    }

    /// Advances the node one cycle. Returns true when the cycle took the
    /// quiet path; see [`Fpga::tick`](crate::fpga::Fpga::tick) for what the
    /// epoch driver does with that.
    pub fn tick(&mut self, now: Cycle) -> bool {
        // Quiet path: when every tile and the chipset are provably taking
        // their skip paths and the mesh holds no packet, all the pumping
        // below moves nothing — the sleep predicates guarantee every queue
        // it drains is empty. Reduce the cycle to the skip ticks themselves
        // (engine aging, mtime increment). Any wake condition — external
        // push, probe firing, sleep expiry — falls through to the full
        // path, so behaviour is bit-identical.
        if self.mesh.is_drained()
            && self.chipset.tick_is_noop(now)
            && self.tiles.iter().all(|t| t.is_sleeping(now))
        {
            self.warp_quiet(1);
            return true;
        }

        for t in &mut self.tiles {
            t.tick(now);
        }
        self.mesh.tick(now);

        // Tiles ↔ mesh. Injection is pumped per virtual network so a
        // congested request network never blocks response traffic
        // (deadlock freedom).
        for (i, tile) in self.tiles.iter_mut().enumerate() {
            let ti = i as TileId;
            while let Some(p) = self.mesh.eject(ti) {
                tile.push_noc(now, p);
            }
            for vn in 0..3 {
                while let Some(p) = tile.pop_noc_vn(vn) {
                    match self.mesh.inject(ti, p) {
                        Ok(()) => {}
                        Err(p) => {
                            tile.unpop_noc(p);
                            break;
                        }
                    }
                }
            }
        }

        // Edge ↔ chipset, also per virtual network.
        while let Some(p) = self.mesh.eject_edge() {
            self.chipset.push_from_mesh(now, p);
        }
        self.chipset.tick(now);
        for vn in 0..3 {
            while let Some(p) = self.chipset.pop_to_mesh_vn(vn) {
                match self.mesh.inject_edge(p) {
                    Ok(()) => {}
                    Err(p) => {
                        self.chipset.unpop_to_mesh(p);
                        break;
                    }
                }
            }
        }
        false
    }
}

impl SaveState for Node {
    fn save(&self, w: &mut SnapWriter) {
        let Self { id: _, mesh, tiles, chipset } = self; // id: configuration
        w.scoped("mesh", |w| mesh.save(w));
        for (t, tile) in tiles.iter().enumerate() {
            w.scoped(&format!("tile{t}"), |w| tile.save(w));
        }
        w.scoped("chipset", |w| chipset.save(w));
    }

    fn restore(&mut self, r: &mut SnapReader) {
        r.scoped("mesh", |r| self.mesh.restore(r));
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            r.scoped(&format!("tile{t}"), |r| tile.restore(r));
        }
        r.scoped("chipset", |r| self.chipset.restore(r));
    }
}
