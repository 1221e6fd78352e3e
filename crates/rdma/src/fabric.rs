//! The fabric: nodes, NICs, and region registration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use portus_sim::{Resource, SimContext};

use crate::{Access, FaultPlan, FaultSpec, MemoryRegion, RdmaError, RdmaResult, RegionTarget};

/// Identifies a node (machine) on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

static NEXT_RKEY: AtomicU64 = AtomicU64::new(0x1000);

/// One RNIC. Registration hands out process-unique remote keys; the NIC
/// is also the FIFO bandwidth resource all its transfers serialize on
/// (one 100 Gb/s port per node, as in the paper's testbed).
///
/// A NIC added with [`Fabric::add_nic_with_engines`] exposes several
/// independent DMA engines: transfers on different engines proceed in
/// parallel (the striped multi-QP datapath maps each queue pair to one
/// engine), while transfers sharing an engine still serialize FIFO.
/// [`Fabric::add_nic`] keeps the single-engine model.
#[derive(Debug)]
pub struct Nic {
    ctx: SimContext,
    node: NodeId,
    engines: Vec<Resource>,
    regions: RwLock<HashMap<u64, Arc<MemoryRegion>>>,
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl Nic {
    /// The node this NIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The simulation context shared by the fabric.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// The DMA engine serving `lane`. Lanes beyond the engine count
    /// wrap around, so any lane number maps to a valid engine and a
    /// single-engine NIC serializes every lane on its one port.
    pub fn engine(&self, lane: usize) -> &Resource {
        &self.engines[lane % self.engines.len()]
    }

    /// Number of independent DMA engines this NIC models.
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Registers `target` as a memory region with the given remote
    /// `access`, charging registration (pinning) time. Returns the
    /// region; its [`MemoryRegion::rkey`] addresses it remotely.
    pub fn register(&self, target: RegionTarget, access: Access) -> Arc<MemoryRegion> {
        let rkey = NEXT_RKEY.fetch_add(1, Ordering::Relaxed);
        let d = self.ctx.model.mr_register(target.len());
        self.ctx.charge(d);
        let mr = Arc::new(MemoryRegion {
            rkey,
            node: self.node,
            access,
            target,
        });
        self.regions.write().insert(rkey, Arc::clone(&mr));
        mr
    }

    /// Deregisters a region by remote key. Returns whether it existed.
    pub fn deregister(&self, rkey: u64) -> bool {
        self.regions.write().remove(&rkey).is_some()
    }

    /// Looks up a region by remote key.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidRkey`] if no such region is registered.
    pub fn lookup(&self, rkey: u64) -> RdmaResult<Arc<MemoryRegion>> {
        self.regions
            .read()
            .get(&rkey)
            .cloned()
            .ok_or(RdmaError::InvalidRkey(rkey))
    }

    /// Arms a fault plan: every one-sided verb this NIC initiates from
    /// now on is evaluated against `spec` and may complete with
    /// [`RdmaError::Injected`]. Replaces any previously armed plan
    /// (the verb sequence counter restarts at zero).
    pub fn arm_faults(&self, spec: FaultSpec) -> Arc<FaultPlan> {
        let plan = Arc::new(FaultPlan::new(spec));
        *self.faults.write() = Some(Arc::clone(&plan));
        plan
    }

    /// Disarms fault injection. Returns the retired plan, if any (its
    /// counters stay readable for assertions).
    pub fn clear_faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.write().take()
    }

    /// The currently armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.read().clone()
    }
}

/// The switch connecting all NICs (the paper's Mellanox MSB7800).
#[derive(Debug, Clone)]
pub struct Fabric {
    ctx: SimContext,
    nics: Arc<RwLock<HashMap<NodeId, Arc<Nic>>>>,
}

impl Fabric {
    /// Creates an empty fabric sharing `ctx`.
    pub fn new(ctx: SimContext) -> Fabric {
        Fabric {
            ctx,
            nics: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// The shared simulation context.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// Adds a single-engine NIC for `node` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the node already has a NIC.
    pub fn add_nic(&self, node: NodeId) -> Arc<Nic> {
        self.add_nic_with_engines(node, 1)
    }

    /// Adds a NIC for `node` with `engines` independent DMA engines
    /// (clamped to at least one). Engine 0 keeps the classic
    /// `rnic-{node}` name so single-engine behaviour and diagnostics
    /// are unchanged; extra engines are `rnic-{node}-e{i}`.
    ///
    /// # Panics
    ///
    /// Panics if the node already has a NIC.
    pub fn add_nic_with_engines(&self, node: NodeId, engines: usize) -> Arc<Nic> {
        let engines = (0..engines.max(1))
            .map(|i| {
                if i == 0 {
                    Resource::new(&format!("rnic-{node}"))
                } else {
                    Resource::new(&format!("rnic-{node}-e{i}"))
                }
            })
            .collect();
        let nic = Arc::new(Nic {
            ctx: self.ctx.clone(),
            node,
            engines,
            regions: RwLock::new(HashMap::new()),
            faults: RwLock::new(None),
        });
        let prev = self.nics.write().insert(node, Arc::clone(&nic));
        assert!(prev.is_none(), "node {node} already has a NIC");
        nic
    }

    /// Looks up the NIC of `node`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::UnknownNode`] if the node has no NIC.
    pub fn nic(&self, node: NodeId) -> RdmaResult<Arc<Nic>> {
        self.nics
            .read()
            .get(&node)
            .cloned()
            .ok_or(RdmaError::UnknownNode(node.0))
    }

    /// Arms a fault plan on `node`'s NIC (see [`Nic::arm_faults`]).
    ///
    /// # Errors
    ///
    /// [`RdmaError::UnknownNode`] if the node has no NIC.
    pub fn arm_faults(&self, node: NodeId, spec: FaultSpec) -> RdmaResult<Arc<FaultPlan>> {
        Ok(self.nic(node)?.arm_faults(spec))
    }

    /// Disarms fault injection on `node`'s NIC.
    ///
    /// # Errors
    ///
    /// [`RdmaError::UnknownNode`] if the node has no NIC.
    pub fn clear_faults(&self, node: NodeId) -> RdmaResult<Option<Arc<FaultPlan>>> {
        Ok(self.nic(node)?.clear_faults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_mem::{Buffer, MemorySegment};
    use portus_sim::MemoryKind;

    #[test]
    fn register_lookup_deregister() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let nic = fabric.add_nic(NodeId(0));
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(64));
        let mr = nic.register(RegionTarget::Buffer(buf), Access::READ);
        assert_eq!(nic.lookup(mr.rkey()).unwrap().rkey(), mr.rkey());
        assert!(nic.deregister(mr.rkey()));
        assert!(matches!(
            nic.lookup(mr.rkey()),
            Err(RdmaError::InvalidRkey(_))
        ));
    }

    #[test]
    fn rkeys_are_unique_across_nics() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let a = fabric.add_nic(NodeId(0));
        let b = fabric.add_nic(NodeId(1));
        let buf = || Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(1));
        let m1 = a.register(RegionTarget::Buffer(buf()), Access::READ);
        let m2 = b.register(RegionTarget::Buffer(buf()), Access::READ);
        assert_ne!(m1.rkey(), m2.rkey());
    }

    #[test]
    fn registration_charges_time() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let nic = fabric.add_nic(NodeId(0));
        let before = fabric.ctx().clock.now();
        let buf = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(1 << 20));
        nic.register(RegionTarget::Buffer(buf), Access::READ);
        assert!(fabric.ctx().clock.now() > before);
    }

    #[test]
    fn engines_are_independent_resources() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let nic = fabric.add_nic_with_engines(NodeId(0), 4);
        assert_eq!(nic.engine_count(), 4);
        assert_eq!(nic.engine(0).name(), "rnic-node0");
        assert_eq!(nic.engine(2).name(), "rnic-node0-e2");
        // Lanes wrap around the engine pool.
        assert_eq!(nic.engine(6).name(), nic.engine(2).name());
        let single = fabric.add_nic(NodeId(1));
        assert_eq!(single.engine_count(), 1);
        assert_eq!(single.engine(3).name(), "rnic-node1");
    }

    #[test]
    fn zero_engine_request_clamps_to_one() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let nic = fabric.add_nic_with_engines(NodeId(0), 0);
        assert_eq!(nic.engine_count(), 1);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let fabric = Fabric::new(SimContext::icdcs24());
        assert!(matches!(
            fabric.nic(NodeId(9)),
            Err(RdmaError::UnknownNode(9))
        ));
    }

    #[test]
    #[should_panic(expected = "already has a NIC")]
    fn duplicate_nic_panics() {
        let fabric = Fabric::new(SimContext::icdcs24());
        fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(0));
    }
}
