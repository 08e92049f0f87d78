//! The machine facade applications run on: simulated memory plus
//! instruction accounting, fuel, plane tracking and packet DMA.

use crate::error::{AppError, FatalError};
use crate::flat::FlatMemory;
use crate::heap::Heap;
use crate::packet::Packet;
use cache_sim::{MemConfig, MemStats, MemSystem};
use energy_model::EnergyBreakdown;
use std::fmt;

/// Which execution plane is currently running (paper §2: every
/// application separates control-plane from data-plane tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Plane {
    /// Table construction and other setup.
    Control,
    /// Per-packet processing.
    #[default]
    Data,
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plane::Control => write!(f, "control"),
            Plane::Data => write!(f, "data"),
        }
    }
}

/// Which planes receive fault injection — the independent variable of
/// the paper's Figures 6–7 (faults in control plane only, data plane
/// only, or both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaneMask {
    control: bool,
    data: bool,
}

impl PlaneMask {
    /// Faults in both planes (Figure 6(c)/7(c), and all of §5.3–5.4).
    pub fn both() -> Self {
        PlaneMask {
            control: true,
            data: true,
        }
    }

    /// Faults only during control-plane tasks (Figure 6(a)/7(a)).
    pub fn control_only() -> Self {
        PlaneMask {
            control: true,
            data: false,
        }
    }

    /// Faults only during data-plane tasks (Figure 6(b)/7(b)).
    pub fn data_only() -> Self {
        PlaneMask {
            control: false,
            data: true,
        }
    }

    /// No faults anywhere (golden).
    pub fn none() -> Self {
        PlaneMask {
            control: false,
            data: false,
        }
    }

    /// Whether the given plane is fault-injected.
    pub fn allows(&self, plane: Plane) -> bool {
        match plane {
            Plane::Control => self.control,
            Plane::Data => self.data,
        }
    }
}

impl Default for PlaneMask {
    fn default() -> Self {
        PlaneMask::both()
    }
}

impl fmt::Display for PlaneMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.control, self.data) {
            (true, true) => write!(f, "both planes"),
            (true, false) => write!(f, "control plane"),
            (false, true) => write!(f, "data plane"),
            (false, false) => write!(f, "no planes"),
        }
    }
}

/// A DMA-received packet in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView {
    /// Address of the packet header in simulated memory.
    pub addr: u32,
    /// Header + payload length in bytes (unpadded).
    pub wire_len: u32,
    /// Trace sequence number.
    pub id: u32,
}

/// Size of each DMA ring buffer in bytes.
const DMA_BUF_BYTES: u32 = 2048;
/// Number of DMA ring buffers.
const DMA_RING: usize = 8;

/// What a machine's loads and stores run against.
// The hierarchy stays inline: boxing it would put a pointer chase on
// every measured access, and a machine is built once per run.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Memory {
    /// The fault-injecting cache hierarchy of every measured machine.
    Cached(MemSystem),
    /// Architectural values only: the golden reference
    /// ([`Machine::golden`]).
    Flat(FlatMemory),
}

/// Runs `$call` on whichever memory backs the machine; both backends
/// share the access entry points' names and signatures.
macro_rules! on_mem {
    ($mem:expr, $m:ident => $call:expr) => {
        match $mem {
            Memory::Cached($m) => $call,
            Memory::Flat($m) => $call,
        }
    };
}

/// The execution environment of a [`PacketApp`](crate::PacketApp).
///
/// All application data accesses go through [`Machine::load_u32`] and
/// friends, which charge instruction time and route the access through
/// the fault-injecting cache hierarchy. Per-packet *fuel* bounds the
/// instructions a packet may consume, turning corrupted-loop runaways
/// into [`FatalError::FuelExhausted`].
///
/// # Examples
///
/// ```
/// use netbench::Machine;
///
/// let mut m = Machine::strongarm(3);
/// let buf = m.alloc(64, 4);
/// m.store_u32(buf, 5).unwrap();
/// assert_eq!(m.load_u32(buf).unwrap(), 5);
/// assert!(m.instructions() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    mem: Memory,
    heap: Heap,
    instructions: u64,
    fuel: u64,
    plane: Plane,
    fault_planes: PlaneMask,
    inject_master: bool,
    dma_bufs: Vec<u32>,
    next_buf: usize,
    /// Physical-address mirror mask: program accesses wrap modulo the
    /// backing capacity (as on SimpleScalar/ARM and SoCs with mirrored
    /// physical memory), so a fault-corrupted pointer reads garbage
    /// instead of crashing the simulator — fatal errors then come from
    /// runaway loops, the dominant mode the paper reports (footnote 3).
    addr_mask: u32,
    /// Reusable scratch for [`Machine::dma_packet`]'s wire encoding, so
    /// packet receive allocates nothing in steady state.
    dma_scratch: Vec<u8>,
}

impl Machine {
    /// A machine on the paper's StrongARM-like platform.
    pub fn strongarm(seed: u64) -> Self {
        Machine::with_config(MemConfig::strongarm(), seed)
    }

    /// A machine with a custom memory configuration.
    ///
    /// # Panics
    ///
    /// Panics if the backing capacity is not a power of two (required
    /// for address mirroring).
    pub fn with_config(cfg: MemConfig, seed: u64) -> Self {
        let capacity = cfg.backing_bytes;
        Machine::on(Memory::Cached(MemSystem::new(cfg, seed)), capacity)
    }

    /// A golden machine: the fault-free reference every measured packet
    /// is diffed against. It has [`Machine::strongarm`]'s address space,
    /// heap and DMA ring, and charges instructions and fuel the same
    /// way, but its memory is a flat [`cache_sim::BackingStore`] — no
    /// L1/L2, fault sampler, timing or energy. An application therefore
    /// returns the same observations as on a `strongarm` machine with
    /// injection off, at a fraction of the cost.
    ///
    /// [`Machine::stats`], [`Machine::cycles`] and [`Machine::energy`]
    /// read zero; clock and injection controls and
    /// [`Machine::writeback_all`] do nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use netbench::Machine;
    ///
    /// let mut m = Machine::golden();
    /// let buf = m.alloc(64, 4);
    /// m.store_u32(buf, 5).unwrap();
    /// assert_eq!(m.load_u32(buf).unwrap(), 5);
    /// assert_eq!(m.cycles(), 0.0);
    /// ```
    pub fn golden() -> Self {
        let cfg = MemConfig::strongarm();
        Machine::on(Memory::Flat(FlatMemory::new(&cfg)), cfg.backing_bytes)
    }

    fn on(mem: Memory, capacity: usize) -> Self {
        let capacity = capacity as u32;
        assert!(
            capacity.is_power_of_two(),
            "backing capacity must be a power of two for address mirroring"
        );
        Machine {
            mem,
            heap: Heap::new(0x1000, capacity),
            instructions: 0,
            fuel: u64::MAX,
            plane: Plane::Data,
            fault_planes: PlaneMask::both(),
            inject_master: true,
            dma_bufs: Vec::new(),
            next_buf: 0,
            addr_mask: capacity - 1,
            dma_scratch: Vec::new(),
        }
    }

    /// Maps a program address onto the mirrored physical space.
    fn phys(&self, addr: u32) -> u32 {
        addr & self.addr_mask
    }

    fn sync_inject(&mut self) {
        let enabled = self.inject_master && self.fault_planes.allows(self.plane);
        if let Memory::Cached(m) = &mut self.mem {
            m.set_inject(enabled);
        }
    }

    /// Switches the current execution plane.
    pub fn set_plane(&mut self, plane: Plane) {
        self.plane = plane;
        self.sync_inject();
    }

    /// Current execution plane.
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// Selects which planes receive faults (Figures 6–7 sweeps).
    pub fn set_fault_planes(&mut self, mask: PlaneMask) {
        self.fault_planes = mask;
        self.sync_inject();
    }

    /// Master switch for fault injection (off ⇒ golden run).
    pub fn set_inject(&mut self, enabled: bool) {
        self.inject_master = enabled;
        self.sync_inject();
    }

    /// Sets the instruction budget for the work that follows (one packet
    /// or one control-plane phase).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Remaining instruction budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Charges `n` instructions of execution time.
    ///
    /// # Errors
    ///
    /// Returns [`FatalError::FuelExhausted`] once the budget is gone.
    pub fn charge(&mut self, n: u64) -> Result<(), AppError> {
        if self.fuel < n {
            self.fuel = 0;
            return Err(FatalError::FuelExhausted {
                budget: self.instructions,
            }
            .into());
        }
        self.fuel -= n;
        self.instructions += n;
        if let Memory::Cached(m) = &mut self.mem {
            m.advance(n as f64);
        }
        Ok(())
    }

    /// Loads a 32-bit word through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault (both fatal).
    pub fn load_u32(&mut self, addr: u32) -> Result<u32, AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_u32(addr))?)
    }

    /// Loads a 16-bit half-word through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault.
    pub fn load_u16(&mut self, addr: u32) -> Result<u16, AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_u16(addr))?)
    }

    /// Loads a byte through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault.
    pub fn load_u8(&mut self, addr: u32) -> Result<u8, AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_u8(addr))?)
    }

    /// Stores a 32-bit word through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault.
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.write_u32(addr, value))?)
    }

    /// Stores a 16-bit half-word through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault.
    pub fn store_u16(&mut self, addr: u32, value: u16) -> Result<(), AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.write_u16(addr, value))?)
    }

    /// Stores a byte through the data cache.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion or a memory fault.
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), AppError> {
        self.charge(1)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.write_u8(addr, value))?)
    }

    /// Reads `len` bytes starting at `addr` into `out` (appended): one
    /// fuel check and one instruction per byte, then the whole sweep
    /// flows through [`cache_sim::MemSystem::read_block_u8`] — the
    /// cheapest way to walk a payload whose addresses do not depend on
    /// loaded values.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion (before any byte commits) or a memory fault.
    pub fn read_block(&mut self, addr: u32, len: u32, out: &mut Vec<u8>) -> Result<(), AppError> {
        self.charge(u64::from(len))?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_block_u8(addr, len, out))?)
    }

    /// Writes `bytes` starting at `addr`: one fuel check and one
    /// instruction per byte, batched through
    /// [`cache_sim::MemSystem::write_block_u8`].
    ///
    /// # Errors
    ///
    /// Fuel exhaustion (before any byte commits) or a memory fault.
    pub fn write_block(&mut self, addr: u32, bytes: &[u8]) -> Result<(), AppError> {
        self.charge(bytes.len() as u64)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.write_block_u8(addr, bytes))?)
    }

    /// Reads `n` aligned 32-bit words starting at `addr` (appended to
    /// `out`): one fuel check and one instruction per word, batched
    /// through [`cache_sim::MemSystem::read_block_u32`] — for table and
    /// message-block sweeps whose addresses do not depend on loaded
    /// values.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion (before any word commits) or a memory fault.
    pub fn read_block_u32(
        &mut self,
        addr: u32,
        n: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), AppError> {
        self.charge(u64::from(n))?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_block_u32(addr, n, out))?)
    }

    /// Reads `n` aligned 16-bit half-words starting at `addr` (appended
    /// to `out` zero-extended), batched through
    /// [`cache_sim::MemSystem::read_block_u16`].
    ///
    /// # Errors
    ///
    /// Fuel exhaustion (before any half-word commits) or a memory fault.
    pub fn read_block_u16(
        &mut self,
        addr: u32,
        n: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), AppError> {
        self.charge(u64::from(n))?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.read_block_u16(addr, n, out))?)
    }

    /// Writes `words` as aligned 32-bit stores starting at `addr`,
    /// batched through [`cache_sim::MemSystem::write_block_u32`].
    ///
    /// # Errors
    ///
    /// Fuel exhaustion (before any word commits) or a memory fault.
    pub fn write_block_u32(&mut self, addr: u32, words: &[u32]) -> Result<(), AppError> {
        self.charge(words.len() as u64)?;
        let addr = self.phys(addr);
        Ok(on_mem!(&mut self.mem, m => m.write_block_u32(addr, words))?)
    }

    /// Allocates simulated memory (control-plane table space).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted — raise
    /// [`MemConfig::backing_bytes`] in the configuration.
    pub fn alloc(&mut self, size: u32, align: u32) -> u32 {
        self.heap
            .alloc(size, align)
            .expect("simulated heap exhausted; increase MemConfig::backing_bytes")
    }

    /// Receives a packet by DMA into the next ring buffer, bypassing the
    /// cache timing/faults (as NIC DMA does), and returns its view.
    ///
    /// # Errors
    ///
    /// Returns a memory fault if the packet exceeds the 2 KB ring-buffer
    /// size.
    pub fn dma_packet(&mut self, pkt: &Packet) -> Result<PacketView, AppError> {
        if self.dma_bufs.is_empty() {
            for _ in 0..DMA_RING {
                let addr = self
                    .heap
                    .alloc(DMA_BUF_BYTES, 4)
                    .expect("simulated heap exhausted; increase MemConfig::backing_bytes");
                self.dma_bufs.push(addr);
            }
        }
        let mut bytes = std::mem::take(&mut self.dma_scratch);
        pkt.encode_into(&mut bytes);
        if bytes.len() as u32 > DMA_BUF_BYTES {
            self.dma_scratch = bytes;
            return Err(AppError::Fatal(FatalError::MemoryFault(
                cache_sim::MemError::OutOfRange {
                    addr: self.dma_bufs[self.next_buf],
                    len: self.dma_scratch.len() as u32,
                },
            )));
        }
        let addr = self.dma_bufs[self.next_buf];
        self.next_buf = (self.next_buf + 1) % self.dma_bufs.len();
        let result = on_mem!(&mut self.mem, m => m.host_write_block(addr, &bytes));
        self.dma_scratch = bytes;
        result?;
        Ok(PacketView {
            addr,
            wire_len: pkt.wire_len(),
            id: pkt.id,
        })
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Elapsed core cycles (instructions plus memory stalls); zero on a
    /// golden machine.
    pub fn cycles(&self) -> f64 {
        match &self.mem {
            Memory::Cached(m) => m.cycles(),
            Memory::Flat(_) => 0.0,
        }
    }

    /// Cache/memory statistics; all zero on a golden machine.
    pub fn stats(&self) -> &MemStats {
        match &self.mem {
            Memory::Cached(m) => m.stats(),
            Memory::Flat(f) => f.stats(),
        }
    }

    /// Cache/memory energy so far (core energy is added by the
    /// processor layer from the cycle count); zero on a golden machine.
    pub fn energy(&self) -> EnergyBreakdown {
        match &self.mem {
            Memory::Cached(m) => m.energy(),
            Memory::Flat(_) => EnergyBreakdown::default(),
        }
    }

    /// Changes the cache clock, charging the switch penalty (no-op on a
    /// golden machine).
    ///
    /// # Panics
    ///
    /// Panics if `cr` is not in `(0, 1]`.
    pub fn set_cycle(&mut self, cr: f64) {
        if let Memory::Cached(m) = &mut self.mem {
            m.set_cycle(cr);
        }
    }

    /// Changes the cache clock with no penalty (static configuration;
    /// no-op on a golden machine).
    ///
    /// # Panics
    ///
    /// Panics if `cr` is not in `(0, 1]`.
    pub fn set_cycle_free(&mut self, cr: f64) {
        if let Memory::Cached(m) = &mut self.mem {
            m.set_cycle_free(cr);
        }
    }

    /// Current relative cycle time of the data cache (nominal 1.0 on a
    /// golden machine).
    pub fn cycle_time(&self) -> f64 {
        match &self.mem {
            Memory::Cached(m) => m.cycle_time(),
            Memory::Flat(_) => 1.0,
        }
    }

    /// Current relative voltage swing of the data cache (full swing on
    /// a golden machine).
    pub fn voltage_swing(&self) -> f64 {
        match &self.mem {
            Memory::Cached(m) => m.voltage_swing(),
            Memory::Flat(_) => 1.0,
        }
    }

    /// Adds controller-overhead energy, in nanojoules (no-op on a golden
    /// machine).
    pub fn add_overhead_energy(&mut self, nj: f64) {
        if let Memory::Cached(m) = &mut self.mem {
            m.add_overhead_energy(nj);
        }
    }

    /// Writes every dirty cache line back to L2 (see
    /// [`cache_sim::MemSystem::writeback_all`]); the runner calls this
    /// at the control-to-data-plane transition. A golden machine has no
    /// cache to drain.
    pub fn writeback_all(&mut self) {
        if let Memory::Cached(m) = &mut self.mem {
            m.writeback_all()
                .expect("resident lines are within the backing store");
        }
    }

    /// Host (debug) read of architectural state — no faults, no timing.
    ///
    /// # Errors
    ///
    /// Returns a memory fault for bad addresses.
    pub fn host_read_u32(&self, addr: u32) -> Result<u32, AppError> {
        Ok(on_mem!(&self.mem, m => m.host_read_u32(addr))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet {
            id: 1,
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: 6,
            ttl: 64,
            payload: vec![9; 40],
        }
    }

    #[test]
    fn fuel_exhaustion_is_fatal() {
        let mut m = Machine::strongarm(0);
        m.set_fuel(3);
        assert!(m.charge(2).is_ok());
        let err = m.charge(2).unwrap_err();
        assert!(matches!(
            err,
            AppError::Fatal(FatalError::FuelExhausted { .. })
        ));
    }

    #[test]
    fn loads_charge_instructions_and_cycles() {
        let mut m = Machine::strongarm(0);
        let a = m.alloc(16, 4);
        m.store_u32(a, 1).unwrap();
        let i0 = m.instructions();
        let c0 = m.cycles();
        m.load_u32(a).unwrap();
        assert_eq!(m.instructions(), i0 + 1);
        assert!(m.cycles() > c0);
    }

    #[test]
    fn plane_mask_gates_injection() {
        // A machine with a massive fault rate, but faults allowed only
        // in the control plane: data-plane accesses stay clean.
        let cfg = MemConfig::strongarm()
            .with_fault_model(fault_model::FaultProbabilityModel::new(0.9 / 32.0, 0.0));
        let mut m = Machine::with_config(cfg, 5);
        m.set_fault_planes(PlaneMask::control_only());
        m.set_plane(Plane::Data);
        let a = m.alloc(64, 4);
        for i in 0..2000u32 {
            m.store_u32(a + (i % 16) * 4, i).unwrap();
            let _ = m.load_u32(a + (i % 16) * 4).unwrap();
        }
        assert_eq!(m.stats().faults_injected, 0);
        m.set_plane(Plane::Control);
        for i in 0..2000u32 {
            m.store_u32(a + (i % 16) * 4, i).unwrap();
            let _ = m.load_u32(a + (i % 16) * 4).unwrap();
        }
        assert!(m.stats().faults_injected > 0);
    }

    #[test]
    fn master_switch_overrides_planes() {
        let cfg = MemConfig::strongarm()
            .with_fault_model(fault_model::FaultProbabilityModel::new(0.9 / 32.0, 0.0));
        let mut m = Machine::with_config(cfg, 5);
        m.set_inject(false);
        let a = m.alloc(16, 4);
        for i in 0..1000u32 {
            m.store_u32(a, i).unwrap();
        }
        assert_eq!(m.stats().faults_injected, 0);
    }

    #[test]
    fn dma_packet_lands_in_memory() {
        let mut m = Machine::strongarm(0);
        let view = m.dma_packet(&pkt()).unwrap();
        assert_eq!(m.load_u32(view.addr).unwrap(), 1); // src_ip
        assert_eq!(m.load_u32(view.addr + 4).unwrap(), 2); // dst_ip
        assert_eq!(view.wire_len, 60);
    }

    #[test]
    fn dma_ring_rotates() {
        let mut m = Machine::strongarm(0);
        let v1 = m.dma_packet(&pkt()).unwrap();
        let v2 = m.dma_packet(&pkt()).unwrap();
        assert_ne!(v1.addr, v2.addr);
    }

    #[test]
    fn oversized_packet_is_rejected() {
        let mut m = Machine::strongarm(0);
        let mut p = pkt();
        p.payload = vec![0; 4096];
        assert!(m.dma_packet(&p).is_err());
    }

    #[test]
    fn addresses_mirror_modulo_capacity() {
        let mut m = Machine::strongarm(0);
        let a = m.alloc(16, 4);
        m.store_u32(a, 777).unwrap();
        let capacity = 4 * 1024 * 1024u32;
        assert_eq!(m.load_u32(a + capacity).unwrap(), 777);
        assert_eq!(m.load_u32(a.wrapping_add(capacity * 3)).unwrap(), 777);
    }

    #[test]
    fn writeback_all_survives_invalidation() {
        use fault_model::FaultProbabilityModel;
        // Without the drain, data written before the writeback would be
        // lost by a strike invalidation; with it, L2 holds the truth.
        let cfg = MemConfig::strongarm()
            .with_detection(cache_sim::DetectionScheme::Parity)
            .with_strikes(cache_sim::StrikePolicy::one_strike())
            .with_fault_model(FaultProbabilityModel::new(0.9 / 32.0, 0.0));
        let mut m = Machine::with_config(cfg, 17);
        m.set_inject(false);
        let a = m.alloc(64, 4);
        m.store_u32(a, 31337).unwrap();
        m.writeback_all();
        m.set_inject(true);
        // Hammer reads until a strike fallback; the drained copy must
        // come back.
        for _ in 0..500 {
            let v = m.load_u32(a).unwrap();
            if m.stats().strike_invalidations > 0 {
                assert_eq!(v, 31337, "L2 must hold the drained value");
                return;
            }
        }
        panic!("expected a strike fallback at this fault rate");
    }

    #[test]
    fn alloc_is_monotone() {
        let mut m = Machine::strongarm(0);
        let a = m.alloc(100, 4);
        let b = m.alloc(100, 4);
        assert!(b >= a + 100);
    }
}
