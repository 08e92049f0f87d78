//! The clumsy processor: golden-vs-measured differential execution.

use crate::config::{ClumsyConfig, FrequencyPlan};
use crate::controller::{Decision, DynamicController};
use crate::report::{FatalInfo, RunReport};
use cache_sim::DetectionScheme;
use netbench::{
    diff_observations, AppError, AppKind, Machine, Observation, Packet, PacketApp, PacketView,
    Plane, Trace,
};
use std::collections::BTreeMap;

/// The fault-free reference side of differential execution: one app on
/// a [`Machine::golden`], stepped one packet at a time. The batch
/// runner replays a whole trace through it once ([`ClumsyProcessor::golden`]);
/// a serve shard steps it in lock step with its measured machine.
pub(crate) struct GoldenPass {
    machine: Machine,
    app: Box<dyn PacketApp>,
    fuel: u64,
    /// The last packet's observations, reused across steps.
    obs: Vec<Observation>,
}

impl GoldenPass {
    /// Builds the app's tables on a fresh golden machine and returns
    /// the pass with the control plane's initialization observations.
    ///
    /// # Errors
    ///
    /// A control-plane fatal, which a fault-free run can only hit on
    /// an exhausted fuel budget.
    pub(crate) fn boot(
        kind: AppKind,
        context: &Trace,
    ) -> Result<(GoldenPass, Vec<Observation>), AppError> {
        let mut machine = Machine::golden();
        let mut app = kind.instantiate(context);
        machine.set_fuel(app.setup_fuel());
        let init_obs = app.setup(&mut machine)?;
        let fuel = app.fuel_per_packet();
        let pass = GoldenPass {
            machine,
            app,
            fuel,
            obs: Vec::new(),
        };
        Ok((pass, init_obs))
    }

    /// Receives and processes one packet, returning its observations
    /// from a buffer the pass reuses (valid until the next step).
    ///
    /// # Errors
    ///
    /// A packet too large for the DMA ring, or an exhausted fuel
    /// budget.
    pub(crate) fn step(&mut self, pkt: &Packet) -> Result<&[Observation], AppError> {
        let view = self.machine.dma_packet(pkt)?;
        self.machine.set_fuel(self.fuel);
        self.app
            .process_into(&mut self.machine, view, &mut self.obs)?;
        Ok(&self.obs)
    }
}

/// The measured side of differential execution: one app on a machine
/// at a design point, with its fault planes, clock plan and dynamic
/// controller. The batch runner steps it over a whole trace
/// ([`ClumsyProcessor::run_with_golden`]); a serve shard steps it in
/// lock step with its [`GoldenPass`].
pub(crate) struct MeasuredPass {
    machine: Machine,
    app: Box<dyn PacketApp>,
    fuel: u64,
    /// The last packet's observations, reused across steps.
    obs: Vec<Observation>,
    controller: Option<DynamicController>,
    detection: DetectionScheme,
    /// The controller's fault counter at its last step.
    faults_seen: u64,
}

impl MeasuredPass {
    /// A machine at `cfg` drawing faults from `seed`, running `kind`
    /// over `context`, clocked at the plan's starting cycle time. The
    /// control plane has not run yet ([`MeasuredPass::setup`]).
    pub(crate) fn new(cfg: &ClumsyConfig, kind: AppKind, context: &Trace, seed: u64) -> Self {
        let mut machine = Machine::with_config(cfg.mem.clone(), seed);
        machine.set_fault_planes(cfg.planes);
        let app = kind.instantiate(context);
        let fuel = cfg.fuel_per_packet.unwrap_or(app.fuel_per_packet());
        let controller = match &cfg.frequency {
            FrequencyPlan::Static(cr) => {
                machine.set_cycle_free(*cr);
                None
            }
            FrequencyPlan::Dynamic(d) => {
                let ctl = DynamicController::new(d.clone());
                machine.set_cycle_free(ctl.cycle_time());
                Some(ctl)
            }
        };
        MeasuredPass {
            machine,
            app,
            fuel,
            obs: Vec::new(),
            controller,
            detection: cfg.mem.detection,
            faults_seen: 0,
        }
    }

    /// Runs the control plane and returns its initialization
    /// observations. On success the tables are drained to L2, so strike
    /// recovery has a correct copy to restore (write-buffer drain, no
    /// stall), and the machine switches to the data plane.
    ///
    /// # Errors
    ///
    /// A control-plane fatal; the machine is left as the fatal found it.
    pub(crate) fn setup(&mut self) -> Result<Vec<Observation>, AppError> {
        self.machine.set_plane(Plane::Control);
        self.machine.set_fuel(self.app.setup_fuel());
        let init_obs = self.app.setup(&mut self.machine)?;
        self.machine.writeback_all();
        self.machine.set_plane(Plane::Data);
        self.faults_seen = Self::fault_count(&self.machine, self.detection);
        Ok(init_obs)
    }

    /// Receives one packet into the machine's DMA ring.
    ///
    /// # Errors
    ///
    /// A packet too large for the ring, or a write the memory rejects.
    pub(crate) fn receive(&mut self, pkt: &Packet) -> Result<PacketView, AppError> {
        self.machine.dma_packet(pkt)
    }

    /// Processes a received packet on a fresh fuel budget, returning
    /// its observations from a buffer the pass reuses (valid until the
    /// next step).
    ///
    /// # Errors
    ///
    /// A fatal error: an exhausted fuel budget or a corrupted address.
    pub(crate) fn process(&mut self, view: PacketView) -> Result<&[Observation], AppError> {
        self.machine.set_fuel(self.fuel);
        self.app
            .process_into(&mut self.machine, view, &mut self.obs)?;
        Ok(&self.obs)
    }

    /// Feeds the dynamic controller the faults observed since its last
    /// step and applies a frequency switch. Returns that fault delta and
    /// the controller's decision when an epoch ended; `(0, None)` under
    /// a static plan.
    pub(crate) fn control_step(&mut self) -> (u64, Option<Decision>) {
        let Some(ctl) = self.controller.as_mut() else {
            return (0, None);
        };
        let now = Self::fault_count(&self.machine, self.detection);
        let delta = now - self.faults_seen;
        self.faults_seen = now;
        let decision = ctl.on_packet(delta);
        if let Some(Decision::Switch(cr)) = decision {
            self.machine.set_cycle(cr);
        }
        (delta, decision)
    }

    /// The measured machine.
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The dynamic controller, under a dynamic plan.
    pub(crate) fn controller(&self) -> Option<&DynamicController> {
        self.controller.as_ref()
    }

    /// The fault counter the controller observes: parity detections
    /// plus ECC in-place corrections when detection hardware exists (the
    /// syndrome logic sees a correction just as it sees a detection),
    /// otherwise the injected count (an oracle stand-in; the paper is
    /// silent on the no-detection case).
    fn fault_count(machine: &Machine, detection: DetectionScheme) -> u64 {
        let stats = machine.stats();
        if detection.is_enabled() {
            stats.faults_detected + stats.faults_corrected
        } else {
            stats.faults_injected
        }
    }
}

/// Golden (fault-free) reference observations for one app over a trace,
/// stored flat: every packet's observations back to back in one buffer,
/// delimited by per-packet offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenData {
    init_obs: Vec<Observation>,
    /// Every packet's observations, in trace order.
    obs: Vec<Observation>,
    /// Packet `i`'s observations are `obs[offsets[i]..offsets[i + 1]]`;
    /// one entry more than there are packets, starting at 0.
    offsets: Vec<usize>,
}

impl GoldenData {
    /// The control plane's initialization observations.
    pub fn init_obs(&self) -> &[Observation] {
        &self.init_obs
    }

    /// Number of packets covered.
    pub fn packets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Packet `idx`'s observations.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`GoldenData::packets`].
    pub fn packet(&self, idx: usize) -> &[Observation] {
        &self.obs[self.offsets[idx]..self.offsets[idx + 1]]
    }
}

/// Runs NetBench applications on a clumsy design point and reports the
/// paper's metrics.
///
/// Each [`ClumsyProcessor::run`] replays the trace twice: a golden pass
/// with fault injection disabled, then a measured pass on the configured
/// design point. Marked values are diffed per packet (§2/§5.2), fatal
/// errors abort the measured pass (§4.1), and delay/energy/fallibility
/// feed the energy–delay²–fallibility² metric (§4.1/§5.4).
///
/// # Examples
///
/// ```
/// use clumsy_core::{ClumsyConfig, ClumsyProcessor};
/// use netbench::{AppKind, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let proc = ClumsyProcessor::new(ClumsyConfig::baseline());
/// let report = proc.run(AppKind::Crc, &trace);
/// // At the full-swing clock essentially nothing goes wrong.
/// assert_eq!(report.packets_completed, trace.packets.len());
/// ```
#[derive(Debug, Clone)]
pub struct ClumsyProcessor {
    cfg: ClumsyConfig,
}

impl ClumsyProcessor {
    /// Creates a processor for the given design point.
    pub fn new(cfg: ClumsyConfig) -> Self {
        ClumsyProcessor { cfg }
    }

    /// The design point in use.
    pub fn config(&self) -> &ClumsyConfig {
        &self.cfg
    }

    /// Computes the golden reference for `kind` over `trace`. Reusable
    /// across design points (the golden pass does not depend on them).
    ///
    /// # Panics
    ///
    /// Panics if a packet does not fit the 2 KB DMA ring or the app
    /// exhausts its fuel without faults — the trace is unusable as a
    /// reference.
    pub fn golden(kind: AppKind, trace: &Trace) -> GoldenData {
        let (mut pass, init_obs) =
            GoldenPass::boot(kind, trace).expect("golden setup cannot fail without faults");
        let mut obs = Vec::new();
        let mut offsets = Vec::with_capacity(trace.packets.len() + 1);
        offsets.push(0);
        for pkt in &trace.packets {
            let packet_obs = pass
                .step(pkt)
                .expect("golden processing cannot fail without faults");
            obs.extend_from_slice(packet_obs);
            offsets.push(obs.len());
        }
        GoldenData {
            init_obs,
            obs,
            offsets,
        }
    }

    /// Runs the application, computing the golden reference internally.
    pub fn run(&self, kind: AppKind, trace: &Trace) -> RunReport {
        let golden = Self::golden(kind, trace);
        self.run_with_golden(kind, trace, &golden)
    }

    /// Runs the measured pass against a precomputed golden reference
    /// (grid drivers share one golden pass per app/trace).
    ///
    /// # Panics
    ///
    /// Panics if `golden` was computed for a different trace length.
    pub fn run_with_golden(&self, kind: AppKind, trace: &Trace, golden: &GoldenData) -> RunReport {
        assert_eq!(
            golden.packets(),
            trace.packets.len(),
            "golden data does not match the trace"
        );
        let mut measured = MeasuredPass::new(&self.cfg, kind, trace, self.cfg.seed);
        let mut freq_trace = vec![(0usize, measured.machine().cycle_time())];

        let mut report = RunReport {
            app: kind.name(),
            packets_attempted: trace.packets.len(),
            packets_completed: 0,
            fatal: None,
            dropped_packets: 0,
            erroneous_packets: 0,
            error_counts: BTreeMap::new(),
            init_obs_total: golden.init_obs.len(),
            init_obs_wrong: 0,
            instructions: 0,
            cycles: 0.0,
            energy: Default::default(),
            stats: Default::default(),
            freq_trace: Vec::new(),
            epoch_faults: Vec::new(),
        };

        // Control plane.
        match measured.setup() {
            Ok(init_obs) => {
                let diff = diff_observations(&golden.init_obs, &init_obs);
                // Count wrong samples pairwise for a finer probability.
                report.init_obs_wrong = golden
                    .init_obs
                    .iter()
                    .zip(&init_obs)
                    .filter(|(g, m)| g != m)
                    .count()
                    .max(usize::from(diff.has_error()));
            }
            Err(e) => {
                report.fatal = Some(FatalInfo {
                    packet_index: 0,
                    error: e,
                });
                Self::finalize(&self.cfg, &mut report, measured.machine(), freq_trace);
                return report;
            }
        }

        // Data plane.
        let mut epoch_acc = 0u64;
        for (idx, pkt) in trace.packets.iter().enumerate() {
            let view = match measured.receive(pkt) {
                Ok(v) => v,
                Err(e) => {
                    report.fatal = Some(FatalInfo {
                        packet_index: idx,
                        error: e,
                    });
                    break;
                }
            };
            match measured.process(view) {
                Ok(obs) => {
                    report.packets_completed += 1;
                    let diff = diff_observations(golden.packet(idx), obs);
                    if diff.has_error() {
                        report.erroneous_packets += 1;
                        for cat in diff.erroneous {
                            *report.error_counts.entry(cat).or_insert(0) += 1;
                        }
                    }
                }
                Err(e) => {
                    if self.cfg.watchdog {
                        // Footnote 3: contain the fatal error — drop the
                        // packet and keep the processor running.
                        report.dropped_packets += 1;
                    } else {
                        report.fatal = Some(FatalInfo {
                            packet_index: idx,
                            error: e,
                        });
                        break;
                    }
                }
            }
            // Dynamic adaptation on the observed fault counter.
            let (delta, decision) = measured.control_step();
            epoch_acc += delta;
            if let Some(decision) = decision {
                report.epoch_faults.push(epoch_acc);
                epoch_acc = 0;
                if let Decision::Switch(cr) = decision {
                    freq_trace.push((idx + 1, cr));
                }
            }
        }

        Self::finalize(&self.cfg, &mut report, measured.machine(), freq_trace);
        report
    }

    fn finalize(
        cfg: &ClumsyConfig,
        report: &mut RunReport,
        machine: &Machine,
        freq_trace: Vec<(usize, f64)>,
    ) {
        report.instructions = machine.instructions();
        report.cycles = machine.cycles();
        report.stats = *machine.stats();
        let mut energy = machine.energy();
        energy.core_nj += cfg.mem.energy.core_energy(machine.cycles());
        report.energy = energy;
        report.freq_trace = freq_trace;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynamicConfig;
    use cache_sim::StrikePolicy;
    use fault_model::FaultProbabilityModel;
    use netbench::TraceConfig;

    fn trace() -> Trace {
        TraceConfig::small().generate()
    }

    #[test]
    fn baseline_run_is_clean_for_every_app() {
        let t = trace();
        for kind in AppKind::all() {
            let r = ClumsyProcessor::new(ClumsyConfig::baseline()).run(kind, &t);
            assert_eq!(r.packets_completed, t.packets.len(), "{kind}");
            assert!(r.fatal.is_none(), "{kind}");
            // At Cr = 1 the per-bit fault probability is 2.59e-7, so a
            // handful of faults can land even on a small trace — but
            // the error rate must be negligible.
            assert!(r.erroneous_packets <= 2, "{kind}: {}", r.erroneous_packets);
            assert!(r.fallibility() < 1.02, "{kind}");
        }
    }

    #[test]
    fn overclocking_without_detection_causes_errors() {
        let t = TraceConfig::small().with_packets(400).generate();
        // An aggressive fault model makes errors certain on a small trace.
        let cfg = ClumsyConfig::baseline()
            .with_fault_model(FaultProbabilityModel::new(2e-5, 0.2))
            .with_static_cycle(0.25);
        let r = ClumsyProcessor::new(cfg).run(AppKind::Route, &t);
        assert!(
            r.erroneous_packets > 0 || r.fatal.is_some(),
            "16x fault rate must disturb something"
        );
        assert!(r.fallibility() > 1.0 || r.fatal.is_some());
    }

    #[test]
    fn parity_recovery_reduces_errors() {
        let t = TraceConfig::small().with_packets(400).generate();
        let hot = FaultProbabilityModel::new(2e-6, 0.2);
        let base = ClumsyConfig::baseline()
            .with_fault_model(hot)
            .with_static_cycle(0.25);
        let protected = base
            .clone()
            .with_detection(DetectionScheme::Parity)
            .with_strikes(StrikePolicy::two_strike());
        let mut unprot_clean = 0usize;
        let mut prot_clean = 0usize;
        let mut prot_done = 0usize;
        let mut prot_err = 0usize;
        let mut prot_detected = 0u64;
        let total = 10 * t.packets.len();
        for seed in 0..10u64 {
            let r1 = ClumsyProcessor::new(base.clone().with_seed(seed)).run(AppKind::Route, &t);
            let r2 =
                ClumsyProcessor::new(protected.clone().with_seed(seed)).run(AppKind::Route, &t);
            unprot_clean += r1.packets_completed - r1.erroneous_packets;
            prot_clean += r2.packets_completed - r2.erroneous_packets;
            prot_done += r2.packets_completed;
            prot_err += r2.erroneous_packets;
            prot_detected += r2.stats.faults_detected;
        }
        // Parity + strikes must (a) detect faults, (b) deliver more
        // clean packets than the unprotected design (which loses whole
        // runs to fatal errors and silently corrupts the rest), and
        // (c) keep the protected error rate low (only even-weight
        // corruptions slip past parity).
        assert!(prot_detected > 0, "parity must detect faults");
        assert!(
            prot_clean > unprot_clean,
            "protection must deliver more clean packets: {prot_clean} vs {unprot_clean} of {total}"
        );
        assert!(
            prot_err * 2 < prot_done,
            "most protected packets must be clean: {prot_err}/{prot_done}"
        );
    }

    #[test]
    fn static_overclock_reduces_delay_and_energy() {
        let t = trace();
        let r_full = ClumsyProcessor::new(ClumsyConfig::baseline()).run(AppKind::Tl, &t);
        let r_fast = ClumsyProcessor::new(ClumsyConfig::baseline().with_static_cycle(0.5))
            .run(AppKind::Tl, &t);
        assert!(r_fast.delay_per_packet() < r_full.delay_per_packet());
        assert!(r_fast.energy.l1_nj < r_full.energy.l1_nj);
    }

    #[test]
    fn epoch_faults_are_recorded_for_dynamic_plans() {
        let t = TraceConfig::small().with_packets(450).generate();
        let cfg = ClumsyConfig::baseline().with_dynamic(DynamicConfig::paper());
        let r = ClumsyProcessor::new(cfg).run(AppKind::Tl, &t);
        // 450 packets at 100 per epoch: 4 completed epochs.
        assert_eq!(r.epoch_faults.len(), 4);
        let static_run = ClumsyProcessor::new(ClumsyConfig::baseline()).run(AppKind::Tl, &t);
        assert!(static_run.epoch_faults.is_empty());
    }

    #[test]
    fn dynamic_plan_climbs_when_quiet() {
        let t = TraceConfig::small().with_packets(600).generate();
        let cfg = ClumsyConfig::baseline().with_dynamic(DynamicConfig::paper());
        let r = ClumsyProcessor::new(cfg).run(AppKind::Tl, &t);
        // With the calibrated (tiny) fault rates the controller reaches
        // the fastest level within a few epochs.
        assert!(r.freq_trace.len() >= 3, "trace: {:?}", r.freq_trace);
        let final_cr = r.freq_trace.last().unwrap().1;
        assert!(final_cr <= 0.5, "should have climbed, got {final_cr}");
        assert!(r.stats.freq_switches >= 2);
    }

    #[test]
    fn flat_golden_data_matches_per_packet_processing() {
        let t = trace();
        for kind in AppKind::extended() {
            let golden = ClumsyProcessor::golden(kind, &t);
            let mut m = Machine::golden();
            let mut app = kind.instantiate(&t);
            m.set_fuel(app.setup_fuel());
            assert_eq!(golden.init_obs(), app.setup(&mut m).unwrap(), "{kind}");
            assert_eq!(golden.packets(), t.packets.len(), "{kind}");
            for (i, pkt) in t.packets.iter().enumerate() {
                let view = m.dma_packet(pkt).unwrap();
                m.set_fuel(app.fuel_per_packet());
                let want = app.process(&mut m, view).unwrap();
                assert_eq!(golden.packet(i), want, "{kind}: packet {i}");
            }
        }
    }

    #[test]
    fn golden_reuse_matches_internal_golden() {
        let t = trace();
        let golden = ClumsyProcessor::golden(AppKind::Nat, &t);
        let p = ClumsyProcessor::new(ClumsyConfig::baseline());
        let a = p.run(AppKind::Nat, &t);
        let b = p.run_with_golden(AppKind::Nat, &t, &golden);
        assert_eq!(a, b);
    }

    #[test]
    fn runs_are_deterministic() {
        let t = trace();
        let cfg = ClumsyConfig::baseline()
            .with_fault_model(FaultProbabilityModel::new(1e-5, 0.2))
            .with_static_cycle(0.25);
        let a = ClumsyProcessor::new(cfg.clone()).run(AppKind::Drr, &t);
        let b = ClumsyProcessor::new(cfg).run(AppKind::Drr, &t);
        assert_eq!(a, b);
    }

    #[test]
    fn watchdog_contains_fatal_errors() {
        // At a rate that reliably kills the radix walk, the watchdog
        // drops packets instead of ending the run.
        let t = TraceConfig::small().with_packets(300).generate();
        // Faults in the data plane only: the watchdog covers packet
        // processing (footnote 3 is about per-packet loops); a processor
        // that cannot even build its tables is legitimately dead.
        let base = ClumsyConfig::baseline()
            .with_fault_model(FaultProbabilityModel::new(2e-4, 0.2))
            .with_planes(netbench::PlaneMask::data_only())
            .with_static_cycle(0.25);
        let mut plain_fatals = 0;
        let mut dog_fatals = 0;
        let mut dog_drops = 0;
        for seed in 0..6u64 {
            let plain = ClumsyProcessor::new(base.clone().with_seed(seed)).run(AppKind::Tl, &t);
            let dog = ClumsyProcessor::new(base.clone().with_seed(seed).with_watchdog())
                .run(AppKind::Tl, &t);
            plain_fatals += usize::from(plain.fatal.is_some());
            dog_fatals += usize::from(dog.fatal.is_some());
            dog_drops += dog.dropped_packets;
            assert_eq!(
                dog.packets_completed + dog.dropped_packets,
                t.packets.len(),
                "watchdog must account for every packet"
            );
        }
        assert!(plain_fatals > 0, "rate must be lethal without watchdog");
        assert_eq!(dog_fatals, 0, "watchdog must contain every fatal");
        assert!(dog_drops > 0, "contained fatals appear as drops");
    }

    #[test]
    fn word_recovery_is_no_worse_than_line_recovery() {
        use cache_sim::RecoveryGranularity;
        let t = TraceConfig::small().with_packets(400).generate();
        let mk = |granularity| {
            ClumsyConfig::baseline()
                .with_fault_model(FaultProbabilityModel::new(2e-6, 0.2))
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::one_strike())
                .with_recovery(granularity)
                .with_static_cycle(0.25)
        };
        let mut line_err = 0usize;
        let mut word_err = 0usize;
        for seed in 0..6u64 {
            line_err += ClumsyProcessor::new(mk(RecoveryGranularity::Line).with_seed(seed))
                .run(AppKind::Md5, &t)
                .erroneous_packets;
            word_err += ClumsyProcessor::new(mk(RecoveryGranularity::Word).with_seed(seed))
                .run(AppKind::Md5, &t)
                .erroneous_packets;
        }
        assert!(
            word_err <= line_err,
            "sub-block repair must not lose more data: {word_err} vs {line_err}"
        );
    }

    #[test]
    fn different_seeds_give_different_fault_patterns() {
        let t = TraceConfig::small().with_packets(300).generate();
        let cfg = ClumsyConfig::baseline()
            .with_fault_model(FaultProbabilityModel::new(3e-5, 0.2))
            .with_static_cycle(0.25);
        let a = ClumsyProcessor::new(cfg.clone().with_seed(1)).run(AppKind::Crc, &t);
        let b = ClumsyProcessor::new(cfg.with_seed(2)).run(AppKind::Crc, &t);
        assert_ne!(
            (a.stats.faults_injected, a.erroneous_packets),
            (b.stats.faults_injected, b.erroneous_packets)
        );
    }
}
