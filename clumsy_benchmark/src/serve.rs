//! The `serve` workload — capacity at saturation, and latency at a fixed
//! rate below it — and the single-thread stage replay behind its
//! per-layer numbers.

use crate::stats::{median, Log2Histogram};
use crate::trace::Spans;
use crate::{digest_of, repeat, Opts, Outcome, Repetition};
use clumsy_core::campaign::RESEED_STRIDE;
use clumsy_core::{
    flow_shard, run_serve, ClumsyConfig, FrequencyPlan, IngressQueue, PushOutcome, ServeConfig,
    ServeReport, Telemetry,
};
use netbench::{
    diff_observations, fnv1a_fold, AppKind, Machine, Packet, PacketApp, Plane, Trace, TraceConfig,
    TrafficSource, FNV_OFFSET,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One shard: one pump thread and one shard thread, at most two busy.
const SHARDS: usize = 1;
const QUEUE_DEPTH: usize = 1024;
/// Packets per capacity run.
const CAPACITY_BUDGET: u64 = 300_000;
/// The latency runs' offered rate, about a quarter of capacity.
const PACED_RATE: u64 = 50_000;
/// Packets per latency run (two seconds of traffic).
const PACED_BUDGET: u64 = 2 * PACED_RATE;
/// The pacer sleeps until this long before a packet is due, then spins.
const SPIN: Duration = Duration::from_micros(100);
/// A release later than this after its due time counts as late.
const LATE: Duration = Duration::from_micros(100);
/// Largest late share a latency run may have and still count.
const MAX_LATE_FRAC: f64 = 0.01;
/// The replay records the stage spans of every this-many packets.
const SPAN_EVERY: u64 = 256;
/// Mirrors serve's per-shard set-up retry limit.
const SETUP_RETRY_LIMIT: u64 = 8;

fn config(o: &Opts, payload: Option<usize>, budget: u64) -> ServeConfig {
    let mut traffic = TraceConfig::paper().with_seed(o.trace_seed());
    if let Some(bytes) = payload {
        traffic.payload_min = bytes;
        traffic.payload_max = bytes;
    }
    ServeConfig::new(
        AppKind::Route,
        ClumsyConfig::paper_best().with_seed(o.fault_seed()),
    )
    .with_shards(SHARDS)
    .with_queue_depth(QUEUE_DEPTH)
    .with_traffic(traffic)
    .with_packet_budget(budget)
}

/// Releases packet `k` at `start + k / rate`: sleeps until [`SPIN`]
/// before the due time, then spins, and counts releases over [`LATE`].
/// Installed as `run_serve`'s `stop` closure, which the pump polls
/// before every packet.
struct Pacer {
    interval_ns: u64,
    budget: u64,
    start: OnceLock<Instant>,
    next: AtomicU64,
    late: AtomicU64,
}

impl Pacer {
    fn new(rate: u64, budget: u64) -> Self {
        Pacer {
            interval_ns: 1_000_000_000 / rate,
            budget,
            start: OnceLock::new(),
            next: AtomicU64::new(0),
            late: AtomicU64::new(0),
        }
    }

    /// Waits for the next packet's due time; never asks serve to stop.
    fn wait(&self) -> bool {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        if k >= self.budget {
            return false;
        }
        let start = *self.start.get_or_init(Instant::now);
        let due = start + Duration::from_nanos(k * self.interval_ns);
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if Instant::now() > due + LATE {
            self.late.fetch_add(1, Ordering::Relaxed);
        }
        false
    }
}

/// One `run_serve` call with telemetry attached.
struct Run {
    report: ServeReport,
    latency: Log2Histogram,
    late: u64,
}

fn serve_once(cfg: &ServeConfig, rate: Option<u64>) -> Run {
    let tel = Telemetry::with_shards(SHARDS);
    let pacer = rate.map(|r| Pacer::new(r, cfg.packet_budget));
    let report = match &pacer {
        Some(p) => run_serve(cfg, Some(&tel), &|| p.wait()),
        None => run_serve(cfg, Some(&tel), &|| false),
    };
    let snap = tel.snapshot();
    Run {
        report,
        latency: Log2Histogram {
            buckets: tel.serve_latency_bucket_counts(),
            max_us: snap.serve_latency_us_max,
            total_us: snap.serve_latency_us_total,
        },
        late: pacer.map_or(0, |p| p.late.load(Ordering::Relaxed)),
    }
}

/// Checks one run's accounting and folds it into the outcome.
fn account(out: &mut Outcome, run: &Run, budget: u64) {
    let r = &run.report;
    out.attempted += r.generated;
    out.failed += r.shed + r.abandoned();
    out.check(r.accounting_holds(), || {
        "serve accounting identity broken".into()
    });
    out.check(r.generated == budget, || {
        format!("generated {} of a {budget}-packet budget", r.generated)
    });
    out.check(
        r.shed == 0 && r.abandoned() == 0 && r.restarts() == 0,
        || {
            format!(
                "shed {}, abandoned {}, restarts {}",
                r.shed,
                r.abandoned(),
                r.restarts()
            )
        },
    );
}

/// Seconds one cold set-up takes in a fresh process: `run_serve` with a
/// one-packet budget (thread start, traffic source and both machines'
/// control planes).
pub fn setup_s(o: &Opts) -> f64 {
    let cfg = latency_config(o).with_packet_budget(1);
    let start = Instant::now();
    run_serve(&cfg, None, &|| false);
    start.elapsed().as_secs_f64()
}

/// The capacity runs: an unpaced pump of minimum-size (64-byte) packets,
/// so per-packet overhead dominates and backpressure sets the pace.
fn capacity_config(o: &Opts) -> ServeConfig {
    config(o, Some(64), if o.smoke { 2_000 } else { CAPACITY_BUDGET })
}

/// The latency runs: paper payloads (64–512 bytes), released open-loop
/// at [`PACED_RATE`].
fn latency_config(o: &Opts) -> ServeConfig {
    config(o, None, if o.smoke { 1_000 } else { PACED_BUDGET })
}

/// `serve`: each repetition is a capacity run, whose throughput is
/// `pkt_per_s`, then a latency run, whose enqueue→verdict percentiles
/// are `p50_us` and `p95_us`.
pub fn serve(o: &Opts, spans: Option<&mut Spans>) -> Outcome {
    let capacity = capacity_config(o);
    let latency = latency_config(o);
    // Smoke runs may be debug builds on a loaded machine: pace them
    // slowly enough that the pump keeps schedule.
    let rate = if o.smoke { PACED_RATE / 10 } else { PACED_RATE };
    let mut out = Outcome::default();
    // With --trace one untraced repetition gives the throughput and
    // latency the replay's stages are compared against.
    let (seconds, min) = if o.trace { (0.0, 1) } else { (o.seconds, 2) };
    let reps = repeat(seconds, min, |_| {
        (
            serve_once(&capacity, None),
            serve_once(&latency, Some(rate)),
        )
    });
    let mut digests = Vec::new();
    let mut late = 0;
    for (cap, lat) in &reps {
        account(&mut out, cap, capacity.packet_budget);
        account(&mut out, lat, latency.packet_budget);
        let r = &cap.report;
        let pkt_per_s = r.processed() as f64 / r.wall.as_secs_f64();
        out.e2e
            .reps
            .push(Repetition::from_histogram(pkt_per_s, &lat.latency));
        digests.push([r.shards[0].digest, lat.report.shards[0].digest]);
        late += lat.late;
    }
    out.digest = digest_of(&digests[0]);
    out.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("serve runs disagree: {digests:x?}")
    });
    let late_frac = late as f64 / (reps.len() as u64 * latency.packet_budget) as f64;
    out.check(late_frac <= MAX_LATE_FRAC, || {
        format!("pacer released {:.2}% of packets late", late_frac * 100.0)
    });

    if let Some(s) = spans {
        let rates: Vec<f64> = out.e2e.reps.iter().map(|r| r.pkt_per_s).collect();
        let pkt_per_s = median(&rates).unwrap_or(0.0);
        match (replay(&capacity, None), replay(&capacity, Some(s))) {
            (Ok(plain), Ok(timed)) => {
                let want = digests[0][0];
                out.check(timed.digest == want && plain.digest == want, || {
                    format!(
                        "replay digest {:#018x} differs from run_serve's {want:#018x}",
                        timed.digest
                    )
                });
                let l = &mut out.layers;
                let n = capacity.packet_budget as f64;
                let ns = |stages: &[usize]| {
                    stages.iter().map(|&i| timed.stage_ns[i]).sum::<u64>() as f64 / n
                };
                let pump = ns(&PUMP_STAGES);
                let shard = ns(&SHARD_STAGES);
                l.gen_ns = ns(&[GEN]);
                l.golden_ns = ns(&[GOLDEN]);
                l.measured_ns = ns(&[MEASURED]);
                l.dispatch_ns = ns(&[HASH, PUSH, POP]);
                l.handoff_ns = 1e9 / pkt_per_s - pump.max(shard);
                l.busy_frac = shard * pkt_per_s / 1e9;
                l.stats = timed.stats;
                l.packets = n;
                l.trace_overhead = timed.wall / plain.wall;
            }
            (Err(e), _) | (_, Err(e)) => out.failures.push(format!("replay failed: {e}")),
        }
        let l = &mut out.layers;
        for (_, lat) in &reps {
            l.latency.merge(&lat.latency);
            l.queue_highwater = l
                .queue_highwater
                .max(lat.report.shards[0].queue_highwater as u64);
        }
        l.gen_late_frac = late_frac;
    }
    out
}

// ---------------------------------------------------------------------
// Stage replay
// ---------------------------------------------------------------------

/// Replay stages; the pump stages run on serve's calling thread, the
/// shard stages on the shard thread.
const GEN: usize = 0;
const HASH: usize = 1;
const PUMP_TELEMETRY: usize = 2;
const PUSH: usize = 3;
const POP: usize = 4;
const GOLDEN: usize = 5;
const MEASURED: usize = 6;
const SHARD_TELEMETRY: usize = 7;
const DIGEST: usize = 8;
const STAGE_NAMES: [&str; 9] = [
    "netbench.next_packet",
    "serve.flow_shard",
    "telemetry.pump",
    "serve.queue_push",
    "serve.queue_pop",
    "netbench.golden",
    "netbench.measured",
    "telemetry.shard",
    "serve.digest",
];
const PUMP_STAGES: [usize; 4] = [GEN, HASH, PUMP_TELEMETRY, PUSH];
const SHARD_STAGES: [usize; 5] = [POP, GOLDEN, MEASURED, SHARD_TELEMETRY, DIGEST];
/// Stage of each timed segment of one packet, in execution order (pump
/// telemetry runs on both sides of the push).
const SEGMENTS: [usize; 10] = [
    GEN,
    HASH,
    PUMP_TELEMETRY,
    PUSH,
    PUMP_TELEMETRY,
    POP,
    GOLDEN,
    MEASURED,
    SHARD_TELEMETRY,
    DIGEST,
];

/// A golden and a measured machine stepped in lockstep, built exactly as
/// serve builds a shard.
struct Pair {
    golden_machine: Machine,
    golden_app: Box<dyn PacketApp>,
    golden_fuel: u64,
    machine: Machine,
    app: Box<dyn PacketApp>,
    fuel: u64,
}

impl Pair {
    /// Builds both machines and runs both control planes; `Ok(None)`
    /// when the measured control plane hits a fatal fault (serve then
    /// retries with the next reseed round).
    fn build(cfg: &ServeConfig, context: &Trace, seed: u64) -> Result<Option<Pair>, String> {
        let FrequencyPlan::Static(cr) = cfg.design.frequency else {
            return Err("the replay covers static clock plans only".into());
        };
        let mut golden_machine = Machine::strongarm(0);
        golden_machine.set_inject(false);
        let mut golden_app = cfg.app.instantiate(context);
        golden_machine.set_fuel(golden_app.setup_fuel());
        golden_app
            .setup(&mut golden_machine)
            .map_err(|e| format!("golden set-up failed: {e}"))?;
        let golden_fuel = golden_app.fuel_per_packet();

        let mut machine = Machine::with_config(cfg.design.mem.clone(), seed);
        machine.set_fault_planes(cfg.design.planes);
        let mut app = cfg.app.instantiate(context);
        let fuel = cfg.design.fuel_per_packet.unwrap_or(app.fuel_per_packet());
        machine.set_cycle_free(cr);
        machine.set_plane(Plane::Control);
        machine.set_fuel(app.setup_fuel());
        if app.setup(&mut machine).is_err() {
            return Ok(None);
        }
        machine.writeback_all();
        machine.set_plane(Plane::Data);
        Ok(Some(Pair {
            golden_machine,
            golden_app,
            golden_fuel,
            machine,
            app,
            fuel,
        }))
    }

    /// Shard 0's machine pair: the first reseed round whose measured
    /// control plane survives.
    fn for_shard0(cfg: &ServeConfig, context: &Trace) -> Result<Pair, String> {
        for round in 0..=SETUP_RETRY_LIMIT {
            let seed = cfg.design.seed ^ round.wrapping_mul(RESEED_STRIDE);
            if let Some(pair) = Pair::build(cfg, context, seed)? {
                return Ok(pair);
            }
        }
        Err("no reseed round could set up the measured machine".into())
    }
}

/// What one replay produced.
struct Replay {
    digest: u64,
    stats: cache_sim::MemStats,
    /// Nanoseconds per stage, summed over every packet (timed replays).
    stage_ns: [u64; STAGE_NAMES.len()],
    wall: f64,
}

/// Replays serve's shard-0 stream on one thread: the pump's stages, an
/// uncontended push and pop, then the shard's golden pass, measured pass
/// and diff, telemetry and digest. With `spans` it times every stage and
/// records the stage spans of every [`SPAN_EVERY`]th packet; without, it
/// reads no clock per packet (the baseline for the tracing overhead).
fn replay(cfg: &ServeConfig, mut spans: Option<&mut Spans>) -> Result<Replay, String> {
    let timed = spans.is_some();
    let mut source = TrafficSource::new(&cfg.traffic);
    let context = source.context();
    let mut pair = Pair::for_shard0(cfg, &context)?;
    let queue = IngressQueue::new(cfg.queue_depth);
    let tel = Telemetry::with_shards(cfg.shards);
    let mut published = *pair.machine.stats();
    let mut since_publish = 0u32;
    let mut digest = 0u64;
    let mut stage_ns = [0u64; STAGE_NAMES.len()];
    let start = Instant::now();
    let root = spans
        .as_deref_mut()
        .map(|s| s.open("serve.replay", start, None));
    let mut t = [start; SEGMENTS.len() + 1];
    let now = |t: &mut Instant| {
        if timed {
            *t = Instant::now();
        }
    };
    for i in 0..cfg.packet_budget {
        now(&mut t[0]);
        let pkt = source.next_packet();
        now(&mut t[1]);
        black_box(flow_shard(black_box(&pkt), black_box(cfg.shards)));
        now(&mut t[2]);
        let enqueued = Instant::now();
        now(&mut t[3]);
        let depth = match queue.push(pkt, cfg.shed_timeout) {
            PushOutcome::Enqueued(depth) => depth,
            other => return Err(format!("replay push returned {other:?}")),
        };
        now(&mut t[4]);
        tel.packet_ingested();
        tel.queue_depth_sample(depth as u64);
        now(&mut t[5]);
        let pkt: Packet = queue.pop().ok_or("replay queue closed")?;
        now(&mut t[6]);
        let view = pair
            .golden_machine
            .dma_packet(&pkt)
            .map_err(|e| format!("golden DMA failed: {e}"))?;
        pair.golden_machine.set_fuel(pair.golden_fuel);
        let golden_obs = pair
            .golden_app
            .process(&mut pair.golden_machine, view)
            .map_err(|e| format!("golden packet failed: {e}"))?;
        now(&mut t[7]);
        // Verdict bytes as serve digests them: clean 0, erroneous 1,
        // dropped 2 (fatal errors always take the watchdog path).
        let verdict: u8 = match pair.machine.dma_packet(&pkt) {
            Err(_) => 2,
            Ok(view) => {
                pair.machine.set_fuel(pair.fuel);
                match pair.app.process(&mut pair.machine, view) {
                    Ok(obs) => u8::from(diff_observations(&golden_obs, &obs).has_error()),
                    Err(_) => 2,
                }
            }
        };
        now(&mut t[8]);
        tel.serve_latency(enqueued.elapsed());
        match verdict {
            2 => tel.packet_dropped(0),
            v => tel.packet_processed(0, v == 1),
        }
        since_publish += 1;
        if since_publish >= cfg.stats_interval.max(1) {
            let stats = *pair.machine.stats();
            tel.record_stats(0, &stats.since(&published));
            published = stats;
            since_publish = 0;
        }
        now(&mut t[9]);
        let h = if digest == 0 { FNV_OFFSET } else { digest };
        digest = fnv1a_fold(h, pkt.id.to_le_bytes().into_iter().chain([verdict]));
        now(&mut t[10]);
        if timed {
            for (seg, &stage) in SEGMENTS.iter().enumerate() {
                stage_ns[stage] += (t[seg + 1] - t[seg]).as_nanos() as u64;
            }
            if let Some(s) = spans.as_deref_mut().filter(|_| i % SPAN_EVERY == 0) {
                let p = s.record("serve.packet", t[0], t[SEGMENTS.len()], root);
                for (seg, &stage) in SEGMENTS.iter().enumerate() {
                    s.record(STAGE_NAMES[stage], t[seg], t[seg + 1], Some(p));
                }
            }
        }
    }
    let end = Instant::now();
    if let (Some(s), Some(id)) = (spans, root) {
        s.close(id, end);
    }
    Ok(Replay {
        digest,
        stats: *pair.machine.stats(),
        stage_ns,
        wall: (end - start).as_secs_f64(),
    })
}
