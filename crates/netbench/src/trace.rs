//! Deterministic synthetic packet traces.
//!
//! The paper drives NetBench with its bundled input traces; those are
//! not redistributable, so we generate equivalent synthetic traffic
//! (DESIGN.md "Substitutions"): a routing prefix table, a set of flows
//! whose destinations match those prefixes (with a skewed popularity
//! distribution, so caches see realistic locality), and URL requests
//! drawn from a synthetic corpus.

use crate::packet::{hash_tuple, Packet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;

/// Admission class of a packet: control-plane traffic is protected,
/// data-plane traffic absorbs overload first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficClass {
    /// Control-plane traffic: never shed in favour of data, may preempt
    /// queued data-class packets under overload.
    Control,
    /// Data-plane traffic (the default): sheddable.
    #[default]
    Data,
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::Control => write!(f, "control"),
            TrafficClass::Data => write!(f, "data"),
        }
    }
}

/// Classifies packets into [`TrafficClass`]es by flow hash.
///
/// The policy is deliberately simple and deterministic: the classifier
/// is built from an explicit set of control-flow hashes —
/// [`FlowClassifier::lowest_hashes`] marks the `n` numerically lowest
/// flow hashes of a [`TrafficSource`]'s flow table as control, so the
/// same trace config always protects the same flows.
///
/// # Examples
///
/// ```
/// use netbench::{FlowClassifier, TraceConfig, TrafficClass, TrafficSource};
///
/// let cfg = TraceConfig::small();
/// let mut src = TrafficSource::new(&cfg);
/// let cls = FlowClassifier::lowest_hashes(&src.flow_hashes(), 4);
/// assert_eq!(cls.control_flows(), 4);
/// let pkt = src.next_packet();
/// let class = cls.classify(pkt.flow_hash());
/// assert!(matches!(class, TrafficClass::Control | TrafficClass::Data));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowClassifier {
    control: HashSet<u64>,
}

impl FlowClassifier {
    /// A classifier that marks exactly the given flow hashes as control.
    #[must_use]
    pub fn new(control: impl IntoIterator<Item = u64>) -> Self {
        FlowClassifier {
            control: control.into_iter().collect(),
        }
    }

    /// Marks the `n` numerically lowest hashes in `hashes` as control
    /// (duplicates collapse; `n` larger than the population marks all).
    #[must_use]
    pub fn lowest_hashes(hashes: &[u64], n: usize) -> Self {
        let mut sorted: Vec<u64> = hashes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.truncate(n);
        FlowClassifier::new(sorted)
    }

    /// The class of a flow.
    #[must_use]
    pub fn classify(&self, flow_hash: u64) -> TrafficClass {
        if self.control.contains(&flow_hash) {
            TrafficClass::Control
        } else {
            TrafficClass::Data
        }
    }

    /// Number of distinct flows marked control.
    #[must_use]
    pub fn control_flows(&self) -> usize {
        self.control.len()
    }
}

/// A routing-table entry: `prefix/len → next_hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixRoute {
    /// Network prefix (host-order, upper `len` bits significant).
    pub prefix: u32,
    /// Prefix length in bits (0–24 here).
    pub len: u8,
    /// Next-hop identifier.
    pub next_hop: u32,
}

/// Configuration of the trace generator.
///
/// # Examples
///
/// ```
/// use netbench::TraceConfig;
///
/// let trace = TraceConfig::small().generate();
/// assert!(!trace.packets.is_empty());
/// assert!(!trace.prefixes.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of packets.
    pub packets: usize,
    /// Number of distinct flows.
    pub flows: usize,
    /// Number of routing prefixes (plus a default route).
    pub prefixes: usize,
    /// Number of distinct URLs in the corpus.
    pub urls: usize,
    /// Payload length range in bytes.
    pub payload_min: usize,
    /// Maximum payload length in bytes.
    pub payload_max: usize,
    /// RNG seed.
    pub seed: u64,
    /// Traffic locality pattern.
    pub pattern: TrafficPattern,
}

/// How destinations/flows repeat across the trace — the cache-locality
/// knob of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficPattern {
    /// Zipf-skewed flow popularity (default; edge-router-like).
    #[default]
    Skewed,
    /// Every packet from a uniformly random flow (core-router-like —
    /// least locality the flow table allows).
    Uniform,
    /// All packets from one flow (best-case locality).
    SingleFlow,
    /// One elephant: flow 0 carries half of the stream by itself, the
    /// remaining flows split the other half Zipf-style. The worst case
    /// for static flow-hash sharding — whichever shard owns flow 0
    /// receives ≥50 % of all traffic.
    Elephant,
}

impl TraceConfig {
    /// A small trace for unit tests (fast).
    pub fn small() -> Self {
        TraceConfig {
            packets: 200,
            flows: 16,
            prefixes: 32,
            urls: 16,
            payload_min: 32,
            payload_max: 128,
            seed: 0xC0FFEE,
            pattern: TrafficPattern::Skewed,
        }
    }

    /// The default evaluation trace (reproduction runs).
    pub fn paper() -> Self {
        TraceConfig {
            packets: 2_000,
            flows: 64,
            prefixes: 128,
            urls: 64,
            payload_min: 64,
            payload_max: 512,
            seed: 0xC0FFEE,
            pattern: TrafficPattern::Skewed,
        }
    }

    /// Returns the config with a different traffic pattern.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Returns the config with a different packet count.
    pub fn with_packets(mut self, packets: usize) -> Self {
        self.packets = packets;
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace: the first `packets` packets of the
    /// [`TrafficSource`] stream this config describes, plus its
    /// control-plane inputs.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `payload_min > payload_max`.
    pub fn generate(&self) -> Trace {
        assert!(self.packets > 0, "need at least one packet");
        let mut source = TrafficSource::new(self);
        let packets = (0..self.packets).map(|_| source.next_packet()).collect();
        let mut trace = source.context();
        trace.packets = packets;
        trace
    }
}

/// One synthetic flow: a fixed 5-tuple plus the URL it requests.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    url: usize,
}

/// An unbounded, deterministic stream of the synthetic traffic a
/// [`TraceConfig`] describes.
///
/// The control-plane inputs (prefix table, URL corpus, flow set) are
/// generated once at construction; [`TrafficSource::next_packet`] then
/// draws packets from the fixed flow set forever. A bounded
/// [`TraceConfig::generate`] call is exactly the first `packets`
/// elements of this stream — the same RNG, consumed in the same order —
/// so serving and batch experiments see the same traffic.
///
/// Packet ids are a `u32` sequence number and wrap after 2³² packets;
/// flow membership (the 5-tuple) is the stable identity, the id is
/// only a stream position.
///
/// # Examples
///
/// ```
/// use netbench::{TraceConfig, TrafficSource};
///
/// let cfg = TraceConfig::small();
/// let mut source = TrafficSource::new(&cfg);
/// let streamed: Vec<_> = source.by_ref().take(cfg.packets).collect();
/// assert_eq!(streamed, cfg.generate().packets);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficSource {
    rng: SmallRng,
    pattern: TrafficPattern,
    payload_min: usize,
    payload_max: usize,
    prefixes: Vec<PrefixRoute>,
    urls: Vec<String>,
    flows: Vec<Flow>,
    weights: Vec<f64>,
    weight_total: f64,
    next_id: u32,
}

impl TrafficSource {
    /// Builds the control-plane state and seeds the packet stream.
    ///
    /// # Panics
    ///
    /// Panics if a flow/prefix/url count is zero or
    /// `payload_min > payload_max` (`packets` is ignored — the stream
    /// is unbounded).
    pub fn new(cfg: &TraceConfig) -> Self {
        assert!(cfg.flows > 0, "need at least one flow");
        assert!(cfg.prefixes > 0, "need at least one prefix");
        assert!(cfg.urls > 0, "need at least one url");
        assert!(
            cfg.payload_min <= cfg.payload_max,
            "payload_min must not exceed payload_max"
        );
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Routing prefixes: distinct /8../24 networks plus default route.
        let mut prefixes = Vec::with_capacity(cfg.prefixes + 1);
        let mut seen = std::collections::HashSet::new();
        while prefixes.len() < cfg.prefixes {
            let len = rng.gen_range(8..=24u8);
            let prefix = rng.gen::<u32>() & prefix_mask(len);
            if seen.insert((prefix, len)) {
                prefixes.push(PrefixRoute {
                    prefix,
                    len,
                    next_hop: rng.gen_range(1..=255),
                });
            }
        }
        prefixes.push(PrefixRoute {
            prefix: 0,
            len: 0,
            next_hop: 0xFF00, // default route
        });

        // URL corpus with monotone ids baked into the path.
        let urls: Vec<String> = (0..cfg.urls)
            .map(|i| format!("/content/item{i:04}.html"))
            .collect();

        // Flows: destination drawn inside a random prefix.
        let flows: Vec<Flow> = (0..cfg.flows)
            .map(|_| {
                let p = prefixes[rng.gen_range(0..cfg.prefixes)];
                let host_bits = rng.gen::<u32>() & !prefix_mask(p.len);
                Flow {
                    src_ip: rng.gen(),
                    dst_ip: p.prefix | host_bits,
                    src_port: rng.gen_range(1024..=u16::MAX),
                    dst_port: [80u16, 443, 53, 8080][rng.gen_range(0..4)],
                    proto: if rng.gen_bool(0.7) { 6 } else { 17 },
                    url: rng.gen_range(0..cfg.urls),
                }
            })
            .collect();

        // Zipf-ish flow popularity: weight 1/(rank+1).
        let mut weights: Vec<f64> = (0..cfg.flows).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        if cfg.pattern == TrafficPattern::Elephant && cfg.flows > 1 {
            // The elephant matches the combined weight of every other
            // flow, so flow 0 carries exactly half of the stream.
            weights[0] = weights[1..].iter().sum();
        }
        let weight_total: f64 = weights.iter().sum();

        TrafficSource {
            rng,
            pattern: cfg.pattern,
            payload_min: cfg.payload_min,
            payload_max: cfg.payload_max,
            prefixes,
            urls,
            flows,
            weights,
            weight_total,
            next_id: 0,
        }
    }

    /// The control-plane inputs as a packet-less [`Trace`]: enough for
    /// [`crate::AppKind::instantiate`], which reads only the prefix
    /// table, URL corpus and flow count.
    #[must_use]
    pub fn context(&self) -> Trace {
        Trace {
            packets: Vec::new(),
            prefixes: self.prefixes.clone(),
            urls: self.urls.clone(),
            flow_count: self.flows.len(),
        }
    }

    /// Number of distinct flows the stream draws from.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The flow hash of every flow in the table, in flow order.
    ///
    /// Each entry equals [`Packet::flow_hash`] of every packet that
    /// flow emits (same 5-tuple, same FNV-1a mix), so classifiers built
    /// from this list agree with per-packet classification.
    #[must_use]
    pub fn flow_hashes(&self) -> Vec<u64> {
        self.flows
            .iter()
            .map(|f| hash_tuple(f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto))
            .collect()
    }

    /// The next packet in the stream (never exhausts).
    pub fn next_packet(&mut self) -> Packet {
        let fi = match self.pattern {
            TrafficPattern::SingleFlow => 0,
            TrafficPattern::Uniform => self.rng.gen_range(0..self.flows.len()),
            TrafficPattern::Skewed | TrafficPattern::Elephant => {
                let mut pick = self.rng.gen::<f64>() * self.weight_total;
                let mut fi = 0;
                for (i, w) in self.weights.iter().enumerate() {
                    if pick < *w {
                        fi = i;
                        break;
                    }
                    pick -= w;
                }
                fi
            }
        };
        let f = &self.flows[fi];
        let len = self.rng.gen_range(self.payload_min..=self.payload_max);
        let mut payload = vec![0u8; len];
        self.rng.fill(payload.as_mut_slice());
        // Embed an HTTP-ish request line for the url workload, written
        // in place and truncated at the payload's end.
        let mut at = 0;
        for part in [b"GET ", self.urls[f.url].as_bytes(), b" HTTP/1.0\r\n"] {
            let n = part.len().min(len - at);
            payload[at..at + n].copy_from_slice(&part[..n]);
            at += n;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        Packet {
            id,
            src_ip: f.src_ip,
            dst_ip: f.dst_ip,
            src_port: f.src_port,
            dst_port: f.dst_port,
            proto: f.proto,
            ttl: self.rng.gen_range(2..=64),
            payload,
        }
    }
}

impl Iterator for TrafficSource {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        Some(self.next_packet())
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::paper()
    }
}

/// Bit mask with the upper `len` bits set.
pub(crate) fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// A generated trace: packets plus the control-plane inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Trace {
    /// The packet stream.
    pub packets: Vec<Packet>,
    /// Routing prefixes to install (last entry is the default route).
    pub prefixes: Vec<PrefixRoute>,
    /// URL corpus (index = server id for url switching).
    pub urls: Vec<String>,
    /// Number of flows (DRR queue count).
    pub flow_count: usize,
}

impl Trace {
    /// Content fingerprint of the trace, stable within a process.
    ///
    /// Used as a memoization key for golden runs (which depend only on
    /// the application and the trace contents), so two structurally
    /// equal traces must — and do — fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} packets, {} prefixes, {} urls, {} flows",
            self.packets.len(),
            self.prefixes.len(),
            self.urls.len(),
            self.flow_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TraceConfig::small().generate();
        let b = TraceConfig::small().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_tracks_content_equality() {
        let a = TraceConfig::small().generate();
        let b = TraceConfig::small().generate();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.packets[0].ttl ^= 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn source_stream_is_the_unbounded_trace() {
        // The bounded trace must be a strict prefix of the source
        // stream: same control-plane state, same packets, and the
        // source keeps producing past the configured length.
        let cfg = TraceConfig::small();
        let t = cfg.generate();
        let mut src = TrafficSource::new(&cfg);
        let ctx = src.context();
        assert!(ctx.packets.is_empty());
        assert_eq!(ctx.prefixes, t.prefixes);
        assert_eq!(ctx.urls, t.urls);
        assert_eq!(ctx.flow_count, t.flow_count);
        for (i, p) in t.packets.iter().enumerate() {
            assert_eq!(&src.next_packet(), p, "packet {i} diverged");
        }
        let beyond = src.next_packet();
        assert_eq!(beyond.id, cfg.packets as u32);
    }

    #[test]
    fn source_ids_are_sequential() {
        let mut src = TrafficSource::new(&TraceConfig::small());
        for want in 0..50u32 {
            assert_eq!(src.next_packet().id, want);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceConfig::small().generate();
        let b = TraceConfig::small().with_seed(1).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn every_destination_matches_some_prefix() {
        let t = TraceConfig::small().generate();
        for p in &t.packets {
            let matched = t
                .prefixes
                .iter()
                .any(|r| r.len > 0 && (p.dst_ip & prefix_mask(r.len)) == r.prefix);
            assert!(matched, "dst {:#010x} matches no prefix", p.dst_ip);
        }
    }

    #[test]
    fn last_prefix_is_default_route() {
        let t = TraceConfig::small().generate();
        let d = t.prefixes.last().unwrap();
        assert_eq!(d.len, 0);
    }

    #[test]
    fn packets_carry_http_request_lines() {
        let t = TraceConfig::small().generate();
        let with_get = t
            .packets
            .iter()
            .filter(|p| p.payload.starts_with(b"GET /content/"))
            .count();
        assert!(with_get > t.packets.len() / 2);
    }

    #[test]
    fn popularity_is_skewed() {
        // The most popular flow should carry noticeably more packets
        // than a uniform share.
        let t = TraceConfig::paper().generate();
        let mut counts = std::collections::HashMap::new();
        for p in &t.packets {
            *counts.entry((p.src_ip, p.src_port)).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let uniform = t.packets.len() / t.flow_count;
        assert!(max > 2 * uniform, "max {max} vs uniform {uniform}");
    }

    #[test]
    fn single_flow_pattern_uses_one_flow() {
        let t = TraceConfig::small()
            .with_pattern(TrafficPattern::SingleFlow)
            .generate();
        let firsts: std::collections::HashSet<(u32, u16)> =
            t.packets.iter().map(|p| (p.src_ip, p.src_port)).collect();
        assert_eq!(firsts.len(), 1);
    }

    #[test]
    fn uniform_pattern_spreads_flows() {
        let t = TraceConfig::paper()
            .with_pattern(TrafficPattern::Uniform)
            .generate();
        let mut counts = std::collections::HashMap::new();
        for p in &t.packets {
            *counts.entry((p.src_ip, p.src_port)).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let uniform = t.packets.len() / t.flow_count;
        assert!(max < 3 * uniform, "max {max} vs uniform {uniform}");
    }

    #[test]
    fn elephant_pattern_gives_one_flow_half_the_stream() {
        let cfg = TraceConfig::paper()
            .with_pattern(TrafficPattern::Elephant)
            .with_packets(8_000);
        let t = cfg.generate();
        let mut counts = std::collections::HashMap::new();
        for p in &t.packets {
            *counts.entry((p.src_ip, p.src_port)).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let share = max as f64 / t.packets.len() as f64;
        assert!(
            (0.45..=0.55).contains(&share),
            "elephant share {share:.3} strayed from 1/2"
        );
        // Mice still exist: more than half of the flows show up.
        assert!(
            counts.len() > t.flow_count / 2,
            "only {} flows",
            counts.len()
        );
    }

    #[test]
    fn flow_hashes_agree_with_emitted_packets() {
        let cfg = TraceConfig::small();
        let mut src = TrafficSource::new(&cfg);
        let hashes: HashSet<u64> = src.flow_hashes().into_iter().collect();
        for _ in 0..200 {
            let p = src.next_packet();
            assert!(hashes.contains(&p.flow_hash()), "{p} hash not in table");
        }
    }

    #[test]
    fn classifier_marks_the_n_lowest_hashes() {
        let cfg = TraceConfig::small();
        let src = TrafficSource::new(&cfg);
        let hashes = src.flow_hashes();
        let cls = FlowClassifier::lowest_hashes(&hashes, 4);
        assert_eq!(cls.control_flows(), 4);
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        for (i, h) in sorted.iter().enumerate() {
            let want = if i < 4 {
                TrafficClass::Control
            } else {
                TrafficClass::Data
            };
            assert_eq!(cls.classify(*h), want, "rank {i}");
        }
    }

    #[test]
    fn classifier_saturates_past_the_population() {
        let hashes = [3u64, 1, 2];
        let cls = FlowClassifier::lowest_hashes(&hashes, 99);
        assert_eq!(cls.control_flows(), 3);
        assert_eq!(cls.classify(7), TrafficClass::Data);
    }

    #[test]
    fn prefix_mask_edges() {
        assert_eq!(prefix_mask(0), 0);
        assert_eq!(prefix_mask(8), 0xFF00_0000);
        assert_eq!(prefix_mask(24), 0xFFFF_FF00);
        assert_eq!(prefix_mask(32), u32::MAX);
    }

    #[test]
    fn ttl_is_at_least_two() {
        let t = TraceConfig::paper().generate();
        assert!(t.packets.iter().all(|p| p.ttl >= 2));
    }
}
