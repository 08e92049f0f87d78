//! `Machine::golden` (flat memory) against a `strongarm` machine with
//! injection off: every application observes the same values, and every
//! access entry point returns the same values and the same errors.

use netbench::{AppError, AppKind, Machine, Observation, Trace, TraceConfig};
use proptest::prelude::*;

/// Per-packet outcome plus the instruction count after it.
type PacketRecord = (Result<Vec<Observation>, AppError>, u64);

/// Runs `kind` over `trace` the way the batch runner's golden pass does
/// and records everything an app can observe.
fn observe(
    kind: AppKind,
    trace: &Trace,
    m: &mut Machine,
) -> (Result<Vec<Observation>, AppError>, Vec<PacketRecord>) {
    let mut app = kind.instantiate(trace);
    m.set_fuel(app.setup_fuel());
    let init = app.setup(m);
    m.writeback_all();
    let per_packet = trace
        .packets
        .iter()
        .map(|pkt| {
            let result = m.dma_packet(pkt).and_then(|view| {
                m.set_fuel(app.fuel_per_packet());
                app.process(m, view)
            });
            (result, m.instructions())
        })
        .collect();
    (init, per_packet)
}

fn assert_golden_matches_cache_model(trace: &Trace, label: &str) {
    for kind in AppKind::extended() {
        let mut cached = Machine::strongarm(0);
        cached.set_inject(false);
        let expected = observe(kind, trace, &mut cached);
        let got = observe(kind, trace, &mut Machine::golden());
        assert!(expected.0.is_ok(), "{kind} setup on {label}");
        assert_eq!(got.0, expected.0, "{kind} init observations on {label}");
        for (i, (g, e)) in got.1.iter().zip(&expected.1).enumerate() {
            assert_eq!(g, e, "{kind} packet {i} on {label}");
        }
    }
}

#[test]
fn golden_observations_match_on_the_paper_trace() {
    let trace = TraceConfig::paper().with_packets(300).generate();
    assert_golden_matches_cache_model(&trace, "paper trace");
}

#[test]
fn golden_observations_match_on_fixed_64_byte_payloads() {
    let mut cfg = TraceConfig::paper().with_packets(300);
    cfg.payload_min = 64;
    cfg.payload_max = 64;
    assert_golden_matches_cache_model(&cfg.generate(), "64 B stream");
}

#[test]
fn golden_machine_reads_zero_timing_and_energy() {
    let mut m = Machine::golden();
    let a = m.alloc(64, 4);
    m.store_u32(a, 9).unwrap();
    m.set_cycle(0.5);
    assert_eq!(m.load_u32(a).unwrap(), 9);
    assert_eq!(m.instructions(), 2);
    assert_eq!(m.cycles(), 0.0);
    assert_eq!(m.cycle_time(), 1.0);
    assert_eq!(*m.stats(), Default::default());
    assert_eq!(m.energy(), Default::default());
}

/// The strongarm address space: 4 MiB, mirrored.
const CAPACITY: u32 = 4 * 1024 * 1024;

/// Anywhere (mirrored), a hot 8 KB region (cache hits and conflicts),
/// the same region word-aligned, or just below the top of the space (so
/// blocks run off the end).
fn addr() -> impl Strategy<Value = u32> {
    (0u8..4, any::<u32>()).prop_map(|(kind, x)| match kind {
        0 => x,
        1 => 0x1000 + x % 0x2000,
        2 => (0x1000 + x % 0x2000) & !3,
        _ => CAPACITY - 1 - x % 96,
    })
}

#[derive(Debug, Clone)]
enum Op {
    LoadU32(u32),
    LoadU16(u32),
    LoadU8(u32),
    StoreU32(u32, u32),
    StoreU16(u32, u16),
    StoreU8(u32, u8),
    ReadBlock(u32, u32),
    WriteBlock(u32, Vec<u8>),
    ReadBlockU32(u32, u32),
    ReadBlockU16(u32, u32),
    WriteBlockU32(u32, Vec<u32>),
}

fn op() -> impl Strategy<Value = Op> {
    ((0u8..11, addr()), any::<u32>(), 0u32..72).prop_map(|((kind, a), v, len)| match kind {
        0 => Op::LoadU32(a),
        1 => Op::LoadU16(a),
        2 => Op::LoadU8(a),
        3 => Op::StoreU32(a, v),
        4 => Op::StoreU16(a, v as u16),
        5 => Op::StoreU8(a, v as u8),
        6 => Op::ReadBlock(a, len),
        7 => Op::WriteBlock(
            a,
            (0..len)
                .map(|i| (v >> (i % 4 * 8)) as u8 ^ i as u8)
                .collect(),
        ),
        8 => Op::ReadBlockU32(a, len / 4),
        9 => Op::ReadBlockU16(a, len / 2),
        _ => Op::WriteBlockU32(a, (0..len / 4).map(|i| v.rotate_left(i)).collect()),
    })
}

/// Everything one operation returns: its result and whatever it
/// appended to an output buffer before finishing or failing.
fn apply(m: &mut Machine, op: &Op) -> (Result<(), AppError>, Vec<u32>, Vec<u8>) {
    let mut words = Vec::new();
    let mut bytes = Vec::new();
    let result = match op {
        Op::LoadU32(a) => m.load_u32(*a).map(|v| words.push(v)),
        Op::LoadU16(a) => m.load_u16(*a).map(|v| words.push(v.into())),
        Op::LoadU8(a) => m.load_u8(*a).map(|v| words.push(v.into())),
        Op::StoreU32(a, v) => m.store_u32(*a, *v),
        Op::StoreU16(a, v) => m.store_u16(*a, *v),
        Op::StoreU8(a, v) => m.store_u8(*a, *v),
        Op::ReadBlock(a, len) => m.read_block(*a, *len, &mut bytes),
        Op::WriteBlock(a, b) => m.write_block(*a, b),
        Op::ReadBlockU32(a, n) => m.read_block_u32(*a, *n, &mut words),
        Op::ReadBlockU16(a, n) => m.read_block_u16(*a, *n, &mut words),
        Op::WriteBlockU32(a, w) => m.write_block_u32(*a, w),
    };
    (result, words, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random loads, stores and blocks — aligned or not,
    /// mirrored or running off the end of memory — return identical
    /// values and identical errors, and leave identical memory behind.
    #[test]
    fn flat_memory_matches_the_fault_free_hierarchy(
        ops in prop::collection::vec(op(), 1..48),
        seed in any::<u64>(),
    ) {
        let mut golden = Machine::golden();
        let mut cached = Machine::strongarm(seed);
        cached.set_inject(false);
        for (i, op) in ops.iter().enumerate() {
            let g = apply(&mut golden, op);
            let c = apply(&mut cached, op);
            prop_assert_eq!(g, c, "op {} {:?}", i, op);
        }
        prop_assert_eq!(golden.instructions(), cached.instructions());
        for a in (0x1000..0x3000).chain(CAPACITY - 128..CAPACITY).step_by(4) {
            prop_assert_eq!(golden.host_read_u32(a), cached.host_read_u32(a), "word {:#x}", a);
        }
    }
}
