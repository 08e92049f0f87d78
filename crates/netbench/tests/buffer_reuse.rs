//! `PacketApp::process_into` with one observation buffer reused across
//! packets yields exactly what `PacketApp::process` yields, for every
//! application, and `RadixTable::lookup_into` with one reused walk buffer
//! records exactly the walk `RadixTable::lookup` returns.

use netbench::{
    AppError, AppKind, ErrorCategory, Machine, Observation, RadixTable, Trace, TraceConfig,
};

/// The paper trace, and the same traffic at a fixed 64-byte payload.
fn traces() -> [(&'static str, Trace); 2] {
    let mut small_payloads = TraceConfig::paper();
    small_payloads.payload_min = 64;
    small_payloads.payload_max = 64;
    [
        ("paper", TraceConfig::paper().generate()),
        ("64 B", small_payloads.generate()),
    ]
}

/// A fault-free machine, or one over-clocked 4× with injection on, so
/// the comparison also covers packets whose observations a fault moved
/// and packets that end in a fatal error.
fn machine(faulty: bool) -> Machine {
    if !faulty {
        return Machine::golden();
    }
    let mut m = Machine::strongarm(11);
    m.set_cycle_free(0.25);
    m
}

/// Leftovers a reused buffer might hold from an earlier packet.
fn stale() -> Vec<Observation> {
    vec![Observation::new(ErrorCategory::Digest, 0xDEAD); 5]
}

#[test]
fn process_into_a_reused_buffer_matches_process() {
    let mut faults = 0;
    for (trace_label, trace) in traces() {
        for faulty in [false, true] {
            for kind in AppKind::extended() {
                let label = format!("{kind} on {trace_label}, faulty: {faulty}");
                let (mut fresh_m, mut reused_m) = (machine(faulty), machine(faulty));
                let mut fresh_app = kind.instantiate(&trace);
                let mut reused_app = kind.instantiate(&trace);
                fresh_m.set_fuel(fresh_app.setup_fuel());
                reused_m.set_fuel(reused_app.setup_fuel());
                let setup = fresh_app.setup(&mut fresh_m);
                assert_eq!(setup, reused_app.setup(&mut reused_m), "{label}: setup");
                if setup.is_err() {
                    continue;
                }
                let mut obs = stale();
                let mut completed = 0;
                for (i, pkt) in trace.packets.iter().enumerate() {
                    let fresh = fresh_m.dma_packet(pkt).and_then(|view| {
                        fresh_m.set_fuel(fresh_app.fuel_per_packet());
                        fresh_app.process(&mut fresh_m, view)
                    });
                    let reused: Result<(), AppError> = reused_m.dma_packet(pkt).and_then(|view| {
                        reused_m.set_fuel(reused_app.fuel_per_packet());
                        reused_app.process_into(&mut reused_m, view, &mut obs)
                    });
                    match (fresh, reused) {
                        (Ok(want), Ok(())) => {
                            assert_eq!(obs, want, "{label}: packet {i}");
                            completed += 1;
                        }
                        (Err(want), Err(got)) => {
                            assert_eq!(got, want, "{label}: packet {i}");
                            // A fatal leaves `obs` unspecified: stale it
                            // again so the next packet must clear it.
                            obs = stale();
                        }
                        (fresh, reused) => {
                            panic!("{label}: packet {i}: {fresh:?} against {reused:?}")
                        }
                    }
                }
                assert!(completed > 0, "{label}: no packet completed");
                faults += reused_m.stats().faults_injected;
            }
        }
    }
    assert!(faults > 0, "the faulty machines injected nothing");
}

#[test]
fn lookup_into_a_reused_walk_buffer_matches_lookup() {
    for (label, trace) in traces() {
        let mut m = Machine::golden();
        m.set_fuel(u64::MAX);
        let table = RadixTable::build(&mut m, &trace.prefixes).unwrap();
        let mut visited = vec![u32::MAX; 7];
        // Every destination in the trace, then a spread of others.
        let dsts = trace
            .packets
            .iter()
            .map(|p| p.dst_ip)
            .chain((0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B9)));
        for dst in dsts {
            let want = table.lookup(&mut m, dst).unwrap();
            let next_hop = table.lookup_into(&mut m, dst, &mut visited).unwrap();
            assert_eq!(next_hop, want.next_hop, "{label}: dst {dst:#010x}");
            assert_eq!(visited, want.visited, "{label}: dst {dst:#010x}");
        }
    }
}
