//! Steady-state packet paths allocate nothing: a counting global
//! allocator shows that doubling the packets a run processes adds no
//! heap allocations.
//!
//! This binary holds one test function on purpose. The allocator counts
//! every thread in the process, and the tests of one binary run on
//! parallel threads, so a second test would add its allocations to the
//! counts here.
//!
//! Fault injection is off throughout, so no packet's diff takes the
//! allocating mismatch path: what is left is the work every clean
//! packet does.

use clumsy_core::{run_serve, ClumsyConfig, ClumsyProcessor, ServeConfig};
use netbench::{AppKind, PlaneMask, TraceConfig, TrafficSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts allocation calls (`alloc`, `alloc_zeroed` and `realloc`), on
/// every thread, and forwards them to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls made while `f` runs, on any thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A design point with injection switched off in both planes.
fn fault_free() -> ClumsyConfig {
    ClumsyConfig::paper_best().with_planes(PlaneMask::none())
}

/// Packets in the shorter of each pair of runs; the longer runs twice
/// as many.
const N: usize = 2_000;

/// Allocations a serve run may make beyond its traffic source's when
/// its budget doubles. Nothing on the shard side scales with packets;
/// the slack covers queue and batch buffers that grow to a
/// timing-dependent high-water mark (each doubling is one `realloc`).
const SERVE_SLACK: u64 = 8;

#[test]
fn doubling_the_packets_adds_no_allocations() {
    // Batch runner: the measured pass against a precomputed golden.
    for kind in AppKind::extended() {
        let short = TraceConfig::paper().with_packets(N).generate();
        let long = TraceConfig::paper().with_packets(2 * N).generate();
        let short_golden = ClumsyProcessor::golden(kind, &short);
        let long_golden = ClumsyProcessor::golden(kind, &long);
        let processor = ClumsyProcessor::new(fault_free());
        // Warm one run first, so one-time process-wide set-up is not
        // charged to the first measured call.
        black_box(processor.run_with_golden(kind, &short, &short_golden));
        let at_n = allocations(|| {
            let r = processor.run_with_golden(kind, &short, &short_golden);
            assert_eq!(r.packets_completed, N, "{kind}");
            assert_eq!(r.erroneous_packets, 0, "{kind}");
        });
        let at_2n = allocations(|| {
            let r = processor.run_with_golden(kind, &long, &long_golden);
            assert_eq!(r.packets_completed, 2 * N, "{kind}");
            assert_eq!(r.erroneous_packets, 0, "{kind}");
        });
        assert!(
            at_2n <= at_n,
            "{kind}: run_with_golden made {at_2n} allocations at {} packets, {at_n} at {N}",
            2 * N
        );
    }

    // Serve: the pump's traffic source allocates each packet's payload
    // and nothing else; everything else must stay flat.
    for kind in AppKind::extended() {
        let cfg = |budget: usize| {
            ServeConfig::new(kind, fault_free())
                .with_shards(1)
                .with_queue_depth(64)
                .with_packet_budget(budget as u64)
                .with_shed_timeout(Duration::from_secs(600))
        };
        let serve = |budget: usize| {
            allocations(|| {
                let r = run_serve(&cfg(budget), None, &|| false);
                assert_eq!(r.processed(), budget as u64, "{kind}");
                assert_eq!(r.shards[0].erroneous, 0, "{kind}");
            })
        };
        let source = |budget: usize| {
            let traffic = cfg(budget).traffic;
            allocations(|| {
                let mut source = TrafficSource::new(&traffic);
                for _ in 0..budget {
                    black_box(source.next_packet());
                }
            })
        };
        black_box(serve(N));
        let serve_added = serve(2 * N) as i64 - serve(N) as i64;
        let source_added = source(2 * N) as i64 - source(N) as i64;
        // The payload is the source's one allocation per packet.
        assert!(
            source_added <= N as i64,
            "{kind}: {N} more packets made {source_added} more traffic-source allocations"
        );
        assert!(
            serve_added - source_added <= SERVE_SLACK as i64,
            "{kind}: doubling the budget added {serve_added} allocations to serve, \
             {source_added} of them the traffic source's"
        );
    }
}
