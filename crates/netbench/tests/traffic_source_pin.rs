//! The streaming traffic source writes its request line straight into
//! the payload. These pins, recorded from the earlier construction
//! (format the line into a `String`, then copy it over the random
//! payload), show the packets are byte-for-byte the same: 10k packets
//! at 8-byte payloads (the line truncated after "GET /con"), 64-byte
//! payloads (the whole line fits) and the paper's 64–512 range.

use netbench::{fnv1a_fold, TraceConfig, TrafficSource, FNV_OFFSET};

/// FNV-1a digest of every field of the first `n` packets.
fn stream_digest(cfg: &TraceConfig, n: usize) -> u64 {
    let mut source = TrafficSource::new(cfg);
    let mut h = FNV_OFFSET;
    for _ in 0..n {
        let p = source.next_packet();
        h = fnv1a_fold(h, p.id.to_le_bytes());
        h = fnv1a_fold(h, p.src_ip.to_le_bytes());
        h = fnv1a_fold(h, p.dst_ip.to_le_bytes());
        h = fnv1a_fold(h, p.src_port.to_le_bytes());
        h = fnv1a_fold(h, p.dst_port.to_le_bytes());
        h = fnv1a_fold(h, [p.proto, p.ttl]);
        h = fnv1a_fold(h, (p.payload.len() as u64).to_le_bytes());
        h = fnv1a_fold(h, p.payload.iter().copied());
    }
    h
}

fn sized(min: usize, max: usize) -> TraceConfig {
    TraceConfig {
        payload_min: min,
        payload_max: max,
        ..TraceConfig::paper()
    }
}

#[test]
fn packets_match_the_formatted_request_line_construction() {
    const PACKETS: usize = 10_000;
    let cases = [
        ("8 B", sized(8, 8), 0xae81_ec8b_cd8d_8528),
        ("64 B", sized(64, 64), 0xc473_5dbe_7662_3367),
        ("64-512 B", TraceConfig::paper(), 0x814c_c8e3_d791_255a),
    ];
    let mut wrong = Vec::new();
    for (name, cfg, want) in cases {
        let got = stream_digest(&cfg, PACKETS);
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "packet streams moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn short_payloads_carry_a_truncated_request_line() {
    let mut source = TrafficSource::new(&sized(8, 8));
    for _ in 0..100 {
        assert_eq!(&source.next_packet().payload, b"GET /con");
    }
}
