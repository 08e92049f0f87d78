//! URL-based switching application (paper §2, "URL").
//!
//! Content-based load balancing: incoming packets are parsed for their
//! HTTP request line, the URL is matched against a switching table, and
//! the packet is forwarded to the selected server. Marked data: URL
//! table entries, the final IP destination address, route-table entries,
//! the checksum value, the ttl value, and the radix-tree entries
//! traversed.

use crate::apps::tl::{lookup_observations, setup_radix};
use crate::error::AppError;
use crate::ip;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::packet::HEADER_BYTES;
use crate::radix::RadixTable;
use crate::trace::PrefixRoute;
use crate::PacketApp;

/// URL-table entry layout: hash, server ip, server id, pad — 4 words.
const ENTRY_BYTES: u32 = 16;
/// Base of the server farm address range.
const SERVER_BASE: u32 = 0x0A50_0000; // 10.80.0.0
/// Register-held cap on the parse scan (keeps the parser itself from
/// running away even when the length field is corrupted; the *tables*
/// remain fully corruptible).
const PARSE_CAP: u32 = 512;

/// FNV-1a-style hash step used for URL digests.
fn hash_step(h: u32, byte: u8) -> u32 {
    (h ^ u32::from(byte)).wrapping_mul(0x0100_0193)
}

/// The URL-switching packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Url, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Url::new(trace.prefixes.clone(), trace.urls.clone());
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.iter().any(|o| o.category == netbench::ErrorCategory::UrlTableEntry));
/// ```
#[derive(Debug, Clone)]
pub struct Url {
    prefixes: Vec<PrefixRoute>,
    urls: Vec<String>,
    table: Option<RadixTable>,
    url_table: u32,
    url_count: u32,
    /// Radix walk scratch, reused across packets.
    visited: Vec<u32>,
}

impl Url {
    /// Creates the application for the given prefixes and URL corpus.
    pub fn new(prefixes: Vec<PrefixRoute>, urls: Vec<String>) -> Self {
        Url {
            prefixes,
            url_count: urls.len() as u32,
            urls,
            table: None,
            url_table: 0,
            visited: Vec::new(),
        }
    }

    /// Parses the request line from the payload, returning the URL hash.
    /// The scan length comes from the (corruptible) header length field.
    fn parse_url(
        &self,
        m: &mut Machine,
        pkt: PacketView,
        hdr: &ip::Header,
    ) -> Result<u32, AppError> {
        let payload = pkt.addr + HEADER_BYTES;
        let len = hdr.payload_len().min(PARSE_CAP);
        // Expect "GET " then hash until the next space.
        let mut i = 0u32;
        for expect in b"GET " {
            m.charge(2)?;
            if i >= len {
                return Ok(0);
            }
            let b = m.load_u8(payload + i)?;
            if b != *expect {
                return Ok(0); // not an HTTP request: no switch
            }
            i += 1;
        }
        let mut h = 0x811C_9DC5u32;
        while i < len {
            m.charge(3)?;
            let b = m.load_u8(payload + i)?;
            if b == b' ' || b == b'\r' {
                break;
            }
            h = hash_step(h, b);
            i += 1;
        }
        Ok(h)
    }

    /// Looks up the hash in the switching table; returns
    /// `(entry_index, server_ip)` or the miss sentinel.
    fn match_url(&self, m: &mut Machine, h: u32) -> Result<(u32, u32), AppError> {
        for idx in 0..self.url_count {
            m.charge(3)?;
            let entry = self.url_table + idx * ENTRY_BYTES;
            let stored = m.load_u32(entry)?;
            if stored == h {
                m.charge(1)?;
                let server = m.load_u32(entry + 4)?;
                return Ok((idx, server));
            }
        }
        Ok((u32::MAX, SERVER_BASE)) // default server
    }
}

impl PacketApp for Url {
    fn name(&self) -> &'static str {
        "url"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        let (table, mut obs) = setup_radix(m, &self.prefixes)?;
        self.table = Some(table);
        self.url_table = m.alloc(self.url_count.max(1) * ENTRY_BYTES, 4);
        for (i, url) in self.urls.iter().enumerate() {
            let mut h = 0x811C_9DC5u32;
            for b in url.as_bytes() {
                m.charge(2)?;
                h = hash_step(h, *b);
            }
            let entry = self.url_table + i as u32 * ENTRY_BYTES;
            m.charge(3)?;
            m.store_u32(entry, h)?;
            m.store_u32(entry + 4, SERVER_BASE + 1 + i as u32)?;
            m.store_u32(entry + 8, i as u32)?;
        }
        // Sample a few table entries as initialization state.
        for k in (0..self.url_count).step_by((self.url_count as usize / 4).max(1)) {
            let v = m.load_u32(self.url_table + k * ENTRY_BYTES)?;
            obs.push(Observation::new(
                ErrorCategory::Initialization,
                u64::from(v),
            ));
        }
        Ok(obs)
    }

    fn process_into(
        &mut self,
        m: &mut Machine,
        pkt: PacketView,
        obs: &mut Vec<Observation>,
    ) -> Result<(), AppError> {
        let table = self.table.expect("setup must run before process");
        obs.clear();

        m.charge(2)?;
        let hdr = ip::load_header(m, pkt.addr)?;
        let h = self.parse_url(m, pkt, &hdr)?;
        let (idx, server) = self.match_url(m, h)?;
        obs.push(Observation::new(
            ErrorCategory::UrlTableEntry,
            u64::from(idx),
        ));

        // Rewrite the destination to the chosen server.
        m.store_u32(pkt.addr + ip::W_DST, server)?;
        obs.push(Observation::new(
            ErrorCategory::DestinationAddress,
            u64::from(server),
        ));

        // Route to the server and forward.
        let next_hop = table.lookup_into(m, server, &mut self.visited)?;
        lookup_observations(&self.visited, next_hop, obs);
        let rewritten = ip::Header {
            dst_ip: server,
            ..hdr
        };
        let (ttl, ck) = ip::forward_rewrite(m, pkt.addr, &rewritten)?;
        obs.push(Observation::new(ErrorCategory::Ttl, u64::from(ttl)));
        obs.push(Observation::new(ErrorCategory::Checksum, u64::from(ck)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn known_urls_match_their_entries() {
        let trace = small_trace();
        let mut app = Url::new(trace.prefixes.clone(), trace.urls.clone());
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            let idx = obs
                .iter()
                .find(|o| o.category == ErrorCategory::UrlTableEntry)
                .unwrap()
                .value;
            // Packets whose payload was long enough to carry the full
            // request line must match a real entry.
            let text = String::from_utf8_lossy(&p.payload);
            if let Some(rest) = text.strip_prefix("GET ") {
                if let Some(url) = rest.split(' ').next() {
                    if let Some(want) = trace.urls.iter().position(|u| u == url) {
                        assert_eq!(idx, want as u64, "url {url}");
                        continue;
                    }
                }
            }
            assert_eq!(idx, u64::from(u32::MAX));
        }
    }

    #[test]
    fn destination_points_at_a_server() {
        let trace = small_trace();
        let mut app = Url::new(trace.prefixes.clone(), trace.urls.clone());
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            let dst = obs
                .iter()
                .find(|o| o.category == ErrorCategory::DestinationAddress)
                .unwrap()
                .value as u32;
            assert_eq!(dst & 0xFFFF_0000, SERVER_BASE);
        }
    }

    #[test]
    fn forwards_with_ttl_and_checksum() {
        let trace = small_trace();
        let mut app = Url::new(trace.prefixes.clone(), trace.urls.clone());
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            let ttl = obs
                .iter()
                .find(|o| o.category == ErrorCategory::Ttl)
                .unwrap();
            assert_eq!(ttl.value, u64::from(p.ttl) - 1);
            assert!(obs.iter().any(|o| o.category == ErrorCategory::Checksum));
        }
    }

    #[test]
    fn hash_distinguishes_corpus_urls() {
        let trace = small_trace();
        let mut hashes = std::collections::HashSet::new();
        for url in &trace.urls {
            let mut h = 0x811C_9DC5u32;
            for b in url.as_bytes() {
                h = hash_step(h, *b);
            }
            assert!(hashes.insert(h), "hash collision in corpus");
        }
    }
}
