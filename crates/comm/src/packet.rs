//! Packet-level wire accounting.
//!
//! Blue Gene/Q's network moves data in torus packets (32-byte header, up to
//! 512 bytes of payload); the SPI layer the paper uses coalesces small
//! active messages into these packets at the injection FIFOs. This module
//! models that framing: given a per-destination message stream, it reports
//! the wire bytes including per-packet headers — which is what makes
//! tiny-message protocols (like un-coalesced relaxations) more expensive
//! than their payload suggests.

/// Packet framing parameters.
///
/// # Examples
///
/// ```
/// use sssp_comm::packet::PacketConfig;
///
/// let bgq = PacketConfig::bgq();
/// // 32 16-byte relaxations coalesce into one 512-byte packet, plus the
/// // stream's 8-byte sorted-run descriptor.
/// assert_eq!(bgq.wire_bytes(32, 16), 512 + 32 + 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketConfig {
    /// Maximum payload bytes per packet.
    pub payload_bytes: usize,
    /// Header (and trailer) overhead per packet.
    pub header_bytes: usize,
    /// Per-stream sorted-run descriptor: each (src, dst) message stream of
    /// a superstep ships as one target-sorted run, announced by a fixed
    /// descriptor (run length + base target) ahead of the payload. Charged
    /// once per non-empty stream, inside [`PacketConfig::wire_bytes`], so
    /// every exchange path accounts for it identically.
    pub run_header_bytes: usize,
}

impl PacketConfig {
    /// Blue Gene/Q torus packets: 512-byte payload chunks, 32-byte header,
    /// 8-byte sorted-run descriptor per stream.
    pub fn bgq() -> Self {
        PacketConfig {
            payload_bytes: 512,
            header_bytes: 32,
            run_header_bytes: 8,
        }
    }

    /// Wire bytes for `count` messages of `msg_bytes` each sent to one
    /// destination, assuming perfect coalescing into maximal packets. A
    /// non-empty stream also carries its sorted-run descriptor.
    pub fn wire_bytes(&self, count: u64, msg_bytes: usize) -> u64 {
        if count == 0 {
            return 0;
        }
        let payload = count * msg_bytes as u64;
        let packets = payload.div_ceil(self.payload_bytes as u64);
        payload + packets * self.header_bytes as u64 + self.run_header_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_messages_zero_bytes() {
        assert_eq!(PacketConfig::bgq().wire_bytes(0, 16), 0);
    }

    #[test]
    fn single_small_message_pays_full_header() {
        let c = PacketConfig::bgq();
        assert_eq!(c.wire_bytes(1, 16), 16 + 32 + 8);
    }

    #[test]
    fn coalescing_amortizes_headers() {
        let c = PacketConfig::bgq();
        // 32 messages × 16B = 512B = exactly one packet (+ run descriptor).
        assert_eq!(c.wire_bytes(32, 16), 512 + 32 + 8);
        // 33 messages spill into a second packet.
        assert_eq!(c.wire_bytes(33, 16), 528 + 64 + 8);
    }

    #[test]
    fn run_descriptor_charged_once_per_stream() {
        let c = PacketConfig::bgq();
        // The descriptor is flat per stream: doubling the messages doubles
        // payload+headers but not the run charge.
        let one = c.wire_bytes(32, 16);
        let two = c.wire_bytes(64, 16);
        assert_eq!(two - one, 512 + 32);
        // And an empty stream carries nothing at all.
        assert_eq!(c.wire_bytes(0, 16), 0);
    }

    #[test]
    fn large_messages_span_packets() {
        let c = PacketConfig::bgq();
        // One 2000-byte message needs 4 packets.
        assert_eq!(c.wire_bytes(1, 2000), 2000 + 4 * 32 + 8);
    }
}
