//! Wire-level framing models: payload bytes → bytes on the wire.
//!
//! Reproduces the reasoning behind the paper's Figure 2 ("Bandwidth
//! efficiency vs. requested bytes on PCIe Gen 3 and NVLink") and feeds link
//! serialization in [`crate::interconnect`]: a link is busy for
//! `wire_bytes / bandwidth`, not `payload / bandwidth`, which is exactly why
//! fine-grained communication underutilizes InfiniBand and why the
//! aggregator exists.
//!
//! Framing constants come from the architectures' public descriptions:
//!
//! * **NVLink 2.0**: data moves in 32-byte *sectors*; a packet carries 1–4
//!   sectors (max 128 B payload) plus one 16-byte flit of header/CRC. The
//!   paper: "The minimum payload size on NVLink is a 32-byte sector. A
//!   NVLink package can contain up to 4 sectors", and "even a 32 byte
//!   payload has more than 50% efficiency" (32 / 48 ≈ 67 %).
//! * **PCIe gen 3**: a TLP carries up to 256 B in 4-byte words, with a
//!   12-byte 3DW header, 6 bytes of framing (STP/END), and a 6-byte DLLP
//!   share per TLP — 24 B of overhead per packet.
//! * **InfiniBand (EDR)**: 4096-byte MTU, ≈30 B of LRH/BTH/ICRC/VCRC per
//!   packet plus a per-*message* work-request cost that is modeled as
//!   latency (not framing) in [`crate::interconnect`].

/// A wire framing model for one interconnect family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketModel {
    /// NVLink 2.0: 32 B sectors, ≤4 per packet, 16 B header per packet.
    NvLink,
    /// PCIe gen 3: ≤256 B TLP payload (4 B granularity), 24 B overhead per TLP.
    PcieGen3,
    /// InfiniBand EDR: 4096 B MTU, 30 B header per MTU packet.
    Infiniband,
    /// An ideal wire with no framing overhead (for ablations).
    Ideal,
}

impl PacketModel {
    /// Bytes that actually cross the wire to deliver `payload` bytes.
    #[inline]
    pub fn wire_bytes(self, payload: u64) -> u64 {
        if payload == 0 {
            return 0;
        }
        match self {
            PacketModel::NvLink => {
                const SECTOR: u64 = 32;
                const MAX_SECTORS: u64 = 4;
                const HEADER: u64 = 16;
                let sectors = payload.div_ceil(SECTOR);
                let packets = sectors.div_ceil(MAX_SECTORS);
                sectors * SECTOR + packets * HEADER
            }
            PacketModel::PcieGen3 => {
                const MAX_PAYLOAD: u64 = 256;
                const WORD: u64 = 4;
                const OVERHEAD: u64 = 24;
                let full = payload / MAX_PAYLOAD;
                let rem = payload % MAX_PAYLOAD;
                let mut wire = full * (MAX_PAYLOAD + OVERHEAD);
                if rem > 0 {
                    wire += rem.div_ceil(WORD) * WORD + OVERHEAD;
                }
                wire
            }
            PacketModel::Infiniband => {
                const MTU: u64 = 4096;
                const HEADER: u64 = 30;
                let packets = payload.div_ceil(MTU);
                payload + packets * HEADER
            }
            PacketModel::Ideal => payload,
        }
    }

    /// Fraction of wire bytes that are payload (Figure 2's y-axis).
    pub fn efficiency(self, payload: u64) -> f64 {
        if payload == 0 {
            return 0.0;
        }
        payload as f64 / self.wire_bytes(payload) as f64
    }

    /// Time on the wire for `payload` bytes at `gbps` (10^9 bytes/s here —
    /// the paper quotes link rates in GB/s), in nanoseconds.
    #[inline]
    pub fn wire_time_ns(self, payload: u64, gbytes_per_s: f64) -> u64 {
        if payload == 0 {
            return 0;
        }
        let bytes = self.wire_bytes(payload) as f64;
        (bytes / gbytes_per_s).ceil() as u64
    }
}

/// The Figure 2 series: `(requested_bytes, efficiency)` for 4..=128 B.
pub fn figure2_series(model: PacketModel) -> Vec<(u64, f64)> {
    (1..=32)
        .map(|i| {
            let req = i * 4;
            (req, model.efficiency(req))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvlink_sector_quantization() {
        // 1 byte still moves a whole sector plus a header flit.
        assert_eq!(PacketModel::NvLink.wire_bytes(1), 32 + 16);
        // Exactly one sector.
        assert_eq!(PacketModel::NvLink.wire_bytes(32), 48);
        // Full packet: 4 sectors + 1 header.
        assert_eq!(PacketModel::NvLink.wire_bytes(128), 128 + 16);
        // 129 bytes spills into a second packet.
        assert_eq!(PacketModel::NvLink.wire_bytes(129), 5 * 32 + 2 * 16);
    }

    #[test]
    fn paper_quote_32_byte_payload_above_half_efficiency() {
        assert!(PacketModel::NvLink.efficiency(32) > 0.5);
    }

    #[test]
    fn nvlink_peak_efficiency_at_full_packet() {
        let e = PacketModel::NvLink.efficiency(128);
        assert!((e - 128.0 / 144.0).abs() < 1e-12);
        // Figure 2 tops out below 90%.
        assert!(e < 0.9 && e > 0.85);
    }

    #[test]
    fn pcie_word_granularity_and_overhead() {
        assert_eq!(PacketModel::PcieGen3.wire_bytes(1), 4 + 24);
        assert_eq!(PacketModel::PcieGen3.wire_bytes(64), 64 + 24);
        // Crossing the max TLP payload opens a second TLP.
        assert_eq!(PacketModel::PcieGen3.wire_bytes(257), (256 + 24) + (4 + 24));
    }

    #[test]
    fn small_requests_favor_nvlink_over_pcie() {
        // Figure 2: NVLink beats PCIe gen 3 at small payloads.
        for req in [32u64, 64, 96, 128] {
            assert!(
                PacketModel::NvLink.efficiency(req) > PacketModel::PcieGen3.efficiency(req),
                "req={req}"
            );
        }
    }

    #[test]
    fn infiniband_large_messages_approach_unity() {
        let e = PacketModel::Infiniband.efficiency(1 << 20);
        assert!(e > 0.99);
        // ...but a 4-byte message is almost all header.
        assert!(PacketModel::Infiniband.efficiency(4) < 0.2);
    }

    #[test]
    fn efficiency_monotone_within_a_packet() {
        // Within one NVLink packet, adding payload only improves efficiency
        // at sector boundaries; the sawtooth never exceeds the full-packet
        // peak.
        let peak = PacketModel::NvLink.efficiency(128);
        for req in 1..=128 {
            assert!(PacketModel::NvLink.efficiency(req) <= peak + 1e-12);
        }
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        let m = PacketModel::Ideal;
        // 25 GB/s, 25 bytes -> 1 ns.
        assert_eq!(m.wire_time_ns(25, 25.0), 1);
        assert_eq!(m.wire_time_ns(2500, 25.0), 100);
        assert_eq!(m.wire_time_ns(0, 25.0), 0);
    }

    #[test]
    fn figure2_series_has_expected_shape() {
        let nv = figure2_series(PacketModel::NvLink);
        assert_eq!(nv.len(), 32);
        assert_eq!(nv[0].0, 4);
        assert_eq!(nv[31].0, 128);
        // Rising trend from tiny payloads to full packet.
        assert!(nv[31].1 > nv[0].1 * 2.0);
    }

    #[test]
    fn zero_payload_is_free() {
        for m in [
            PacketModel::NvLink,
            PacketModel::PcieGen3,
            PacketModel::Infiniband,
            PacketModel::Ideal,
        ] {
            assert_eq!(m.wire_bytes(0), 0);
            assert_eq!(m.efficiency(0), 0.0);
        }
    }
}
