//! Topologies, link serialization, and the communication control path.
//!
//! A [`Fabric`] is a set of directional [`Link`]s plus a route table. A
//! message transfer charges three costs, mirroring the paper's decomposition
//! of a data transfer into a data path and a *control path*:
//!
//! 1. **Injection (control path)** — preparing and triggering the message.
//!    GPU-initiated injection (Atos over unified memory / NVSHMEM) costs
//!    well under a microsecond; CPU-mediated injection (Gunrock, Groute,
//!    Galois: the GPU must surface work to the host, which then calls the
//!    communication library) costs roughly ten microseconds. This asymmetry
//!    is the paper's headline variable — see [`ControlPath`].
//! 2. **Serialization** — the link is busy for `wire_bytes / bandwidth`,
//!    where `wire_bytes` includes framing ([`crate::packet`]).
//! 3. **Propagation latency** — fixed per link.
//!
//! Three topology constructors mirror the paper's machines: [`Fabric::daisy`]
//! (DGX Station, Figure 6 left), [`Fabric::summit_node`] (dual-socket,
//! Figure 6 right) and [`Fabric::ib_cluster`] (one GPU per Summit node, all
//! traffic over EDR InfiniBand).

use crate::engine::Time;
use crate::packet::PacketModel;
use crate::trace::FabricTrace;

/// Identifier of a processing element (one GPU) in the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub u32);

impl PeId {
    /// Index form for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// How a message gets injected into the network — who runs the control path.
///
/// Costs are charged per *message* (per bundle for aggregated sends), so
/// fine-grained communication multiplies whatever the control path costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPath {
    /// Overhead to prepare and trigger one message, in ns.
    pub inject_ns: u64,
}

impl ControlPath {
    /// GPU-initiated one-sided injection (Atos): a few hundred ns to issue a
    /// remote store / NVSHMEM put from inside the kernel.
    pub const fn gpu_direct() -> Self {
        ControlPath { inject_ns: 600 }
    }

    /// CPU-mediated injection: surface data to the host at a kernel
    /// boundary, host triggers the transfer (cudaMemcpyPeer / MPI / Gluon).
    /// Order 10 µs, dominated by host wakeup and library dispatch.
    pub const fn cpu_mediated() -> Self {
        ControlPath { inject_ns: 11_000 }
    }
}

/// One directional link: fixed latency + serialized bandwidth.
#[derive(Debug, Clone)]
pub struct Link {
    /// Propagation latency, ns.
    pub latency_ns: u64,
    /// Bandwidth in GB/s (10^9 bytes per second).
    pub gbytes_per_s: f64,
    /// Wire framing model.
    pub packet: PacketModel,
    next_free: Time,
}

impl Link {
    fn new(latency_ns: u64, gbytes_per_s: f64, packet: PacketModel) -> Self {
        Link {
            latency_ns,
            gbytes_per_s,
            packet,
            next_free: 0,
        }
    }

    /// Occupy the link for the serialization of `payload` starting no
    /// earlier than `earliest`; returns the time the last byte leaves.
    fn occupy(&mut self, earliest: Time, payload: u64) -> Time {
        let wire = self.packet.wire_time_ns(payload, self.gbytes_per_s);
        let start = earliest.max(self.next_free);
        let end = start + wire;
        self.next_free = end;
        end
    }
}

/// How `src → dst` messages are routed.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Direct point-to-point link (NVLink-style).
    Direct(usize),
    /// Egress injection link at the source, ingress link at the
    /// destination, network latency between them (InfiniBand-style).
    TwoStage {
        egress: usize,
        ingress: usize,
        net_latency_ns: u64,
    },
}

/// A transfer whose source-side costs have been charged but whose
/// destination-side serialization (if any) is still owed.
///
/// Produced by [`Fabric::transfer_egress`], consumed by
/// [`Fabric::resolve_ingress`]. Splitting the transfer this way lets the
/// runtime charge the egress when the message is emitted, inside its
/// window, and the ingress at the window barrier, where every staged
/// message is resolved in one deterministic order.
///
/// Kept to 24 bytes: the runtime stages one per in-flight message.
#[derive(Debug, Clone, Copy)]
pub struct PendingTransfer {
    /// Earliest possible delivery at the destination side: the full
    /// arrival time for routes with no ingress stage, or the first-byte
    /// time at the ingress link otherwise. This is the deterministic
    /// barrier ordering key — it is fixed at egress time and independent
    /// of destination-side link state.
    pub t_key: Time,
    /// When the source issued the message (for tracing).
    pub issued: Time,
    /// Payload bytes carried (one message stays under 4 GiB).
    pub payload: u32,
    /// Ingress link still owed serialization at the destination
    /// ([`NO_INGRESS`] if none).
    ingress: u32,
}

/// [`PendingTransfer::ingress`] of a route with no ingress stage.
const NO_INGRESS: u32 = u32::MAX;

/// A simulated interconnect: links + routes + traffic trace.
///
/// ```
/// use atos_sim::{Fabric, PeId, ControlPath};
/// let mut daisy = Fabric::daisy(4);
/// let arrival = daisy.transfer(0, PeId(0), PeId(1), 128, ControlPath::gpu_direct());
/// // injection + serialization + NVLink latency
/// assert!(arrival > 700);
/// assert_eq!(daisy.trace.total_messages(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    n_pes: usize,
    links: Vec<Link>,
    routes: Vec<Option<Route>>, // n*n, row-major [src][dst]
    /// Utilization timeline and message totals.
    pub trace: FabricTrace,
    name: &'static str,
}

impl Fabric {
    fn empty(n_pes: usize, name: &'static str) -> Self {
        Fabric {
            n_pes,
            links: Vec::new(),
            routes: vec![None; n_pes * n_pes],
            trace: FabricTrace::new(),
            name,
        }
    }

    fn add_direct(&mut self, src: usize, dst: usize, link: Link) {
        let id = self.links.len();
        self.links.push(link);
        self.routes[src * self.n_pes + dst] = Some(Route::Direct(id));
    }

    /// Topology name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// The DGX Station "Daisy" (Figure 6 left, artifact appendix table):
    /// `n ≤ 4` V100s, all-to-all NVLink. Each GPU has one NV2 (dual-link,
    /// 50 GB/s) peer and NV1 (25 GB/s) links to the rest. Pairings per the
    /// appendix: 0–3 and 1–2 are NV2; all others NV1.
    pub fn daisy(n: usize) -> Self {
        assert!((1..=4).contains(&n), "Daisy has 4 GPUs");
        const NVLINK_LAT: u64 = 700;
        let mut f = Fabric::empty(n, "daisy-nvlink");
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let dual = (s + d) == 3; // pairs (0,3) and (1,2)
                let bw = if dual { 50.0 } else { 25.0 };
                f.add_direct(s, d, Link::new(NVLINK_LAT, bw, PacketModel::NvLink));
            }
        }
        f
    }

    /// One Summit node (Figure 6 right): `n ≤ 6` V100s in two NVLink
    /// triples on different sockets. Intra-socket pairs get a direct
    /// 50 GB/s NVLink; inter-socket traffic crosses the X-bus with higher
    /// latency and a shared, lower-bandwidth path.
    pub fn summit_node(n: usize) -> Self {
        assert!((1..=6).contains(&n), "a Summit node has 6 GPUs");
        const NVLINK_LAT: u64 = 700;
        const XBUS_LAT: u64 = 3_500;
        const XBUS_BW: f64 = 16.0;
        // The X-bus is a cache-line-granular SMP interconnect, not a
        // packetized NVLink hop: small transfers pay its *latency*, not a
        // framing tax, which is exactly why the paper uses this topology
        // to probe latency tolerance (Figure 7).
        let mut f = Fabric::empty(n, "summit-node-nvlink");
        let socket = |g: usize| g / 3;
        // Shared X-bus links, one per direction, created lazily below.
        let mut xbus: [[Option<usize>; 2]; 2] = [[None; 2]; 2];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                if socket(s) == socket(d) {
                    f.add_direct(s, d, Link::new(NVLINK_LAT, 50.0, PacketModel::NvLink));
                } else {
                    let (a, b) = (socket(s), socket(d));
                    let egress = *xbus[a][b].get_or_insert_with(|| {
                        let id = f.links.len();
                        f.links.push(Link::new(0, XBUS_BW, PacketModel::Ideal));
                        id
                    });
                    // Model: serialize on the shared X-bus, then fixed
                    // latency. Implemented as a two-stage route whose
                    // ingress is the same shared link (single bottleneck).
                    f.routes[s * f.n_pes + d] = Some(Route::TwoStage {
                        egress,
                        ingress: egress,
                        net_latency_ns: XBUS_LAT,
                    });
                }
            }
        }
        f
    }

    /// `n` Summit nodes, one GPU each, connected by EDR InfiniBand: each
    /// node has a 12.5 GB/s injection (egress) and reception (ingress)
    /// rail; messages cross a switched network with ~3.5 µs port-to-port
    /// latency plus GPU-initiated rendezvous cost charged by the caller's
    /// [`ControlPath`].
    pub fn ib_cluster(n: usize) -> Self {
        const IB_LAT: u64 = 3_500;
        const IB_BW: f64 = 12.5;
        let mut f = Fabric::empty(n, "ib-cluster");
        let mut egress = Vec::with_capacity(n);
        let mut ingress = Vec::with_capacity(n);
        for _ in 0..n {
            let e = f.links.len();
            f.links.push(Link::new(0, IB_BW, PacketModel::Infiniband));
            let i = f.links.len();
            f.links.push(Link::new(0, IB_BW, PacketModel::Infiniband));
            egress.push(e);
            ingress.push(i);
        }
        for (s, &eg) in egress.iter().enumerate() {
            for (d, &ing) in ingress.iter().enumerate() {
                if s == d {
                    continue;
                }
                f.routes[s * n + d] = Some(Route::TwoStage {
                    egress: eg,
                    ingress: ing,
                    net_latency_ns: IB_LAT,
                });
            }
        }
        f
    }

    /// Send `payload` bytes from `src` to `dst` starting at `now`; charges
    /// the control path, serializes on the route's links, and returns the
    /// arrival time at the destination PE.
    ///
    /// Equivalent to [`Fabric::transfer_egress`] immediately followed by
    /// [`Fabric::resolve_ingress`] on the same fabric (and, unlike the
    /// split form, not limited to 4 GiB per message).
    pub fn transfer(
        &mut self,
        now: Time,
        src: PeId,
        dst: PeId,
        payload: u64,
        control: ControlPath,
    ) -> Time {
        let (t_key, ingress) = self.egress(now, src, dst, payload, control);
        self.ingress(ingress, t_key, payload)
    }

    /// Charge the source-side costs of a transfer (control path, egress
    /// serialization, network/propagation latency) and return the owed
    /// destination-side work as a [`PendingTransfer`].
    ///
    /// For routes without a separate ingress stage (direct NVLink, shared
    /// X-bus) the returned `t_key` already is the arrival time and
    /// [`Fabric::resolve_ingress`] is a no-op returning it.
    ///
    /// # Panics
    /// If `payload` does not fit the pending record's 32-bit byte count.
    pub fn transfer_egress(
        &mut self,
        now: Time,
        src: PeId,
        dst: PeId,
        payload: u64,
        control: ControlPath,
    ) -> PendingTransfer {
        let (t_key, ingress) = self.egress(now, src, dst, payload, control);
        PendingTransfer {
            t_key,
            issued: now,
            payload: u32::try_from(payload).expect("one staged message carries under 4 GiB"),
            ingress,
        }
    }

    /// Source side of a transfer: `(t_key, ingress link or NO_INGRESS)`.
    fn egress(
        &mut self,
        now: Time,
        src: PeId,
        dst: PeId,
        payload: u64,
        control: ControlPath,
    ) -> (Time, u32) {
        let route = self.routes[src.idx() * self.n_pes + dst.idx()]
            .unwrap_or_else(|| panic!("no route {src:?} -> {dst:?}"));
        let start = now + control.inject_ns;
        let staged = match route {
            Route::Direct(l) => {
                let end = self.links[l].occupy(start, payload);
                let lat = self.links[l].latency_ns;
                self.trace
                    .record_link(end, self.links[l].packet.wire_bytes(payload));
                (end + lat, NO_INGRESS)
            }
            Route::TwoStage {
                egress,
                ingress,
                net_latency_ns,
            } => {
                let e_end = self.links[egress].occupy(start, payload);
                let e_wire = self.links[egress]
                    .packet
                    .wire_time_ns(payload, self.links[egress].gbytes_per_s);
                self.trace
                    .record_link(e_end, self.links[egress].packet.wire_bytes(payload));
                if egress == ingress {
                    // Shared single bottleneck (X-bus): no second
                    // serialization of the same bytes.
                    (e_end + net_latency_ns, NO_INGRESS)
                } else {
                    // Pipelined: ingress starts receiving when the first
                    // byte arrives.
                    (
                        e_end.saturating_sub(e_wire) + net_latency_ns,
                        ingress as u32,
                    )
                }
            }
        };
        self.trace.record_message();
        staged
    }

    /// Charge the destination-side serialization of a transfer started
    /// with [`Fabric::transfer_egress`] and return the arrival time.
    ///
    /// The runtime calls this at the window barrier, in deterministic
    /// merged order, which is what fixes how ingress-link contention
    /// resolves.
    pub fn resolve_ingress(&mut self, pending: &PendingTransfer) -> Time {
        self.ingress(pending.ingress, pending.t_key, pending.payload as u64)
    }

    /// Destination side of a transfer whose first byte reaches `link` (an
    /// ingress link, or `NO_INGRESS`) at `t_key`.
    fn ingress(&mut self, link: u32, t_key: Time, payload: u64) -> Time {
        if link == NO_INGRESS {
            return t_key;
        }
        let link = link as usize;
        let i_end = self.links[link].occupy(t_key, payload);
        self.trace
            .record_link(i_end, self.links[link].packet.wire_bytes(payload));
        i_end
    }

    /// Minimum latency of any remote route, in ns: the conservative
    /// lookahead of the runtime's windows (no event can affect another PE
    /// sooner than the fastest link can carry a message). `None` when the
    /// fabric has no routes at all (single PE).
    pub fn min_remote_latency_ns(&self) -> Option<Time> {
        self.routes
            .iter()
            .flatten()
            .map(|r| match r {
                Route::Direct(l) => self.links[*l].latency_ns,
                Route::TwoStage { net_latency_ns, .. } => *net_latency_ns,
            })
            .min()
    }

    /// Reset link occupancy and traces, keeping the topology (new run).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.next_free = 0;
        }
        self.trace = FabricTrace::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daisy_is_all_to_all() {
        let f = Fabric::daisy(4);
        for s in 0..4u32 {
            for d in 0..4u32 {
                assert_eq!(f.routes[(s * 4 + d) as usize].is_some(), s != d);
            }
        }
    }

    #[test]
    fn daisy_dual_links_match_appendix_table() {
        // Pairs (0,3) and (1,2) are NV2 (50 GB/s): a big transfer is about
        // twice as fast as on an NV1 pair.
        let mut f = Fabric::daisy(4);
        let cp = ControlPath::gpu_direct();
        let mb = 1 << 20;
        let t_dual = f.transfer(0, PeId(0), PeId(3), mb, cp);
        f.reset();
        let t_single = f.transfer(0, PeId(0), PeId(1), mb, cp);
        let ratio = t_single as f64 / t_dual as f64;
        assert!(ratio > 1.6 && ratio < 2.2, "ratio={ratio}");
    }

    #[test]
    fn transfers_serialize_on_a_link() {
        let mut f = Fabric::daisy(2);
        let cp = ControlPath::gpu_direct();
        let a1 = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        let a2 = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        // Second message waits for the first's serialization.
        assert!(a2 > a1);
        let wire = PacketModel::NvLink.wire_time_ns(1 << 20, 25.0);
        assert_eq!(a2 - a1, wire);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut f = Fabric::daisy(2);
        let cp = ControlPath::gpu_direct();
        let a1 = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        let a2 = f.transfer(0, PeId(1), PeId(0), 1 << 20, cp);
        assert_eq!(a1, a2, "directional links are independent");
    }

    #[test]
    fn cpu_control_path_adds_latency() {
        let small = 64;
        let first = |cp| Fabric::daisy(2).transfer(0, PeId(0), PeId(1), small, cp);
        let t_gpu = first(ControlPath::gpu_direct());
        let t_cpu = first(ControlPath::cpu_mediated());
        assert!(
            t_cpu > 5 * t_gpu,
            "CPU mediation should dominate small transfers: {t_gpu} vs {t_cpu}"
        );
    }

    #[test]
    fn summit_node_intersocket_slower_than_intrasocket() {
        let cp = ControlPath::gpu_direct();
        let first = |dst| Fabric::summit_node(6).transfer(0, PeId(0), dst, 4096, cp);
        let t_intra = first(PeId(1));
        let t_inter = first(PeId(3));
        assert!(t_inter > t_intra * 2, "{t_intra} vs {t_inter}");
    }

    #[test]
    fn summit_xbus_is_shared_bottleneck() {
        let mut f = Fabric::summit_node(6);
        let cp = ControlPath::gpu_direct();
        // Two different cross-socket pairs share the X-bus.
        let a1 = f.transfer(0, PeId(0), PeId(3), 1 << 20, cp);
        let a2 = f.transfer(0, PeId(1), PeId(4), 1 << 20, cp);
        assert!(a2 > a1, "second cross-socket transfer should queue");
    }

    #[test]
    fn ib_two_stage_pipelines() {
        let mut f = Fabric::ib_cluster(4);
        let cp = ControlPath::gpu_direct();
        let got = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        // Uncontended: one serialization plus the network latency
        // (pipelined two-stage, no double serialization).
        let link = &f.links[0];
        let wire = link.packet.wire_time_ns(1 << 20, link.gbytes_per_s);
        let latency = f.min_remote_latency_ns().unwrap();
        assert_eq!(got, cp.inject_ns + wire + latency);
    }

    #[test]
    fn ib_ingress_contention_many_to_one() {
        let mut f = Fabric::ib_cluster(4);
        let cp = ControlPath::gpu_direct();
        let solo = f.transfer(0, PeId(1), PeId(0), 1 << 20, cp);
        f.reset();
        // Three senders target PE 0 simultaneously: last arrival is pushed
        // out by ingress serialization.
        let arrivals: Vec<_> = (1..4)
            .map(|s| f.transfer(0, PeId(s), PeId(0), 1 << 20, cp))
            .collect();
        let last = arrivals.iter().max().unwrap();
        assert!(*last >= solo + 2 * PacketModel::Infiniband.wire_time_ns(1 << 20, 12.5));
    }

    #[test]
    fn trace_records_messages() {
        let mut f = Fabric::daisy(2);
        let cp = ControlPath::gpu_direct();
        f.transfer(0, PeId(0), PeId(1), 100, cp);
        f.transfer(0, PeId(0), PeId(1), 200, cp);
        assert_eq!(f.trace.total_messages(), 2);
        assert!(f.trace.total_wire_bytes() > 300);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut f = Fabric::daisy(2);
        let cp = ControlPath::gpu_direct();
        let a1 = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        f.reset();
        let a2 = f.transfer(0, PeId(0), PeId(1), 1 << 20, cp);
        assert_eq!(a1, a2);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn self_route_panics() {
        let mut f = Fabric::daisy(2);
        f.transfer(0, PeId(1), PeId(1), 8, ControlPath::gpu_direct());
    }
}
