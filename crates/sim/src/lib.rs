//! # ntt-sim
//!
//! A deterministic packet-level discrete-event network simulator — the
//! ns-3 substitute for the Network Traffic Transformer reproduction
//! ("A New Hope for Network Model Generalization", HotNets '22).
//!
//! ## What is implemented
//! * nanosecond event queue with deterministic `(time, seq)`
//!   tie-breaking, 32-byte heap entries and reservable sequence numbers
//! * store-and-forward links: rate, propagation delay, drop-tail FIFO
//!   queues sized in packets, optional random-loss fault injection;
//!   packets propagate in a per-link FIFO, never inside the event queue
//! * one queued retransmission-timer entry per flow: re-arming reserves
//!   the timer's place in the event order instead of queueing an event
//!   that would pop only to be discarded
//! * static BFS shortest-path routing over arbitrary topologies
//! * simplified TCP Reno (slow start, AIMD, dup-ACK fast retransmit,
//!   RTO with Karn's rule + exponential backoff), packet-granularity
//!   sequence numbers
//! * message-based sender apps (Poisson arrivals, heavy-tailed
//!   Homa-like sizes) and CBR-over-TCP cross-traffic
//! * the paper's Fig. 4 dataset scenarios (pre-training, fine-tuning
//!   case 1 and case 2) and receiver-side trace collection
//! * parameterized topology families beyond the paper's fixed setups:
//!   [`Scenario::ParkingLot`] (a chain with a configurable number of
//!   bottleneck hops, one receiver per hop) and [`Scenario::LeafSpine`]
//!   (a two-tier fabric with deterministic spine spreading and
//!   destination-skewed cross-traffic). These feed the scenario grids
//!   of the `ntt-fleet` parallel dataset engine; the
//!   [`TopologyBuilder::chain`] and [`TopologyBuilder::leaf_spine`]
//!   helpers build the underlying graphs for custom setups.
//!
//! ## What is deliberately omitted
//! SACK, delayed ACKs, Nagle, window scaling, ECN, byte-granularity
//! sequence space, IP headers/addressing (the paper uses a receiver-ID
//! proxy instead). The four NTT input features — timestamp, size,
//! receiver ID, delay — read none of them.
//!
//! ```
//! use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};
//!
//! let cfg = ScenarioConfig::tiny(42);
//! let trace = run(Scenario::Pretrain, &cfg);
//! assert!(trace.packets.len() > 100);
//! // Every record carries the four NTT input features:
//! let p = &trace.packets[0];
//! let _ = (p.recv_ns, p.size_bytes, p.receiver_group, p.delay_ns);
//! ```

pub mod app;
pub mod event;
pub mod link;
pub mod node;
pub mod packet;
pub mod persist;
pub mod scenarios;
#[allow(clippy::module_inception)] // the crate-defining module shares the crate name by convention
pub mod sim;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod workload;

pub use app::App;
pub use event::{Event, EventQueue};
pub use link::{Enqueue, Link, LinkConfig, LinkStats};
pub use node::{Node, NodeKind};
pub use packet::{
    AppId, FlowId, LinkId, MsgId, NodeId, Packet, PacketKind, ACK_BYTES, HEADER_BYTES, MSS,
};
pub use persist::{load_trace, save_trace};
pub use scenarios::{RunTrace, Scenario, ScenarioConfig};
pub use sim::{SimStats, Simulator};
pub use tcp::{TcpConfig, TcpFlow};
pub use time::SimTime;
pub use topology::TopologyBuilder;
pub use trace::{MessageRecord, PacketRecord, TraceCollector};
