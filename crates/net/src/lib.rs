//! # smbm-net
//!
//! The network ingress/egress plane: the live datapath served over real
//! UDP sockets instead of in-process producer threads.
//!
//! The moving parts:
//!
//! * [`codec`] — the compact little-endian wire format: versioned 8-byte
//!   datagram header, many fixed-size packet frames per datagram
//!   ([`WirePacket`] for work and value packets), a small control plane
//!   (SYNC/SYNC-ACK flow-control barriers, FIN/FIN-ACK shutdown), and a
//!   fuzz-safe [`decode`] that never panics on wire input and tallies
//!   per-frame losses exactly;
//! * [`NetIngress`] — bound UDP sockets whose receive threads decode
//!   datagrams, validate every frame against the receiving switch's
//!   admission rules, and feed the runtime's SPSC shard rings with the
//!   same backpressure/lost accounting as the in-process load generator,
//!   via [`RuntimeBuilder::add_producer_fanout`]; sockets stay bound and
//!   serving while shard supervision restarts incarnations around them;
//! * [`run_server`] — the whole server: build the sharded datapath for a
//!   model and policy, attach the ingress plane, serve until every
//!   expected client has FINed, report with exact conservation (every
//!   declared frame is admitted, dropped with a reason — including
//!   `DropReason::NetDecode` — or orphaned);
//! * [`run_netgen`] — the client fleet: per-client MMPP traces over
//!   loopback or a real NIC, stop-and-wait SYNC barriers so UDP's silent
//!   drops cannot corrupt the books, per-client send/ack tallies, and
//!   optional deliberate corruption for testing the server's decode
//!   accounting.
//!
//! [`RuntimeBuilder::add_producer_fanout`]: smbm_runtime::RuntimeBuilder::add_producer_fanout

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

mod client;
mod serve;
mod server;

pub use client::{run_netgen, ClientReport, NetGenConfig, NetGenError, NetGenReport};
pub use codec::{
    decode, decode_with, encode_data, encode_fin, encode_sync, Datagram, WireError, WirePacket,
};
pub use serve::{run_bound_server, run_server, wire_check, ServeConfig, ServeError, ServeReport};
pub use server::{Fanout, NetConfig, NetIngress};
