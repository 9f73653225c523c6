//! `meissa-netdriver`: the wire-level test driver (§4 over real sockets).
//!
//! The in-process driver (`meissa-driver`) injects packets by function
//! call; this crate drives the same test plan over TCP, the way Meissa's
//! deployment runs it against a physical switch via an on-switch agent:
//!
//! - [`agent`] — the switch-agent daemon (also the `meissa-agent` binary):
//!   hosts a `SwitchTarget` behind a length-framed protocol
//!   (`Hello`/`LoadProgram`/`InstallRules`/`Inject`/`Output`/`Stats`/
//!   `Shutdown`), answering each injected packet with its output, logical
//!   egress port, and final-state snapshot.
//! - [`client`] — [`WireDriver`]: the pipelined sender/receiver/checker.
//!   Streams cases over N connections, each split into a batching inject
//!   stage and a collect stage coordinated by channels and atomics, with
//!   per-case deadlines, bounded retries with backoff, duplicate/reorder
//!   tolerance keyed on the packet-ID stamp, and a drain phase that
//!   classifies missing outputs as drops. Verdicts come from the shared
//!   `driver::Checker`, so wire and in-process reports agree case for
//!   case. [`WireDriver::soak`] replays the plan for wall-clock time,
//!   optionally fuzzing packets with seeded mutations.
//! - [`fault`] — seeded transport faults (drop/duplicate/delay/truncate)
//!   injected at the framing layer, so the client's robustness machinery
//!   is itself under test.
//! - [`proto`] — the frame payload codec, one encoder and one decoder per
//!   direction. Control messages are JSON; the hot-path data messages
//!   (`Inject`/`Output` and the sequence pair) use a compact fixed-width
//!   binary layout. The client refuses an agent whose `Hello` reports a
//!   version older than [`PROTO_VERSION`].
//!
//! Everything is `std::net`/`std::thread` only: the workspace stays
//! hermetic.

pub mod agent;
pub mod client;
pub mod fault;
pub mod proto;

pub use agent::{Agent, AgentHandle};
pub use client::{
    fetch_metrics, fetch_stats, hello, install_rules, load_program, shutdown, SoakConfig,
    WireDriver,
};
pub use fault::TransportFaults;
pub use proto::{Request, Response, PROTO_VERSION};
