//! Equivalence-sorting as a service.
//!
//! A long-lived daemon that accepts equivalence-sort jobs over a
//! line-delimited protocol (TCP or an in-process loopback pipe), multiplexes
//! any number of concurrent sessions onto the one shared
//! [`ecs_model::ThroughputPool`], and streams each session's results back as
//! they complete. The moving parts:
//!
//! * [`protocol`] — the wire grammar ([`Request`] / [`Response`] /
//!   [`JobSpec`]) and the single [`protocol::run_job`] /
//!   [`protocol::render_result`] pair both the daemon and any serial
//!   reference evaluate through, which is what makes daemon output
//!   byte-identical to a serial loop by construction.
//! * [`scheduler`] — weighted stride-scheduling fairness between tenants,
//!   bounded in-flight dispatch, per-tenant admission quotas
//!   ([`QuotaConfig`]: bounded queues, in-flight caps, pinned weights),
//!   cooperative cancellation, and fault isolation (a panicking or
//!   cancelled job releases its slot like any other).
//! * [`outbox`] — per-session result queues: non-blocking pushes for pool
//!   workers, reader-side admission gating for backpressure, and (for
//!   `hello` sessions) sequence-numbered retention so a dropped connection
//!   can `resume` and replay exactly its unacked suffix.
//! * [`server`] — the [`Daemon`] itself: transports, session threads, a
//!   resume registry keyed by stable session tokens, drain and shutdown
//!   lifecycle with a joined-threads guarantee.
//! * [`client`] — a blocking [`Client`] used by tests, the `ecs_load`
//!   generator, and scripts.
//!
//! # Example
//!
//! ```
//! use ecs_service::{Daemon, DaemonConfig, Request, Response};
//! use ecs_model::ThroughputPool;
//!
//! let config = DaemonConfig {
//!     pool: ThroughputPool::from_jobs(2),
//!     ..DaemonConfig::default()
//! };
//! let daemon = Daemon::loopback(config);
//! let mut client = daemon.connect();
//! client
//!     .send(&Request::parse("submit id=j0 dist=uniform:4 n=30 seed=7 algo=er-merge").unwrap())
//!     .unwrap();
//! let results = client.drain().unwrap();
//! assert!(matches!(results.last(), Some(Response::Result { .. })));
//! client.shutdown().unwrap();
//! daemon.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod outbox;
pub mod pipe;
pub mod protocol;
pub mod scheduler;
pub mod server;
mod wire;

pub use client::Client;
pub use outbox::Outbox;
pub use protocol::{
    split_seq, AlgoSpec, BackendSpec, DistSpec, JobSpec, Request, Response, TenantCounters,
};
pub use scheduler::{QuotaConfig, Scheduler, SessionHandle, TenantQuota};
pub use server::{Daemon, DaemonConfig, DaemonHandle};
