//! # cps-serve
//!
//! The fail-operational design service of the DATE 2019 reproduction: a
//! long-running server that executes fleet-design, bus-geometry-sweep and
//! robustness-campaign jobs over a Unix-domain socket — and, optionally, a
//! TCP listener beside it — engineered to keep answering under deadline
//! pressure, overload, worker panics and injected connection faults.
//!
//! - [`protocol`] — the hand-rolled length-prefixed binary wire format:
//!   bit-exact `f64` transport, bounds-checked decoding that can neither
//!   panic nor over-allocate on malformed input, FNV-1a content keys for
//!   artifact addressing, and non-terminal [`Outcome::Progress`] frames
//!   for streamed campaign statistics.
//! - [`ArtifactCache`] — bounded LRU of [`DesignArtifact`]s with
//!   single-flight deduplication (K identical concurrent requests compute
//!   once); entries are verified against the full canonical job bytes, so
//!   a 64-bit hash collision is a miss, never a shared artifact.
//! - [`DesignServer`] / [`ServerHandle`] — transport-generic accept loops
//!   (Unix + TCP over one worker pool) with capped accept-error backoff
//!   and handler-registry quiescent shutdown; design cache hits answered
//!   on the connection handler; `std::thread` worker pool for the work
//!   that computes, bounded job queue with [`Outcome::Busy`] load
//!   shedding, deadline watchdog driving cooperative
//!   [`cps_sched::CancelToken`] cancellation through the allocator /
//!   designer / campaign kernels, and `catch_unwind` panic isolation.
//! - [`DesignClient`] / [`RetryPolicy`] — pooled persistent connections
//!   with poisoned-connection eviction, exponential backoff with
//!   deterministic [`cps_flexray::SimRng`] jitter, and a streaming
//!   [`CampaignStream`] whose drop cancels the campaign server-side.
//! - [`ChaosConfig`] — deterministic fault injection (worker panics and
//!   stalls, dropped/truncated/corrupted responses) keyed by
//!   `(seed, request serial)` for exactly reproducible soak tests.
//!
//! The nominal path — no deadline pressure, no chaos, no budget — returns
//! results bit-identical to calling
//! [`cps_core::FleetDesigner::design_fleet_optimal`] directly; the
//! degradation ladder (greedy incumbent with `certified_optimal = false`,
//! partial sweeps with `complete = false`) only engages when resources
//! actually run out, and always says so.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod chaos;
mod client;
mod error;
pub mod protocol;
mod server;

pub use cache::{ArtifactCache, CacheOutcome, CacheResult, DesignArtifact};
pub use chaos::{ChaosConfig, ChaosPlan};
pub use client::{CampaignStream, DesignClient, Endpoint, RequestOptions, RetryPolicy};
pub use error::ServeError;
pub use protocol::{
    CampaignJob, CampaignProgress, CampaignResult, DesignJob, DesignResult, ErrorKind,
    FamilyProgress, FamilyReadout, Job, Outcome, Request, Response, SweepJob, SweepResult,
    SweepRow, WireError, MAX_FRAME,
};
pub use server::{design_job, DesignServer, ServerConfig, ServerHandle, StatsSnapshot};
