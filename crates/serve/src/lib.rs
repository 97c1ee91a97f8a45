//! `airshare-serve` — the base station as a long-running service.
//!
//! The paper's architecture is a base station continuously broadcasting
//! an air index while mobile hosts tune in, query, and share answers.
//! The rest of the workspace evaluates that as a closed-loop simulation;
//! this crate splits the base-station side out into a service that
//! serves live traffic (ROADMAP item 2):
//!
//! * [`Service`] / [`ServiceHandle`] — a scheduler thread ticking the
//!   `(1, m)` cycle over any `AirIndexBackend` in scaled wall time (or
//!   client-fenced lockstep), with host sessions (register, position
//!   update, disconnect — each with per-session cache + quarantine
//!   state), **batched admission** per broadcast tick, and
//!   **bounded-queue backpressure** (reject with retry-after). Query
//!   batches execute on `airshare-exec` workers; every service event
//!   lands on `airshare-obs` recorders; `drain` flushes everything and
//!   returns a [`ServiceReport`].
//! * [`replay`] — the test harness: a workload recorded by the
//!   deterministic simulator (`Simulation::run_recording`) is replayed
//!   through the full service stack, and every answer (POI ids +
//!   `AnswerQuality`) must equal the simulator's oracle-checked one.
//!
//! The parity argument is structural: the simulator is itself a
//! closed-loop client of `LiveWorld`, so the service's world is built
//! by the same seeded constructor and crosses the same epoch barrier,
//! and lockstep replay — same
//! inputs, same barrier order, same nonces — must produce bit-identical
//! answers *and* a field-for-field identical `SimReport`. See
//! DESIGN.md §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod replay;
mod service;

pub use config::{Pacing, ServeConfig};
pub use error::ServeError;
pub use replay::{replay, ReplayReport};
pub use service::{QueryRequest, QueryTag, Service, ServiceHandle, ServiceReport};
