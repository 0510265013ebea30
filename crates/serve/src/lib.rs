//! # molseq-serve — a multi-tenant batch-simulation server
//!
//! Long-running std-only TCP service that accepts batch-simulation jobs
//! over a line-delimited JSON protocol, runs them on a persistent worker
//! pool, and streams results back incrementally. Three properties carry
//! over from the rest of the workspace:
//!
//! * **Determinism** — every cell runs through
//!   [`molseq_sweep::run_cell`], the single-cell entry point of the sweep
//!   engine, with the same seed derivation
//!   ([`molseq_sweep::derive_seed`]) and outcome mapping. Result rows
//!   carry no wall-clock fields, so the same submission produces
//!   byte-identical rows at any worker count, on any machine.
//! * **Compile once, serve many** — networks are cached across requests
//!   in a [`molseq_kinetics::CompiledCache`] keyed by the structural hash
//!   ([`molseq_crn::Crn::structural_hash`]); rate-constant overrides
//!   rebind the cached compile, which is property-tested bit-identical
//!   to compiling fresh. A tenant resubmitting a sweep (or two tenants
//!   submitting the same network) pays the compile once.
//! * **Isolation** — per-tenant admission control
//!   ([`TenantPolicy`]) bounds in-flight jobs, per-cell
//!   [`molseq_sweep::JobBudget`]s cut runaway cells deterministically,
//!   and a cooperative [`molseq_sweep::CancelToken`] per job lets clients
//!   abandon work without disturbing other tenants.
//!
//! The wire protocol is documented in the [`protocol`] module (and in
//! DESIGN.md §11); [`Client`] is the blocking reference client used by
//! the tests, the CI stage, and `repro --via-server`.
//!
//! ## Quickstart
//!
//! ```
//! use molseq_serve::{
//!     CellSpec, Client, Method, Program, Server, ServerConfig, SubmitRequest,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start(ServerConfig::default().with_workers(2))?;
//! let mut client = Client::connect(server.addr())?;
//!
//! let ack = client.submit(&SubmitRequest {
//!     tenant: "docs".into(),
//!     program: Program::Crn("X -> Y @slow".into()),
//!     init: vec![("X".into(), 20.0)],
//!     method: Method::Ssa,
//!     t_end: 100.0,
//!     record_interval: None,
//!     seed: 7,
//!     injections: vec![],
//!     batch: Some(1),
//!     cells: (0..3)
//!         .map(|i| CellSpec { label: format!("rep={i}"), k_fast: None, k_slow: None })
//!         .collect(),
//! })?;
//!
//! let rows = client.fetch_all(&ack.job_id)?;
//! assert_eq!(rows.len(), 3);
//! let y = ack.species.iter().position(|s| s == "Y").unwrap();
//! assert_eq!(rows[0].final_state[y], 20.0); // all X decayed to Y
//!
//! client.shutdown()?;
//! server.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod protocol;
mod server;

pub use client::{Client, ClientError, FetchPage, JobStatusInfo, SubmitAck};
pub use protocol::{
    check_horizon, rows_to_summary, stats_summary, CellRow, CellSpec, Method, Program,
    ProtocolError, Request, SubmitRequest,
};
pub use server::{Server, ServerConfig, TenantPolicy};
