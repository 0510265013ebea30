//! # molseq-sync — synchronous sequential computation with molecular reactions
//!
//! The paper's contribution, as a library. Sequential (state-holding)
//! computation is built from chemical reactions using three ideas:
//!
//! 1. **Color categories.** Every signal type is red, green or blue
//!    ([`Color`]). Computation proceeds as a global three-phase rotation:
//!    red→green, green→blue, blue→red.
//! 2. **Absence indicators.** Three types `r`, `g`, `b` are generated at a
//!    slow zero-order rate and consumed fast by any species of the matching
//!    color, so each accumulates only when its entire color category is
//!    empty. Each phase transfer is *gated* on the indicator of the third
//!    color, so no phase can begin until the previous phase has completed
//!    everywhere. The indicators are global: they are the clock.
//! 3. **Positive feedback.** Once a transfer begins, fast autocatalytic
//!    reactions accelerate it, making phase edges crisp.
//!
//! A **delay element** (the D flip-flop of this technology) is a triple of
//!    types `R/G/B` whose stored quantity makes one full rotation per clock
//!    cycle. Combinational arithmetic — fan-out, weighted sums, clamped
//!    subtraction — is folded into the rotation as fast same-color
//!    reactions, so filters, counters and general FSM datapaths become a
//!    matter of wiring.
//!
//! The layers of this crate:
//!
//! * [`SchemeBuilder`] — the reaction-level generator (equations (1)–(6) of
//!   the companion abstract): colored species, gated transfers, sharpeners,
//!   indicators.
//! * [`Clock`] / [`DelayChain`] — the two primitive constructs the papers
//!   plot first: a free-running chemical clock and a chain of delay
//!   elements.
//! * [`SyncCircuit`] → [`CompiledSystem`] — a register-transfer-level
//!   builder: declare inputs, registers, an expression DAG (add, scale,
//!   subtract, constants) and outputs; `compile` emits the full CRN plus
//!   the bookkeeping needed to inject inputs per cycle and read registers
//!   per cycle.
//! * [`BinaryCounter`] — the paper's finite-state example, built on
//!   [`SyncCircuit`].
//! * [`drive_cycles`] / [`SyncRun`] — simulation harness: drives a
//!   compiled system for N clock cycles under a [`RunConfig`]-selected
//!   kinetic interpretation (ODE or exact stochastic), locates cycle
//!   boundaries from the clock waveform and samples every register once
//!   per cycle.
//!
//! ## Example: a free-running chemical clock
//!
//! ```
//! use molseq_sync::{Clock, SchemeConfig};
//! use molseq_kinetics::{estimate_period, CompiledCrn, OdeOptions, SimSpec, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = Clock::build(SchemeConfig::default(), 100.0)?;
//! let compiled = CompiledCrn::new(clock.crn(), &SimSpec::default());
//! let trace = Simulation::new(clock.crn(), &compiled)
//!     .init(&clock.initial_state())
//!     .options(OdeOptions::default().with_t_end(120.0))
//!     .run()?;
//! let series = trace.series(clock.red());
//! let period = estimate_period(trace.times(), &series, 50.0);
//! assert!(period.is_some(), "the clock oscillates");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod clock;
mod color;
mod counter;
mod error;
mod fsm;
mod measure;
mod programs;
mod runner;
mod scheme;
mod system;

pub use circuit::{
    compile_netlist, compile_netlist_source, Netlist, NetlistSourceError, Node, SyncCircuit,
};
pub use clock::{Clock, DelayChain};
pub use color::Color;
pub use counter::BinaryCounter;
pub use error::SyncError;
pub use fsm::Fsm;
pub use measure::{stored_final_value, stored_value_at, stored_value_terms};
pub use programs::{IterativeLog2, IterativeMultiplier};
pub use runner::{
    drive_cycles, drive_cycles_batch, BatchCell, CycleResources, RunConfig, SyncRun,
    HARNESS_ODE_TOLERANCES,
};
pub use scheme::{ClockSpec, SchemeBuilder, SchemeConfig};
pub use system::{ClockHandles, CompiledSystem, RegisterHandles};
