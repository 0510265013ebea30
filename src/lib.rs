//! # molseq — synchronous sequential computation with molecular reactions
//!
//! A Rust reproduction of *"Synchronous Sequential Computation with
//! Molecular Reactions"* (Jiang, Riedel, Parhi — DAC 2011): computing with
//! chemical concentrations instead of voltages, with memory, synchronized by
//! a clock that is itself a set of chemical reactions.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`crn`] — reaction network model (species, reactions, fast/slow rate
//!   categories),
//! * [`kinetics`] — mass-action ODE and Gillespie SSA simulators,
//! * [`modules`] — rate-independent combinational modules,
//! * [`sync`] — **the paper's contribution**: absence indicators, delay
//!   elements, the chemical clock, the synchronous circuit builder, plus
//!   finite-state machines and iterative programs (multiplier, log) built
//!   on it,
//! * [`asynchronous`] — the companion self-timed scheme,
//! * [`dsp`] — signal-flow-graph synthesis (filters) onto `sync`,
//! * [`dsd`] — compilation of any network to DNA strand displacement.
//!
//! ## Quickstart
//!
//! ```
//! use molseq::sync::{drive_cycles, ClockSpec, CycleResources, RunConfig, SyncCircuit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A one-register circuit: y(n) = x(n − 1), delayed by one clock cycle.
//! let mut circuit = SyncCircuit::new(ClockSpec::default());
//! let x = circuit.input("x");
//! let d = circuit.delay("d", x);
//! circuit.output("y", d);
//! let system = circuit.compile()?;
//!
//! let samples = [60.0, 20.0];
//! let run = drive_cycles(
//!     &system,
//!     &[("x", &samples)],
//!     3,
//!     &RunConfig::default(),
//!     CycleResources::default(),
//! )?;
//! let d_values = run.register_series("d")?;
//! assert!((d_values[0] - 60.0).abs() < 1.5);
//! assert!((d_values[1] - 20.0).abs() < 1.5);
//! # Ok(())
//! # }
//! ```

//! ## How a circuit becomes chemistry
//!
//! 1. You describe a netlist ([`sync::SyncCircuit`]): inputs, registers,
//!    an expression DAG (add / scale / clamped subtract), outputs.
//! 2. The compiler assigns every generated species a **color** (red,
//!    green, blue) and lowers the netlist onto one global three-phase
//!    rotation: register contents rest in red, first-level logic settles
//!    in the green stage, second-level logic in the blue stage, and the
//!    blue→red phase commits next-cycle values.
//! 3. Phase order is enforced chemically by **absence indicators** —
//!    species that exist only while an entire color category is empty —
//!    and made crisp by autocatalytic feedback driven by the clock ring's
//!    large token.
//! 4. The result is a plain [`crn::Crn`]: simulate it with the unified
//!    [`kinetics::Simulation`] builder — deterministically
//!    ([`kinetics::SimMethod::Ode`], stiff Rosenbrock by default),
//!    stochastically ([`kinetics::SimMethod::Ssa`]), or with
//!    explicit/implicit tau-leaping
//!    ([`kinetics::SimMethod::TauLeap`] /
//!    [`kinetics::SimMethod::TauLeapImplicit`]) — drive inputs per clock
//!    cycle and read registers per cycle with [`sync::drive_cycles`], or
//!    compile the whole thing to DNA strand displacement
//!    ([`dsd::DsdSystem`]) and simulate *that*.
//!
//! The defining property, inherited from the paper: only the **coarse rate
//! categories** matter. Every generated reaction is `fast` or `slow`, and
//! the computed answers are unchanged under any numeric assignment with
//! `fast ≫ slow` — sweep the ratio or jitter every constant independently
//! and the filters still filter, the counters still count (see
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use molseq_async as asynchronous;
pub use molseq_crn as crn;
pub use molseq_dsd as dsd;
pub use molseq_dsp as dsp;
pub use molseq_kinetics as kinetics;
pub use molseq_modules as modules;
pub use molseq_sync as sync;
