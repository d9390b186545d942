//! # nocem-tlm — the "SystemC (MPARM)" baseline
//!
//! The SystemC analog of the paper's Table 2: the platform's processes
//! ([`nocem::process_model::ProcessModel`], shared with `nocem-rtl`)
//! on a cycle-true transaction-level kernel, reproducing the mechanism
//! (and cost) of SystemC simulation:
//!
//! * [`scheduler`] — a SystemC-like process scheduler with
//!   double-buffered (`sc_signal`-style) channels and value-changed
//!   watchers;
//! * [`model`] — the scheduler as a
//!   [`nocem::process_model::ProcessKernel`] and the [`TlmEngine`]
//!   alias.
//!
//! Runs are cycle- and flit-identical to the fast engine (enforced by
//! tests); the wall-clock cost sits between the fast engine and RTL.
//!
//! # Examples
//!
//! ```
//! use nocem::config::PaperConfig;
//! use nocem::compile::elaborate;
//! use nocem_tlm::model::TlmEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PaperConfig::new().total_packets(50).uniform();
//! let mut tlm = TlmEngine::new(elaborate(&cfg)?);
//! tlm.run()?;
//! assert_eq!(tlm.delivered(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod scheduler;

pub use model::TlmEngine;
pub use scheduler::{Scheduler, SchedulerStats};
