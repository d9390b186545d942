//! # nocem-rtl — the "Verilog / ModelSim" baseline
//!
//! The ModelSim analog of the paper's Table 2: the platform's
//! processes ([`nocem::process_model::ProcessModel`], shared with
//! `nocem-tlm`) on an event-driven RTL kernel, reproducing the
//! mechanism (and cost) of HDL simulation:
//!
//! * [`kernel`] — signals, nonblocking assignment, delta cycles,
//!   sensitivity lists, work counters and a VCD dump;
//! * [`model`] — the kernel as a
//!   [`nocem::process_model::ProcessKernel`] and the [`RtlEngine`]
//!   alias (flit/credit wires per link, monitor processes per
//!   receptor).
//!
//! Runs are cycle- and flit-identical to the fast engine (enforced by
//! tests); only the wall-clock cost differs, by the orders of
//! magnitude the paper reports between FPGA emulation and RTL
//! simulation.
//!
//! # Examples
//!
//! ```
//! use nocem::config::PaperConfig;
//! use nocem::compile::elaborate;
//! use nocem_rtl::model::RtlEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = PaperConfig::new().total_packets(50).uniform();
//! let mut rtl = RtlEngine::new(elaborate(&cfg)?);
//! rtl.run()?;
//! assert_eq!(rtl.delivered(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod model;

pub use kernel::{Kernel, KernelStats, Value};
pub use model::RtlEngine;
