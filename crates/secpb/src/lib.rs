//! # secpb-core — secure battery-backed persist buffers
//!
//! The paper's primary contribution: a battery-backed persist buffer
//! (SecPB) that aligns the *security point of persistency* (SPoP) with the
//! *point of persistency* (PoP) next to the core, plus the spectrum of six
//! metadata-persistence schemes that trade runtime overhead against
//! battery capacity.
//!
//! * [`scheme`] — the design spectrum: `NoGap`, `M`, `CM`, `BCM`, `OBCM`,
//!   `COBCM`, plus the `bbb` (insecure) and `SP` (SPoP-at-MC) baselines,
//! * [`entry`] — one SecPB entry with the `Dp/O/Dc/C/B/M` fields and their
//!   valid bits (Figure 5),
//! * [`buffer`] — the SecPB itself: coalescing, watermarks, FIFO drain
//!   order, and NWPE bookkeeping,
//! * [`drain`] — the background drain engine that empties the buffer to
//!   the memory controller,
//! * [`domain`] — the shared security/persistence kernel
//!   ([`PersistDomain`]) all three system fronts delegate to: golden
//!   state, logical counters, NVM image, crypto engines, integrity tree,
//! * [`system`] — the whole machine: core + caches + SecPB + metadata
//!   caches + WPQ + NVM, with both a timing model and a functional
//!   (actually encrypted and integrity-protected) persistent state,
//! * [`pipeline`] — the per-store early-work path, driven entirely by the
//!   policy's [`scheme::EarlyWork`] flags,
//! * [`policy`] — the composable persistence-policy layer: early/lazy
//!   step assignment, Triad-NVM-style selective tree depth, and the
//!   Huang & Hua fast-recovery layout, with exact recovery accounting,
//! * [`recovery`] — the battery-powered crash drain and the post-crash
//!   verdict kernel shared by all fronts,
//! * [`crash`] — crash kinds, drain policies (drain-all/drain-process),
//!   observer policies (blocking/warning), the battery-powered drain, and
//!   post-crash recovery with real decryption + MAC + BMT verification,
//! * [`checkpoint`] — versioned whole-system checkpoints: restore at
//!   epoch N then replay is byte-identical to the uninterrupted run,
//!   which is what shard crash-recovery and soak restarts build on,
//! * [`coherence`] — the metadata directory and SecPB-to-SecPB migration
//!   protocol of Section IV-C for multi-core configurations,
//! * [`facade`] — the [`PersistSystem`] trait: the one driving surface
//!   (replay, crash, recover, observe) every front implements, so storms
//!   and benches are written once against `dyn PersistSystem`,
//! * [`metrics`] — run results and the derived statistics the paper
//!   reports (IPC, PPTI, NWPE, BMT root updates).
//!
//! # Example
//!
//! ```
//! use secpb_core::scheme::Scheme;
//! use secpb_core::system::SecureSystem;
//! use secpb_sim::config::SystemConfig;
//! use secpb_sim::trace::{Access, TraceItem};
//! use secpb_sim::addr::Address;
//!
//! let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
//! let trace = vec![TraceItem::then(10, Access::store(Address(0x1000), 7))];
//! let result = sys.run_trace(trace.iter().copied());
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod buffer;
pub mod checkpoint;
pub mod coherence;
pub mod crash;
pub mod domain;
pub mod drain;
pub mod eadr;
pub mod entry;
pub mod facade;
pub mod metrics;
pub mod multicore;
pub mod pipeline;
pub mod policy;
pub mod recovery;
pub mod scheme;
pub mod system;
pub mod tree;

#[cfg(test)]
mod reference_tests;

pub use buffer::SecPb;
pub use checkpoint::CheckpointError;
pub use crash::{ConfigError, CrashKind, DrainPolicy, ObserverPolicy, RecoveryReport};
pub use domain::{DomainKeys, PersistDomain};
pub use facade::PersistSystem;
pub use metrics::RunResult;
pub use policy::{PersistencePolicy, PolicyError, RecoveryCost};
pub use scheme::Scheme;
pub use system::SecureSystem;
