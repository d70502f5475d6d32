//! # sbft-baseline — classical (non-stabilizing) register baselines
//!
//! The paper's related-work section (Section V) positions its contribution
//! against classical BFT register constructions that assume a *clean*
//! initial state. This crate implements three of them as protocols of the
//! shared [`sbft_core::cluster::Cluster`] driver — so they run on either
//! substrate, simulated or threaded — and experiments compare like with
//! like:
//!
//! * [`klmw`] — a Kanjani–Lee–Maguffee–Welch-style **BFT MWMR regular
//!   register** with `n = 3f + 1` servers and *unbounded* integer
//!   timestamps. Optimal resilience in the classical model — and the
//!   protocol experiment E6 shows failing permanently under transient
//!   timestamp corruption (a poisoned `u64::MAX` timestamp can never be
//!   dominated, and with a colluding Byzantine echo it reaches the `f + 1`
//!   witness threshold forever).
//! * [`abd`] — an Attiya–Bar-Noy–Dolev-style **crash-only** majority
//!   register (`n = 2f + 1`), the cheapest comparator in the quorum-cost
//!   experiment E7. It has no Byzantine defence at all.
//! * [`mr_safe`] — a Malkhi–Reiter-style **safe** register over masking
//!   quorums (`n = 5f`, single-phase operations): Byzantine-tolerant but
//!   with the weakest semantics in Lamport's hierarchy, completing the
//!   related-work line-up (safe → regular → atomic).
//!
//! All three reuse the wire message enum of `sbft-core` (with
//! `MwmrTimestamp<u64>` timestamps) and the same history recorder, so the
//! regularity checker applies unchanged. Each protocol does its own pid
//! arithmetic: ABD's `n = 2f + 1` is below the `n > 3f` floor of
//! [`sbft_core::ClusterConfig`].
//!
//! ```
//! use sbft_baseline::abd::Abd;
//! use sbft_core::cluster::ClusterBuilder;
//!
//! let mut c = ClusterBuilder::new(Abd::new(1)).seed(1).build_threaded();
//! let w = c.client(0);
//! c.write(w, 9).unwrap();
//! assert_eq!(c.read(c.client(1)).unwrap().value, 9);
//! assert!(c.check_history().is_ok());
//! c.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abd;
pub mod klmw;
pub mod mr_safe;

pub use abd::{Abd, AbdCluster};
pub use klmw::{Klmw, KlmwCluster};
pub use mr_safe::{Mr, MrCluster};

use sbft_labels::{MwmrTimestamp, UnboundedLabeling};

/// Default event budget of one blocking baseline operation.
const OP_BUDGET: u64 = 200_000;

/// Timestamps used by the baselines: unbounded integers + writer id.
pub type UTs = MwmrTimestamp<u64>;

/// The MWMR labeling system over unbounded timestamps.
pub type USys = sbft_labels::MwmrLabeling<UnboundedLabeling>;

#[cfg(test)]
mod tests {
    use sbft_core::cluster::ClusterBuilder;
    use sbft_net::Backend;

    use super::*;

    #[test]
    fn abd_runs_on_threads() {
        let mut c = ClusterBuilder::new(Abd::new(1)).seed(1).build_threaded();
        assert_eq!(c.backend(), Backend::Threaded);
        let (w, r) = (c.client(0), c.client(1));
        c.write(w, 7).unwrap();
        assert_eq!(c.read(r).unwrap().value, 7);
        assert!(c.check_history().is_ok());
        c.stop();
    }

    #[test]
    fn klmw_runs_on_threads() {
        let mut c = ClusterBuilder::new(Klmw::new(1, 1)).seed(2).build_threaded();
        let (w, r) = (c.client(0), c.client(1));
        c.write(w, 8).unwrap();
        assert_eq!(c.read(r).unwrap().value, 8);
        assert!(c.check_history().is_ok());
        c.stop();
    }

    #[test]
    fn mr_runs_on_threads() {
        let mut c = ClusterBuilder::new(Mr::new(1)).seed(3).build_threaded();
        let (w, r) = (c.client(0), c.client(1));
        c.write(w, 9).unwrap();
        assert_eq!(c.read(r).unwrap().value, 9);
        assert!(mr_safe::check_safety(&c.recorder).is_ok());
        c.stop();
    }
}
