//! Hermetic verification substrate for the Vulkan-Sim reproduction.
//!
//! The workspace builds with **zero external dependencies** so that
//! `cargo build && cargo test` succeed with the network disabled. This
//! crate supplies everything the tests previously pulled from crates.io:
//!
//! * [`rng`] — a deterministic, seedable PCG32 generator with the small
//!   distribution helpers scene generators and tests need (replaces
//!   `rand`).
//! * [`prop`] — a minimal property-testing harness: strategy combinators
//!   for numeric ranges, tuples, mapped values and vectors; case
//!   generation; iteration-bounded shrinking; failure-seed reporting
//!   (replaces `proptest`).
//! * [`golden`] — exact-compare golden-counter snapshots: the regression
//!   gate that catches silent drift in simulator statistics. Goldens are
//!   checked-in JSON; set `VKSIM_BLESS=1` to regenerate them.
//! * [`json`] — the golden-file writer, a general JSON reader for
//!   validating exported artifacts and a string escaper.
//!
//! Simulator papers live and die by reproducible counters; every future
//! performance PR diffs against the golden suite built on this crate.
//!
//! # Example
//!
//! ```
//! use vksim_testkit::prop::{check, f32_in, vec_of};
//! use vksim_testkit::prop_assert;
//!
//! check(&vec_of(f32_in(-1.0, 1.0), 1, 16), |xs| {
//!     let sum: f32 = xs.iter().sum();
//!     prop_assert!(sum.abs() <= xs.len() as f32, "sum {sum} out of bounds");
//!     Ok(())
//! });
//! ```

pub mod golden;
pub mod json;
pub mod prop;
pub mod rng;

pub use golden::assert_matches_golden;
pub use prop::{check, check_with, Config, Strategy, TestResult};
pub use rng::Pcg32;
