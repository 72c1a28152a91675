//! The experiment surface of the reproduction.
//!
//! The `paper` binary regenerates the paper's evaluation — Table 1 and
//! Figs 2, 3, 4, 6 and 7 — and ends every artefact in the claim the paper
//! draws from it with a verdict computed from the numbers just produced
//! (`results/paper.json`). `fig_churn` and `fig_codec` sweep the two axes
//! the paper does not: fleet churn and the wire codec. Binaries default to
//! **smoke scale** (sized for a 2-core CI box) and accept `--full` for the
//! paper's dimensions (100 devices, full grids — hours of CPU).

pub mod harness;
pub mod trace;
