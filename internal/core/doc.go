// Package core implements the paper's primary contribution: the multi-layer
// probabilistic model of §3 that jointly estimates
//
//   - extraction correctness  C_wdv — did source w really provide (d,v)?
//   - triple truthfulness     V_d   — which value is true for data item d?
//   - source accuracy         A_w   — the Knowledge-Based Trust score
//   - extractor quality       P_e, R_e (precision / recall), with
//     Q_e = γ/(1-γ) · (1-P_e)/P_e · R_e   (Eq 7)
//
// using the EM-like procedure of Algorithm 1. Unlike the single-layer
// baseline (package fusion), the model separates the two error channels:
// wrong facts on a page versus wrong extractions from the page.
//
// One iteration of Algorithm 1 — the four stages, the Eq 26 prior on its
// schedule and the convergence rule — is EM.Iterate, over optional item and
// triple lists. Run is the batch driver: NewEM, Bootstrap, then Iterate over
// every index until an iteration converges or MaxIter have run. Package
// engine drives the same EM across refreshes, each iteration one Iterate over
// the stale items only, and so reproduces Run's arithmetic exactly on a cold
// start. The stages stay exported one by one, and each adds its wall time to
// the EM's stage clock (EM.StageTimes), which the engine publishes per
// refresh and the Table 7 harness reads (internal/experiments/timing.go).
package core
