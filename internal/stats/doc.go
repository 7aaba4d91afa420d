// Package stats provides the small numeric toolkit used throughout the KBT
// reproduction: logistic-scale helpers (Logit, Sigmoid — the copy layer's
// posterior, and the reference the core's odds-space Eq 15 is tested against),
// numerically stable softmax for value posteriors (SoftmaxWithRest),
// probability clamping, random samplers for the synthetic workloads (Beta,
// Zipf, categorical, Bernoulli via RNG), and summary statistics for the
// evaluation harness.
//
// Everything here is deterministic given a seed and uses only the standard
// library, as the rest of the module requires.
package stats
