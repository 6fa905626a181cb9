//! Criterion micro-benchmarks of the core planner, the client model and
//! the system simulator; the benches live in `benches/`. The paper's
//! tables and figures and every study run through `sbcast <name>`, and
//! `sbperf` is the end-to-end wall-clock benchmark.

#![forbid(unsafe_code)]
