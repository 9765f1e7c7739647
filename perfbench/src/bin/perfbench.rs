//! End-to-end runs: `perfbench --workload W --seed N --seconds S --trace 0`.
//! Prints the metrics, then one JSON result line; exits non-zero without
//! a result when the run cannot be made.

use std::process::ExitCode;

fn main() -> ExitCode {
    mustaple_perfbench::main_with(false)
}
