//! Runs the complete experiment suite (E1–E13, E16, E17). The output of
//! this binary is what EXPERIMENTS.md records.
fn main() {
    er_bench::experiments::run_all();
}
