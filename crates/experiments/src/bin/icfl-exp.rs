//! `icfl-exp <experiment> [flags]` — regenerates any table, figure or
//! gate of the reproduction; see [`icfl_experiments::EXPERIMENTS`].

fn main() {
    std::process::exit(icfl_experiments::run_cli(std::env::args().skip(1)));
}
