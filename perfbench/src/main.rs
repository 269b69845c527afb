//! `icfl-bench`: one benchmark for the repository's two hot paths.
//!
//! ```text
//! icfl-bench --workload NAME --seed N --seconds S --trace 0|1
//! icfl-bench [--seed N] [--seconds S] [--runs R] [--traced] [--smoke] [--out FILE]
//! icfl-bench compare A.json B.json
//! icfl-bench manifest
//! ```
//!
//! The first form runs one workload and ends with one JSON result line;
//! the second runs every workload, each in a child process of its own;
//! the third compares two files the second form wrote; the fourth prints
//! `BENCHMARK.json`. See `README.md` next to this package for what is
//! measured and why.

mod campaign;
mod client;
mod ingest;
mod layers;
mod metrics;
mod prep;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

/// Gives every thread of this process a malloc arena of its own.
///
/// glibc creates at most 8 arenas per core (16 on the reference box), and
/// the server's 16 HTTP threads, its accept thread and the client take them
/// all, so every tenant worker is handed an arena some other thread already
/// uses. Now and then (7 runs of 210) that is the HTTP thread serving the
/// very connection that feeds the worker; the two then contend on the arena
/// lock at every allocation (17.7k against 0.7k voluntary context switches a
/// second in the worker), and the whole run reads 155k scrapes/s and 0.24 ms
/// a POST where the others read 265k and 0.08. `MALLOC_ARENA_MAX=1` shows
/// the slow reading on every run. Two such runs among ten are a spread of
/// 49%, so the coin is taken out of the benchmark; the finding is in the
/// README.
#[cfg(target_env = "gnu")]
fn one_malloc_arena_per_thread() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// `M_ARENA_MAX` of glibc's `malloc.h`.
    const M_ARENA_MAX: c_int = -8;
    /// More than the threads of any workload: `ingest_probe` keeps one
    /// worker per tenant it has opened.
    const ARENAS: c_int = 4096;
    // SAFETY: `mallopt` takes two integers and stores the second in
    // malloc's own parameter block under malloc's lock; this is the first
    // thing `main` does, before any other thread exists.
    if unsafe { mallopt(M_ARENA_MAX, ARENAS) } == 0 {
        eprintln!("icfl-bench: mallopt(M_ARENA_MAX) was refused: some runs will read 40% slow");
    }
}

#[cfg(not(target_env = "gnu"))]
fn one_malloc_arena_per_thread() {}

fn main() -> ExitCode {
    one_malloc_arena_per_thread();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match suite::cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("icfl-bench: {e}");
            ExitCode::from(2)
        }
    }
}
