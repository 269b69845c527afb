//! # icfl-experiments — regeneration harness for every table and figure
//!
//! One library entry point and one registry row per evaluation artifact
//! of the DSN'24 paper (see the per-experiment index in `DESIGN.md`),
//! all run by the one binary `cargo run --release -p icfl-experiments
//! --bin icfl-exp -- <experiment> [flags]`:
//!
//! | Paper artifact | Function | Command |
//! |---|---|---|
//! | Table I (accuracy/informativeness, 1×/4×) | [`table1`] | `icfl-exp table1` |
//! | Table II (raw vs derived × msg/cpu/all) | [`table2`] | `icfl-exp table2` |
//! | Fig. 1 + §VI-B (metric-dependent causal worlds) | [`fig1`] | `icfl-exp fig1` |
//! | Fig. 2 (load confounder boxplots) | [`fig2`] | `icfl-exp fig2` |
//! | Fig. 4 (CausalBench topology + flows) | [`fig4`] | `icfl-exp fig4` |
//! | Baseline comparison (\[23\], \[24\], pooled, observational) | [`comparison`] | `icfl-exp baselines` |
//! | Ablations (detector, α, guard, match rule, windows, fault types, latent autoscaler) | [`ablations`] | `icfl-exp ablations` |
//! | All of the above in sequence | — | `icfl-exp all` |
//! | Scalability sweep (chain/star/layered topologies up to 64 services; `--fleet`, `--fleet-smoke`) | [`scalability`] | `icfl-exp scalability` |
//! | Confusability analysis (§III-B identifiability, validated against 4× misses) | [`confusability`] | `icfl-exp confusability` |
//! | Production platform (Fig. 3): streaming detection + live localization (`--ad`) | [`production`] | `icfl-exp production` |
//! | Robustness under degraded telemetry (drops/jitter/dups/resets) | [`robustness`] | `icfl-exp robustness` |
//! | Ingest server load sweep (`--smoke`, `--emit-trace DIR`) | [`serverbench`] | `icfl-exp serverbench` |
//! | Gray failures + overload cascades at instance granularity (`--smoke`) | [`grayfail`] | `icfl-exp grayfail` |
//! | Chaos recovery (kills + proxy faults, byte-equal incidents; `--smoke`, `--kills N`) | [`chaosbench`] | `icfl-exp chaosbench` |
//! | Incident forensics (evidence-chain coverage + byte-determinism; `--smoke`) | [`forensics`] | `icfl-exp forensics` |
//! | Pipeline self-profile (spans, journal, Chrome trace) | [`write_profile_artifacts`] | `icfl-exp profile` |
//!
//! The registry is [`EXPERIMENTS`]; [`run_cli`] is the runner behind the
//! binary. Every experiment accepts `--quick` (default: 2-minute phases)
//! or `--paper` (the paper's 10-minute phases), `--seed N`, `--threads N`
//! (worker threads for the parallel executor; default auto), `--json`,
//! `--profile DIR` (dump the `icfl-obs` span/metrics artifacts — see
//! [`write_profile_artifacts`]), and the log-level flags `--quiet`/`-q`,
//! `-v`, `-vv` (also settable via `ICFL_LOG`); a bad flag exits 2 with
//! that experiment's usage line. The runner logs each run's wall-clock
//! time and appends it, plus a per-phase breakdown sourced from the
//! spans, to `results/timings.csv` (see [`report_timing`]), and exits 1
//! when the experiment or one of its pass/fail gates failed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod chaosbench;
mod comparison;
mod confusability;
mod error;
mod figures;
mod forensics;
mod grayfail;
mod mode;
mod production;
mod profiling;
mod render;
mod robustness;
mod runner;
mod scalability;
mod serverbench;
mod tables;
mod timing;

pub use ablations::{ablations, AblationRow, Ablations};
pub use chaosbench::{chaosbench, ChaosTenantRow, Chaosbench, ChaosbenchOptions};
pub use comparison::{comparison, Comparison, ComparisonRow};
pub use confusability::{confusability, Confusability, ConfusablePair};
pub use error::ExperimentError;
pub use figures::{fig1, fig2, fig4, CausalSetReport, Fig1, Fig2, Fig2Row, Fig4, FlowTrace};
pub use forensics::{forensics, ForensicsReport, ForensicsRow};
pub use grayfail::{
    cascade_measure, gray_fault, gray_measure, grayfail, grayfail_smoke, GrayFail, GrayFailRow,
};
pub use mode::{CliOptions, LocalFlags, Mode};
pub use production::{production, ProductionAppReport, ProductionOptions, ProductionReport};
pub use profiling::{
    micro_spans_to_trace, profile_report, render_profile_text, write_profile_artifacts,
    ProfileReport, StatRow,
};
pub use render::TextTable;
pub use robustness::{
    robustness, RobustnessAppReport, RobustnessCell, RobustnessReport, DROP_RATES, RESET_PROB,
};
pub use runner::{find, run_cli, Experiment, Outcome, EXPERIMENTS};
pub use scalability::{
    scalability, scalability_fleet, scalability_fleet_smoke, Scalability, ScalabilityRow,
};
pub use serverbench::{
    serverbench, Serverbench, ServerbenchOptions, ServerbenchRow, SERVERBENCH_SCALES,
    STREAMS_PER_SCALE,
};
pub use tables::{table1, table2, Table1, Table1Row, Table2, Table2Row};
pub use timing::{
    record_metric_row, record_phase_timings, record_timing, report_timing, results_dir, run_timed,
    timings_path, Timed, PIPELINE_PHASES,
};
