//! Experiment modes and the command-line parser of `icfl-exp`.

use icfl_core::RunConfig;
use icfl_online::OnlineConfig;
use serde::{Deserialize, Serialize};

/// How faithfully to reproduce the paper's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Mode {
    /// 2-minute phases with 10 s/5 s windows — minutes of wall-clock,
    /// same statistical power per phase (23 windows vs the paper's 19).
    #[default]
    Quick,
    /// The paper's protocol: 10-minute phases, 60 s/30 s hopping windows.
    Paper,
}

impl Mode {
    /// Training-run configuration at 1× load.
    pub fn train_cfg(self, seed: u64) -> RunConfig {
        match self {
            Mode::Quick => RunConfig::quick(seed),
            Mode::Paper => RunConfig::paper(seed),
        }
    }

    /// Evaluation-run configuration (same timing, fresh seed stream).
    pub fn eval_cfg(self, seed: u64) -> RunConfig {
        // Evaluation seeds are decorrelated from training by construction
        // in EvalSuite; salting here keeps even the first case distinct.
        self.train_cfg(icfl_scenario::seeds::eval_phase(seed))
    }

    /// Online-session tuning (window geometry, warm-up, detector).
    pub fn online_cfg(self) -> OnlineConfig {
        match self {
            Mode::Quick => OnlineConfig::quick(),
            Mode::Paper => OnlineConfig::paper(),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Quick => write!(f, "quick"),
            Mode::Paper => write!(f, "paper"),
        }
    }
}

/// The flags one experiment takes beyond the common set.
#[derive(Debug, Clone, Copy)]
pub struct LocalFlags {
    /// Tier flags (`--smoke`, `--fleet`, `--fleet-smoke`), each with the
    /// name its runs carry in `timings.csv` and `--profile` file names.
    pub tiers: &'static [(&'static str, &'static str)],
    /// Other flags as the usage line shows them: `--ad`, `--kills N`,
    /// `--emit-trace DIR`.
    pub flags: &'static [&'static str],
}

impl LocalFlags {
    /// No local flags.
    pub const NONE: LocalFlags = LocalFlags {
        tiers: &[],
        flags: &[],
    };

    fn takes(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f.split(' ').next() == Some(flag))
    }

    /// The flag list of a usage line: the common set, then the local ones.
    pub fn usage(&self) -> String {
        let mut usage = String::from(
            "[--quick|--paper] [--seed N] [--threads N] [--json] [--profile DIR] \
             [--quiet|-q] [-v] [-vv]",
        );
        let tiers = self.tiers.iter().map(|(flag, _)| *flag);
        for flag in tiers.chain(self.flags.iter().copied()) {
            usage.push_str(&format!(" [{flag}]"));
        }
        usage
    }
}

/// Options parsed from an experiment's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Timing mode.
    pub mode: Mode,
    /// Root seed.
    pub seed: u64,
    /// Also emit the structured result as JSON on stdout.
    pub json: bool,
    /// Worker threads for the parallel campaign/evaluation executor
    /// (`0` = auto; see [`RunConfig::resolved_threads`]).
    pub threads: usize,
    /// Directory to render profiling artifacts into (`--profile <dir>`):
    /// the per-phase breakdown, Chrome trace, metrics snapshot, and run
    /// manifests.
    pub profile: Option<std::path::PathBuf>,
    /// Log-level override from `--quiet`/`-v`/`-vv` (`None` leaves the
    /// `ICFL_LOG` environment default in effect).
    pub log: Option<icfl_obs::Level>,
    /// The recorded name of the tier a local tier flag selected (`None`
    /// = the base tier, recorded under the experiment's own name).
    pub tier: Option<&'static str>,
    /// `production --ad`: Anderson–Darling instead of KS live detection.
    pub ad: bool,
    /// `chaosbench --kills N`: scheduled server kills (at least one).
    pub kills: Option<usize>,
    /// `serverbench --emit-trace DIR`: also save the recorded traces.
    pub emit_trace: Option<std::path::PathBuf>,
}

impl CliOptions {
    /// The defaults every flag set starts from: quick mode, seed 42.
    pub fn defaults() -> CliOptions {
        CliOptions {
            mode: Mode::Quick,
            seed: 42,
            json: false,
            threads: 0,
            profile: None,
            log: None,
            tier: None,
            ad: false,
            kills: None,
            emit_trace: None,
        }
    }

    /// Parses `--paper` / `--quick`, `--seed N`, `--threads N`, `--json`,
    /// `--profile DIR`, the log-level flags (`--quiet`/`-q`, `-v`,
    /// `-vv`) and the experiment's `local` flags from raw arguments
    /// (binary and experiment name excluded).
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the first unknown flag or missing or
    /// malformed value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        local: &LocalFlags,
    ) -> Result<CliOptions, String> {
        let mut opts = CliOptions::defaults();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper" => opts.mode = Mode::Paper,
                "--quick" => opts.mode = Mode::Quick,
                "--json" => opts.json = true,
                "--quiet" | "-q" => opts.log = Some(icfl_obs::Level::Error),
                "-v" => opts.log = Some(icfl_obs::Level::Debug),
                "-vv" => opts.log = Some(icfl_obs::Level::Trace),
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    opts.threads = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
                }
                "--profile" => {
                    let v = it.next().ok_or("--profile needs a directory")?;
                    opts.profile = Some(std::path::PathBuf::from(v));
                }
                "--ad" if local.takes("--ad") => opts.ad = true,
                "--kills" if local.takes("--kills") => {
                    let v = it.next().ok_or("--kills needs a count")?;
                    let kills = v.parse().ok().filter(|&k: &usize| k > 0);
                    opts.kills = Some(kills.ok_or_else(|| format!("bad kill count: {v}"))?);
                }
                "--emit-trace" if local.takes("--emit-trace") => {
                    let v = it.next().filter(|v| !v.starts_with('-'));
                    opts.emit_trace = Some(v.ok_or("--emit-trace needs a directory")?.into());
                }
                other => match local.tiers.iter().find(|(flag, _)| *flag == other) {
                    Some((_, name)) => opts.tier = Some(name),
                    None => return Err(format!("unknown argument {other}")),
                },
            }
        }
        Ok(opts)
    }

    /// The worker count the executor will actually use for a large fan-out
    /// (explicit `--threads`, else `ICFL_THREADS`, else the machine's
    /// available parallelism).
    pub fn resolved_threads(&self) -> usize {
        RunConfig::quick(self.seed)
            .with_threads(self.threads)
            .resolved_threads(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every local flag any experiment takes.
    const ALL_LOCAL: LocalFlags = LocalFlags {
        tiers: &[("--smoke", "unit-smoke")],
        flags: &["--ad", "--kills N", "--emit-trace DIR"],
    };

    fn parse_with(args: &[&str], local: &LocalFlags) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()), local)
    }

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_with(args, &LocalFlags::NONE)
    }

    #[test]
    fn defaults_are_quick_42() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.mode, Mode::Quick);
        assert_eq!(o.seed, 42);
        assert!(!o.json);
        assert_eq!(o.threads, 0);
        assert_eq!(o.profile, None);
        assert_eq!(o.log, None);
    }

    #[test]
    fn flags_parse() {
        let o = parse(&["--paper", "--seed", "7", "--threads", "4", "--json"]).unwrap();
        assert_eq!(o.mode, Mode::Paper);
        assert_eq!(o.seed, 7);
        assert!(o.json);
        assert_eq!(o.threads, 4);
        let o = parse_with(
            &["--smoke", "--ad", "--kills", "3", "--emit-trace", "out"],
            &ALL_LOCAL,
        )
        .unwrap();
        assert_eq!(o.tier, Some("unit-smoke"));
        assert!(o.ad);
        assert_eq!(o.kills, Some(3));
        assert_eq!(o.emit_trace.as_deref(), Some(std::path::Path::new("out")));
        assert!(ALL_LOCAL
            .usage()
            .ends_with("[-vv] [--smoke] [--ad] [--kills N] [--emit-trace DIR]"));
        assert!(LocalFlags::NONE.usage().ends_with("[-vv]"));
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(&["--profile", "out/prof", "-v"]).unwrap();
        assert_eq!(o.profile.as_deref(), Some(std::path::Path::new("out/prof")));
        assert_eq!(o.log, Some(icfl_obs::Level::Debug));
        assert_eq!(
            parse(&["--quiet"]).unwrap().log,
            Some(icfl_obs::Level::Error)
        );
        assert_eq!(parse(&["-q"]).unwrap().log, Some(icfl_obs::Level::Error));
        assert_eq!(parse(&["-vv"]).unwrap().log, Some(icfl_obs::Level::Trace));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--what"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--profile"]).is_err());
        // Local flags exist only for the experiments that list them...
        for flag in ["--smoke", "--fleet", "--ad", "--kills", "--emit-trace"] {
            assert!(parse(&[flag, "1"]).is_err(), "{flag}");
        }
        // ...and their values are checked, not defaulted.
        for bad in [
            &["--kills"][..],
            &["--kills", "abc"],
            &["--kills", "0"],
            &["--emit-trace"],
            &["--emit-trace", "--smoke"],
            &["--fleet"],
        ] {
            assert!(parse_with(bad, &ALL_LOCAL).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn explicit_threads_resolve_verbatim() {
        let o = parse(&["--threads", "3"]).unwrap();
        assert_eq!(o.resolved_threads(), 3);
    }

    #[test]
    fn mode_configs_differ() {
        let q = Mode::Quick.train_cfg(1);
        let p = Mode::Paper.train_cfg(1);
        assert!(p.campaign.baseline > q.campaign.baseline);
        assert_eq!(Mode::Quick.to_string(), "quick");
        assert_eq!(Mode::Paper.to_string(), "paper");
    }

    #[test]
    fn eval_cfg_uses_decorrelated_seed() {
        let t = Mode::Quick.train_cfg(1);
        let e = Mode::Quick.eval_cfg(1);
        assert_ne!(t.seed, e.seed);
    }
}
