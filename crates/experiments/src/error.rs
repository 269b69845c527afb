//! The one error type every experiment returns.

use std::fmt;

/// Errors surfaced by an experiment (training, sessions, the ingest
/// server, result files) or by one of its own invariants.
#[derive(Debug)]
pub enum ExperimentError {
    /// Offline training or evaluation failed.
    Core(icfl_core::CoreError),
    /// An online session, trace recording or feed replay failed.
    Online(icfl_online::OnlineError),
    /// Model persistence or reload failed.
    Registry(icfl_online::RegistryError),
    /// Server start/stop, trace emission or a result file failed.
    Io(std::io::Error),
    /// The load generator hit a protocol failure.
    Loadgen(icfl_server::LoadgenError),
    /// A report did not serialize.
    Json(serde_json::Error),
    /// An invariant the experiment asserts did not hold (a lost scrape,
    /// an undetected incident, a divergent byte).
    Invariant(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Core(e) => write!(f, "offline pipeline failed: {e}"),
            ExperimentError::Online(e) => write!(f, "online session failed: {e}"),
            ExperimentError::Registry(e) => write!(f, "model registry failed: {e}"),
            ExperimentError::Io(e) => write!(f, "I/O failed: {e}"),
            ExperimentError::Loadgen(e) => write!(f, "load generation failed: {e}"),
            ExperimentError::Json(e) => write!(f, "report serialization failed: {e}"),
            ExperimentError::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

macro_rules! from {
    ($($variant:ident($source:ty)),* $(,)?) => {$(
        impl From<$source> for ExperimentError {
            fn from(e: $source) -> Self {
                ExperimentError::$variant(e)
            }
        }
    )*};
}
from!(
    Core(icfl_core::CoreError),
    Online(icfl_online::OnlineError),
    Registry(icfl_online::RegistryError),
    Io(std::io::Error),
    Loadgen(icfl_server::LoadgenError),
    Json(serde_json::Error),
);

/// Result alias of the experiments that can fail outside `icfl-core`.
pub type Result<T> = std::result::Result<T, ExperimentError>;
