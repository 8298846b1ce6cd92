//! The four workloads, their sizes, and what one run of any of them returns.

use std::collections::BTreeMap;

use dissent_core::{GeneratedGroup, GroupBuilder, RosterSpec};
use dissent_crypto::Group;

use crate::traffic::Mode;

/// Shuffle soundness and participation threshold shared by all workloads.
pub const SOUNDNESS: usize = 16;
pub const ALPHA: f64 = 0.75;
/// Pipeline window of `engine-bulk`.
pub const WINDOW: usize = 4;
/// The measured window is cut into this many equal-round-count segments;
/// rates are the median over them.
pub const SEGMENTS: u64 = 10;
/// Rounds run after the measured window with no new posts, so every post
/// in flight is revealed (and checked) before the run ends.
pub const DRAIN_ROUNDS: u64 = 8;
/// Churn rounds before the jam in one `engine-blame` episode.
pub const CHURN_ROUNDS: u64 = 40;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The `dissent-server` binary over loopback TCP.
    Socket,
    /// `PipelinedSession::run_batch` in-process.
    Pipelined,
    /// Lock-step `Session::run_round` episodes in-process.
    Episodes,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub clients: usize,
    pub servers: usize,
    pub group: &'static str,
    pub mode: Mode,
    pub post_len: usize,
    /// Per-round offline probability of a thinking client.
    pub churn: f64,
    /// Measured rounds (episodes for [`Path::Episodes`]) sized on the 2-core
    /// reference box for a 30 s window; scaled linearly by `--seconds / 30`.
    pub per_30s: u64,
    pub warmup_per_30s: u64,
    /// Cold set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Blame episodes of the in-process epilogue.
    pub epilogue_episodes: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sock-chat",
        why: "real dissent-server over loopback TCP, 8x3 on the 256-bit test group: crypto is cheap, so transport and node threading do most of the work",
        path: Path::Socket,
        clients: 8,
        servers: 3,
        group: "testing-256",
        mode: Mode::Chat,
        post_len: 100,
        churn: 0.0,
        per_30s: 36_000,
        warmup_per_30s: 1_000,
        setups: 15,
        epilogue_episodes: 30,
    },
    Spec {
        name: "sock-2048",
        why: "same socket path, differs only in the group (rfc3526-2048): certification, handshakes and the key shuffle dominate, transport is under 5%",
        path: Path::Socket,
        clients: 8,
        servers: 3,
        group: "rfc3526-2048",
        mode: Mode::Chat,
        post_len: 100,
        churn: 0.0,
        per_30s: 1_500,
        warmup_per_30s: 50,
        setups: 5,
        epilogue_episodes: 12,
    },
    Spec {
        name: "engine-bulk",
        why: "in-process PipelinedSession W=4, 64x4, every client posts 2 KiB every round: pad expansion and XOR combine do nearly all the work; also the memory workload",
        path: Path::Pipelined,
        clients: 64,
        servers: 4,
        group: "testing-256",
        mode: Mode::Bulk,
        post_len: 2048,
        churn: 0.0,
        per_30s: 1_200,
        warmup_per_30s: 40,
        setups: 15,
        epilogue_episodes: 30,
    },
    Spec {
        name: "engine-blame",
        why: "in-process lock-step episodes at 2048 bits: fresh key shuffle, 40 churn rounds, a disruptor jammed out by blame; pad layer by single-bit seeks, shuffle ~70% of an episode",
        path: Path::Episodes,
        clients: 8,
        servers: 3,
        group: "rfc3526-2048",
        mode: Mode::Chat,
        post_len: 100,
        churn: 0.125,
        per_30s: 12,
        warmup_per_30s: 1,
        setups: 12,
        epilogue_episodes: 0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Round counts of one run, fixed by `--seconds` so counts repeat exactly.
#[derive(Clone, Copy)]
pub struct Counts {
    pub warmup: u64,
    pub measured: u64,
    pub setups: usize,
    pub epilogue_episodes: usize,
}

impl Spec {
    /// Scale the 30 s sizes to `seconds`; `divisor` is 4 for the traced run.
    /// Short runs (`--smoke`, the traced run) keep every check but repeat
    /// set-ups and episodes less and skip the warm-up episode.
    pub fn counts(&self, seconds: f64, divisor: u64) -> Counts {
        let scale = seconds / 30.0 / divisor as f64;
        let small = seconds < 5.0 || divisor > 1;
        let whole = |base: u64, quantum: u64| {
            ((base as f64 * scale / quantum as f64).round() as u64).max(1) * quantum
        };
        let (measured, warmup) = match self.path {
            Path::Episodes => (
                whole(self.per_30s, 1),
                if small { 0 } else { self.warmup_per_30s },
            ),
            Path::Pipelined => (
                whole(self.per_30s, SEGMENTS * WINDOW as u64),
                whole(self.warmup_per_30s, WINDOW as u64).max(8),
            ),
            Path::Socket => (
                whole(self.per_30s, SEGMENTS),
                whole(self.warmup_per_30s, 1).max(8),
            ),
        };
        Counts {
            warmup,
            measured,
            setups: if small { 2 } else { self.setups },
            epilogue_episodes: if small {
                self.epilogue_episodes.min(2)
            } else {
                self.epilogue_episodes
            },
        }
    }

    pub fn algebraic_group(&self) -> Group {
        match self.group {
            "rfc3526-2048" => Group::rfc3526_2048(),
            _ => Group::testing_256(),
        }
    }

    /// The roster the socket workloads hand to `dissent-server`; `--seed`
    /// is written into it, so the program sees only generated inputs.
    pub fn roster(&self, seed: u64) -> RosterSpec {
        RosterSpec {
            clients: self.clients,
            servers: self.servers,
            seed,
            group: self.group.into(),
            alpha: ALPHA,
            soundness: SOUNDNESS,
        }
    }

    /// The group an in-process workload runs, with exactly the parameters
    /// [`RosterSpec::generate`] would use.
    pub fn generate(&self, seed: u64) -> GeneratedGroup {
        GroupBuilder::new(self.clients, self.servers)
            .with_group(self.algebraic_group())
            .with_alpha(ALPHA)
            .with_shuffle_soundness(SOUNDNESS)
            .with_seed(seed)
            .build()
    }
}

/// Everything one run reports: metric values by name, operation counts,
/// oracle violations, and free-form notes (sample counts and the like).
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}
