//! In-process drivers of the round engine.
//!
//! The untraced run calls `Session::run_round` / `PipelinedSession::run_batch`
//! directly.  The traced run drives the very same public phase functions,
//! in the same order, with a span around each call; the output oracle
//! proves the two are the same program by comparing per-round cleartext
//! digests for the same seed.

use std::time::Instant;

use dissent_core::round::{PerEntityRng, RngSource, RoundState, SharedRng};
use dissent_core::{
    ClientAction, MessageOrigin, PipelinedSession, ProtocolMessage, RoundResult, Session,
};
use dissent_crypto::sha256::sha256;
use dissent_dcnet::{RoundLayout, SlotSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Tracer;
use crate::stats::{
    cpu_ticks, median, peak_rss_mib, segment_median_rate, segment_rates, tail_percentile,
};
use crate::traffic::Traffic;
use crate::workload::{Counts, Outcome, Spec, CHURN_ROUNDS, DRAIN_ROUNDS, SEGMENTS, WINDOW};

/// An RNG derived from the run seed and a purpose tag.
pub fn seeded_rng(seed: u64, tag: &[u8]) -> StdRng {
    StdRng::from_seed(dissent_crypto::sha256::sha256_tagged(&[
        b"dissent-benchmark",
        tag,
        &seed.to_be_bytes(),
    ]))
}

/// Milliseconds of CPU per clock tick (`getconf CLK_TCK`, 100 on Linux).
pub fn ms_per_tick() -> f64 {
    let hz = std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|hz| *hz > 0.0)
        .unwrap_or(100.0);
    1000.0 / hz
}

/// What the round oracle has seen: every round must certify, carry the
/// expected round number, and expel nobody but the current disruptor.
#[derive(Default)]
pub struct RoundLog {
    pub rounds: u64,
    pub round_ms: Vec<f64>,
    /// SHA-256 of each round's cleartext (kept only in the traced run,
    /// where the traced and untraced passes are compared).
    pub digests: Option<Vec<[u8; 32]>>,
    pub failures: Vec<String>,
}

impl RoundLog {
    pub fn with_digests(keep: bool) -> RoundLog {
        RoundLog {
            digests: keep.then(Vec::new),
            ..RoundLog::default()
        }
    }

    /// Check one finalized round; `jammer` is the client that may be
    /// expelled by it.
    pub fn check(&mut self, expected_round: u64, result: &RoundResult, jammer: Option<usize>) {
        self.rounds += 1;
        if result.round != expected_round {
            self.failures.push(format!(
                "round {expected_round}: engine returned round {}",
                result.round
            ));
        }
        if !result.certified {
            self.failures
                .push(format!("round {expected_round}: not certified"));
        }
        for &c in &result.expelled {
            if Some(c as usize) != jammer {
                self.failures.push(format!(
                    "round {expected_round}: honest client {c} was expelled"
                ));
            }
        }
        if let Some(digests) = &mut self.digests {
            digests.push(sha256(&result.cleartext));
        }
    }
}

/// Extra work of the traced run, done *outside* the round span so it never
/// counts as round time: wire encoding of every protocol message, and a
/// client-side replica applying each cleartext.
pub struct Probe {
    pub tracer: Tracer,
    /// A second session standing in for a client node: applies every
    /// cleartext through the lock-step client API (lock-step drivers only).
    pub replica: Option<Session>,
    /// A replica of the shared slot schedule, fed every round output.
    pub schedule: Option<SlotSchedule>,
    pub wire_bytes: u64,
    pub wire_rounds: u64,
}

impl Probe {
    pub fn new(on: bool) -> Probe {
        Probe {
            tracer: Tracer::new(on),
            replica: None,
            schedule: None,
            wire_bytes: 0,
            wire_rounds: 0,
        }
    }

    /// Start a replica of `session`'s (still fresh) slot schedule.
    pub fn follow_schedule(&mut self, session: &Session) {
        let config = session.config();
        self.schedule = Some(SlotSchedule::new(
            config.num_clients(),
            config.slot_config.clone(),
        ));
    }

    /// `layout` is the layout the round ran under (frozen at the batch
    /// boundary when pipelined).
    fn after_round(
        &mut self,
        session: &Session,
        messages: Vec<ProtocolMessage>,
        layout: &RoundLayout,
        result: &RoundResult,
    ) {
        let round = result.round;
        if self.tracer.enabled() {
            let group = &session.config().group;
            let encoded: Vec<Vec<u8>> = self.tracer.time("messages.encode", round, || {
                messages.iter().map(|m| m.to_bytes(group)).collect()
            });
            self.wire_bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
            self.wire_rounds += 1;
            let decoded = self.tracer.time("messages.decode", round, || {
                encoded
                    .iter()
                    .filter(|e| ProtocolMessage::from_bytes(e, group).is_ok())
                    .count()
            });
            assert_eq!(decoded, encoded.len(), "a protocol message did not decode");
        }
        if let Some(schedule) = &mut self.schedule {
            self.tracer.time("dcnet.apply_round_output", round, || {
                schedule.apply_round_output(layout, &result.cleartext)
            });
        }
        if let Some(replica) = &mut self.replica {
            let applied = self.tracer.time("session.apply_cleartext", round, || {
                replica.apply_certified_cleartext(round, &result.cleartext)
            });
            assert!(applied.is_ok(), "replica rejected a certified cleartext");
        }
    }
}

/// The commit → reveal → certify steps of one round, exactly as
/// `run_round` / `run_batch` perform them, each under its own span.
fn server_phases<S: RngSource>(
    session: &Session,
    state: &mut RoundState,
    rngs: &mut S,
    probe: &mut Probe,
    messages: &mut Vec<ProtocolMessage>,
) {
    let round = state.round();
    let keep = probe.tracer.enabled();
    let tr = &mut probe.tracer;

    let span = tr.open("round.commit_phase", round);
    let commits = session.server_commit_phase(state);
    if keep {
        messages.extend(commits.iter().cloned().map(ProtocolMessage::ServerCommit));
    }
    session.deliver_commits(state, commits, MessageOrigin::Local);
    tr.close(span);

    let span = tr.open("round.reveal_phase", round);
    let reveal_start = Instant::now();
    let reveals = Session::server_reveal_phase(state);
    if keep {
        messages.extend(reveals.iter().cloned().map(ProtocolMessage::ServerReveal));
    }
    session.deliver_reveals(state, reveals, MessageOrigin::Local);
    session
        .metrics()
        .phase_reveal
        .observe_duration(reveal_start.elapsed());
    tr.close(span);

    let span = tr.open("round.certify_phase", round);
    let certs = session.certify_phase(state, rngs);
    if keep {
        messages.extend(certs.iter().cloned().map(ProtocolMessage::Certify));
    }
    session.deliver_certificates(state, certs, MessageOrigin::Local);
    tr.close(span);
}

fn client_phases<S: RngSource>(
    session: &mut Session,
    state: &mut RoundState,
    actions: &[ClientAction],
    rngs: &mut S,
    probe: &mut Probe,
    messages: &mut Vec<ProtocolMessage>,
) {
    let round = state.round();
    let keep = probe.tracer.enabled();
    let tr = &mut probe.tracer;
    let submits = tr.time("round.client_phase", round, || {
        session.client_phase(state, actions, rngs)
    });
    if keep {
        messages.extend(submits.iter().cloned().map(ProtocolMessage::ClientSubmit));
    }
    tr.time("round.deliver_submissions", round, || {
        session.deliver_submissions(state, submits, MessageOrigin::Local)
    });
}

/// `Session::run_round`, phase by phase; also returns the round's wall
/// time in ms (the traced run's extra work comes after it).
pub fn phased_round(
    session: &mut Session,
    actions: &[ClientAction],
    rng: &mut StdRng,
    probe: &mut Probe,
) -> (RoundResult, f64) {
    let round = session.next_round();
    let mut messages = Vec::new();
    let start = Instant::now();
    let span = probe.tracer.open("round", round);
    let mut rngs = SharedRng(rng);
    let mut state = session.begin_round();
    let layout = state.layout.clone();
    client_phases(
        session,
        &mut state,
        actions,
        &mut rngs,
        probe,
        &mut messages,
    );
    server_phases(session, &mut state, &mut rngs, probe, &mut messages);
    let result = probe.tracer.time("round.finalize", round, || {
        session.finalize_round(state, &mut rngs)
    });
    probe.tracer.close(span);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    probe.after_round(session, messages, &layout, &result);
    (result, ms)
}

/// `PipelinedSession::run_batch`, phase by phase: layouts frozen at the
/// boundary, all client phases, then the server phases per round, then the
/// finalizes in round order.  Also returns the batch's wall time in ms.
pub fn phased_batch(
    session: &mut Session,
    actions_per_round: &[Vec<ClientAction>],
    rngs: &mut PerEntityRng,
    probe: &mut Probe,
) -> (Vec<RoundResult>, f64) {
    let start = Instant::now();
    let base = session.begin_round().layout;
    let span = probe.tracer.open("pipeline.batch", base.round);
    let mut states: Vec<RoundState> = (0..actions_per_round.len())
        .map(|k| {
            let mut layout = base.clone();
            layout.round = base.round + k as u64;
            RoundState::new(layout)
        })
        .collect();
    let mut messages: Vec<Vec<ProtocolMessage>> = vec![Vec::new(); states.len()];
    for ((state, actions), msgs) in states.iter_mut().zip(actions_per_round).zip(&mut messages) {
        client_phases(session, state, actions, rngs, probe, msgs);
    }
    session.metrics().rounds_in_flight.set(states.len() as i64);
    for (state, msgs) in states.iter_mut().zip(&mut messages) {
        server_phases(session, state, rngs, probe, msgs);
    }
    let layouts: Vec<RoundLayout> = states.iter().map(|s| s.layout.clone()).collect();
    let results: Vec<RoundResult> = states
        .into_iter()
        .map(|state| {
            let round = state.round();
            probe.tracer.time("round.finalize", round, || {
                session.finalize_round(state, rngs)
            })
        })
        .collect();
    session.metrics().pipeline_batches.inc();
    session.metrics().rounds_in_flight.set(0);
    probe.tracer.close(span);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    for ((msgs, layout), result) in messages.into_iter().zip(&layouts).zip(&results) {
        probe.after_round(session, msgs, layout, result);
    }
    (results, ms)
}

/// How a lock-step round is run: directly, or phase by phase under spans.
pub enum Stepper {
    Direct,
    Phased(Box<Probe>),
}

impl Stepper {
    /// Run one round; returns its result and wall time in ms.
    pub fn run(
        &mut self,
        session: &mut Session,
        actions: &[ClientAction],
        rng: &mut StdRng,
    ) -> (RoundResult, f64) {
        match self {
            Stepper::Direct => {
                let start = Instant::now();
                let result = session.run_round(actions, rng);
                (result, start.elapsed().as_secs_f64() * 1e3)
            }
            Stepper::Phased(probe) => phased_round(session, actions, rng, probe),
        }
    }

    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            Stepper::Direct => None,
            Stepper::Phased(probe) => Some(&mut probe.tracer),
        }
    }
}

/// One lock-step round of generated traffic, checked; returns the verified
/// post bytes it delivered and the engine's result.
pub fn step(
    session: &mut Session,
    traffic: &mut Traffic,
    rng: &mut StdRng,
    log: &mut RoundLog,
    stepper: &mut Stepper,
    jammer: Option<usize>,
) -> (u64, RoundResult) {
    let round = session.next_round();
    let actions = traffic.actions(round, Instant::now());
    let (result, ms) = stepper.run(session, &actions, rng);
    let done = Instant::now();
    log.round_ms.push(ms);
    log.check(round, &result, jammer);
    let bytes = traffic.observe(round, &result.messages, done);
    (bytes, result)
}

/// Rounds a victim and a disruptor-to-be spend settling before the jam.
const SETTLE_ROUNDS: u64 = 3;
/// Rounds after the expulsion in which the victim's posts must get through.
const RECOVERY_ROUNDS: u64 = 2;
/// A jam must end in an expulsion within this many rounds.
const MAX_JAM_ROUNDS: u64 = 6;

/// One blame episode: settle, jam until the disruptor is expelled, recover.
/// Returns the wall time from the first jammed round through the round
/// whose `expelled` names the disruptor, and the post bytes delivered.
pub fn episode(
    session: &mut Session,
    traffic: &mut Traffic,
    rng: &mut StdRng,
    log: &mut RoundLog,
    stepper: &mut Stepper,
) -> Result<(f64, u64), String> {
    let (victim, disruptor) = traffic
        .pick_pair()
        .ok_or("fewer than two clients left to pick from")?;
    let mut bytes = 0;
    for _ in 0..SETTLE_ROUNDS {
        bytes += step(session, traffic, rng, log, stepper, None).0;
    }
    traffic.start_jam(disruptor);
    let jam_start = Instant::now();
    let mut expelled = false;
    for _ in 0..MAX_JAM_ROUNDS {
        let (b, result) = step(session, traffic, rng, log, stepper, Some(disruptor));
        bytes += b;
        if result.expelled.contains(&(disruptor as u32)) {
            expelled = true;
            break;
        }
    }
    let blame_ms = jam_start.elapsed().as_secs_f64() * 1e3;
    traffic.end_jam(victim, disruptor);
    if !expelled || !session.expelled().contains(&(disruptor as u32)) {
        return Err(format!(
            "disruptor {disruptor} was not expelled within {MAX_JAM_ROUNDS} rounds"
        ));
    }
    for _ in 0..RECOVERY_ROUNDS {
        bytes += step(session, traffic, rng, log, stepper, None).0;
    }
    Ok((blame_ms, bytes))
}

/// Build a fresh group and session for `spec`, as one cold set-up.
pub fn fresh_session(
    spec: &Spec,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    let generated = spec.generate(seed);
    let mut rng = seeded_rng(seed, b"session");
    let span = tracer.as_deref_mut().map(|tr| tr.open("session.new", 0));
    let session = Session::new(&generated, &mut rng).map_err(|e| e.to_string());
    if let (Some(tr), Some(span)) = (tracer, span) {
        tr.close(span);
    }
    session
}

pub fn slots_of(session: &Session, clients: usize) -> Vec<usize> {
    (0..clients).map(|c| session.slot_of_client(c)).collect()
}

/// The blame epilogue of the socket and bulk workloads: the same episode
/// code on fresh in-process sessions of the workload's parameters, warmed
/// with six rounds of its traffic.  (The socket path rejects accusation
/// frames today; when blame goes on the wire this definition moves there.)
pub fn blame_epilogue(
    spec: &Spec,
    seed: u64,
    episodes: usize,
    stepper: &mut Stepper,
    out: &mut Outcome,
) -> Vec<f64> {
    const WARM_ROUNDS: u64 = 6;
    let per_session = spec.clients.saturating_sub(2).max(1);
    let mut blame_ms = Vec::new();
    let mut log = RoundLog::default();
    let mut batch = 0u64;
    while blame_ms.len() < episodes {
        let session_seed = seed.wrapping_mul(1_000_003).wrapping_add(7_000 + batch);
        batch += 1;
        let mut session = match fresh_session(spec, session_seed, stepper.tracer()) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("epilogue set-up failed: {e}"));
                break;
            }
        };
        if let Stepper::Phased(probe) = stepper {
            probe.follow_schedule(&session);
        }
        let mut rng = seeded_rng(session_seed, b"epilogue-rounds");
        let mut traffic = Traffic::new(
            spec.mode,
            spec.post_len,
            0.0,
            session_seed,
            slots_of(&session, spec.clients),
        );
        for _ in 0..WARM_ROUNDS {
            step(
                &mut session,
                &mut traffic,
                &mut rng,
                &mut log,
                stepper,
                None,
            );
        }
        for _ in 0..per_session.min(episodes - blame_ms.len()) {
            out.attempted += 1;
            match episode(&mut session, &mut traffic, &mut rng, &mut log, stepper) {
                Ok((ms, _)) => blame_ms.push(ms),
                Err(e) => {
                    out.fail(format!("epilogue episode: {e}"));
                    return blame_ms;
                }
            }
        }
        out.failures.append(&mut traffic.tally.failures);
    }
    out.attempted += log.rounds;
    out.failures.append(&mut log.failures);
    blame_ms
}

/// Digests of the reference (untraced) pass and the traced pass must agree
/// round for round.
pub fn compare_digests(reference: &RoundLog, traced: &RoundLog, out: &mut Outcome) {
    let (Some(a), Some(b)) = (&reference.digests, &traced.digests) else {
        return;
    };
    out.attempted += 1;
    if a.len() != b.len() {
        out.fail(format!(
            "traced pass ran {} rounds, untraced {}",
            b.len(),
            a.len()
        ));
    } else if let Some(r) = (0..a.len()).find(|&r| a[r] != b[r]) {
        out.fail(format!(
            "cleartext digest of round {r} differs between traced and untraced pass"
        ));
    }
}

/// What one measured pass of any workload yields for the end-to-end
/// metrics.  `blame_ms` is filled by `engine-blame` itself and by
/// [`blame_epilogue`] for the other workloads.
pub struct Pass {
    pub log: RoundLog,
    pub setup_s: Vec<f64>,
    pub post_ms: Vec<f64>,
    pub blame_ms: Vec<f64>,
    pub rounds_per_s: f64,
    pub goodput_kib_per_s: f64,
    pub cpu_ms_per_round: f64,
    pub peak_rss_mib: f64,
    pub window_s: f64,
}

/// Print the per-segment round rates, so a reader can tell a burst (one
/// slow segment) from a slow run.
pub fn note_segment_rates(marks: &[Instant], rounds: &[f64], out: &mut Outcome) {
    let rates: Vec<String> = segment_rates(marks, rounds)
        .iter()
        .map(|r| format!("{r:.4}"))
        .collect();
    out.notes
        .push(format!("rounds/s by segment: {}", rates.join(" ")));
}

/// Seconds between the first and the last segment mark.
pub fn window_seconds(marks: &[Instant]) -> f64 {
    match (marks.first(), marks.last()) {
        (Some(a), Some(b)) => b.duration_since(*a).as_secs_f64(),
        _ => 0.0,
    }
}

// ---------------------------------------------------------------------------
// engine-bulk
// ---------------------------------------------------------------------------

/// How one pipelined pass drives its batches.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum BatchDrive {
    /// Every batch through `PipelinedSession::run_batch` (the measured run).
    RunBatch,
    /// Alternate `run_batch` and the span-less phase-driven batch: the
    /// traced run's untraced reference, which also yields
    /// `pipeline.overhead_pct`.
    Alternate,
    /// Every batch phase-driven under spans.
    Phased,
}

/// What the traced run needs from a pipelined pass besides [`Pass`].
pub struct BulkTrace {
    /// Per-batch wall time, ms, of `run_batch` and of phase-driven batches.
    pub run_batch_ms: Vec<f64>,
    pub phased_ms: Vec<f64>,
    pub probe: Probe,
}

fn bulk_setup(
    spec: &Spec,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Result<(PipelinedSession, f64), String> {
    let start = Instant::now();
    let session = fresh_session(spec, seed, tracer)?;
    let pipe = PipelinedSession::new(session, WINDOW).map_err(|e| e.to_string())?;
    Ok((pipe, start.elapsed().as_secs_f64()))
}

pub fn bulk_pass(
    spec: &Spec,
    seed: u64,
    counts: Counts,
    drive: BatchDrive,
    out: &mut Outcome,
) -> Result<(Pass, BulkTrace), String> {
    let traced = drive == BatchDrive::Phased;
    let mut probe = Probe::new(traced);
    let mut setup_s = Vec::new();
    let mut pipe = None;
    for _ in 0..counts.setups {
        out.attempted += 1;
        // Dropping the previous session first keeps every set-up cold and
        // the peak resident set that of one session.
        drop(pipe.take());
        let (p, s) = bulk_setup(spec, seed, traced.then_some(&mut probe.tracer))?;
        setup_s.push(s);
        pipe = Some(p);
    }
    let mut session = pipe.ok_or("no set-up ran")?.into_session();
    if traced {
        probe.follow_schedule(&session);
    }
    let mut rngs = PerEntityRng::new(seed, spec.clients, spec.servers);
    let mut traffic = Traffic::new(
        spec.mode,
        spec.post_len,
        0.0,
        seed,
        slots_of(&session, spec.clients),
    );
    let mut log = RoundLog::with_digests(drive != BatchDrive::RunBatch);
    let mut plain = Probe::new(false);

    let window = WINDOW as u64;
    let total_batches = (counts.warmup + counts.measured + DRAIN_ROUNDS) / window;
    let warm_batches = counts.warmup / window;
    let measured_batches = counts.measured / window;
    let seg_batches = measured_batches / SEGMENTS;
    let mut marks = Vec::new();
    let mut seg_bytes = vec![0f64; SEGMENTS as usize];
    let (mut run_batch_ms, mut phased_ms) = (Vec::new(), Vec::new());
    let me = std::process::id();
    let mut ticks = (0u64, 0u64);

    for batch in 0..total_batches {
        let in_window = batch >= warm_batches && batch < warm_batches + measured_batches;
        if batch == warm_batches {
            traffic.reset_window();
            ticks.0 = cpu_ticks(me).unwrap_or(0);
        }
        if batch >= warm_batches
            && (batch - warm_batches).is_multiple_of(seg_batches)
            && marks.len() <= SEGMENTS as usize
        {
            marks.push(Instant::now());
        }
        if batch == warm_batches + measured_batches {
            ticks.1 = cpu_ticks(me).unwrap_or(0);
            traffic.quiesce();
        }
        let first_round = session.next_round();
        let start = Instant::now();
        let actions: Vec<Vec<ClientAction>> = (0..window)
            .map(|k| traffic.actions(first_round + k, start))
            .collect();
        let use_run_batch = match drive {
            BatchDrive::RunBatch => true,
            BatchDrive::Alternate => batch % 2 == 0,
            BatchDrive::Phased => false,
        };
        let (results, batch_ms) = if use_run_batch {
            let batch_start = Instant::now();
            let mut pipe = PipelinedSession::new(session, WINDOW).map_err(|e| e.to_string())?;
            let results = pipe.run_batch(&actions, &mut rngs);
            session = pipe.into_session();
            (results, batch_start.elapsed().as_secs_f64() * 1e3)
        } else if traced {
            phased_batch(&mut session, &actions, &mut rngs, &mut probe)
        } else {
            phased_batch(&mut session, &actions, &mut rngs, &mut plain)
        };
        let done = Instant::now();
        if in_window {
            if use_run_batch {
                run_batch_ms.push(batch_ms);
            } else {
                phased_ms.push(batch_ms);
            }
            log.round_ms.push(batch_ms / window as f64);
        }
        for (k, result) in results.iter().enumerate() {
            log.check(first_round + k as u64, result, None);
            let bytes = traffic.observe(result.round, &result.messages, done);
            if in_window {
                let seg = ((batch - warm_batches) / seg_batches) as usize;
                seg_bytes[seg] += bytes as f64 / 1024.0;
            }
        }
    }
    if traffic.in_flight() > 0 {
        out.fail(format!(
            "{} posts still in flight after the drain rounds",
            traffic.in_flight()
        ));
    }
    let peak = peak_rss_mib(me).unwrap_or(0.0);
    let seg_rounds = vec![(seg_batches * window) as f64; SEGMENTS as usize];
    out.attempted += log.rounds + traffic.tally.handed;
    out.failures.append(&mut traffic.tally.failures);
    out.failures.append(&mut log.failures);
    note_segment_rates(&marks, &seg_rounds, out);
    let pass = Pass {
        setup_s,
        post_ms: std::mem::take(&mut traffic.tally.latency_ms),
        blame_ms: Vec::new(),
        rounds_per_s: segment_median_rate(&marks, &seg_rounds),
        goodput_kib_per_s: segment_median_rate(&marks, &seg_bytes),
        cpu_ms_per_round: (ticks.1 - ticks.0) as f64 * ms_per_tick() / counts.measured as f64,
        peak_rss_mib: peak,
        window_s: window_seconds(&marks),
        log,
    };
    let trace = BulkTrace {
        run_batch_ms,
        phased_ms,
        probe,
    };
    Ok((pass, trace))
}

// ---------------------------------------------------------------------------
// engine-blame
// ---------------------------------------------------------------------------

/// `counts.warmup` unmeasured plus `counts.measured` measured episodes,
/// each on a fresh group and session (one cold set-up per episode).
pub fn blame_pass(
    spec: &Spec,
    seed: u64,
    counts: Counts,
    traced: bool,
    keep_digests: bool,
    out: &mut Outcome,
) -> Result<(Pass, Stepper), String> {
    let mut stepper = if traced {
        Stepper::Phased(Box::new(Probe::new(true)))
    } else {
        Stepper::Direct
    };
    let mut log = RoundLog::with_digests(keep_digests);
    let me = std::process::id();
    let (mut setup_s, mut blame_ms, mut post_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut goodputs) = (Vec::new(), Vec::new());
    let (mut ticks, mut loop_s, mut rounds) = (0u64, 0f64, 0u64);
    for e in 0..counts.warmup + counts.measured {
        let measured = e >= counts.warmup;
        let episode_seed = seed.wrapping_mul(1_000_003).wrapping_add(e);
        out.attempted += 2; // one set-up, one episode
        let start = Instant::now();
        let mut session = fresh_session(spec, episode_seed, stepper.tracer())?;
        let setup = start.elapsed().as_secs_f64();
        if let Stepper::Phased(probe) = &mut stepper {
            // The replica costs a second key shuffle, so only the first
            // traced episode carries one.
            probe.replica = if e == 0 {
                Some(fresh_session(spec, episode_seed, None)?)
            } else {
                None
            };
            probe.follow_schedule(&session);
        }
        let mut rng = seeded_rng(episode_seed, b"episode-rounds");
        let mut traffic = Traffic::new(
            spec.mode,
            spec.post_len,
            spec.churn,
            episode_seed,
            slots_of(&session, spec.clients),
        );
        let rounds_before = log.rounds;
        let ticks_before = cpu_ticks(me).unwrap_or(0);
        let loop_start = Instant::now();
        let mut bytes = 0;
        for _ in 0..CHURN_ROUNDS - SETTLE_ROUNDS {
            bytes += step(
                &mut session,
                &mut traffic,
                &mut rng,
                &mut log,
                &mut stepper,
                None,
            )
            .0;
        }
        let blamed = episode(&mut session, &mut traffic, &mut rng, &mut log, &mut stepper);
        let secs = loop_start.elapsed().as_secs_f64();
        out.failures.append(&mut traffic.tally.failures);
        out.attempted += traffic.tally.handed;
        if !measured {
            log.round_ms.clear();
            if let Err(e) = blamed {
                out.fail(format!("warm-up episode: {e}"));
            }
            continue;
        }
        match blamed {
            Ok((ms, b)) => {
                blame_ms.push(ms);
                bytes += b;
            }
            Err(e) => out.fail(format!("episode {e}")),
        }
        let episode_rounds = log.rounds - rounds_before;
        setup_s.push(setup);
        rates.push(episode_rounds as f64 / secs);
        goodputs.push(bytes as f64 / 1024.0 / secs);
        ticks += cpu_ticks(me).unwrap_or(0) - ticks_before;
        loop_s += secs;
        rounds += episode_rounds;
        post_ms.append(&mut traffic.tally.latency_ms);
    }
    out.attempted += log.rounds;
    out.failures.append(&mut log.failures);
    let pass = Pass {
        setup_s,
        blame_ms,
        post_ms,
        rounds_per_s: median(&rates),
        goodput_kib_per_s: median(&goodputs),
        cpu_ms_per_round: ticks as f64 * ms_per_tick() / rounds.max(1) as f64,
        peak_rss_mib: peak_rss_mib(me).unwrap_or(0.0),
        window_s: loop_s,
        log,
    };
    Ok((pass, stepper))
}

/// Fill the round-phase layer metrics from a tracer (engine workloads and
/// the socket workloads' in-process epilogue).
pub fn round_span_metrics(tracer: &Tracer, parent: &'static str, out: &mut Outcome) {
    out.set(
        "round.client_phase_ms",
        tracer.median_ms("round.client_phase"),
    );
    out.set(
        "round.deliver_submissions_ms",
        tracer.median_ms("round.deliver_submissions"),
    );
    out.set(
        "round.commit_phase_ms",
        tracer.median_ms("round.commit_phase"),
    );
    out.set(
        "round.reveal_phase_ms",
        tracer.median_ms("round.reveal_phase"),
    );
    out.set(
        "round.certify_phase_ms",
        tracer.median_ms("round.certify_phase"),
    );
    out.set("round.finalize_ms", tracer.median_ms("round.finalize"));
    out.set("round.coverage", tracer.coverage(parent));
    out.set("session.new_ms", tracer.median_ms("session.new"));
}

/// Layer metrics of the extra traced-run work (wire codec, replicas).
pub fn probe_metrics(probe: &Probe, out: &mut Outcome) {
    let tr = &probe.tracer;
    out.set("messages.encode_us", tr.median_ms("messages.encode") * 1e3);
    out.set("messages.decode_us", tr.median_ms("messages.decode") * 1e3);
    out.set(
        "messages.bytes_per_round",
        probe.wire_bytes as f64 / probe.wire_rounds.max(1) as f64,
    );
    out.set(
        "dcnet.apply_round_output_us",
        tr.median_ms("dcnet.apply_round_output") * 1e3,
    );
    // Only lock-step engine passes carry a replica session; the socket
    // workloads take this from the generator's own session instead.
    let applied = tr.durations_ms("session.apply_cleartext");
    if !applied.is_empty() {
        out.set("session.apply_cleartext_us", median(&applied) * 1e3);
    }
}

/// The tail of a log's round times: p99, or the highest percentile that
/// still has ten samples beyond it.
pub fn round_tail_ms(log: &RoundLog) -> f64 {
    tail_percentile(&log.round_ms, 99.0).0
}
