//! The socket workloads: the real `dissent-server` binary over loopback
//! TCP, driven by one single-threaded client that multiplexes all N roster
//! connections (so runnable threads never exceed `nproc`).
//!
//! The server's round loop is lock-step — `RoundOpen` to everyone, one
//! submission from everyone, `Cleartext` to everyone — so one thread can
//! serve the N blocking connections in a fixed order without polling.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dissent_core::round::SharedRng;
use dissent_core::{GeneratedGroup, ProtocolMessage, Session};
use dissent_net::{Frame, FramedConn, Peer, RosterKeys};
use rand::rngs::StdRng;

use crate::engine::{
    ms_per_tick, note_segment_rates, seeded_rng, slots_of, window_seconds, Pass, RoundLog,
};
use crate::spans::Tracer;
use crate::stats::{cpu_ticks, peak_rss_mib, prom_sum, segment_median_rate};
use crate::traffic::Traffic;
use crate::workload::{Counts, Outcome, Spec, DRAIN_ROUNDS, SEGMENTS};

/// No single wait on a child or a socket may exceed this.
const DEADLINE: Duration = Duration::from_secs(60);

/// Where `cargo` puts build output for this checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the server binary (a no-op when fresh) and return its path.
/// Runs from the checkout root, before anything is timed — and in every
/// run, whatever the workload, so that a fresh checkout pays for the build
/// in its very first run and never inside a later one's time limit.
pub fn build_server() -> Result<PathBuf, String> {
    if !Path::new("src/bin/dissent-server.rs").exists() {
        return Err("run from the repository root: src/bin/dissent-server.rs not found".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "dissent-server",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build --release --offline --bin dissent-server failed".into());
    }
    let bin = target_dir().join("release").join("dissent-server");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// Pin this process — and so the server it spawns — to one CPU, and say
/// what happened.  The socket path's round is a chain of some two dozen
/// thread wake-ups; spread over the two vCPUs of a shared VM, every one of
/// them is a cross-CPU wake-up whose latency follows the host's load, and
/// round times swung by 25 % between runs of the same build.  On one CPU
/// they are plain context switches and repeat within a few percent (and the
/// rounds are faster).  Must run before the engine's thread pool exists, so
/// that the pool sizes itself to the one CPU.
pub fn pin_to_one_cpu() -> String {
    let allowed = cpus_allowed();
    let Some(cpu) = allowed.rsplit([',', '-']).next().filter(|c| !c.is_empty()) else {
        return "unpinned (cannot read the allowed CPUs)".into();
    };
    if allowed != cpu {
        let _ = Command::new("taskset")
            .args(["-a", "-p", "-c", cpu, &std::process::id().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
    }
    if cpus_allowed() == cpu {
        format!("generator and server pinned to cpu {cpu}")
    } else {
        format!("unpinned on cpus {allowed} (taskset unavailable)")
    }
}

/// A per-run unique scratch directory under the build directory (not
/// `temp_dir()` + pid, which two concurrent runs can share), removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = target_dir()
            .join("benchmark-scratch")
            .join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the server printed after its address lines.
struct ServerOutput {
    completed: Option<String>,
    message_lines: u64,
}

/// A running `dissent-server` child.  Its stdout is drained continuously
/// by one thread — the end-of-run summary is one line per delivered
/// message, and an undrained pipe would block the server before it exits.
pub struct ServerProc {
    child: Child,
    pub pid: u32,
    pub addr: String,
    pub metrics_addr: String,
    drain: Option<JoinHandle<ServerOutput>>,
}

impl ServerProc {
    pub fn spawn(bin: &Path, roster: &Path, rounds: u64) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("--roster")
            .arg(roster)
            .args(["--bind", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .args(["--rounds", &rounds.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not piped")?;
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            let mut out = ServerOutput {
                completed: None,
                message_lines: 0,
            };
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if line.starts_with("listening on ") || line.starts_with("metrics on ") {
                    let _ = tx.send(line);
                } else if line.starts_with("completed ") {
                    out.completed = Some(line);
                } else if line.starts_with("message ") {
                    out.message_lines += 1;
                }
            }
            out
        });
        let pid = child.id();
        let mut server = ServerProc {
            child,
            pid,
            addr: String::new(),
            metrics_addr: String::new(),
            drain: Some(drain),
        };
        // OS-assigned ports, parsed from the server's own announcement.
        let announced = |prefix: &str| -> Result<String, String> {
            let line = rx
                .recv_timeout(DEADLINE)
                .map_err(|_| "server did not announce its address".to_string())?;
            line.strip_prefix(prefix)
                .map(str::to_string)
                .ok_or(format!("unexpected server line {line:?}"))
        };
        server.addr = announced("listening on ")?;
        server.metrics_addr = announced("metrics on ")?;
        Ok(server)
    }

    /// Wait for the server to exit (killing it at the deadline) and check
    /// its summary line: every round certified, nothing rejected or dropped.
    fn finish(mut self, rounds: u64, out: &mut Outcome) -> u64 {
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        match status {
            Some(status) if status.success() => {}
            Some(status) => out.fail(format!("dissent-server exited with {status}")),
            None => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                out.fail("dissent-server outlived its deadline and was killed");
            }
        }
        let output = self.drain.take().and_then(|d| d.join().ok());
        let Some(output) = output else {
            out.fail("server stdout drain thread failed");
            return 0;
        };
        let expected = format!(
            "completed rounds={rounds} certified={rounds} rejected_spoofs=0 handshake_failures=0 disconnects=0"
        );
        if output.completed.as_deref() != Some(expected.as_str()) {
            out.fail(format!(
                "server summary {:?}, expected {expected:?}",
                output.completed
            ));
        }
        output.message_lines
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached with a live child on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One HTTP/1.0 scrape of the server's `--metrics-addr` exporter.
fn scrape(addr: &str) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    let _ = conn.set_read_timeout(Some(DEADLINE));
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: benchmark\r\n\r\n")
        .map_err(|e| format!("scrape write: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("scrape read: {e}"))?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "scrape response has no body".to_string())
}

/// The generator's view of the group: identities for the handshakes and a
/// session bit-identical to the server's.  Built once per server run,
/// untimed.
pub struct Generator {
    pub generated: GeneratedGroup,
    pub keys: RosterKeys,
    pub session: Session,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Result<Generator, String> {
        let roster = spec.roster(seed);
        let generated = roster.generate();
        let session = roster.session(&generated).map_err(|e| e.to_string())?;
        let keys = roster.roster_keys(&generated);
        Ok(Generator {
            generated,
            keys,
            session,
        })
    }
}

type Conn = FramedConn<TcpStream>;

fn recv(conn: &mut Conn) -> Result<Frame, String> {
    match conn.recv() {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("server closed a connection".into()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// One cold set-up: spawn the server, connect and authenticate all N
/// clients, and wait for the first frame on every connection.  Returns the
/// wall time from spawn to that last first frame.
fn cold_setup(
    bin: &Path,
    roster: &Path,
    generator: &Generator,
    rounds: u64,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> Result<(ServerProc, Vec<Conn>, Vec<Frame>, f64), String> {
    let start = Instant::now();
    let server = ServerProc::spawn(bin, roster, rounds)?;
    let mut conns = Vec::new();
    for (i, identity) in generator.generated.clients.iter().enumerate() {
        let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(DEADLINE));
        let mut conn = FramedConn::new(stream);
        let claimed = u32::try_from(i).map_err(|_| "client index exceeds u32")?;
        tracer
            .time("auth.handshake", 0, || {
                generator.keys.prover_handshake(
                    &mut conn,
                    Peer::Client(claimed),
                    &identity.signing,
                    rng,
                )
            })
            .map_err(|e| format!("handshake of client {i}: {e}"))?;
        conn.send(&Frame::Resume { next_round: 0 })
            .map_err(|e| format!("send: {e}"))?;
        conns.push(conn);
    }
    let first: Vec<Frame> = conns.iter_mut().map(recv).collect::<Result<_, _>>()?;
    Ok((server, conns, first, start.elapsed().as_secs_f64()))
}

/// What the traced run needs from a socket pass besides [`Pass`].
pub struct SockTrace {
    pub tracer: Tracer,
    /// Exporter snapshots at the start and end of the measured window.
    pub scrapes: Option<(String, String)>,
}

/// `counts.setups` cold set-ups, the last of which goes on to run the
/// warm-up, the measured window and the drain rounds.
pub fn sock_pass(
    spec: &Spec,
    seed: u64,
    counts: Counts,
    bin: &Path,
    traced: bool,
    keep_digests: bool,
    out: &mut Outcome,
) -> Result<(Pass, SockTrace), String> {
    let scratch = Scratch::new(spec.name)?;
    let roster_path = scratch.0.join("roster.txt");
    std::fs::write(&roster_path, spec.roster(seed).to_text())
        .map_err(|e| format!("write roster: {e}"))?;

    let mut generator = Generator::new(spec, seed)?;
    let group = generator.session.config().group.clone();
    let mut tracer = Tracer::new(traced);
    let mut handshake_rng = seeded_rng(seed, b"handshakes");
    let total = counts.warmup + counts.measured + DRAIN_ROUNDS;

    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..counts.setups {
        out.attempted += 1;
        let last = rep + 1 == counts.setups;
        let rounds = if last { total } else { 0 };
        let (server, conns, first, secs) = cold_setup(
            bin,
            &roster_path,
            &generator,
            rounds,
            &mut handshake_rng,
            &mut tracer,
        )?;
        setup_s.push(secs);
        let want = if last {
            Frame::RoundOpen { round: 0 }
        } else {
            Frame::Goodbye
        };
        if first.iter().any(|f| *f != want) {
            out.fail(format!(
                "set-up {rep}: first frames {first:?}, expected {want:?} on every connection"
            ));
        }
        if last {
            live = Some((server, conns));
        } else {
            server.finish(0, out);
        }
    }
    let (server, mut conns) = live.ok_or("no set-up ran")?;

    let slots = slots_of(&generator.session, spec.clients);
    let mut traffic = Traffic::new(spec.mode, spec.post_len, spec.churn, seed, slots);
    let mut round_rng = seeded_rng(seed, b"client-rounds");
    let mut log = RoundLog::with_digests(keep_digests);
    let seg_rounds = counts.measured / SEGMENTS;
    let window_end = counts.warmup + counts.measured;
    let mut marks = Vec::new();
    let mut seg_bytes = vec![0f64; SEGMENTS as usize];
    let mut ticks = (0u64, 0u64);
    let mut peak = 0.0;
    let mut scrapes = (String::new(), String::new());
    let mut revealed_total = 0u64;

    for round in 0..total {
        // RoundOpen on every connection (round 0's arrived during set-up).
        if round > 0 {
            for (i, conn) in conns.iter_mut().enumerate() {
                let frame = if i == 0 {
                    recv(conn)?
                } else {
                    tracer.time("transport.recv", round, || recv(conn))?
                };
                if frame != (Frame::RoundOpen { round }) {
                    out.fail(format!(
                        "round {round}: connection {i} got {frame:?} instead of RoundOpen"
                    ));
                }
            }
        }
        // Window boundaries sit between a RoundOpen and its submissions,
        // where the server is idle waiting for this client.
        if round == counts.warmup {
            traffic.reset_window();
            log.round_ms.clear();
            if traced {
                scrapes.0 =
                    tracer.time("metrics.scrape", round, || scrape(&server.metrics_addr))?;
            }
            ticks.0 = cpu_ticks(server.pid).unwrap_or(0);
        }
        if round >= counts.warmup
            && round <= window_end
            && (round - counts.warmup).is_multiple_of(seg_rounds)
        {
            marks.push(Instant::now());
        }
        if round == window_end {
            ticks.1 = cpu_ticks(server.pid).unwrap_or(0);
            peak = peak_rss_mib(server.pid).unwrap_or(0.0);
            if traced {
                scrapes.1 =
                    tracer.time("metrics.scrape", round, || scrape(&server.metrics_addr))?;
            }
            traffic.quiesce();
        }
        let opened = Instant::now();
        let span = tracer.open("round", round);

        let actions = traffic.actions(round, opened);
        let mut state = generator.session.begin_round();
        let submits = tracer.time("gen.client_phase", round, || {
            generator
                .session
                .client_phase(&mut state, &actions, &mut SharedRng(&mut round_rng))
        });
        // From the first submission handed to a socket until the first
        // cleartext frame is back: the server's whole turn.  (The kernel
        // runs the server's threads while this thread is still inside its
        // last `send`, so "after the last send" would miss most of it.)
        let wait = tracer.open("node.wait", round);
        for submit in submits {
            let client = submit.client as usize;
            let payload = ProtocolMessage::ClientSubmit(submit).to_bytes(&group);
            tracer
                .time("transport.send", round, || {
                    conns[client].send(&Frame::Protocol { payload })
                })
                .map_err(|e| format!("send: {e}"))?;
        }

        // Cleartext on every connection, which must all carry the same bytes.
        let mut cleartext: Option<Vec<u8>> = None;
        for (i, conn) in conns.iter_mut().enumerate() {
            let frame = if i == 0 {
                let frame = recv(conn);
                tracer.close(wait);
                frame?
            } else {
                tracer.time("transport.recv", round, || recv(conn))?
            };
            match frame {
                Frame::Cleartext {
                    round: r,
                    certified,
                    payload,
                } => {
                    if r != round || !certified {
                        out.fail(format!("round {round}: connection {i} got cleartext round={r} certified={certified}"));
                    }
                    match &cleartext {
                        None => cleartext = Some(payload),
                        Some(first) if *first == payload => {}
                        Some(_) => out.fail(format!(
                            "round {round}: connection {i} received a different cleartext"
                        )),
                    }
                }
                other => out.fail(format!(
                    "round {round}: connection {i} got {other:?} instead of Cleartext"
                )),
            }
        }
        let done = Instant::now();
        tracer.close(span);
        let cleartext = cleartext.ok_or(format!("round {round}: no cleartext"))?;
        log.rounds += 1;
        log.round_ms
            .push(done.duration_since(opened).as_secs_f64() * 1e3);
        if let Some(digests) = &mut log.digests {
            digests.push(dissent_crypto::sha256::sha256(&cleartext));
        }
        let revealed = tracer
            .time("gen.apply", round, || {
                generator
                    .session
                    .apply_certified_cleartext(round, &cleartext)
            })
            .map_err(|e| format!("round {round}: {e}"))?;
        revealed_total += revealed.len() as u64;
        let bytes = traffic.observe(round, &revealed, done);
        if (counts.warmup..window_end).contains(&round) {
            seg_bytes[((round - counts.warmup) / seg_rounds) as usize] += bytes as f64 / 1024.0;
        }
    }
    // Drain rounds are not part of the measured round times.
    log.round_ms.truncate(counts.measured as usize);
    for (i, conn) in conns.iter_mut().enumerate() {
        let frame = recv(conn)?;
        if frame != Frame::Goodbye {
            out.fail(format!("connection {i} got {frame:?} instead of Goodbye"));
        }
    }
    // Connections stay open until the server has exited, so it never
    // counts a disconnect.
    let message_lines = server.finish(total, out);
    drop(conns);
    if message_lines != revealed_total {
        out.fail(format!(
            "server printed {message_lines} messages, the clients saw {revealed_total}"
        ));
    }
    if traffic.in_flight() > 0 {
        out.fail(format!(
            "{} posts still in flight after the drain rounds",
            traffic.in_flight()
        ));
    }
    out.attempted += log.rounds + traffic.tally.handed;
    out.failures.append(&mut traffic.tally.failures);

    let seg_units = vec![seg_rounds as f64; SEGMENTS as usize];
    note_segment_rates(&marks, &seg_units, out);
    let pass = Pass {
        setup_s,
        post_ms: std::mem::take(&mut traffic.tally.latency_ms),
        blame_ms: Vec::new(),
        rounds_per_s: segment_median_rate(&marks, &seg_units),
        goodput_kib_per_s: segment_median_rate(&marks, &seg_bytes),
        cpu_ms_per_round: (ticks.1 - ticks.0) as f64 * ms_per_tick() / counts.measured as f64,
        peak_rss_mib: peak,
        window_s: window_seconds(&marks),
        log,
    };
    let trace = SockTrace {
        tracer,
        scrapes: traced.then_some(scrapes),
    };
    Ok((pass, trace))
}

/// Layer metrics of the socket path: generator self time, per-frame
/// transport calls, and the server's own phase histograms and transport
/// counters scraped from `--metrics-addr` (window end minus window start).
pub fn sock_span_metrics(trace: &SockTrace, rounds: u64, out: &mut Outcome) {
    let tr = &trace.tracer;
    out.set(
        "gen.client_phase_us",
        tr.median_ms("gen.client_phase") * 1e3,
    );
    out.set("gen.apply_us", tr.median_ms("gen.apply") * 1e3);
    out.set(
        "session.apply_cleartext_us",
        tr.median_ms("gen.apply") * 1e3,
    );
    out.set("transport.send_us", tr.median_ms("transport.send") * 1e3);
    out.set("transport.recv_us", tr.median_ms("transport.recv") * 1e3);
    out.set("auth.handshake_ms", tr.median_ms("auth.handshake"));
    out.set("metrics.scrape_ms", tr.median_ms("metrics.scrape"));
    let wait_ms = tr.median_ms("node.wait");
    out.set("node.wait_ms", wait_ms);
    let Some((before, after)) = &trace.scrapes else {
        return;
    };
    let delta =
        |name: &str, label: &str| prom_sum(after, name, label) - prom_sum(before, name, label);
    let mut attributed = 0.0;
    for (metric, phase) in [
        ("node.commit_ms", "phase=\"commit\""),
        ("node.certify_ms", "phase=\"certify\""),
        ("node.finalize_ms", "phase=\"finalize\""),
    ] {
        let count = delta("dissent_round_phase_seconds_count", phase);
        let mean_ms = if count > 0.0 {
            delta("dissent_round_phase_seconds_sum", phase) / count * 1e3
        } else {
            0.0
        };
        attributed += mean_ms;
        out.set(metric, mean_ms);
    }
    out.set("node.unattributed_ms", wait_ms - attributed);
    let scraped_rounds = delta("dissent_rounds_total", "");
    if scraped_rounds != rounds as f64 {
        out.fail(format!(
            "server counted {scraped_rounds} rounds in the window, the client {rounds}"
        ));
    }
    out.set(
        "transport.frames_per_round",
        delta("dissent_transport_frames_total", "") / rounds as f64,
    );
    out.set(
        "transport.bytes_per_round",
        delta("dissent_transport_bytes_total", "") / rounds as f64,
    );
}
