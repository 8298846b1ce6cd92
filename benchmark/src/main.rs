//! `dissent-benchmark` — wall-clock benchmark of the Dissent reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root.  Four closed-loop workloads (see
//! `workload.rs` and `README.md`); every output is checked; the last line
//! of stdout is one JSON object with the run's metrics.  `--trace 0` reports
//! the end-to-end metrics from an untraced run, `--trace 1` the per-layer
//! metrics from a traced run at a quarter of the round counts.  All traffic
//! is loopback; every figure is measured on this machine.

#![forbid(unsafe_code)]

mod engine;
mod probes;
mod sock;
mod spans;
mod stats;
mod traffic;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use engine::{BatchDrive, Probe, Stepper};
use stats::median;
use workload::{Outcome, Path, Spec, SPECS};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("post_ms_mean", "ms"),
    ("goodput_kib_per_s", "KiB/s"),
    ("blame_ms_p50", "ms"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`.  A workload that does not
/// exercise a layer (no sockets in `engine-*`, no pipeline outside
/// `engine-bulk`) reports 0 for it.
const PER_LAYER: [(&str, &str); 50] = [
    ("round.client_phase_ms", "ms"),
    ("round.deliver_submissions_ms", "ms"),
    ("round.commit_phase_ms", "ms"),
    ("round.reveal_phase_ms", "ms"),
    ("round.certify_phase_ms", "ms"),
    ("round.finalize_ms", "ms"),
    ("round.coverage", "ratio"),
    ("round.round_ms_p99", "ms"),
    ("pipeline.batch_ms", "ms"),
    ("pipeline.overhead_pct", "%"),
    ("session.new_ms", "ms"),
    ("session.apply_cleartext_us", "us"),
    ("messages.encode_us", "us"),
    ("messages.decode_us", "us"),
    ("messages.bytes_per_round", "B"),
    ("dcnet.apply_round_output_us", "us"),
    ("gen.client_phase_us", "us"),
    ("gen.apply_us", "us"),
    ("transport.send_us", "us"),
    ("transport.recv_us", "us"),
    ("node.wait_ms", "ms"),
    ("node.commit_ms", "ms"),
    ("node.certify_ms", "ms"),
    ("node.finalize_ms", "ms"),
    ("node.unattributed_ms", "ms"),
    ("node.round_ms_p99", "ms"),
    ("transport.frames_per_round", "count"),
    ("transport.bytes_per_round", "B"),
    ("auth.handshake_ms", "ms"),
    ("metrics.scrape_ms", "ms"),
    ("crypto.chacha_fill_mib_per_s", "MiB/s"),
    ("crypto.sha256_mib_per_s", "MiB/s"),
    ("crypto.exp_us", "us"),
    ("crypto.exp_base_us", "us"),
    ("crypto.multi_exp_us", "us"),
    ("crypto.schnorr_sign_us", "us"),
    ("crypto.schnorr_verify_us", "us"),
    ("crypto.dh_shared_secret_us", "us"),
    ("dcnet.pad_xor_mib_per_s", "MiB/s"),
    ("dcnet.accumulate_pads_ms", "ms"),
    ("dcnet.client_ciphertext_us", "us"),
    ("dcnet.server_ciphertext_ms", "ms"),
    ("dcnet.combine_us", "us"),
    ("dcnet.commitment_us", "us"),
    ("dcnet.pad_bit_us", "us"),
    ("shuffle.run_ms", "ms"),
    ("shuffle.verify_transcript_ms", "ms"),
    ("transport.write_frame_us", "us"),
    ("transport.read_frame_us", "us"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dissent-benchmark [--workload <{}|all>] [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--trace-out <file>] | --smoke",
        SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            // All four workloads at 1/50 of the 30 s sizes, every check on.
            args.workload = None;
            args.seconds = 0.6;
            continue;
        }
        let value = argv.next()?;
        match flag.as_str() {
            "--workload" => args.workload = (value != "all").then_some(value),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)?
            }
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--trace-out" => args.trace_out = Some(value),
            _ => return None,
        }
    }
    Some(args)
}

/// `nproc`, the engine's pool size, the dispatched ChaCha kernel, the
/// compiler and the CPU's SIMD flags: what a figure depends on besides the
/// code.
fn fingerprint(nproc: usize) -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("", |(_, v)| v.trim())
    };
    let wanted = [
        "sse2", "ssse3", "avx", "avx2", "avx512f", "aes", "sha_ni", "bmi2", "adx",
    ];
    let flags: Vec<&str> = field("flags")
        .split_whitespace()
        .filter(|f| wanted.contains(f))
        .collect();
    format!(
        "nproc={nproc} pool={} chacha={}/{} rustc=\"{rustc}\" cpu=\"{}\" flags={}",
        rayon::current_num_threads(),
        dissent_crypto::chacha::wide_backend_name(),
        dissent_crypto::chacha::wide8_backend_name(),
        field("model name"),
        flags.join(",")
    )
}

fn pct_over(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        (value - base) / base * 100.0
    } else {
        0.0
    }
}

fn write_spans(path: &Option<String>, passes: &[(&str, &spans::Tracer)]) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?);
    for (pass, tracer) in passes {
        tracer
            .write_jsonl(&mut file, pass)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
fn run_untraced(
    spec: &Spec,
    args: &Args,
    bin: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let counts = spec.counts(args.seconds, 1);
    let mut pass = match spec.path {
        Path::Socket => sock::sock_pass(spec, args.seed, counts, bin, false, false, out)?.0,
        Path::Pipelined => engine::bulk_pass(spec, args.seed, counts, BatchDrive::RunBatch, out)?.0,
        Path::Episodes => engine::blame_pass(spec, args.seed, counts, false, false, out)?.0,
    };
    if spec.path != Path::Episodes {
        pass.blame_ms = engine::blame_epilogue(
            spec,
            args.seed,
            counts.epilogue_episodes,
            &mut Stepper::Direct,
            out,
        );
    }
    out.set("setup_s", median(&pass.setup_s));
    out.set("rounds_per_s", pass.rounds_per_s);
    out.set("round_ms_p50", median(&pass.log.round_ms));
    // Posts that find their slot still open surface in one round, the rest
    // in two; a median sits on the edge between the two modes and flips
    // with the seed's think times, so the mean is reported.
    out.set(
        "post_ms_mean",
        pass.post_ms.iter().sum::<f64>() / pass.post_ms.len().max(1) as f64,
    );
    out.set("goodput_kib_per_s", pass.goodput_kib_per_s);
    out.set("blame_ms_p50", median(&pass.blame_ms));
    out.set("cpu_ms_per_round", pass.cpu_ms_per_round);
    out.set("peak_rss_mib", pass.peak_rss_mib);
    let (tail, pct) = stats::tail_percentile(&pass.log.round_ms, 99.0);
    out.notes.push(format!(
        "samples: set-ups={} rounds={} posts={} blame episodes={}; measured window {:.2} s",
        pass.setup_s.len(),
        pass.log.round_ms.len(),
        pass.post_ms.len(),
        pass.blame_ms.len(),
        pass.window_s
    ));
    out.notes.push(format!(
        "round_ms tail (not gated): p{pct:.1} = {tail:.4} ms"
    ));
    let mut sorted = pass.post_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |f: f64| {
        sorted
            .get((sorted.len() as f64 * f) as usize)
            .copied()
            .unwrap_or(0.0)
    };
    out.notes.push(format!(
        "post_ms p10/p25/p50/p75/p90: {:.3} {:.3} {:.3} {:.3} {:.3}",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9)
    ));
    Ok(())
}

/// The traced run: an untraced reference pass and a traced pass at a
/// quarter of the round counts, same seed; their cleartext digests must
/// agree, and their round times give the tracing overhead.
fn run_traced(
    spec: &Spec,
    args: &Args,
    bin: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let counts = spec.counts(args.seconds, 4);
    let p50 = |pass: &engine::Pass| median(&pass.log.round_ms);
    match spec.path {
        Path::Socket => {
            let (reference, _) = sock::sock_pass(spec, args.seed, counts, bin, false, true, out)?;
            let (traced, trace) = sock::sock_pass(spec, args.seed, counts, bin, true, true, out)?;
            engine::compare_digests(&reference.log, &traced.log, out);
            sock::sock_span_metrics(&trace, counts.measured, out);
            out.set("node.round_ms_p99", engine::round_tail_ms(&traced.log));
            out.set(
                "trace.overhead_pct",
                pct_over(p50(&traced), p50(&reference)),
            );
            // The engine's phase breakdown at this workload's shape comes
            // from the in-process epilogue, driven phase by phase.
            let mut stepper = Stepper::Phased(Box::new(Probe::new(true)));
            engine::blame_epilogue(spec, args.seed, counts.epilogue_episodes, &mut stepper, out);
            if let Stepper::Phased(probe) = &stepper {
                engine::round_span_metrics(&probe.tracer, "round", out);
                engine::probe_metrics(probe, out);
                out.set(
                    "round.round_ms_p99",
                    stats::tail_percentile(&probe.tracer.durations_ms("round"), 99.0).0,
                );
                write_spans(
                    &args.trace_out,
                    &[("socket", &trace.tracer), ("epilogue", &probe.tracer)],
                )?;
            }
        }
        Path::Pipelined => {
            let (reference, plain) =
                engine::bulk_pass(spec, args.seed, counts, BatchDrive::Alternate, out)?;
            let (traced, trace) =
                engine::bulk_pass(spec, args.seed, counts, BatchDrive::Phased, out)?;
            engine::compare_digests(&reference.log, &traced.log, out);
            engine::round_span_metrics(&trace.probe.tracer, "pipeline.batch", out);
            engine::probe_metrics(&trace.probe, out);
            out.set("round.round_ms_p99", engine::round_tail_ms(&traced.log));
            out.set("pipeline.batch_ms", median(&plain.run_batch_ms));
            out.set(
                "pipeline.overhead_pct",
                pct_over(median(&plain.run_batch_ms), median(&plain.phased_ms)),
            );
            out.set(
                "trace.overhead_pct",
                pct_over(median(&trace.phased_ms), median(&plain.phased_ms)),
            );
            write_spans(&args.trace_out, &[("engine", &trace.probe.tracer)])?;
        }
        Path::Episodes => {
            let (reference, _) = engine::blame_pass(spec, args.seed, counts, false, true, out)?;
            let (traced, stepper) = engine::blame_pass(spec, args.seed, counts, true, true, out)?;
            engine::compare_digests(&reference.log, &traced.log, out);
            if let Stepper::Phased(probe) = &stepper {
                engine::round_span_metrics(&probe.tracer, "round", out);
                engine::probe_metrics(probe, out);
                write_spans(&args.trace_out, &[("engine", &probe.tracer)])?;
            }
            out.set("round.round_ms_p99", engine::round_tail_ms(&traced.log));
            out.set(
                "trace.overhead_pct",
                pct_over(p50(&traced), p50(&reference)),
            );
        }
    }
    probes::run(spec, args.seed, out);
    Ok(())
}

fn json_line(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        metrics.join(", ")
    )
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    println!(
        "# dissent-benchmark: workload {} ({}x{}, {}), seed {}, {} run sized for --seconds {}",
        spec.name,
        spec.clients,
        spec.servers,
        spec.group,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    println!("# why: {}", spec.why);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    if spec.path == Path::Socket {
        println!("# cpu: {}", sock::pin_to_one_cpu());
    }
    println!("# machine: {}", fingerprint(nproc));
    println!("# every figure below: measured, loopback (127.0.0.1), closed loop");
    let mut out = Outcome::default();
    let ran = sock::build_server().and_then(|bin| {
        if args.trace {
            run_traced(spec, args, &bin, &mut out)
        } else {
            run_untraced(spec, args, &bin, &mut out)
        }
    });
    if let Err(e) = ran {
        eprintln!("dissent-benchmark: {}: {e}", spec.name);
        for failure in out.failures.iter().take(20) {
            eprintln!("dissent-benchmark: oracle: {failure}");
        }
        return ExitCode::FAILURE;
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!(
            "{:<42} {value:>16.4} {unit:<6} [measured, loopback]",
            format!("{}/{name}", spec.name)
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# attempted_ops={} failed_ops={}",
        out.attempted,
        out.failures.len()
    );
    for failure in out.failures.iter().take(20) {
        println!("# ORACLE FAILURE: {failure}");
    }
    println!("{}", json_line(&out, table));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in its own re-exec'd child, so engine workloads never
/// share a peak-RSS high-water mark.  Children's reports are echoed; the
/// last line summarises them.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dissent-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for spec in &SPECS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(path) = &args.trace_out {
            command.args(["--trace-out", &format!("{path}.{}", spec.name)]);
        }
        let mut last = String::new();
        let ok = match command.spawn() {
            Ok(mut child) => {
                if let Some(stdout) = child.stdout.take() {
                    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                        println!("{line}");
                        last = line;
                    }
                }
                child.wait().is_ok_and(|s| s.success())
            }
            Err(e) => {
                eprintln!("dissent-benchmark: cannot re-exec for {}: {e}", spec.name);
                false
            }
        };
        all_ok &= ok;
        if last.starts_with('{') {
            results.push(format!("\"{}\": {last}", spec.name));
        }
        println!();
    }
    println!(
        "{{\"correct\": {all_ok}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::spec(name) {
            Some(spec) => run_one(spec, &args),
            None => usage(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics and
    /// workloads, or the driver would look for values this program never
    /// prints.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for spec in &SPECS {
            assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)));
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn counts_scale_with_seconds_and_stay_segmentable() {
        for spec in &SPECS {
            for (seconds, divisor) in [(20.0, 1), (20.0, 4), (30.0, 1), (0.6, 1)] {
                let c = spec.counts(seconds, divisor);
                assert!(c.measured >= 1 && c.setups >= 2, "{}", spec.name);
                if spec.path != Path::Episodes {
                    assert_eq!(c.measured % workload::SEGMENTS, 0, "{}", spec.name);
                }
                if spec.path == Path::Pipelined {
                    assert_eq!(
                        c.measured % (workload::SEGMENTS * workload::WINDOW as u64),
                        0
                    );
                    assert_eq!(c.warmup % workload::WINDOW as u64, 0);
                }
            }
        }
        let chat = workload::spec("sock-chat").map(|s| s.counts(30.0, 1).measured);
        assert_eq!(chat, Some(36_000));
    }
}
