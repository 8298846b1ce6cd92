//! Kernel probes: each layer's public function called directly at the
//! workload's own shapes (N, M, cleartext length, group, soundness), timed
//! per call, reported as the median.
//!
//! These are the numbers a kernel optimisation moves first; the prediction
//! table in `README.md` says which end-to-end metric should follow.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dissent_core::{ClientSubmit, ProtocolMessage};
use dissent_crypto::chacha::ChaCha20;
use dissent_crypto::dh::DhKeyPair;
use dissent_crypto::elgamal::ElGamal;
use dissent_crypto::schnorr::{self, SigningKeyPair};
use dissent_crypto::sha256::sha256;
use dissent_dcnet::pad::{accumulate_pads, pad_bit, pad_xor_into};
use dissent_dcnet::server::{combine, commitment, server_ciphertext};
use dissent_dcnet::{ClientDcnet, SharedSecret, SlotConfig, SlotPayload, SlotSchedule, Submission};
use dissent_net::transport::{read_frame, write_frame};
use dissent_net::Frame;
use dissent_shuffle::protocol::{run_shuffle, submit_element, verify_transcript};
use rand::RngCore;

use crate::engine::seeded_rng;
use crate::stats::median;
use crate::traffic::Mode;
use crate::workload::{Outcome, Spec, SOUNDNESS};

/// A probe stops at this many timed calls ...
const MAX_ITERATIONS: usize = 200;
/// ... or when it has used this much time, whichever comes first (the
/// 2048-bit shuffle takes over a second per call), but never before ...
const BUDGET: Duration = Duration::from_millis(250);
/// ... this many calls.
const MIN_ITERATIONS: usize = 3;

/// Median seconds per call of `f`.
fn probe<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f()); // warm caches and lazy tables
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_ITERATIONS
        && (samples.len() < MIN_ITERATIONS || started.elapsed() < BUDGET)
    {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Like [`probe`] for calls too short to time singly: `f` runs `inner`
/// times per sample.
fn probe_many<T>(inner: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    probe(|| {
        (0..inner).for_each(|i| {
            black_box(f(i));
        })
    }) / inner as f64
}

fn mib_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / secs
}

/// Run every kernel probe at `spec`'s shapes.
pub fn run(spec: &Spec, seed: u64, out: &mut Outcome) {
    let (n, m) = (spec.clients, spec.servers);
    let group = spec.algebraic_group();
    let mut rng = seeded_rng(seed, b"probes");

    // The round shape: every slot open at the length the workload's posts
    // hold it at (chat slots open at the default length, bulk slots are
    // grown to fit a post).
    let slot_config = SlotConfig::default();
    let slot_len = match spec.mode {
        Mode::Chat => slot_config.default_open_len,
        Mode::Bulk => slot_config.len_for_message(spec.post_len),
    };
    let layout = SlotSchedule::new_all_open(
        n,
        SlotConfig {
            default_open_len: slot_len,
            ..slot_config
        },
    )
    .layout();
    let len = layout.total_len;
    out.notes.push(format!(
        "probes: N={n} M={m} group={} cleartext={len} B soundness={SOUNDNESS}",
        spec.group
    ));

    let secret = |rng: &mut dyn RngCore| {
        let mut s: SharedSecret = [0; 32];
        rng.fill_bytes(&mut s);
        s
    };
    let client_secrets: Vec<SharedSecret> = (0..m).map(|_| secret(&mut rng)).collect();
    let server_secrets: Vec<SharedSecret> = (0..n).map(|_| secret(&mut rng)).collect();
    let mut buf = vec![0u8; len];

    // crypto: stream cipher, hash.
    let mut stream = ChaCha20::new(&client_secrets[0], &[0; 12]);
    out.set(
        "crypto.chacha_fill_mib_per_s",
        mib_per_s(len, probe(|| stream.fill(black_box(&mut buf)))),
    );
    out.set(
        "crypto.sha256_mib_per_s",
        mib_per_s(len, probe(|| sha256(black_box(&buf)))),
    );

    // crypto: public key.
    let x = group.random_scalar(&mut rng);
    let y = group.random_scalar(&mut rng);
    let a = group.exp_base(&x);
    let b = group.exp_base(&y);
    out.set(
        "crypto.exp_us",
        probe(|| group.exp(black_box(&a), &y)) * 1e6,
    );
    out.set(
        "crypto.exp_base_us",
        probe(|| group.exp_base(black_box(&y))) * 1e6,
    );
    out.set(
        "crypto.multi_exp_us",
        probe(|| group.multi_exp(&a, &x, &b, &y)) * 1e6,
    );
    let signer = SigningKeyPair::generate(&group, &mut rng);
    let digest = sha256(&buf);
    let signature = signer.sign(&group, &mut rng, &digest);
    out.set(
        "crypto.schnorr_sign_us",
        probe(|| signer.sign(&group, &mut rng, black_box(&digest))) * 1e6,
    );
    out.set(
        "crypto.schnorr_verify_us",
        probe(|| {
            assert!(schnorr::verify(
                &group,
                signer.public(),
                &digest,
                black_box(&signature)
            ))
        }) * 1e6,
    );
    let (dh_a, dh_b) = (
        DhKeyPair::generate(&group, &mut rng),
        DhKeyPair::generate(&group, &mut rng),
    );
    out.set(
        "crypto.dh_shared_secret_us",
        probe(|| dh_a.shared_secret(&group, dh_b.public(), b"probe")) * 1e6,
    );

    // dcnet: pads, ciphertexts, combine, commitment, single-bit seek.
    out.set(
        "dcnet.pad_xor_mib_per_s",
        mib_per_s(
            len,
            probe(|| pad_xor_into(&server_secrets[0], 1, black_box(&mut buf))),
        ),
    );
    out.set(
        "dcnet.accumulate_pads_ms",
        probe(|| accumulate_pads(black_box(&mut buf), &server_secrets, 1)) * 1e3,
    );
    let owner = ClientDcnet::new(0, client_secrets.clone());
    let post = Submission::message(SlotPayload {
        next_len: slot_len as u32,
        shuffle_request: 0,
        message: vec![0x5a; spec.post_len],
    });
    out.set(
        "dcnet.client_ciphertext_us",
        probe(|| owner.ciphertext(&mut rng, &layout, &post)) * 1e6,
    );
    let composite: Vec<u32> = (0..n as u32).collect();
    let secrets_by_client: BTreeMap<u32, SharedSecret> = composite
        .iter()
        .copied()
        .zip(server_secrets.iter().copied())
        .collect();
    // One server's share of the submissions under the balanced assignment.
    let own: BTreeMap<u32, Arc<[u8]>> = composite
        .iter()
        .filter(|c| (**c as usize).is_multiple_of(m))
        .map(|c| (*c, Arc::from(vec![*c as u8; len])))
        .collect();
    out.set(
        "dcnet.server_ciphertext_ms",
        probe(|| server_ciphertext(1, len, &composite, &secrets_by_client, &own)) * 1e3,
    );
    let server_cts: BTreeMap<u32, Vec<u8>> =
        (0..m as u32).map(|j| (j, vec![j as u8 + 1; len])).collect();
    out.set(
        "dcnet.combine_us",
        probe(|| combine(len, &server_cts)) * 1e6,
    );
    out.set(
        "dcnet.commitment_us",
        probe(|| commitment(1, 0, black_box(&buf))) * 1e6,
    );
    let bits = len * 8;
    out.set(
        "dcnet.pad_bit_us",
        probe_many(32, |i| {
            pad_bit(&server_secrets[i % n], 1, len, (i * 7919) % bits)
        }) * 1e6,
    );

    // shuffle: the key shuffle of one set-up, and a client's audit of it.
    let servers: Vec<DhKeyPair> = (0..m)
        .map(|_| DhKeyPair::generate(&group, &mut rng))
        .collect();
    let server_keys: Vec<_> = servers.iter().map(|s| s.public().clone()).collect();
    let elgamal = ElGamal::new(group.clone());
    let submissions: Vec<_> = (0..n)
        .map(|_| {
            let key = SigningKeyPair::generate(&group, &mut rng);
            submit_element(&elgamal, &server_keys, key.public(), &mut rng)
        })
        .collect();
    let mut transcript = None;
    out.set(
        "shuffle.run_ms",
        probe(|| {
            transcript = run_shuffle(
                &group,
                &servers,
                submissions.clone(),
                SOUNDNESS,
                b"probe",
                &mut rng,
            )
            .ok();
        }) * 1e3,
    );
    match &transcript {
        Some(t) => out.set(
            "shuffle.verify_transcript_ms",
            probe(|| assert!(verify_transcript(&group, &server_keys, t, b"probe").is_ok())) * 1e3,
        ),
        None => out.fail("probe shuffle failed"),
    }

    // transport: the frame codec at the workload's two per-round frame
    // sizes (one client's submission, the round's cleartext).
    let submit = Frame::Protocol {
        payload: ProtocolMessage::ClientSubmit(ClientSubmit {
            round: 1,
            client: 0,
            upstream: 0,
            ciphertext: Arc::from(vec![0x33u8; len]),
        })
        .to_bytes(&group),
    };
    let cleartext = Frame::Cleartext {
        round: 1,
        certified: true,
        payload: vec![0x44; len],
    };
    let mut wire = Vec::new();
    out.set(
        "transport.write_frame_us",
        probe(|| {
            wire.clear();
            for frame in [&submit, &cleartext] {
                assert!(write_frame(&mut wire, black_box(frame)).is_ok());
            }
        }) * 1e6,
    );
    out.set(
        "transport.read_frame_us",
        probe(|| {
            let mut cursor = Cursor::new(black_box(&wire));
            for _ in 0..2 {
                assert!(matches!(read_frame(&mut cursor), Ok(Some(_))));
            }
        }) * 1e6,
    );
}
