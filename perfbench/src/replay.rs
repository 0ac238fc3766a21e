//! Layer replays and the delivery probe.
//!
//! A replay re-runs one layer's public function, inside its own span, on the
//! exact images a workload used: the old and new firmware of one of its
//! transitions, the patch and served payload derived from them, and a
//! manifest signed for them. The probe installs that transition on a full
//! device (agent, pipeline, flash, bootloader) through a pull session over
//! a seeded lossy link, so every workload also reports the device-side cost
//! of what it served.

use std::hint::black_box;
use std::time::Instant;

use upkit_compress::{compress, decompress, Params};
use upkit_core::generation::content_nonce;
use upkit_crypto::chacha20::chacha20_xor;
use upkit_crypto::sha256::sha256;
use upkit_delta::suffix::SuffixArray;
use upkit_delta::DeltaContext;
use upkit_manifest::{DeviceToken, Version};
use upkit_trace::Tracer;

use crate::checks;
use crate::device::{Device, DeviceSpec, Keys, Path, Slots, UpdateRecord};
use crate::layers::Layers;
use crate::spans::SpanLog;
use crate::stats::median;

/// Loss rate of the probe's and the lossy device's last-hop link.
pub const LOSSY_LINK: f64 = 0.05;

/// A replay: its metric, its span name, and the call, which returns when
/// its timed part started and ended.
type Replay<'a> = (
    &'static str,
    &'static str,
    Box<dyn FnMut() -> (Instant, Instant) + 'a>,
);

const MIN_REPLAYS: usize = 5;
const MIN_REPLAY_S: f64 = 0.05;

/// One (old → new) transition a workload served.
pub struct Transition {
    pub old: Vec<u8>,
    pub new: Vec<u8>,
}

/// The probe device: pull through a border router, A/B slots, lossy link.
const PROBE: DeviceSpec = DeviceSpec {
    path: Path::Pull,
    slots: Slots::AB,
    encrypted: false,
    loss_rate: LOSSY_LINK,
};

/// Installs `t` on a fresh probe device and checks the booted image.
/// Returns the record and whether the device runs `t.new` at version 2.
pub fn probe(
    t: &Transition,
    keys: &Keys,
    seed: u64,
    spans: Option<(&mut SpanLog, u64)>,
) -> (UpdateRecord, bool) {
    let tracer = Tracer::disabled();
    let v1 = keys.release(t.old.clone(), Version(1));
    let v2 = keys.release(t.new.clone(), Version(2));
    let max_image = t.old.len().max(t.new.len());
    let mut device = Device::provision(0x0B0B, PROBE, keys, v1.clone(), max_image);
    device.set_tracer(&tracer);
    let server = keys.server(&[&v1, &v2], false, &tracer);
    let record = device.update(&server, seed, &tracer, spans);
    let (version, image) = device.running_image(t.new.len());
    let ok = record.complete && checks::device_runs((version, &image), Version(2), &t.new);
    (record, ok)
}

/// Replays every pure-function layer on `t`, each at least `MIN_REPLAYS`
/// times and for at least `MIN_REPLAY_S` seconds, and records the median
/// time of one call in ms.
pub fn layers(t: &Transition, keys: &Keys, log: &mut SpanLog, op: u64, layers: &mut Layers) {
    let tracer = Tracer::disabled();
    let v1 = keys.release(t.old.clone(), Version(1));
    let v2 = keys.release(t.new.clone(), Version(2));
    let token = DeviceToken {
        device_id: 0x0B0B,
        nonce: 0x5EED,
        current_version: Version(1),
    };
    let context = DeltaContext::new(&t.old);
    let patch = context.diff(&t.old, &t.new);
    let warm = keys.server(&[&v1, &v2], false, &tracer);
    let prepared = warm.prepare_update(&token).expect("v2 is newer than v1");
    let payload = prepared.image.payload.clone();
    let signed = prepared.image.signed_manifest;
    let manifest_bytes = signed.to_bytes();
    let server_msg = signed.manifest.server_signed_bytes();
    let server_vk = keys.server_key.verifying_key();
    let vendor_vk = keys.vendor.verifying_key();
    let nonce = content_nonce(token.device_id, token.nonce, Version(2));
    let stream = decompress(&payload).expect("served payload decodes");
    let expected = sha256(&t.new);

    let cold = || keys.server(&[&v1, &v2], false, &tracer);
    let warmed = cold();
    assert!(warmed.warm(Version(1), &tracer), "transition to warm");
    let mut replays: Vec<Replay<'_>> = vec![
        (
            "delta.suffix_array_ms",
            "delta.suffix_array",
            Box::new(|| {
                timed(|| {
                    black_box(SuffixArray::build(&t.old));
                })
            }),
        ),
        (
            "delta.diff_ms",
            "delta.diff",
            Box::new(|| {
                timed(|| {
                    black_box(context.diff(&t.old, &t.new));
                })
            }),
        ),
        (
            "compress.lzss_encode_ms",
            "compress.lzss_encode",
            Box::new(|| {
                timed(|| {
                    black_box(compress(&patch, Params::default()));
                })
            }),
        ),
        // Building the server is outside the span; only the warm is timed.
        (
            "core.generation.warm_ms",
            "core.generation.warm",
            Box::new(|| {
                let server = cold();
                timed(|| assert!(server.warm(Version(1), &tracer), "transition to warm"))
            }),
        ),
        (
            "core.generation.prepare_ms",
            "core.generation.prepare",
            Box::new(|| {
                timed(|| {
                    black_box(warmed.prepare_update(&token));
                })
            }),
        ),
        (
            "crypto.ecdsa_sign_ms",
            "crypto.ecdsa_sign",
            Box::new(|| {
                timed(|| {
                    black_box(keys.server_key.sign(&server_msg));
                })
            }),
        ),
        (
            "core.generation.sign_ms",
            "core.generation.sign",
            Box::new(|| {
                timed(|| {
                    black_box(upkit_manifest::server_sign(
                        &signed.manifest,
                        &keys.server_key,
                    ));
                })
            }),
        ),
        (
            "crypto.ecdsa_verify_ms",
            "crypto.ecdsa_verify",
            Box::new(|| {
                timed(|| {
                    assert!(server_vk
                        .verify(&server_msg, &signed.server_signature)
                        .is_ok());
                })
            }),
        ),
        (
            "crypto.sha256_ms",
            "crypto.sha256",
            Box::new(|| {
                timed(|| {
                    black_box(sha256(&t.new));
                })
            }),
        ),
        (
            "compress.lzss_decode_ms",
            "compress.lzss_decode",
            Box::new(|| {
                timed(|| {
                    black_box(decompress(&payload).expect("payload decodes"));
                })
            }),
        ),
        (
            "delta.patch_ms",
            "delta.patch",
            Box::new(|| {
                timed(|| {
                    black_box(upkit_delta::patch(&t.old, &stream).expect("patch applies"));
                })
            }),
        ),
        (
            "crypto.chacha20_ms",
            "crypto.chacha20",
            Box::new(|| {
                timed(|| {
                    black_box(chacha20_xor(&keys.content_key, &nonce, &payload));
                })
            }),
        ),
        // The campaign's lite device: memo key over the manifest (its
        // signature verdict is memoized), decode, patch, digest check.
        (
            "sim.campaign.lite_accept_ms",
            "sim.campaign.lite_accept",
            Box::new(|| {
                timed(|| {
                    black_box(sha256(&manifest_bytes));
                    let stream = decompress(&payload).expect("payload decodes");
                    let image = upkit_delta::patch(&t.old, &stream).expect("patch applies");
                    assert_eq!(sha256(&image), expected);
                })
            }),
        ),
        // The dissemination's lite device verifies both signatures itself.
        (
            "sim.topology.lite_accept_ms",
            "sim.topology.lite_accept",
            Box::new(|| {
                timed(|| {
                    assert!(signed.verify_with_keys(&vendor_vk, &server_vk).is_ok());
                    let stream = decompress(&payload).expect("payload decodes");
                    let image = upkit_delta::patch(&t.old, &stream).expect("patch applies");
                    assert_eq!(sha256(&image), expected);
                })
            }),
        ),
    ];

    let root = log.open("replay", None, op);
    for (metric, span, replay) in &mut replays {
        let mut samples = Vec::new();
        let mut total = 0.0;
        while samples.len() < MIN_REPLAYS || (total < MIN_REPLAY_S && samples.len() < 10_000) {
            let (start, end) = replay();
            log.record(span, Some(root), op, start, end);
            let s = (end - start).as_secs_f64();
            total += s;
            samples.push(s * 1e3);
        }
        layers.set(metric, median(&samples));
    }
    log.close(root);
}

/// Runs `f` and returns when it started and ended.
fn timed(f: impl FnOnce()) -> (Instant, Instant) {
    let start = Instant::now();
    f();
    (start, Instant::now())
}
