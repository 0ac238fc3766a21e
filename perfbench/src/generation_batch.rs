//! `generation_batch`: server only. In each batch, four base releases of
//! 256 KiB (earlier builds of one codebase) move to one new release for 64
//! device tokens. Every batch starts from a cold patch cache, and
//! `ParallelGenerator` at `nproc` threads prepares one package per token,
//! so the 16 tokens of one base share its transition.
//!
//! A run rotates through `CORPORA` codebases, each with its own seed, and
//! attempts whole rounds of one batch per codebase: one codebase's patch
//! sizes hinge on one binomial draw of its OS changes, and eight of them
//! keep the byte metrics within a few percent from seed to seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_core::generation::{PreparedUpdate, Release};
use upkit_core::ParallelGenerator;
use upkit_crypto::sha256::sha256;
use upkit_manifest::{DeviceToken, Version};
use upkit_net::lossy::splitmix64;
use upkit_sim::FirmwareGenerator;
use upkit_trace::{MemorySink, Tracer};

use crate::batch::{self, mean_of};
use crate::checks;
use crate::device::Keys;
use crate::layers::Layers;
use crate::replay::Transition;
use crate::spans::SpanLog;
use crate::stats::{mean, Outcome};
use crate::{host, setup_repeated, Args};

const FIRMWARE_SIZE: usize = 256 * 1024;
const CORPORA: usize = 8;
const BASES: u16 = 4;
const TOKENS_PER_BASE: u16 = 16;
const SETUPS: usize = 3;

/// One codebase: releases v1..=v4 (the bases) and v5 (the new release).
struct Corpus {
    releases: Vec<Release>,
    /// The benchmark's own SHA-256 of the new release's image.
    new_digest: [u8; 32],
}

impl Corpus {
    fn new(seed: u64, keys: &Keys) -> Self {
        let step = |i: u64| FirmwareGenerator::new(splitmix64(seed ^ (0x6E4 + i)));
        let mut images = vec![step(0).base(FIRMWARE_SIZE)];
        for i in 1..=u64::from(BASES) {
            let last = images.last().expect("a base image");
            let next = if i % 2 == 1 {
                step(i).app_change(last, 2_000)
            } else {
                step(i).os_version_change(last)
            };
            images.push(next);
        }
        let new_digest = sha256(images.last().expect("the new image"));
        let releases = images
            .into_iter()
            .enumerate()
            .map(|(i, image)| keys.release(image, Version(i as u16 + 1)))
            .collect();
        Self {
            releases,
            new_digest,
        }
    }

    fn new_release(&self) -> &Release {
        self.releases.last().expect("the new release")
    }

    fn transition(&self, base: usize) -> Transition {
        Transition {
            old: self.releases[base].firmware.clone(),
            new: self.new_release().firmware.clone(),
        }
    }
}

struct World {
    keys: Keys,
    corpora: Vec<Corpus>,
    tokens: Vec<DeviceToken>,
    threads: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let keys = Keys::generate(&mut StdRng::seed_from_u64(seed));
        let corpora = (0..CORPORA as u64)
            .map(|k| Corpus::new(splitmix64(splitmix64(seed ^ 0x6E4B) ^ k), &keys))
            .collect();
        let tokens = (0..BASES * TOKENS_PER_BASE)
            .map(|i| DeviceToken {
                device_id: 0x2000 + u32::from(i),
                nonce: splitmix64(seed ^ u64::from(i)) as u32 | 1,
                current_version: Version(i % BASES + 1),
            })
            .collect();
        let world = Self {
            keys,
            corpora,
            tokens,
            threads: host::nproc(),
        };
        // Warm-up: one untimed batch.
        world.batch(&world.corpora[0], &Tracer::disabled());
        world
    }

    /// One batch on a cold server: the packages and the timed wall.
    fn batch(&self, corpus: &Corpus, tracer: &Tracer) -> (Vec<Option<PreparedUpdate>>, f64) {
        let published: Vec<&Release> = corpus.releases.iter().collect();
        let server = self.keys.server(&published, false, tracer);
        let generator = ParallelGenerator::with_threads(&server, self.threads);
        let start = Instant::now();
        let packages = generator.prepare_updates_traced(&self.tokens, tracer);
        (packages, start.elapsed().as_secs_f64())
    }

    /// Output check of one batch, made apart from the server.
    fn check(&self, corpus: &Corpus, packages: &[Option<PreparedUpdate>]) -> bool {
        let new = corpus.new_release();
        let vendor = self.keys.vendor.verifying_key();
        let server = self.keys.server_key.verifying_key();
        let mut rebuilt: BTreeMap<u16, &[u8]> = BTreeMap::new();
        packages.iter().zip(&self.tokens).all(|(package, token)| {
            let Some(package) = package else { return false };
            let base = &corpus.releases[usize::from(token.current_version.0) - 1];
            // Decode and patch once per transition; the other packages of a
            // transition must carry the same payload bytes.
            let payload_ok = match rebuilt.get(&token.current_version.0) {
                Some(first) => *first == package.image.payload.as_slice(),
                None => {
                    let differential = package.image.signed_manifest.manifest.old_version.0 != 0;
                    let ok = checks::rebuilds(
                        &base.firmware,
                        &package.image.payload,
                        differential,
                        &new.firmware,
                    );
                    rebuilt.insert(token.current_version.0, &package.image.payload);
                    ok
                }
            };
            payload_ok
                && checks::package_verifies(
                    package,
                    token,
                    &vendor,
                    &server,
                    new.version,
                    new.firmware.len(),
                    &corpus.new_digest,
                )
        })
    }

    /// Whole rounds of one batch per corpus until `seconds` of batch time.
    /// Returns every round's batch walls and the first round's packages.
    fn rounds(
        &self,
        seconds: f64,
        tracer: &Tracer,
        mut log: Option<&mut SpanLog>,
        out: &mut Outcome,
    ) -> (batch::Walls, Vec<Vec<Option<PreparedUpdate>>>) {
        let mut walls: batch::Walls = Vec::new();
        let mut first_round = Vec::new();
        while walls.iter().flatten().sum::<f64>() < seconds {
            let mut round = Vec::with_capacity(self.corpora.len());
            for corpus in &self.corpora {
                let start = Instant::now();
                let (packages, wall) = self.batch(corpus, tracer);
                if let Some(log) = log.as_deref_mut() {
                    let op = (walls.len() * self.corpora.len() + round.len()) as u64;
                    log.record(
                        "core.parallel.prepare_updates",
                        None,
                        op,
                        start,
                        Instant::now(),
                    );
                }
                out.attempted += packages.len() as u64;
                out.failed += packages.iter().filter(|p| p.is_none()).count() as u64;
                out.correct &= self.check(corpus, &packages);
                round.push(wall);
                if first_round.len() < self.corpora.len() {
                    first_round.push(packages);
                }
            }
            walls.push(round);
        }
        (walls, first_round)
    }
}

pub fn run(args: &Args) -> Outcome {
    let (world, setup_s) = setup_repeated(SETUPS, || World::new(args.seed));
    let mut out = crate::outcome(world.threads);
    let tokens = world.tokens.len() as f64;

    if !args.trace {
        let (walls, first_round) = world.rounds(args.seconds, &Tracer::disabled(), None, &mut out);
        let packages: Vec<&PreparedUpdate> = first_round.iter().flatten().flatten().collect();
        let wire = mean(
            &packages
                .iter()
                .map(|p| p.wire_bytes as f64)
                .collect::<Vec<_>>(),
        );
        // One payload per (corpus, base) transition.
        let transitions: Vec<f64> = first_round
            .iter()
            .flat_map(|batch| {
                let mut per_base: BTreeMap<u16, f64> = BTreeMap::new();
                for (package, token) in batch.iter().zip(&world.tokens) {
                    if let Some(package) = package {
                        per_base
                            .insert(token.current_version.0, package.image.payload.len() as f64);
                    }
                }
                per_base.into_values()
            })
            .collect();
        // Each corpus's probe installs one of its transitions, cycling the
        // base version.
        let probe_transitions: Vec<Transition> = world
            .corpora
            .iter()
            .enumerate()
            .map(|(k, corpus)| corpus.transition(k % usize::from(BASES)))
            .collect();
        let refs: Vec<&Transition> = probe_transitions.iter().collect();
        let probes = batch::probes(&refs, &world.keys, args.seed, &mut out);
        batch::push_timing(&mut out, setup_s, &walls, tokens);
        out.push("wire_bytes_per_update", "bytes", wire);
        out.push("patch_bytes_per_transition", "bytes", mean(&transitions));
        // A gateway fetches each package once from the server.
        out.push("upstream_bytes_per_update", "bytes", wire);
        out.push("on_device_s", "s", mean_of(&probes, |r| r.on_device_s()));
        // The batch's devices install in parallel once it is ready: the
        // slowest probed install sets the makespan.
        out.push(
            "makespan_s",
            "s",
            probes.iter().map(|r| r.on_device_s()).fold(0.0, f64::max),
        );
        out.push(
            "flash_bytes_per_update",
            "bytes",
            mean_of(&probes, |r| r.flash_bytes_written as f64),
        );
        out.push("peak_rss_mib", "MiB", host::peak_rss_mib());
        return out;
    }

    let half = args.seconds / 2.0;
    let (plain, _) = world.rounds(half, &Tracer::disabled(), None, &mut out);
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
    let mut log = SpanLog::new();
    let (traced, _) = world.rounds(half, &tracer, Some(&mut log), &mut out);
    // The batches' own ledger, per package.
    let counters = tracer.counters().snapshot();
    let calls = traced.iter().map(Vec::len).sum::<usize>() as f64;
    let per_package = |n: u64| n as f64 / calls / tokens;
    let mut layers = Layers::default();
    layers.set(
        "core.generation.cache_hits",
        per_package(counters.patch_cache_hits),
    );
    layers.set(
        "core.generation.cache_misses",
        per_package(counters.patch_cache_misses),
    );
    layers.set(
        "crypto.sig_verifications",
        per_package(counters.sig_verifications),
    );
    layers.set(
        "crypto.sig_verify_memo_hits",
        per_package(counters.sig_verify_memo_hits),
    );
    batch::traced_tail(
        args,
        &world.keys,
        &world.corpora[0].transition(0),
        (log, &sink),
        (&plain, &traced),
        None,
        layers,
        &mut out,
    );
    out
}
