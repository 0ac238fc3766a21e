//! `campaign`: staged campaigns over 24 000 lite devices per batch
//! (`run_campaign_traced`: broadcast manifests, dogfood/beta/prod stages,
//! 4 shards each) at `nproc` threads. ECDSA is memoized and the server
//! diffs once per campaign, so the device byte path (LZSS decode, bspatch,
//! SHA-256) and the sharded orchestrator carry the time.
//!
//! A batch is `CAMPAIGNS` campaigns of 1 500 devices, each with its own
//! seed and so its own firmware: one campaign's patch size is one binomial
//! draw of the OS change, and 16 of them keep the byte metrics within a few
//! percent from seed to seed. `run_campaign_traced` builds its keys,
//! firmware, server and fleet inside the timed call.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_manifest::Version;
use upkit_net::lossy::splitmix64;
use upkit_sim::campaign::{run_campaign_traced, CampaignConfig, CampaignReport};
use upkit_sim::{FirmwareGenerator, FleetConfig};
use upkit_trace::{Counters, CountersSnapshot, MemorySink, Tracer};

use crate::batch::{self, mean_of};
use crate::checks;
use crate::device::Keys;
use crate::layers::Layers;
use crate::replay::Transition;
use crate::spans::SpanLog;
use crate::stats::{mean, Outcome};
use crate::{host, setup_repeated, Args};

const CAMPAIGNS: usize = 32;
const DEVICES: u32 = 750;
const FIRMWARE_SIZE: usize = 20_000;
const SETUPS: usize = 3;

fn config(seed: u64, devices: u32, threads: usize) -> CampaignConfig {
    CampaignConfig {
        fleet: FleetConfig {
            devices,
            poll_fraction: 0.25,
            firmware_size: FIRMWARE_SIZE,
            differential: true,
            seed,
        },
        shards: 4,
        threads,
        stage_rounds: 4,
        ..CampaignConfig::default()
    }
}

/// One campaign of a batch with what the benchmark expects of it.
struct Campaign {
    config: CampaignConfig,
    /// The campaign's v1 → v2 images, rebuilt from its seed the way
    /// `run_campaign_traced` derives them (`seed ^ 0xF00D`).
    transition: Transition,
    /// Wire length of the broadcast package, from the benchmark's own
    /// server holding the same two images.
    package_wire_bytes: u64,
    /// Payload length of that package.
    package_payload_bytes: u64,
}

struct World {
    keys: Keys,
    campaigns: Vec<Campaign>,
    threads: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let threads = host::nproc();
        let keys = Keys::generate(&mut StdRng::seed_from_u64(seed));
        let campaigns = (0..CAMPAIGNS as u64)
            .map(|k| {
                let campaign_seed = splitmix64(splitmix64(seed ^ 0xCA3D) ^ k);
                let generator = FirmwareGenerator::new(campaign_seed ^ 0xF00D);
                let old = generator.base(FIRMWARE_SIZE);
                let new = generator.os_version_change(&old);
                let v1 = keys.release(old.clone(), Version(1));
                let v2 = keys.release(new.clone(), Version(2));
                let server = keys.server(&[&v1, &v2], false, &Tracer::disabled());
                let package = server
                    .prepare_campaign_update(Version(1))
                    .expect("v2 is newer than v1");
                Campaign {
                    config: config(campaign_seed, DEVICES, threads),
                    transition: Transition { old, new },
                    package_wire_bytes: package.wire_bytes,
                    package_payload_bytes: package.image.payload.len() as u64,
                }
            })
            .collect();
        let world = Self {
            keys,
            campaigns,
            threads,
        };
        // Warm-up: the first campaign, untimed.
        let _ = run_campaign_traced(&world.campaigns[0].config, &Tracer::disabled());
        world
    }

    /// Runs every campaign of a batch. Returns the reports with their
    /// counters and the timed wall.
    fn batch(
        &self,
        sink: Option<&Arc<MemorySink>>,
    ) -> (Vec<(CampaignReport, CountersSnapshot)>, Vec<f64>) {
        let mut walls = Vec::new();
        let reports = self
            .campaigns
            .iter()
            .map(|campaign| {
                let tracer = sink.map_or_else(Tracer::disabled, |sink| {
                    Tracer::with_sink(Box::new(Arc::clone(sink)))
                });
                let start = Instant::now();
                let report = run_campaign_traced(&campaign.config, &tracer);
                walls.push(start.elapsed().as_secs_f64());
                (report, tracer.counters().snapshot())
            })
            .collect();
        (reports, walls)
    }

    fn account(&self, reports: &[(CampaignReport, CountersSnapshot)], out: &mut Outcome) {
        for (campaign, (report, counters)) in self.campaigns.iter().zip(reports) {
            out.attempted += u64::from(DEVICES);
            out.failed += u64::from(DEVICES - report.updated.min(DEVICES));
            out.correct &=
                checks::campaign_ok(report, counters, DEVICES, campaign.package_wire_bytes);
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let (world, setup_s) = setup_repeated(SETUPS, || World::new(args.seed));
    let mut out = crate::outcome(world.threads);
    let updates = f64::from(DEVICES);
    let batches = |seconds: f64, sink: Option<&Arc<MemorySink>>, out: &mut Outcome| {
        let mut last = Vec::new();
        let walls = batch::timed(seconds, || {
            let (reports, walls) = world.batch(sink);
            world.account(&reports, out);
            last = reports;
            walls
        });
        (walls, last)
    };

    if !args.trace {
        let (walls, reports) = batches(args.seconds, None, &mut out);
        let transitions: Vec<&Transition> = world.campaigns.iter().map(|c| &c.transition).collect();
        let probes = batch::probes(&transitions, &world.keys, args.seed, &mut out);
        let per_install: Vec<f64> = reports
            .iter()
            .map(|(r, _)| r.total_wire_bytes as f64 / f64::from(r.updated))
            .collect();
        batch::push_timing(&mut out, setup_s, &walls, updates);
        out.push("wire_bytes_per_update", "bytes", mean(&per_install));
        // The campaigns' own packages, the way dissemination reports its
        // streams' payloads.
        let payloads: Vec<f64> = world
            .campaigns
            .iter()
            .map(|c| c.package_payload_bytes as f64)
            .collect();
        out.push("patch_bytes_per_transition", "bytes", mean(&payloads));
        // Lite devices fetch straight from the server: no gateway between.
        out.push("upstream_bytes_per_update", "bytes", mean(&per_install));
        out.push("on_device_s", "s", mean_of(&probes, |r| r.on_device_s()));
        // Each round's polling devices install in parallel; rounds follow
        // one another.
        let makespans: Vec<f64> = reports
            .iter()
            .zip(&probes)
            .map(|((report, _), probe)| report.rounds.len() as f64 * probe.on_device_s())
            .collect();
        out.push("makespan_s", "s", mean(&makespans));
        out.push(
            "flash_bytes_per_update",
            "bytes",
            mean_of(&probes, |r| r.flash_bytes_written as f64),
        );
        out.push("peak_rss_mib", "MiB", host::peak_rss_mib());
        return out;
    }

    let half = args.seconds / 2.0;
    let (plain, _) = batches(half, None, &mut out);
    let sink = Arc::new(MemorySink::new());
    let mut log = SpanLog::new();
    let traced_start = Instant::now();
    let (traced, reports) = batches(half, Some(&sink), &mut out);
    log.record("sim.campaign.batch", None, 0, traced_start, Instant::now());

    let merged = Counters::default();
    let mut rounds = Vec::new();
    for (report, counters) in &reports {
        merged.absorb(counters);
        rounds.push(report.rounds.len() as f64);
    }
    let totals = merged.snapshot();
    let installs = updates * CAMPAIGNS as f64;
    let per_install = |n: u64| n as f64 / installs;
    let mut layers = Layers::default();
    layers.set(
        "core.generation.cache_hits",
        per_install(totals.patch_cache_hits),
    );
    layers.set(
        "core.generation.cache_misses",
        per_install(totals.patch_cache_misses),
    );
    layers.set(
        "crypto.sig_verifications",
        per_install(totals.sig_verifications),
    );
    layers.set(
        "crypto.sig_verify_memo_hits",
        per_install(totals.sig_verify_memo_hits),
    );
    layers.set("sim.campaign.rounds", mean(&rounds));
    let shares = batch::Shares {
        installs,
        worker_ms: batch::mean_batch(&traced) * 1e3 * world.threads as f64,
        accept: "sim.campaign.lite_accept_ms",
    };
    let transition = &world.campaigns[0].transition;
    batch::traced_tail(
        args,
        &world.keys,
        transition,
        (log, &sink),
        (&plain, &traced),
        Some(shares),
        layers,
        &mut out,
    );
    out
}
