//! `dissemination`: `run_dissemination_traced` over two-tier gateway trees
//! at `nproc` threads: 8 caching gateways with 24 devices each behind a
//! 3-hop lossy mesh, duty-cycled devices, two concurrent campaigns, and a
//! gateway cache that holds two thirds of both campaigns' blocks, so both
//! eviction and single-flight joins occur.
//!
//! A batch is `RUNS` such trees, each with its own seed and so its own two
//! firmware transitions, which keeps the byte metrics within a few percent
//! from seed to seed. `run_dissemination_traced` builds both campaigns
//! (keys, firmware, diff, direct reference fetch) inside the timed call.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_manifest::{DeviceToken, Version, SIGNED_MANIFEST_LEN};
use upkit_net::lossy::splitmix64;
use upkit_sim::{
    run_dissemination_traced, DisseminationReport, DutyCycle, FirmwareGenerator, TopologyConfig,
};
use upkit_trace::{Counters, CountersSnapshot, MemorySink, Tracer};

use crate::batch::{self, mean_of};
use crate::checks;
use crate::device::Keys;
use crate::layers::Layers;
use crate::replay::Transition;
use crate::spans::SpanLog;
use crate::stats::{mean, Outcome};
use crate::{host, setup_repeated, Args};

const RUNS: usize = 16;
const GATEWAYS: u32 = 8;
const DEVICES_PER_GATEWAY: u32 = 24;
const DEVICES: u32 = GATEWAYS * DEVICES_PER_GATEWAY;
const CAMPAIGNS: u32 = 2;
const FIRMWARE_SIZE: usize = 20_000;
const BLOCK_SIZE: usize = 512;
const SETUPS: usize = 3;

fn config(seed: u64, gateways: u32, threads: usize, cache_blocks: usize) -> TopologyConfig {
    TopologyConfig {
        gateways,
        devices_per_gateway: DEVICES_PER_GATEWAY,
        mesh_hops: 3,
        backhaul_hops: 2,
        loss_rate: 0.03,
        campaigns: CAMPAIGNS,
        firmware_size: FIRMWARE_SIZE,
        differential: true,
        cache_blocks,
        block_size: BLOCK_SIZE,
        duty: Some(DutyCycle::Periodic {
            awake_micros: 20_000_000,
            asleep_micros: 10_000_000,
        }),
        threads,
        seed,
        ..TopologyConfig::default()
    }
}

/// One tree of a batch with what the benchmark expects of it.
struct Tree {
    config: TopologyConfig,
    /// Each campaign's v1 → v2 images, rebuilt from its seed the way
    /// `run_dissemination_traced` derives them (golden-ratio step per
    /// campaign, then `^ 0xF00D`).
    transitions: Vec<Transition>,
    /// Served stream length (manifest + payload) of each campaign, from
    /// the benchmark's own server holding the same images.
    stream_lens: Vec<u64>,
}

impl Tree {
    fn new(seed: u64, keys: &Keys, threads: usize) -> Self {
        let mut transitions = Vec::new();
        let mut stream_lens = Vec::new();
        for c in 0..CAMPAIGNS {
            let campaign_seed =
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(c)));
            let generator = FirmwareGenerator::new(campaign_seed ^ 0xF00D);
            let old = generator.base(FIRMWARE_SIZE);
            let new = generator.os_version_change(&old);
            let v1 = keys.release(old.clone(), Version(1));
            let v2 = keys.release(new.clone(), Version(2));
            let server = keys.server(&[&v1, &v2], false, &Tracer::disabled());
            let token = DeviceToken {
                device_id: 0,
                nonce: 1,
                current_version: Version(1),
            };
            let package = server.prepare_update(&token).expect("v2 is newer than v1");
            stream_lens.push((SIGNED_MANIFEST_LEN + package.image.payload.len()) as u64);
            transitions.push(Transition { old, new });
        }
        let blocks: usize = stream_lens
            .iter()
            .map(|len| (*len as usize).div_ceil(BLOCK_SIZE))
            .sum();
        Self {
            config: config(seed, GATEWAYS, threads, blocks * 2 / 3),
            transitions,
            stream_lens,
        }
    }

    /// Upstream bounds: each gateway fetches every stream it serves at
    /// least once, and at most what one fetch per device would move.
    fn upstream_bounds(&self) -> (u64, u64) {
        let campaign_bytes: u64 = self.stream_lens.iter().sum();
        let per_device = (0..DEVICES)
            .map(|d| self.stream_lens[(d % CAMPAIGNS) as usize])
            .sum();
        (u64::from(GATEWAYS) * campaign_bytes, per_device)
    }
}

struct World {
    keys: Keys,
    trees: Vec<Tree>,
    threads: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let keys = Keys::generate(&mut StdRng::seed_from_u64(seed));
        let threads = host::nproc();
        let trees = (0..RUNS as u64)
            .map(|k| Tree::new(splitmix64(splitmix64(seed ^ 0xD15E) ^ k), &keys, threads))
            .collect();
        let world = Self {
            keys,
            trees,
            threads,
        };
        // Warm-up: the first tree, untimed.
        let _ = run_dissemination_traced(&world.trees[0].config, &Tracer::disabled());
        world
    }

    fn batch(
        &self,
        sink: Option<&Arc<MemorySink>>,
    ) -> (Vec<(DisseminationReport, CountersSnapshot)>, Vec<f64>) {
        let mut walls = Vec::new();
        let reports = self
            .trees
            .iter()
            .map(|tree| {
                let tracer = sink.map_or_else(Tracer::disabled, |sink| {
                    Tracer::with_sink(Box::new(Arc::clone(sink)))
                });
                let start = Instant::now();
                let report = run_dissemination_traced(&tree.config, &tracer);
                walls.push(start.elapsed().as_secs_f64());
                (report, tracer.counters().snapshot())
            })
            .collect();
        (reports, walls)
    }

    fn account(&self, reports: &[(DisseminationReport, CountersSnapshot)], out: &mut Outcome) {
        for (tree, (report, _)) in self.trees.iter().zip(reports) {
            let (lower, upper) = tree.upstream_bounds();
            out.attempted += u64::from(DEVICES);
            out.failed += u64::from(DEVICES - report.completed.min(DEVICES));
            out.correct &= checks::dissemination_ok(report, DEVICES, lower, upper);
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
        let transitions: Vec<&Transition> = world.trees.iter().map(|t| &t.transitions[0]).collect();
        let probes = batch::probes(&transitions, &world.keys, args.seed, &mut out);
        let sum = |f: fn(&DisseminationReport) -> u64| -> f64 {
            reports.iter().map(|(r, _)| f(r) as f64).sum()
        };
        let installs = sum(|r| r.installs);
        batch::push_timing(&mut out, setup_s, &walls, updates);
        out.push(
            "wire_bytes_per_update",
            "bytes",
            sum(|r| r.downstream_wire_bytes) / installs,
        );
        let payloads: Vec<f64> = world
            .trees
            .iter()
            .flat_map(|t| &t.stream_lens)
            .map(|len| (len - SIGNED_MANIFEST_LEN as u64) as f64)
            .collect();
        out.push("patch_bytes_per_transition", "bytes", mean(&payloads));
        out.push(
            "upstream_bytes_per_update",
            "bytes",
            sum(|r| r.upstream_bytes) / installs,
        );
        out.push("on_device_s", "s", mean_of(&probes, |r| r.on_device_s()));
        out.push(
            "makespan_s",
            "s",
            sum(|r| r.makespan_micros) / 1e6 / RUNS as f64,
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
    let (plain, _) = batches(half, None, &mut out);
    let sink = Arc::new(MemorySink::new());
    let mut log = SpanLog::new();
    let traced_start = Instant::now();
    let (traced, reports) = batches(half, Some(&sink), &mut out);
    log.record("sim.topology.batch", None, 0, traced_start, Instant::now());

    // The fleet's own sessions and proxies: session counts per install,
    // proxy counts per tree.
    let merged = Counters::default();
    for (_, counters) in &reports {
        merged.absorb(counters);
    }
    let totals = merged.snapshot();
    let sum = |f: fn(&DisseminationReport) -> u64| -> f64 {
        reports.iter().map(|(r, _)| f(r) as f64).sum()
    };
    let installs = sum(|r| r.installs);
    let per_install = |n: u64| n as f64 / installs;
    let per_tree = |n: f64| n / RUNS as f64;
    let mut layers = Layers::default();
    layers.set("net.session.frames", per_install(totals.frames_sent));
    layers.set("net.session.retries", per_install(totals.retries));
    layers.set("net.session.round_trips", per_install(totals.round_trips));
    layers.set(
        "net.session.backoff_s",
        per_install(totals.wait_micros) / 1e6,
    );
    layers.set(
        "crypto.sig_verifications",
        per_install(totals.sig_verifications),
    );
    layers.set(
        "crypto.sig_verify_memo_hits",
        per_install(totals.sig_verify_memo_hits),
    );
    let lookups = sum(|r| r.cache_hits + r.cache_misses);
    layers.set("net.proxy.hit_ratio", sum(|r| r.cache_hits) / lookups);
    layers.set(
        "net.proxy.upstream_fetches",
        per_tree(sum(|r| r.upstream_fetches)),
    );
    layers.set(
        "net.proxy.single_flight_joins",
        per_tree(sum(|r| r.single_flight_joins)),
    );
    layers.set("net.proxy.evictions", per_tree(sum(|r| r.evictions)));
    layers.set("sim.topology.events", per_tree(sum(|r| r.events)));
    let shares = batch::Shares {
        installs,
        worker_ms: batch::mean_batch(&traced) * 1e3 * world.threads as f64,
        accept: "sim.topology.lite_accept_ms",
    };
    batch::traced_tail(
        args,
        &world.keys,
        &world.trees[0].transitions[0],
        (log, &sink),
        (&plain, &traced),
        Some(shares),
        layers,
        &mut out,
    );
    out
}
