//! `device_update`: a handful of persistent devices, each walking its own
//! release chain of 100 kB images, updated round-robin in a fixed mix.
//!
//! One pass updates every device three times: a full image (a fresh base
//! build), an app-change differential and an OS-change differential, in
//! that order. The devices differ in path (push/pull), slots (A/B, static
//! swap), content encryption and link loss. Every update is a new
//! transition on a fresh server, so the server diffs on every request;
//! releases are built and published outside the timed update.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_core::generation::Release;
use upkit_manifest::Version;
use upkit_net::lossy::splitmix64;
use upkit_sim::FirmwareGenerator;
use upkit_trace::{MemorySink, Tracer};

use crate::checks;
use crate::device::{Device, DeviceSpec, Keys, Path, Slots, UpdateRecord};
use crate::layers::{device_counts, event_counts, Layers};
use crate::replay::{self, Transition, LOSSY_LINK};
use crate::spans::SpanLog;
use crate::stats::{mean, median, quantile, Outcome};
use crate::{setup_repeated, Args};

const FIRMWARE_SIZE: usize = 100_000;
const APP_CHANGE_BYTES: usize = 1_000;
/// Byte, count and virtual-time metrics cover the first passes after
/// set-up, which every run completes, so they repeat exactly per seed.
const FIXED_PASSES: usize = 4;
const SETUPS: usize = 3;

const DEVICES: [DeviceSpec; 4] = [
    DeviceSpec {
        path: Path::Pull,
        slots: Slots::AB,
        encrypted: false,
        loss_rate: 0.0,
    },
    DeviceSpec {
        path: Path::Push,
        slots: Slots::StaticSwap,
        encrypted: false,
        loss_rate: 0.0,
    },
    DeviceSpec {
        path: Path::Push,
        slots: Slots::AB,
        encrypted: true,
        loss_rate: 0.0,
    },
    DeviceSpec {
        path: Path::Pull,
        slots: Slots::StaticSwap,
        encrypted: false,
        loss_rate: LOSSY_LINK,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    AppChange,
    OsChange,
}

const KINDS: [Kind; 3] = [Kind::Full, Kind::AppChange, Kind::OsChange];

fn mix(seed: u64, device: usize, pass: usize, what: u64) -> u64 {
    splitmix64(seed ^ splitmix64(((device as u64) << 40) ^ ((pass as u64) << 8) ^ what))
}

/// The firmware of `device`'s next release in `pass`.
fn next_firmware(seed: u64, device: usize, pass: usize, kind: Kind, current: &[u8]) -> Vec<u8> {
    match kind {
        Kind::Full => FirmwareGenerator::new(mix(seed, device, pass, 0)).base(FIRMWARE_SIZE),
        Kind::AppChange => {
            FirmwareGenerator::new(mix(seed, device, pass, 1)).app_change(current, APP_CHANGE_BYTES)
        }
        Kind::OsChange => {
            FirmwareGenerator::new(mix(seed, device, pass, 2)).os_version_change(current)
        }
    }
}

struct World {
    seed: u64,
    keys: Keys,
    devices: Vec<Device>,
    pass: usize,
    tracer: Tracer,
}

/// One update of the loop, with what the output check found.
struct Done {
    device: usize,
    record: UpdateRecord,
    /// The booted image is the release's firmware at the release's version.
    correct: bool,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = Keys::generate(&mut rng);
        let devices = DEVICES
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let firmware = next_firmware(seed, i, 0, Kind::Full, &[]);
                let release = keys.release(firmware, Version(1));
                let max_image = FIRMWARE_SIZE + 8 * 1024;
                Device::provision(0x100 + i as u32, *spec, &keys, release, max_image)
            })
            .collect();
        let mut world = Self {
            seed,
            keys,
            devices,
            pass: 0,
            tracer: Tracer::disabled(),
        };
        world.set_tracer(Tracer::disabled());
        // Warm-up: one untimed pass.
        world.run_pass(None);
        world
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        for device in &mut self.devices {
            device.set_tracer(&tracer);
        }
        self.tracer = tracer;
    }

    /// Runs one pass of the mix. Returns every update and the pass's wall
    /// time.
    fn run_pass(&mut self, mut spans: Option<&mut SpanLog>) -> (Vec<Done>, f64) {
        self.pass += 1;
        let start = Instant::now();
        let mut done = Vec::with_capacity(KINDS.len() * self.devices.len());
        for kind in KINDS {
            for d in 0..self.devices.len() {
                let device = &mut self.devices[d];
                let firmware =
                    next_firmware(self.seed, d, self.pass, kind, &device.release.firmware);
                let version = Version(device.release.version.0 + 1);
                let release = self.keys.release(firmware, version);
                let published: Vec<&Release> = match kind {
                    Kind::Full => vec![&release],
                    Kind::AppChange | Kind::OsChange => vec![&device.release, &release],
                };
                let server = self
                    .keys
                    .server(&published, device.spec.encrypted, &self.tracer);
                let op = (self.pass * 100 + done.len()) as u64;
                let link_seed = mix(self.seed, d, self.pass, 3 + kind as u64);
                let record = device.update(
                    &server,
                    link_seed,
                    &self.tracer,
                    spans.as_deref_mut().map(|log| (log, op)),
                );
                let mut correct = true;
                if record.complete {
                    let (running, image) = device.running_image(release.firmware.len());
                    correct = checks::device_runs((running, &image), version, &release.firmware);
                    device.adopt(release);
                }
                done.push(Done {
                    device: d,
                    record,
                    correct,
                });
            }
        }
        (done, start.elapsed().as_secs_f64())
    }
}

/// A closed loop of passes for `seconds` (and at least `FIXED_PASSES`).
struct Loop {
    passes: Vec<(Vec<Done>, f64)>,
}

impl Loop {
    fn run(world: &mut World, seconds: f64, mut spans: Option<&mut SpanLog>) -> Self {
        let mut passes = Vec::new();
        let mut elapsed = 0.0;
        while elapsed < seconds || passes.len() < FIXED_PASSES {
            let mut pass = world.run_pass(spans.as_deref_mut());
            elapsed += pass.1;
            if passes.len() >= FIXED_PASSES {
                // Only the fixed passes' counters are reported.
                for done in &mut pass.0 {
                    done.record.counters.clear();
                }
            }
            passes.push(pass);
        }
        Self { passes }
    }

    fn updates(&self) -> impl Iterator<Item = &Done> {
        self.passes.iter().flat_map(|(done, _)| done)
    }

    fn fixed(&self) -> impl Iterator<Item = &Done> {
        self.passes[..FIXED_PASSES]
            .iter()
            .flat_map(|(done, _)| done)
    }

    fn completed(&self) -> u64 {
        self.updates().filter(|u| u.record.complete).count() as u64
    }

    fn wall(&self) -> f64 {
        self.passes.iter().map(|(_, wall)| wall).sum()
    }

    fn updates_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall()
    }

    fn fixed_mean(&self, f: impl Fn(&UpdateRecord) -> f64) -> f64 {
        let values: Vec<f64> = self.fixed().map(|u| f(&u.record)).collect();
        mean(&values)
    }
}

pub fn run(args: &Args) -> Outcome {
    let (mut world, setup_s) = setup_repeated(SETUPS, || World::new(args.seed));
    let mut out = crate::outcome(1);
    if !args.trace {
        let run = Loop::run(&mut world, args.seconds, None);
        account(&run, &mut out);
        let latencies: Vec<f64> = run
            .updates()
            .map(|u| u.record.host_ns as f64 / 1e6)
            .collect();
        // The server's share of a pass: preparing its packages.
        let prepare_s: Vec<f64> = run
            .passes
            .iter()
            .map(|(done, _)| done.iter().map(|u| u.record.prepare_ns as f64 / 1e9).sum())
            .collect();
        // Devices update in parallel with each other, each device's updates
        // of a pass in sequence.
        let makespans: Vec<f64> = run.passes[..FIXED_PASSES]
            .iter()
            .map(|(done, _)| {
                (0..DEVICES.len())
                    .map(|d| {
                        done.iter()
                            .filter(|u| u.device == d)
                            .map(|u| u.record.on_device_s())
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        out.push("setup_s", "s", setup_s);
        out.push("updates_per_s", "1/s", run.updates_per_s());
        out.push("update_ms_p50", "ms", median(&latencies));
        out.push("update_ms_p95", "ms", quantile(&latencies, 0.95));
        out.push("batch_s", "s", median(&prepare_s));
        out.push(
            "wire_bytes_per_update",
            "bytes",
            run.fixed_mean(|r| r.wire_bytes as f64),
        );
        out.push(
            "patch_bytes_per_transition",
            "bytes",
            run.fixed_mean(|r| r.payload_bytes as f64),
        );
        out.push(
            "upstream_bytes_per_update",
            "bytes",
            run.fixed_mean(|r| r.upstream_bytes as f64),
        );
        out.push(
            "on_device_s",
            "s",
            run.fixed_mean(UpdateRecord::on_device_s),
        );
        out.push("makespan_s", "s", mean(&makespans));
        out.push(
            "flash_bytes_per_update",
            "bytes",
            run.fixed_mean(|r| r.flash_bytes_written as f64),
        );
        out.push("peak_rss_mib", "MiB", crate::host::peak_rss_mib());
        return out;
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // same loop with spans and an event sink.
    let half = args.seconds / 2.0;
    let plain = Loop::run(&mut world, half, None);
    account(&plain, &mut out);
    let sink = std::sync::Arc::new(MemorySink::new());
    world.set_tracer(Tracer::with_sink(Box::new(std::sync::Arc::clone(&sink))));
    let mut log = SpanLog::new();
    let traced = Loop::run(&mut world, half, Some(&mut log));
    account(&traced, &mut out);

    let mut layers = Layers::default();
    layers.device_times(&log, traced.updates().count());
    let fixed: Vec<&UpdateRecord> = plain.fixed().map(|u| &u.record).collect();
    for (name, value) in device_counts(&fixed) {
        layers.set(name, value);
    }
    let totals = log.totals();
    let span_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let device_ns = span_ns("core.agent.push_data")
        + span_ns("core.agent.request_token")
        + span_ns("core.bootloader.boot");
    layers.set("sim.campaign.device_share", device_ns / span_ns("update"));

    // Replays on the OS-change transition of device 0's first timed pass.
    let base = next_firmware(args.seed, 0, 2, Kind::Full, &[]);
    let app = next_firmware(args.seed, 0, 2, Kind::AppChange, &base);
    let os = next_firmware(args.seed, 0, 2, Kind::OsChange, &app);
    let transition = Transition { old: app, new: os };
    replay::layers(&transition, &world.keys, &mut log, 0, &mut layers);
    layers.set(
        "sim.campaign.sha256_share",
        layers.get("crypto.sha256_ms") * plain.updates_per_s() / 1e3,
    );
    layers.set(
        "bench.trace_overhead_pct",
        (plain.updates_per_s() / traced.updates_per_s() - 1.0) * 100.0,
    );
    crate::write_spans(args, &log, &event_counts(&sink.snapshot()));
    layers.finish(&mut out);
    out
}

fn account(run: &Loop, out: &mut Outcome) {
    for update in run.updates() {
        out.attempted += 1;
        if !update.record.complete {
            out.failed += 1;
        }
        if !update.correct {
            out.correct = false;
        }
    }
}
