//! The parts every batch workload (generation batch, campaign,
//! dissemination) shares: the timed loop, the timing metrics, the probe
//! metrics, and the tail of a traced run.

use std::sync::Arc;

use upkit_net::lossy::splitmix64;
use upkit_trace::MemorySink;

use crate::device::{Keys, UpdateRecord};
use crate::layers::{event_counts, Layers};
use crate::replay::{self, Transition};
use crate::spans::SpanLog;
use crate::stats::{mean, median, quantile, Outcome};
use crate::Args;

/// Timed walls of every batch a loop ran, one per unit of the batch (a
/// campaign, a tree, a generator call); unit `k` is the same work in every
/// batch.
pub type Walls = Vec<Vec<f64>>;

fn total(walls: &Walls) -> f64 {
    walls.iter().flatten().sum()
}

/// Runs `batch` until the unit walls it returns add up to `seconds`.
pub fn timed(seconds: f64, mut batch: impl FnMut() -> Vec<f64>) -> Walls {
    let mut walls = Vec::new();
    while total(&walls) < seconds {
        walls.push(batch());
    }
    walls
}

/// Mean wall of one batch.
pub fn mean_batch(walls: &Walls) -> f64 {
    total(walls) / walls.len() as f64
}

/// Set-up and timing metrics of batches whose units hold `updates` updates
/// each, run at the outcome's worker threads. An update's latency is the
/// worker time (wall × threads) its unit spent per update, taken as the
/// unit's median over the batches: a percentile then ranks the units' work,
/// and one batch the host slowed down does not move it.
pub fn push_timing(out: &mut Outcome, setup_s: f64, walls: &Walls, updates: f64) {
    let per_update = |wall: f64| wall * 1e3 * out.threads as f64 / updates;
    let unit_ms =
        |k: usize| -> Vec<f64> { walls.iter().map(|units| per_update(units[k])).collect() };
    let worker_ms: Vec<f64> = (0..walls[0].len()).map(|k| median(&unit_ms(k))).collect();
    let batch_walls: Vec<f64> = walls.iter().map(|units| units.iter().sum()).collect();
    let installs = walls.iter().map(Vec::len).sum::<usize>() as f64 * updates;
    out.push("setup_s", "s", setup_s);
    out.push("updates_per_s", "1/s", installs / total(walls));
    out.push("update_ms_p50", "ms", median(&worker_ms));
    out.push("update_ms_p95", "ms", quantile(&worker_ms, 0.95));
    out.push("batch_s", "s", median(&batch_walls));
}

/// Installs each transition on a probe device, each over its own seeded
/// lossy link; fails the run on a wrong image.
pub fn probes(
    transitions: &[&Transition],
    keys: &Keys,
    seed: u64,
    out: &mut Outcome,
) -> Vec<UpdateRecord> {
    transitions
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let link_seed = splitmix64(seed ^ (i as u64) << 32);
            let (record, ok) = replay::probe(t, keys, link_seed, None);
            out.correct &= ok;
            record
        })
        .collect()
}

pub fn mean_of(records: &[UpdateRecord], f: impl Fn(&UpdateRecord) -> f64) -> f64 {
    mean(&records.iter().map(f).collect::<Vec<_>>())
}

/// How much of a fleet batch's worker time its lite devices' accept path
/// takes, from the replayed accept time of one install.
pub struct Shares {
    /// Installs per batch.
    pub installs: f64,
    /// Worker time of one traced batch (wall × threads), in ms.
    pub worker_ms: f64,
    /// The replay metric of the lite device's accept path.
    pub accept: &'static str,
}

/// Ends a traced run: layer replays on `transition`, the device and
/// SHA-256 shares of a fleet batch, the tracing overhead from the untraced
/// and traced walls, and the span file. Device layers the workload never
/// enters (agent, bootloader, session stepping, flash) report 0.
#[allow(clippy::too_many_arguments)]
pub fn traced_tail(
    args: &Args,
    keys: &Keys,
    transition: &Transition,
    (mut log, sink): (SpanLog, &Arc<MemorySink>),
    (plain, traced): (&Walls, &Walls),
    shares: Option<Shares>,
    mut layers: Layers,
    out: &mut Outcome,
) {
    replay::layers(transition, keys, &mut log, 1, &mut layers);
    if let Some(s) = shares {
        let share = |ms: f64| ms * s.installs / s.worker_ms;
        layers.set("sim.campaign.device_share", share(layers.get(s.accept)));
        layers.set(
            "sim.campaign.sha256_share",
            share(layers.get("crypto.sha256_ms")),
        );
    }
    layers.set(
        "bench.trace_overhead_pct",
        (mean_batch(traced) / mean_batch(plain) - 1.0) * 100.0,
    );
    crate::write_spans(args, &log, &event_counts(&sink.snapshot()));
    layers.finish(out);
}
