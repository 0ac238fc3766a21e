//! Per-layer metrics of a traced run.
//!
//! Every traced run reports every metric below. Times are per call of the
//! layer (replays) or per update (spans). Device-level counts are per
//! update; `sim.campaign.rounds` is per campaign; proxy counts and
//! `sim.topology.events` are per dissemination run. A layer a workload
//! never enters reports a count of 0.

use std::collections::BTreeMap;

use upkit_trace::TraceRecord;

use crate::device::UpdateRecord;
use crate::spans::SpanLog;
use crate::stats::{mean, Outcome};

pub const PER_LAYER: [(&str, &str); 38] = [
    ("delta.suffix_array_ms", "ms"),
    ("delta.diff_ms", "ms"),
    ("compress.lzss_encode_ms", "ms"),
    ("core.generation.warm_ms", "ms"),
    ("core.generation.prepare_ms", "ms"),
    ("crypto.ecdsa_sign_ms", "ms"),
    ("core.generation.sign_ms", "ms"),
    ("core.generation.cache_hits", "count"),
    ("core.generation.cache_misses", "count"),
    ("crypto.ecdsa_verify_ms", "ms"),
    ("crypto.sig_verifications", "count"),
    ("crypto.sig_verify_memo_hits", "count"),
    ("core.bootloader.boot_ms", "ms"),
    ("crypto.sha256_ms", "ms"),
    ("compress.lzss_decode_ms", "ms"),
    ("delta.patch_ms", "ms"),
    ("sim.campaign.lite_accept_ms", "ms"),
    ("sim.campaign.device_share", "ratio"),
    ("sim.campaign.sha256_share", "ratio"),
    ("crypto.chacha20_ms", "ms"),
    ("core.pipeline.bytes_in", "bytes"),
    ("core.pipeline.bytes_out", "bytes"),
    ("core.agent.deliver_ms", "ms"),
    ("flash.bytes_written", "bytes"),
    ("flash.sectors_erased", "count"),
    ("net.session.self_ms", "ms"),
    ("net.session.frames", "count"),
    ("net.session.retries", "count"),
    ("net.session.round_trips", "count"),
    ("net.session.backoff_s", "s"),
    ("net.proxy.hit_ratio", "ratio"),
    ("net.proxy.upstream_fetches", "count"),
    ("net.proxy.single_flight_joins", "count"),
    ("net.proxy.evictions", "count"),
    ("sim.topology.events", "count"),
    ("sim.topology.lite_accept_ms", "ms"),
    ("sim.campaign.rounds", "count"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Moves every per-layer metric, in table order, into `out`.
    pub fn finish(self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.push(name, unit, self.get(name));
        }
    }

    /// Device-side times per update from the spans of `updates` updates.
    pub fn device_times(&mut self, log: &SpanLog, updates: usize) {
        let totals = log.totals();
        let n = updates as f64;
        let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
        self.set(
            "core.agent.deliver_ms",
            total_ms("core.agent.push_data") / n,
        );
        self.set(
            "core.bootloader.boot_ms",
            total_ms("core.bootloader.boot") / n,
        );
        self.set(
            "net.session.self_ms",
            totals
                .get("net.session")
                .map_or(0.0, |t| t.self_ns as f64 / 1e6)
                / n,
        );
    }
}

/// Device-level counts: means per update over `records`.
pub fn device_counts(records: &[&UpdateRecord]) -> Vec<(&'static str, f64)> {
    let per_update = |f: &dyn Fn(&UpdateRecord) -> u64| {
        mean(&records.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let mut out: Vec<(&'static str, f64)> = [
        ("core.generation.cache_hits", "patch_cache_hits"),
        ("core.generation.cache_misses", "patch_cache_misses"),
        ("crypto.sig_verifications", "sig_verifications"),
        ("crypto.sig_verify_memo_hits", "sig_verify_memo_hits"),
        ("core.pipeline.bytes_in", "pipeline_bytes_in"),
        ("core.pipeline.bytes_out", "pipeline_bytes_out"),
        ("net.session.frames", "frames_sent"),
        ("net.session.retries", "retries"),
        ("net.session.round_trips", "round_trips"),
    ]
    .into_iter()
    .map(|(metric, counter)| (metric, per_update(&|r| r.counter(counter))))
    .collect();
    out.push((
        "net.session.backoff_s",
        per_update(&|r| r.counter("wait_micros")) / 1e6,
    ));
    out.push((
        "flash.bytes_written",
        per_update(&|r| r.flash_bytes_written),
    ));
    out.push((
        "flash.sectors_erased",
        per_update(&|r| r.flash_sectors_erased),
    ));
    out
}

/// Event counts per layer of an `upkit-trace` sink's records.
pub fn event_counts(records: &[TraceRecord]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for record in records {
        *counts.entry(record.event.layer()).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn every_per_layer_metric_is_declared_with_its_unit() {
        let declared = listed("per_layer");
        let reported: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(declared, reported);
    }
}
