//! Output checks, computed apart from the program: from the benchmark's own
//! firmware corpus, its own SHA-256 of that corpus, and the properties each
//! workload must have.

use upkit_compress::decompress;
use upkit_core::generation::PreparedUpdate;
use upkit_crypto::ecdsa::VerifyingKey;
use upkit_manifest::{DeviceToken, Version};
use upkit_sim::campaign::CampaignReport;
use upkit_sim::DisseminationReport;
use upkit_trace::CountersSnapshot;

/// The device boots `expected` at `version`.
pub fn device_runs(booted: (Version, &[u8]), version: Version, expected: &[u8]) -> bool {
    booted.0 == version && booted.1 == expected
}

/// Decoding and patching `payload` against `old` rebuilds `new` byte for
/// byte (a full payload must be `new` itself).
pub fn rebuilds(old: &[u8], payload: &[u8], differential: bool, new: &[u8]) -> bool {
    if !differential {
        return payload == new;
    }
    decompress(payload)
        .ok()
        .and_then(|stream| upkit_delta::patch(old, &stream).ok())
        .is_some_and(|image| image == new)
}

/// A package answers `token`, verifies under both keys, and describes the
/// new release: its version, size and `digest` (the benchmark's own
/// SHA-256 of the release image).
pub fn package_verifies(
    package: &PreparedUpdate,
    token: &DeviceToken,
    vendor: &VerifyingKey,
    server: &VerifyingKey,
    version: Version,
    size: usize,
    digest: &[u8; 32],
) -> bool {
    let signed = &package.image.signed_manifest;
    let m = &signed.manifest;
    signed.verify_with_keys(vendor, server).is_ok()
        && m.device_id == token.device_id
        && m.nonce == token.nonce
        && m.version == version
        && m.size as usize == size
        && &m.digest == digest
        && m.payload_size as usize == package.image.payload.len()
}

/// Every targeted device updated, no halt, no failed boot, no accepted
/// forgery, and the served bytes are one broadcast package per device.
pub fn campaign_ok(
    report: &CampaignReport,
    counters: &CountersSnapshot,
    devices: u32,
    package_wire_bytes: u64,
) -> bool {
    report.halted.is_none()
        && report.updated == devices
        && report.rolled_back == 0
        && report.held == 0
        && counters.boots_failed == 0
        && counters.forgeries_accepted == 0
        && report.total_wire_bytes == u64::from(devices) * package_wire_bytes
}

/// Every device completed with an image equal to the direct fetch, and
/// the backhaul moved at least one copy of each served stream per gateway
/// (`lower`) and at most what per-device unicast would (`upper`).
pub fn dissemination_ok(
    report: &DisseminationReport,
    devices: u32,
    lower: u64,
    upper: u64,
) -> bool {
    report.completed == devices
        && report.gave_up == 0
        && report.installs == u64::from(devices)
        && report.image_matches == u64::from(devices)
        && report.image_mismatches == 0
        && (lower..=upper).contains(&report.upstream_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::sha256::sha256;
    use upkit_sim::campaign::{run_campaign_traced, CampaignConfig};
    use upkit_sim::{run_dissemination, FirmwareGenerator, FleetConfig, TopologyConfig};
    use upkit_trace::Tracer;

    use crate::device::Keys;

    fn images() -> (Vec<u8>, Vec<u8>) {
        let generator = FirmwareGenerator::new(5);
        let old = generator.base(8_000);
        let new = generator.os_version_change(&old);
        (old, new)
    }

    fn package() -> (Keys, PreparedUpdate, DeviceToken, Vec<u8>, Vec<u8>) {
        let keys = Keys::generate(&mut StdRng::seed_from_u64(3));
        let (old, new) = images();
        let v1 = keys.release(old.clone(), Version(1));
        let v2 = keys.release(new.clone(), Version(2));
        let server = keys.server(&[&v1, &v2], false, &Tracer::disabled());
        let token = DeviceToken {
            device_id: 9,
            nonce: 77,
            current_version: Version(1),
        };
        let package = server.prepare_update(&token).expect("v2 is newer");
        (keys, package, token, old, new)
    }

    #[test]
    fn a_flipped_payload_byte_fails_the_rebuild() {
        let (_, package, _, old, new) = package();
        let mut payload = package.image.payload.clone();
        assert!(rebuilds(&old, &payload, true, &new));
        let middle = payload.len() / 2;
        payload[middle] ^= 0x01;
        assert!(!rebuilds(&old, &payload, true, &new));
        let mut full = new.clone();
        full[10] ^= 0x80;
        assert!(!rebuilds(&old, &full, false, &new));
    }

    #[test]
    fn a_wrong_version_or_digest_fails_the_package_check() {
        let (keys, package, token, _, new) = package();
        let (vendor, server) = (keys.vendor.verifying_key(), keys.server_key.verifying_key());
        let digest = sha256(&new);
        let check = |package: &PreparedUpdate, version: u16, digest: &[u8; 32]| {
            package_verifies(
                package,
                &token,
                &vendor,
                &server,
                Version(version),
                new.len(),
                digest,
            )
        };
        assert!(check(&package, 2, &digest));
        assert!(!check(&package, 3, &digest));
        let mut other = digest;
        other[0] ^= 1;
        assert!(!check(&package, 2, &other));
        let mut forged = package.clone();
        forged.image.signed_manifest.manifest.version = Version(7);
        assert!(!check(&forged, 7, &digest));
    }

    #[test]
    fn a_wrong_version_or_image_fails_the_device_check() {
        let (_, new) = images();
        assert!(device_runs((Version(2), &new), Version(2), &new));
        assert!(!device_runs((Version(1), &new), Version(2), &new));
        let mut flipped = new.clone();
        flipped[0] ^= 1;
        assert!(!device_runs((Version(2), &flipped), Version(2), &new));
    }

    #[test]
    fn a_missing_device_fails_the_campaign_check() {
        let config = CampaignConfig {
            fleet: FleetConfig {
                devices: 200,
                poll_fraction: 0.5,
                firmware_size: 4_000,
                differential: true,
                seed: 11,
            },
            shards: 2,
            threads: 1,
            ..CampaignConfig::default()
        };
        let tracer = Tracer::disabled();
        let report = run_campaign_traced(&config, &tracer);
        let counters = tracer.counters().snapshot();
        let per_device = report.total_wire_bytes / 200;
        assert!(campaign_ok(&report, &counters, 200, per_device));
        assert!(!campaign_ok(&report, &counters, 201, per_device));
        let mut short = report.clone();
        short.updated -= 1;
        assert!(!campaign_ok(&short, &counters, 200, per_device));
        assert!(!campaign_ok(&report, &counters, 200, per_device + 1));
        let mut forged = counters;
        forged.forgeries_accepted = 1;
        assert!(!campaign_ok(&report, &forged, 200, per_device));
    }

    #[test]
    fn a_missing_device_or_mismatch_fails_the_dissemination_check() {
        let config = TopologyConfig {
            firmware_size: 1_200,
            block_size: 256,
            ..TopologyConfig::default()
        };
        let report = run_dissemination(&config);
        let (lo, hi) = (report.upstream_bytes, report.upstream_bytes);
        assert!(dissemination_ok(&report, 8, lo, hi));
        assert!(!dissemination_ok(&report, 9, lo, hi));
        let mut mismatch = report.clone();
        mismatch.image_mismatches = 1;
        mismatch.image_matches -= 1;
        assert!(!dissemination_ok(&mismatch, 8, lo, hi));
        assert!(!dissemination_ok(&report, 8, lo + 1, hi + 1));
        assert!(!dissemination_ok(&report, 8, lo - 2, hi - 1));
    }
}
