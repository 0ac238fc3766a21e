//! A persistent single device: flash layout, update agent and bootloader,
//! updated end to end through a push (BLE via `Smartphone`) or pull
//! (6LoWPAN/CoAP via `BorderRouter`) session.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use upkit_core::agent::{AgentConfig, AgentError, AgentPhase, UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootMode, Bootloader};
use upkit_core::generation::{Release, UpdateServer, VendorServer};
use upkit_core::image::{write_manifest, FIRMWARE_OFFSET};
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::chacha20::KEY_LEN;
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{
    configuration_a, configuration_b, standard, FlashGeometry, MemoryLayout, SimFlash, SlotId,
};
use upkit_manifest::{DeviceToken, Manifest, SignedManifest, Version};
use upkit_net::{
    BorderRouter, LinkProfile, LossyLink, PullEndpoints, PullSession, PushEndpoints, PushSession,
    RetryPolicy, SessionEndpoints, SessionOutcome, Smartphone, StreamResolution, Transport,
};
use upkit_sim::scenario::{APP_ID, LINK_OFFSET};
use upkit_trace::Tracer;

use crate::spans::SpanLog;

/// Slot size holding images of up to `max_image` bytes after the header,
/// rounded up to whole 4 KiB sectors.
pub fn slot_size(max_image: usize) -> u32 {
    (max_image as u32 + FIRMWARE_OFFSET).div_ceil(4096) * 4096
}

pub fn flash_geometry() -> FlashGeometry {
    upkit_sim::PlatformProfile::nrf52840().internal_flash
}

/// The signing keys and content key every device of a run trusts.
pub struct Keys {
    pub vendor: VendorServer,
    pub server_key: SigningKey,
    pub content_key: [u8; KEY_LEN],
}

impl Keys {
    pub fn generate(rng: &mut rand::rngs::StdRng) -> Self {
        use rand::Rng;
        let vendor = VendorServer::new(SigningKey::generate(rng));
        let server_key = SigningKey::generate(rng);
        let mut content_key = [0u8; KEY_LEN];
        rng.fill_bytes(&mut content_key);
        Self {
            vendor,
            server_key,
            content_key,
        }
    }

    pub fn release(&self, firmware: Vec<u8>, version: Version) -> Release {
        self.vendor.release(firmware, version, LINK_OFFSET, APP_ID)
    }

    /// A fresh update server (cold patch cache) holding `releases`.
    pub fn server(&self, releases: &[&Release], encrypted: bool, tracer: &Tracer) -> UpdateServer {
        let mut server = UpdateServer::new(self.server_key.clone());
        server.set_tracer(tracer.clone());
        if encrypted {
            server.set_content_key(self.content_key);
        }
        for release in releases {
            server.publish((*release).clone());
        }
        server
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// BLE push through a smartphone.
    Push,
    /// 6LoWPAN/CoAP pull through a border router.
    Pull,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slots {
    /// Two bootable slots, boot the newest in place.
    AB,
    /// Bootable plus staging slot, swapped at boot.
    StaticSwap,
}

#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    pub path: Path,
    pub slots: Slots,
    pub encrypted: bool,
    /// Bernoulli loss rate of the last-hop link (0 for a reliable link).
    pub loss_rate: f64,
}

/// What one update cost and produced.
#[derive(Default, Clone)]
pub struct UpdateRecord {
    /// The session completed and the bootloader booted the new version.
    pub complete: bool,
    /// Host time from the token request until the new image booted.
    pub host_ns: u64,
    /// Host time the gateway spent resolving the package: the server's
    /// `prepare_update` (diff, compression, signing) plus forwarding.
    pub prepare_ns: u64,
    /// Last-hop bytes toward the device, retransmissions included.
    pub wire_bytes: u64,
    /// Bytes the gateway fetched from the server (manifest + payload).
    pub upstream_bytes: u64,
    /// Served payload bytes.
    pub payload_bytes: u64,
    /// Virtual link time of the session, backoff included.
    pub link_micros: u64,
    /// Flash bytes programmed by agent and bootloader.
    pub flash_bytes_written: u64,
    pub flash_sectors_erased: u64,
    /// Modelled flash program and erase time.
    pub flash_micros: u64,
    /// Counter deltas over the update.
    pub counters: BTreeMap<String, u64>,
}

impl UpdateRecord {
    /// Modelled device time: link time plus flash program/erase time.
    pub fn on_device_s(&self) -> f64 {
        (self.link_micros + self.flash_micros) as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

pub struct Device {
    pub id: u32,
    pub spec: DeviceSpec,
    layout: MemoryLayout,
    agent: UpdateAgent,
    bootloader: Bootloader,
    running: SlotId,
    slot_size: u32,
    /// The release the device runs (the differential base of its next update).
    pub release: Release,
    updates: u64,
}

impl Device {
    /// Provisions a device running `release` in slot A, with slots that
    /// hold images of up to `max_image` bytes.
    pub fn provision(
        id: u32,
        spec: DeviceSpec,
        keys: &Keys,
        release: Release,
        max_image: usize,
    ) -> Self {
        let slot_size = slot_size(max_image);
        let internal = Box::new(SimFlash::new(flash_geometry()));
        let mut layout = match spec.slots {
            Slots::AB => configuration_a(internal, slot_size),
            Slots::StaticSwap => configuration_b(internal, None, slot_size),
        }
        .expect("slot layout fits the nRF52840 flash");
        let manifest = Manifest {
            device_id: id,
            nonce: 0,
            old_version: Version(0),
            version: release.version,
            size: release.firmware.len() as u32,
            payload_size: release.firmware.len() as u32,
            digest: release.digest,
            link_offset: LINK_OFFSET,
            app_id: APP_ID,
        };
        let signed = SignedManifest {
            manifest,
            vendor_signature: keys.vendor.sign_manifest_core(&manifest),
            server_signature: upkit_manifest::server_sign(&manifest, &keys.server_key),
        };
        layout.erase_slot(standard::SLOT_A).expect("fresh flash");
        write_manifest(&mut layout, standard::SLOT_A, &signed).expect("fresh flash");
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &release.firmware)
            .expect("slot sized for the firmware");

        let backend = Arc::new(TinyCryptBackend);
        let anchors = TrustAnchors::inline(
            &keys.vendor.verifying_key(),
            &keys.server_key.verifying_key(),
        );
        let agent = UpdateAgent::new(
            backend.clone(),
            anchors,
            AgentConfig {
                device_id: id,
                app_id: APP_ID,
                supports_differential: true,
                content_key: spec.encrypted.then_some(keys.content_key),
            },
        );
        let mode = match spec.slots {
            Slots::AB => BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
            Slots::StaticSwap => BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        };
        let bootloader = Bootloader::new(
            backend,
            anchors,
            BootConfig {
                device_id: id,
                app_id: APP_ID,
                allowed_link_offsets: vec![LINK_OFFSET],
                max_firmware_size: slot_size - FIRMWARE_OFFSET,
                mode,
                recovery_slot: None,
            },
        );
        Self {
            id,
            spec,
            layout,
            agent,
            bootloader,
            running: standard::SLOT_A,
            slot_size,
            release,
            updates: 0,
        }
    }

    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.layout.set_tracer(tracer.clone());
    }

    /// Runs one update against `server` (which holds the new release) and
    /// returns its record. `link_seed` seeds the loss sampler. With `spans`,
    /// the session stepping, every endpoint call and the boot are recorded
    /// as children of one `update` span.
    pub fn update(
        &mut self,
        server: &UpdateServer,
        link_seed: u64,
        tracer: &Tracer,
        mut spans: Option<(&mut SpanLog, u64)>,
    ) -> UpdateRecord {
        let target = match self.spec.slots {
            Slots::AB if self.running == standard::SLOT_A => standard::SLOT_B,
            Slots::AB => standard::SLOT_A,
            Slots::StaticSwap => standard::SLOT_B,
        };
        let plan = UpdatePlan {
            target_slot: target,
            current_slot: self.running,
            installed_version: self.release.version,
            installed_size: self.release.firmware.len() as u32,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_firmware_size: self.slot_size - FIRMWARE_OFFSET,
        };
        self.updates += 1;
        let nonce = (upkit_net::lossy::splitmix64(link_seed ^ u64::from(self.id)) as u32) | 1;
        let link = match self.spec.path {
            Path::Push => LinkProfile::ble_gatt(),
            Path::Pull => LinkProfile::ieee802154_6lowpan(),
        };
        let lossy = LossyLink::bernoulli(link, self.spec.loss_rate, link_seed);
        let retry = RetryPolicy::for_link(&link);
        let traced = spans.is_some();
        let mut calls = CallLog::new(traced);
        let before = tracer.counters().snapshot();
        self.layout.reset_stats();

        let start = Instant::now();
        let (report, session_end) = match self.spec.path {
            Path::Push => {
                let mut phone = Smartphone::new();
                let mut session = PushSession::new(lossy, retry, self.updates);
                session.set_tracer(tracer.clone());
                let inner = PushEndpoints::new(
                    server,
                    &mut phone,
                    &mut self.agent,
                    &mut self.layout,
                    plan,
                    nonce,
                );
                let mut endpoints = Timed {
                    inner,
                    calls: &mut calls,
                };
                let report = session.run_to_completion(&mut endpoints);
                (report, Instant::now())
            }
            Path::Pull => {
                let router = BorderRouter::new();
                let mut session = PullSession::new(lossy, retry, self.updates);
                session.set_tracer(tracer.clone());
                let inner = PullEndpoints::new(
                    server,
                    &router,
                    &mut self.agent,
                    &mut self.layout,
                    plan,
                    nonce,
                );
                let mut endpoints = Timed {
                    inner,
                    calls: &mut calls,
                };
                let report = session.run_to_completion(&mut endpoints);
                (report, Instant::now())
            }
        };
        let complete = report.outcome == SessionOutcome::Complete;
        let mut booted = None;
        let boot_start = Instant::now();
        if complete {
            self.agent
                .reset(&mut self.layout)
                .expect("agent resets after a completed update");
            booted = self.bootloader.boot(&mut self.layout).ok();
        } else {
            // A failed session leaves the agent in Cleaning; return it to
            // Waiting so the next update can start.
            let _ = self.agent.reset(&mut self.layout);
        }
        let end = Instant::now();

        if let Some((log, op)) = spans.as_mut() {
            let root = log.record("update", None, *op, start, end);
            let session = log.record("net.session", Some(root), *op, start, session_end);
            for &(name, s, e) in &calls.spans {
                log.record(name, Some(session), *op, s, e);
            }
            log.record("core.bootloader.boot", Some(root), *op, boot_start, end);
        }

        let stats = self.layout.total_stats();
        let geometry = flash_geometry();
        let after = tracer.counters().snapshot();
        let counters = after
            .fields()
            .into_iter()
            .zip(before.fields())
            .map(|((name, a), (_, b))| (name, a - b))
            .collect();
        let mut record = UpdateRecord {
            complete: false,
            host_ns: (end - start).as_nanos() as u64,
            prepare_ns: calls.prepare_ns,
            wire_bytes: report.accounting.bytes_to_device,
            upstream_bytes: calls.stream_bytes,
            payload_bytes: calls.payload_bytes,
            link_micros: report.accounting.elapsed_micros,
            flash_bytes_written: stats.bytes_written,
            flash_sectors_erased: stats.sectors_erased,
            flash_micros: stats.bytes_written * geometry.write_micros_per_byte
                + stats.sectors_erased * geometry.erase_micros_per_sector,
            counters,
        };
        if let Some(outcome) = booted {
            self.running = outcome.booted_slot;
            record.complete = outcome.version.0 > self.release.version.0;
        }
        record
    }

    /// The version and the first `len` firmware bytes of the running slot,
    /// read back for the output check.
    pub fn running_image(&self, len: usize) -> (Version, Vec<u8>) {
        let mut header = vec![0u8; upkit_manifest::SIGNED_MANIFEST_LEN];
        self.layout
            .read_slot(self.running, 0, &mut header)
            .expect("running slot readable");
        let version = SignedManifest::from_bytes(&header)
            .map_or(Version(0), |signed| signed.manifest.version);
        let mut image = vec![0u8; len];
        self.layout
            .read_slot(self.running, FIRMWARE_OFFSET, &mut image)
            .expect("running slot holds the image");
        (version, image)
    }

    /// Marks the device as running `release` after a verified update.
    pub fn adopt(&mut self, release: Release) {
        self.release = release;
    }
}

/// Endpoint calls seen by the timing wrapper.
struct CallLog {
    traced: bool,
    spans: Vec<(&'static str, Instant, Instant)>,
    prepare_ns: u64,
    stream_bytes: u64,
    payload_bytes: u64,
}

impl CallLog {
    fn new(traced: bool) -> Self {
        Self {
            traced,
            spans: Vec::new(),
            prepare_ns: 0,
            stream_bytes: 0,
            payload_bytes: 0,
        }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start, Instant::now()));
        out
    }
}

/// `SessionEndpoints` wrapper that records the size and preparation time
/// of the resolved stream and, when traced, a span per endpoint call.
struct Timed<'c, E> {
    inner: E,
    calls: &'c mut CallLog,
}

impl<E: SessionEndpoints> SessionEndpoints for Timed<'_, E> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        let inner = &mut self.inner;
        self.calls
            .time("core.agent.request_token", || inner.request_token())
    }

    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
        // Timed in every run: one call per update.
        let start = Instant::now();
        let resolution = self.inner.resolve_stream(token);
        let end = Instant::now();
        self.calls.prepare_ns += (end - start).as_nanos() as u64;
        if self.calls.traced {
            self.calls
                .spans
                .push(("core.generation.prepare_update", start, end));
        }
        if let StreamResolution::Stream(stream) | StreamResolution::Deferred { stream, .. } =
            &resolution
        {
            self.calls.stream_bytes += (stream.manifest.len() + stream.payload.len()) as u64;
            self.calls.payload_bytes += stream.payload.len() as u64;
        }
        resolution
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let inner = &mut self.inner;
        self.calls
            .time("core.agent.push_data", || inner.deliver(chunk))
    }
}
