//! The three workloads: seeded inputs, an in-process `SoapServer` on its
//! default configuration, keep-alive `SoapClient`s, the closed call loop,
//! and the output check applied to every call.

use crate::schedule;
use crate::stats::Hist;
use crate::sys::{self, Side};
use sbq_imaging::service::{image_service, image_to_value};
use sbq_imaging::{image_quality_file, transform, ImageStore, PpmImage};
use sbq_model::workload::{self, Lcg};
use sbq_model::{TypeDesc, Value};
use sbq_qos::{QualityFile, QualityManager};
use sbq_wsdl::ServiceDef;
use soap_binq::{SoapClient, SoapServer, SoapServerBuilder, WireEncoding};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The image service's quality threshold (ms), as in the Fig. 8 setup.
const QUALITY_THRESHOLD_MS: f64 = 200.0;
/// Star-field exposures the image store holds.
const IMAGES: usize = 4;
/// Copies of a schedule sample fed to the client's EWMA estimator
/// (α = 0.875) before each call: 0.875^40 < 0.5 %, so the estimate the
/// request reports is the sample, whatever the loopback RTT was.
const FEEDS_PER_CALL: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StructPbio,
    ArrayXml,
    ImageQos,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "struct-pbio" => Some(Kind::StructPbio),
            "array-xml" => Some(Kind::ArrayXml),
            "image-qos" => Some(Kind::ImageQos),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::StructPbio => "struct-pbio",
            Kind::ArrayXml => "array-xml",
            Kind::ImageQos => "image-qos",
        }
    }

    /// Closed-loop client threads, one keep-alive connection each.
    pub fn clients(self) -> usize {
        match self {
            Kind::StructPbio => 2,
            Kind::ArrayXml | Kind::ImageQos => 1,
        }
    }

    /// Untimed calls made before measuring, so pools and caches are warm;
    /// `peak_rss_mb` is read after them. A fixed count (about a second of
    /// calls) keeps the peak independent of how fast the calls ran.
    pub fn warm_calls(self) -> u64 {
        match self {
            Kind::StructPbio => 12_000,
            Kind::ArrayXml => 200,
            Kind::ImageQos => 960,
        }
    }

    pub fn encoding(self) -> WireEncoding {
        match self {
            Kind::StructPbio | Kind::ImageQos => WireEncoding::Pbio,
            Kind::ArrayXml => WireEncoding::Xml,
        }
    }
}

/// What a call's result must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The value sent.
    Echo,
    /// Source image `image` in quality band `band` (0 full, 1 half).
    Image { image: usize, band: usize },
}

/// One call of a round: its request, expected result, the native value
/// bytes it moves, and (image-qos) the RTT sample fed before it.
pub struct Slot {
    pub request: Value,
    pub expect: Expect,
    pub native_bytes: u64,
    pub rtt_ms: Option<f64>,
}

/// A workload's inputs plus the server answering them.
pub struct Fixture {
    pub kind: Kind,
    pub svc: ServiceDef,
    pub op: &'static str,
    /// One round of calls; loops run whole rounds.
    pub slots: Vec<Slot>,
    /// image-qos: per source image, the expected full and half frames.
    pub frames: Vec<[PpmImage; 2]>,
    /// image-qos: the store the server serves (for replays and the RPC
    /// floor).
    pub store: Option<Arc<ImageStore>>,
    pub quality: Option<QualityFile>,
    /// image-qos: the RTT sample fed before the set-up call.
    pub setup_rtt_ms: Option<f64>,
    pub server: SoapServer,
}

impl Fixture {
    /// Generates the inputs from `seed` and binds the server.
    pub fn build(kind: Kind, seed: u64) -> Result<Fixture, String> {
        let addr = "127.0.0.1:0".parse().expect("loopback address");
        let bind_err = |e: soap_binq::SoapError| format!("bind: {e}");
        match kind {
            Kind::StructPbio | Kind::ArrayXml => {
                let (value, ty) = match kind {
                    Kind::StructPbio => (
                        workload::nested_struct(4, seed),
                        workload::nested_struct_type(4),
                    ),
                    _ => (
                        workload::float_array(8192, seed),
                        TypeDesc::list_of(TypeDesc::Float),
                    ),
                };
                let svc = ServiceDef::new("Echo", "urn:perfbench:echo", "http://127.0.0.1/echo")
                    .with_operation("echo", ty.clone(), ty);
                let server = SoapServerBuilder::new(&svc, kind.encoding())
                    .map_err(|e| format!("compile: {e}"))?
                    .handle("echo", |v| v)
                    .bind(addr)
                    .map_err(bind_err)?;
                let native_bytes = 2 * value.native_size() as u64;
                Ok(Fixture {
                    kind,
                    svc,
                    op: "echo",
                    slots: vec![Slot {
                        request: value,
                        expect: Expect::Echo,
                        native_bytes,
                        rtt_ms: None,
                    }],
                    frames: Vec::new(),
                    store: None,
                    quality: None,
                    setup_rtt_ms: None,
                    server,
                })
            }
            Kind::ImageQos => {
                let store = ImageStore::with_starfields(IMAGES, seed);
                let frames: Vec<[PpmImage; 2]> = store
                    .names()
                    .iter()
                    .map(|n| {
                        let full = store.get(n).expect("named image exists").clone();
                        let half = transform::half(&full);
                        [full, half]
                    })
                    .collect();
                let quality = image_quality_file(QUALITY_THRESHOLD_MS);
                let samples = schedule::rtt_samples_ms(seed);
                let bands = schedule::predicted_bands(&quality, &samples);
                let mut rng = Lcg::new(seed ^ 0x1a6e);
                let slots = samples
                    .iter()
                    .zip(&bands)
                    .map(|(&ms, &band)| {
                        let image = rng.next_below(IMAGES as u64) as usize;
                        let request = image_request(image);
                        let native_bytes = (request.native_size()
                            + image_to_value(&frames[image][band]).native_size())
                            as u64;
                        Slot {
                            request,
                            expect: Expect::Image { image, band },
                            native_bytes,
                            rtt_ms: Some(ms),
                        }
                    })
                    .collect();
                let store = Arc::new(store);
                let server = (*store)
                    .clone()
                    .serve(addr, WireEncoding::Pbio, Some(QUALITY_THRESHOLD_MS))
                    .map_err(bind_err)?;
                Ok(Fixture {
                    kind,
                    svc: image_service("http://127.0.0.1/imaging"),
                    op: "get_image",
                    slots,
                    frames,
                    store: Some(store),
                    quality: Some(quality),
                    setup_rtt_ms: Some(schedule::idle_sample_ms(&samples)),
                    server,
                })
            }
        }
    }

    /// A keep-alive client on the workload's encoding (with a quality
    /// manager on image-qos).
    pub fn connect(&self) -> Result<SoapClient, String> {
        let client = SoapClient::connect(self.server.addr(), &self.svc, self.kind.encoding())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(match &self.quality {
            Some(file) => client.with_quality(QualityManager::new(file.clone())),
            None => client,
        })
    }

    /// Whether `got` is the right result for `slot`.
    pub fn check(&self, slot: &Slot, got: &Value) -> bool {
        match slot.expect {
            Expect::Echo => *got == slot.request,
            Expect::Image { image, band } => {
                // Compared in place: copying a 921 KB frame out of the
                // value would add the check's cost to cpu_us_per_call.
                let frame = &self.frames[image][band];
                let Ok(s) = got.as_struct() else {
                    return false;
                };
                s.field("width") == Some(&Value::Int(frame.width as i64))
                    && s.field("height") == Some(&Value::Int(frame.height as i64))
                    && matches!(s.field("pixels"), Some(Value::Bytes(p)) if *p == frame.data)
            }
        }
    }

    /// A digest of one round's inputs and expected results (the band
    /// sequence on image-qos): equal seeds must print equal digests.
    pub fn digest(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for slot in &self.slots {
            for b in format!("{:?}{:?}{:?}", slot.request, slot.expect, slot.rtt_ms).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let bands: String = self
            .slots
            .iter()
            .filter_map(|s| match s.expect {
                Expect::Image { band, .. } => Some(char::from(b'0' + band as u8)),
                Expect::Echo => None,
            })
            .collect();
        format!(
            "inputs={h:016x} calls_per_round={} bands={bands}",
            self.slots.len()
        )
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }

    /// The response value `slot` should produce.
    pub fn response(&self, slot: &Slot) -> Value {
        match slot.expect {
            Expect::Echo => slot.request.clone(),
            Expect::Image { image, band } => image_to_value(&self.frames[image][band]),
        }
    }
}

fn image_request(image: usize) -> Value {
    Value::struct_of(
        "image_request",
        vec![
            ("name", Value::Str(format!("sky-{image}"))),
            ("operation", Value::Str("identity".into())),
        ],
    )
}

/// Feeds an RTT sample to a quality manager's estimator until the
/// estimate it reports is the sample.
pub fn feed_rtt(quality: &mut QualityManager, rtt_ms: f64) {
    let rtt = Duration::from_secs_f64(rtt_ms / 1e3);
    for _ in 0..FEEDS_PER_CALL {
        quality.observe_rtt(rtt, Duration::ZERO);
    }
}

/// Makes one checked call of `slot`; returns its latency, or why it
/// failed.
pub fn call(fx: &Fixture, client: &mut SoapClient, slot: &Slot) -> Result<Duration, String> {
    if let (Some(ms), Some(q)) = (slot.rtt_ms, client.quality_mut()) {
        feed_rtt(q, ms);
    }
    let request = slot.request.clone();
    let t0 = Instant::now();
    let got = client.call(fx.op, request);
    let took = t0.elapsed();
    match got {
        Ok(v) if fx.check(slot, &v) => Ok(took),
        Ok(_) => Err("wrong result".to_string()),
        Err(e) => {
            // Keep the loop going on a fresh connection.
            let _ = client.reconnect();
            Err(e.to_string())
        }
    }
}

/// The set-up call: the first call of a fresh client, carrying the PBIO
/// format handshake.
pub fn first_call(fx: &Fixture, client: &mut SoapClient) -> Result<(), String> {
    let slot = Slot {
        request: fx.slots[0].request.clone(),
        expect: match fx.slots[0].expect {
            Expect::Image { image, .. } => Expect::Image { image, band: 0 },
            e => e,
        },
        native_bytes: 0,
        rtt_ms: fx.setup_rtt_ms,
    };
    call(fx, client, &slot).map(|_| ())
}

/// What one client thread's closed loop saw.
#[derive(Default)]
pub struct Tally {
    /// Latencies of the successful calls.
    pub lat: Hist,
    /// Native value bytes the successful calls moved.
    pub native: u64,
    /// `CallStats::last_rtt` after each successful call.
    pub rtt: Hist,
    pub calls: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    /// Changes of the response message type between consecutive calls.
    pub band_switches: u64,
    pub rounds: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(tallies: Vec<Tally>) -> Tally {
        let mut out = Tally::default();
        for t in tallies {
            out.lat.merge(&t.lat);
            out.native += t.native;
            out.rtt.merge(&t.rtt);
            out.calls += t.calls;
            out.failed += t.failed;
            out.wire_bytes += t.wire_bytes;
            out.band_switches += t.band_switches;
            out.rounds += t.rounds;
            out.errors.extend(t.errors);
        }
        out
    }
}

/// Runs whole rounds of calls until `until` has passed and at least
/// `min_calls` calls were made (or `hard_stop` passes).
pub fn drive(
    fx: &Fixture,
    client: &mut SoapClient,
    until: Instant,
    min_calls: u64,
    hard_stop: Instant,
) -> Tally {
    let mut t = Tally::default();
    let before = client.stats().clone();
    let mut last_type = before.last_message_type.clone();
    loop {
        for slot in &fx.slots {
            match call(fx, client, slot) {
                Ok(took) => {
                    t.lat.record(took.as_nanos() as u64);
                    t.native += slot.native_bytes;
                    let stats = client.stats();
                    if let Some(rtt) = stats.last_rtt {
                        t.rtt.record(rtt.as_nanos() as u64);
                    }
                    if stats.last_message_type != last_type {
                        t.band_switches += 1;
                        last_type = stats.last_message_type.clone();
                    }
                }
                Err(e) => {
                    t.failed += 1;
                    if t.errors.len() < 5 {
                        t.errors.push(e);
                    }
                }
            }
            t.calls += 1;
        }
        t.rounds += 1;
        let now = Instant::now();
        if (now >= until && t.calls >= min_calls) || now >= hard_stop {
            break;
        }
    }
    let after = client.stats();
    t.wire_bytes = (after.bytes_sent + after.bytes_received)
        .saturating_sub(before.bytes_sent + before.bytes_received);
    t
}

/// Runs `drive` on every client, one thread each.
pub fn drive_all(
    fx: &Fixture,
    clients: &mut [SoapClient],
    until: Instant,
    min_calls: u64,
    hard_stop: Instant,
) -> Tally {
    let per_client = min_calls.div_ceil(clients.len() as u64);
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    sys::pin(Side::Client);
                    drive(fx, c, until, per_client, hard_stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Tally::merge(tallies)
}
