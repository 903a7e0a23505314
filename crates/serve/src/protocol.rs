//! The hand-rolled, length-prefixed binary wire protocol of the design
//! service.
//!
//! # Framing
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by exactly that many payload bytes. Frames are capped at
//! [`MAX_FRAME`] bytes; a larger announced length is a protocol error (and a
//! bound on how much memory a malicious or corrupted peer can make the
//! server reserve). [`read_frame`] distinguishes a clean close (EOF on the
//! length prefix) from a truncated frame (EOF mid-payload).
//!
//! # Payload encoding
//!
//! Payloads are encoded with [`WireWriter`] / [`WireReader`]: fixed-width
//! little-endian integers, `f64` as raw IEEE-754 bit patterns (decode is
//! bit-exact — the foundation of the service's "served results are
//! bit-identical to a direct call" guarantee), length-prefixed UTF-8
//! strings, and one-byte tags for enums/options. Every read is
//! bounds-checked and returns a structured [`WireError`] — malformed input
//! can never panic, hang, or allocate more than the frame it arrived in
//! (collection lengths are validated against the bytes actually remaining
//! before any allocation).
//!
//! Requests carry the pipeline's own types — [`ApplicationSpec`],
//! [`AllocatorConfig`], [`FlexRayConfig`] — written and read by free
//! `encode_*`/`decode_*` functions, as the response side carries
//! [`AppTimingParams`]. Decoding runs each type's constructor (matrix
//! shape, plant, slot timing), so domain validation happens here, once,
//! as the frame is read. A value its constructor rejects decodes to
//! [`WireError::Rejected`]: the frame was well formed up to that field and
//! names an invalid problem. Every other variant is a structural fault.
//!
//! # Content addressing
//!
//! Jobs are cache-keyed by [`content_hash`] (FNV-1a 64) over their canonical
//! encoding: two requests name the same artifact exactly when their job
//! bytes agree, so the artifact cache and the single-flight table need no
//! structural comparison.

use cps_core::{ApplicationSpec, ControllerSpec};
use cps_control::{ContinuousStateSpace, LqrWeights};
use cps_flexray::FlexRayConfig;
use cps_linalg::Matrix;
use cps_sched::{
    AllocationStrategy, AllocatorConfig, AppTimingParams, ModelKind, SlotTiming, WaitTimeMethod,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Maximum frame payload size in bytes (4 MiB).
pub const MAX_FRAME: usize = 1 << 22;

/// Errors produced while decoding a payload. Every variant is a *clean*
/// rejection: the reader never panics and never reads past the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A field holds an invalid value (unknown tag, non-UTF-8 string,
    /// boolean other than 0/1, collection longer than the bytes behind it).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// Decoding finished with unconsumed payload bytes — the frame does not
    /// describe the message it claims to.
    Trailing {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// A field decoded, but its domain constructor rejected the value (a
    /// matrix shape that disagrees with its data, a non-square or
    /// non-finite plant, a negative slot overhead). Unlike the other
    /// variants this is no structural fault: the request names an invalid
    /// problem and is answered as such.
    Rejected {
        /// What was rejected.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated payload: needed {needed} bytes, {available} available")
            }
            WireError::Invalid { what } | WireError::Rejected { what } => {
                write!(f, "invalid {what}")
            }
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Payload-decoding result.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Appends fixed-width little-endian fields to a payload buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a boolean as one byte (0/1).
    pub fn put_bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern (bit-exact decode).
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Appends a length-prefixed `f64` sequence.
    pub fn put_f64s(&mut self, values: &[f64]) {
        self.put_u32(values.len() as u32);
        for &value in values {
            self.put_f64(value);
        }
    }
}

/// A bounds-checked cursor over a payload. Every accessor returns
/// [`WireError`] instead of panicking on malformed input.
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole payload.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails with [`WireError::Trailing`] unless the payload was consumed
    /// exactly.
    pub fn finish(&self) -> WireResult<()> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::Trailing { remaining }),
        }
    }

    fn take(&mut self, len: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < len {
            return Err(WireError::Truncated { needed: len, available: self.remaining() });
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean; bytes other than 0/1 are invalid (corruption shows
    /// up as an error, not as a silently coerced flag).
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { what: "boolean" }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection length and validates it against the bytes still in
    /// the buffer (each element needs at least `min_element_size` bytes), so
    /// a corrupt length can never trigger a huge allocation.
    pub fn len(&mut self, min_element_size: usize) -> WireResult<usize> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(WireError::Invalid { what: "collection length" });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid { what: "utf-8 string" })
    }

    /// Reads a length-prefixed `f64` sequence.
    pub fn f64s(&mut self) -> WireResult<Vec<f64>> {
        let len = self.len(8)?;
        (0..len).map(|_| self.f64()).collect()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`]; I/O errors from
/// the underlying writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte cap", payload.len()),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean close
/// (EOF before any length byte); EOF mid-length or mid-payload is an
/// `UnexpectedEof` error, and an announced length above [`MAX_FRAME`] is an
/// `InvalidData` error *before* any allocation.
///
/// # Errors
///
/// I/O errors from the underlying reader, plus the malformed-frame cases
/// above.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-length-prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// FNV-1a 64 over a byte string — the content-addressing hash of the
/// artifact cache and the single-flight table.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One design-service request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// Per-request deadline in milliseconds; `0` means no deadline.
    pub deadline_ms: u32,
    /// Deterministic cap on exact-search nodes; `0` means unbounded. The
    /// degradation ladder's *testable* trigger: exhausting it returns the
    /// greedy incumbent with `certified_optimal = false`.
    pub node_budget: u64,
    /// When `true`, an uncertified (degraded) cache entry is treated as a
    /// miss and the design is recomputed with full certification.
    pub require_certified: bool,
    /// The work to perform.
    pub job: Job,
}

/// The work a request names.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// Design the fleet and return the exact slot map + timing table.
    Design(DesignJob),
    /// Design (or reuse) the fleet, then sweep the bus geometry, solving the
    /// exact slot optimum for every candidate off the cached timing table.
    Sweep(SweepJob),
    /// Design (or reuse) the fleet, then run a streaming Monte-Carlo
    /// robustness campaign and return the statistical readout.
    Campaign(CampaignJob),
}

/// A complete fleet-design problem: specs + allocator + bus, in the
/// pipeline's own types (decoding one runs their constructors).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignJob {
    /// The application specifications.
    pub specs: Vec<ApplicationSpec>,
    /// Allocator configuration (model, method, slot budget, geometry).
    pub alloc: AllocatorConfig,
    /// Bus configuration the fleet is designed against.
    pub bus: FlexRayConfig,
}

/// A 3-axis bus-geometry sweep over a designed fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// The underlying design (cache key for the artifact reuse).
    pub design: DesignJob,
    /// Candidate cycle lengths in seconds (empty = keep the base value).
    pub cycle_lengths: Vec<f64>,
    /// Candidate static-segment sizes (empty = keep the base value).
    pub static_slot_counts: Vec<u32>,
    /// Candidate static slot lengths Ψ in seconds (empty = keep the base).
    pub slot_lengths: Vec<f64>,
}

/// A robustness campaign over a designed fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// The underlying design (cache key for the artifact reuse).
    pub design: DesignJob,
    /// Campaign seed (the whole campaign is a pure function of it).
    pub seed: u64,
    /// One scenario family per frame-drop probability.
    pub drop_probabilities: Vec<f64>,
    /// Randomised scenarios per intensity.
    pub scenarios_per_intensity: u64,
    /// Simulated duration per scenario in seconds.
    pub duration: f64,
    /// Two-sided confidence level `1 − alpha` of the settling readout.
    pub alpha: f64,
    /// Emit a non-terminal [`Outcome::Progress`] frame roughly every this
    /// many aggregated scenarios; `0` sends only the terminal frame. The
    /// terminal frame is bit-identical either way.
    pub progress_every: u64,
}

fn encode_matrix(matrix: &Matrix, w: &mut WireWriter) {
    w.put_u32(matrix.rows() as u32);
    w.put_u32(matrix.cols() as u32);
    w.put_f64s(matrix.as_slice());
}

fn decode_matrix(r: &mut WireReader<'_>) -> WireResult<Matrix> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    Matrix::from_vec(rows, cols, r.f64s()?)
        .map_err(|_| WireError::Rejected { what: "matrix shape" })
}

fn decode_usize(r: &mut WireReader<'_>, what: &'static str) -> WireResult<usize> {
    usize::try_from(r.u64()?).map_err(|_| WireError::Rejected { what })
}

fn encode_weights(weights: &LqrWeights, w: &mut WireWriter) {
    encode_matrix(&weights.state, w);
    encode_matrix(&weights.input, w);
    w.put_f64(weights.previous_input);
}

fn decode_weights(r: &mut WireReader<'_>) -> WireResult<LqrWeights> {
    Ok(LqrWeights { state: decode_matrix(r)?, input: decode_matrix(r)?, previous_input: r.f64()? })
}

fn encode_spec(spec: &ApplicationSpec, w: &mut WireWriter) {
    w.put_str(&spec.name);
    encode_matrix(spec.plant.a(), w);
    encode_matrix(spec.plant.b(), w);
    encode_matrix(spec.plant.c(), w);
    w.put_f64(spec.period);
    w.put_f64(spec.et_delay);
    w.put_f64(spec.tt_delay);
    w.put_f64(spec.threshold);
    w.put_f64s(&spec.disturbance);
    w.put_f64(spec.deadline);
    w.put_f64(spec.inter_arrival);
    match &spec.controllers {
        ControllerSpec::Lqr { et_weights, tt_weights } => {
            w.put_u8(0);
            encode_weights(et_weights, w);
            encode_weights(tt_weights, w);
        }
        ControllerSpec::PolePlacement { et_poles, tt_poles } => {
            w.put_u8(1);
            w.put_f64s(et_poles);
            w.put_f64s(tt_poles);
        }
    }
    encode_opt_f64(spec.input_limit, w);
}

fn decode_spec(r: &mut WireReader<'_>) -> WireResult<ApplicationSpec> {
    let name = r.str()?;
    let a = decode_matrix(r)?;
    let b = decode_matrix(r)?;
    let c = decode_matrix(r)?;
    let plant = ContinuousStateSpace::new(a, b, c)
        .map_err(|_| WireError::Rejected { what: "plant model" })?;
    Ok(ApplicationSpec {
        name,
        plant,
        period: r.f64()?,
        et_delay: r.f64()?,
        tt_delay: r.f64()?,
        threshold: r.f64()?,
        disturbance: r.f64s()?,
        deadline: r.f64()?,
        inter_arrival: r.f64()?,
        controllers: match r.u8()? {
            0 => ControllerSpec::Lqr {
                et_weights: decode_weights(r)?,
                tt_weights: decode_weights(r)?,
            },
            1 => ControllerSpec::PolePlacement { et_poles: r.f64s()?, tt_poles: r.f64s()? },
            _ => return Err(WireError::Invalid { what: "controller-spec tag" }),
        },
        input_limit: decode_opt_f64(r)?,
    })
}

fn encode_alloc(config: &AllocatorConfig, w: &mut WireWriter) {
    w.put_u8(match config.model {
        ModelKind::NonMonotonic => 0,
        ModelKind::ConservativeMonotonic => 1,
        ModelKind::SimpleMonotonic => 2,
    });
    w.put_u8(match config.method {
        WaitTimeMethod::ClosedFormBound => 0,
        WaitTimeMethod::ExactFixedPoint => 1,
    });
    w.put_u8(match config.strategy {
        AllocationStrategy::NextFit => 0,
        AllocationStrategy::FirstFit => 1,
        AllocationStrategy::BestFit => 2,
    });
    w.put_u64(config.max_slots as u64);
    w.put_f64(config.slot_timing.overhead());
}

fn decode_alloc(r: &mut WireReader<'_>) -> WireResult<AllocatorConfig> {
    Ok(AllocatorConfig {
        model: match r.u8()? {
            0 => ModelKind::NonMonotonic,
            1 => ModelKind::ConservativeMonotonic,
            2 => ModelKind::SimpleMonotonic,
            _ => return Err(WireError::Invalid { what: "model tag" }),
        },
        method: match r.u8()? {
            0 => WaitTimeMethod::ClosedFormBound,
            1 => WaitTimeMethod::ExactFixedPoint,
            _ => return Err(WireError::Invalid { what: "method tag" }),
        },
        strategy: match r.u8()? {
            0 => AllocationStrategy::NextFit,
            1 => AllocationStrategy::FirstFit,
            2 => AllocationStrategy::BestFit,
            _ => return Err(WireError::Invalid { what: "strategy tag" }),
        },
        max_slots: decode_usize(r, "slot budget")?,
        slot_timing: SlotTiming::new(r.f64()?)
            .map_err(|_| WireError::Rejected { what: "slot overhead" })?,
    })
}

fn encode_bus(config: &FlexRayConfig, w: &mut WireWriter) {
    w.put_f64(config.cycle_length);
    w.put_u64(config.static_slot_count as u64);
    w.put_f64(config.static_slot_length);
    w.put_u64(config.minislot_count as u64);
    w.put_f64(config.minislot_length);
}

fn decode_bus(r: &mut WireReader<'_>) -> WireResult<FlexRayConfig> {
    Ok(FlexRayConfig {
        cycle_length: r.f64()?,
        static_slot_count: decode_usize(r, "static slot count")?,
        static_slot_length: r.f64()?,
        minislot_count: decode_usize(r, "minislot count")?,
        minislot_length: r.f64()?,
    })
}

impl DesignJob {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.specs.len() as u32);
        for spec in &self.specs {
            encode_spec(spec, w);
        }
        encode_alloc(&self.alloc, w);
        encode_bus(&self.bus, w);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let count = r.len(16)?;
        let specs = (0..count).map(|_| decode_spec(r)).collect::<WireResult<Vec<_>>>()?;
        Ok(DesignJob { specs, alloc: decode_alloc(r)?, bus: decode_bus(r)? })
    }

    /// Canonical encoding of this design problem — the bytes behind the
    /// artifact-cache key.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Content key of the design artifact this job names.
    pub fn content_key(&self) -> u64 {
        content_hash(&self.canonical_bytes())
    }
}

impl Job {
    /// The design problem embedded in any job kind.
    pub fn design(&self) -> &DesignJob {
        match self {
            Job::Design(design) => design,
            Job::Sweep(sweep) => &sweep.design,
            Job::Campaign(campaign) => &campaign.design,
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            Job::Design(design) => {
                w.put_u8(0);
                design.encode(w);
            }
            Job::Sweep(sweep) => {
                w.put_u8(1);
                sweep.design.encode(w);
                w.put_f64s(&sweep.cycle_lengths);
                w.put_u32(sweep.static_slot_counts.len() as u32);
                for &count in &sweep.static_slot_counts {
                    w.put_u32(count);
                }
                w.put_f64s(&sweep.slot_lengths);
            }
            Job::Campaign(campaign) => {
                w.put_u8(2);
                campaign.design.encode(w);
                w.put_u64(campaign.seed);
                w.put_f64s(&campaign.drop_probabilities);
                w.put_u64(campaign.scenarios_per_intensity);
                w.put_f64(campaign.duration);
                w.put_f64(campaign.alpha);
                w.put_u64(campaign.progress_every);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(Job::Design(DesignJob::decode(r)?)),
            1 => {
                let design = DesignJob::decode(r)?;
                let cycle_lengths = r.f64s()?;
                let count = r.len(4)?;
                let static_slot_counts =
                    (0..count).map(|_| r.u32()).collect::<WireResult<Vec<_>>>()?;
                let slot_lengths = r.f64s()?;
                Ok(Job::Sweep(SweepJob { design, cycle_lengths, static_slot_counts, slot_lengths }))
            }
            2 => Ok(Job::Campaign(CampaignJob {
                design: DesignJob::decode(r)?,
                seed: r.u64()?,
                drop_probabilities: r.f64s()?,
                scenarios_per_intensity: r.u64()?,
                duration: r.f64()?,
                alpha: r.f64()?,
                progress_every: r.u64()?,
            })),
            _ => Err(WireError::Invalid { what: "job tag" }),
        }
    }
}

impl Request {
    /// Encodes the request payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.id);
        w.put_u32(self.deadline_ms);
        w.put_u64(self.node_budget);
        w.put_bool(self.require_certified);
        self.job.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(payload);
        let request = Request {
            id: r.u64()?,
            deadline_ms: r.u32()?,
            node_budget: r.u64()?,
            require_certified: r.bool()?,
            job: Job::decode(&mut r)?,
        };
        r.finish()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Structured error categories a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame or payload was malformed.
    Protocol,
    /// The request decoded but names an invalid problem.
    InvalidRequest,
    /// The design/sweep/campaign pipeline reported a domain failure.
    DesignFailed,
    /// The request's deadline expired before a result existed.
    DeadlineExceeded,
    /// The worker executing the job panicked; the server isolated it.
    WorkerPanic,
    /// The server is shutting down.
    Shutdown,
    /// An internal invariant failed (bug shield; never expected).
    Internal,
}

impl ErrorKind {
    fn tag(self) -> u8 {
        match self {
            ErrorKind::Protocol => 0,
            ErrorKind::InvalidRequest => 1,
            ErrorKind::DesignFailed => 2,
            ErrorKind::DeadlineExceeded => 3,
            ErrorKind::WorkerPanic => 4,
            ErrorKind::Shutdown => 5,
            ErrorKind::Internal => 6,
        }
    }

    fn from_tag(tag: u8) -> WireResult<Self> {
        Ok(match tag {
            0 => ErrorKind::Protocol,
            1 => ErrorKind::InvalidRequest,
            2 => ErrorKind::DesignFailed,
            3 => ErrorKind::DeadlineExceeded,
            4 => ErrorKind::WorkerPanic,
            5 => ErrorKind::Shutdown,
            6 => ErrorKind::Internal,
            _ => return Err(WireError::Invalid { what: "error-kind tag" }),
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::InvalidRequest => "invalid-request",
            ErrorKind::DesignFailed => "design-failed",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::WorkerPanic => "worker-panic",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// The design answer: slot map + timing table, with provenance flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignResult {
    /// Whether the slot map is the *proven* minimum (`false` after a budget
    /// or deadline cut — the greedy incumbent was served instead).
    pub certified_optimal: bool,
    /// Whether the artifact came out of the server's LRU cache.
    pub from_cache: bool,
    /// The slot map: application indices per TT slot.
    pub slots: Vec<Vec<u32>>,
    /// The fleet's Table-I rows, bit-exact.
    pub table: Vec<AppTimingParams>,
}

/// One candidate bus geometry of a sweep answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Candidate cycle length.
    pub cycle_length: f64,
    /// Candidate static-segment size.
    pub static_slot_count: u32,
    /// Candidate static slot length Ψ.
    pub static_slot_length: f64,
    /// Whether any feasible slot map exists under this geometry.
    pub feasible: bool,
    /// Minimum slot count when feasible (0 otherwise).
    pub slot_count: u32,
    /// Whether the per-candidate search ran to exhaustion.
    pub certified_optimal: bool,
}

/// The sweep answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Whether the design artifact came out of the cache.
    pub from_cache: bool,
    /// `false` when the deadline cut the candidate loop; `rows` then holds
    /// the completed prefix (partial answer beats no answer).
    pub complete: bool,
    /// Per-candidate verdicts, in sweep order.
    pub rows: Vec<SweepRow>,
}

/// One scenario family of a campaign answer (the Clopper–Pearson readout).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReadout {
    /// Family label.
    pub label: String,
    /// Scenarios observed.
    pub trials: u64,
    /// Scenarios in which every application met its deadline.
    pub successes: u64,
    /// Point estimate of P(settle ≤ deadline).
    pub estimate: f64,
    /// Lower confidence bound.
    pub lower: f64,
    /// Upper confidence bound.
    pub upper: f64,
}

/// The campaign answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Whether the design artifact came out of the cache.
    pub from_cache: bool,
    /// Scenarios aggregated.
    pub total: u64,
    /// Per-family statistical readout.
    pub families: Vec<FamilyReadout>,
}

/// An online snapshot of one scenario family mid-campaign: the Welford
/// moments, P² quantile sketches and Clopper–Pearson interval the
/// aggregator maintains anyway, captured at a chunk boundary. Quantile
/// estimates are `None` until the sketch has observations.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyProgress {
    /// Family label.
    pub label: String,
    /// Scenarios aggregated so far.
    pub scenarios: u64,
    /// Scenarios in which every application settled within the horizon.
    pub settled: u64,
    /// Scenarios in which every application met its deadline.
    pub deadlines_met: u64,
    /// Running mean of the fleet settling time (settled scenarios only).
    pub settling_mean: f64,
    /// P² estimate of the median settling time.
    pub settling_p50: Option<f64>,
    /// P² estimate of the 95th-percentile settling time.
    pub settling_p95: Option<f64>,
    /// Running mean of the peak plant-state deviation.
    pub peak_mean: f64,
    /// P² estimate of the 95th-percentile peak deviation.
    pub peak_p95: Option<f64>,
    /// Running mean of the TT (static-slot) utilisation share.
    pub tt_share_mean: f64,
    /// Point estimate of P(settle ≤ deadline) so far.
    pub estimate: f64,
    /// Clopper–Pearson lower confidence bound so far.
    pub lower: f64,
    /// Clopper–Pearson upper confidence bound so far.
    pub upper: f64,
}

/// A non-terminal streaming frame: the campaign's partial aggregates after
/// `total` scenarios. A client watching the stream can stop the sweep early
/// the moment the confidence interval resolves its question — the
/// statistical-model-checking usage pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignProgress {
    /// Scenarios aggregated so far (strictly monotone across frames).
    pub total: u64,
    /// Per-family online snapshots, in family order.
    pub families: Vec<FamilyProgress>,
}

/// The terminal verdict of one request.
///
/// All variants except [`Outcome::Progress`] are *terminal*: a request is
/// answered by zero or more `Progress` frames (streaming campaigns only)
/// followed by exactly one terminal frame carrying the same request id.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A design answer.
    Design(DesignResult),
    /// A sweep answer.
    Sweep(SweepResult),
    /// A campaign answer.
    Campaign(CampaignResult),
    /// Load shed: the bounded queue was full; retry later.
    Busy,
    /// A structured failure.
    Error {
        /// Error category.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
    },
    /// A non-terminal partial-campaign snapshot (streaming only).
    Progress(CampaignProgress),
}

impl Outcome {
    /// Whether this outcome ends its request's frame sequence.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Outcome::Progress(_))
    }
}

/// One design-service response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this responds to.
    pub id: u64,
    /// The terminal verdict.
    pub outcome: Outcome,
}

fn encode_opt_f64(value: Option<f64>, w: &mut WireWriter) {
    match value {
        None => w.put_u8(0),
        Some(value) => {
            w.put_u8(1);
            w.put_f64(value);
        }
    }
}

fn decode_opt_f64(r: &mut WireReader<'_>) -> WireResult<Option<f64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(WireError::Invalid { what: "optional-f64 tag" }),
    }
}

fn encode_timing_row(row: &AppTimingParams, w: &mut WireWriter) {
    w.put_str(&row.name);
    w.put_f64(row.inter_arrival);
    w.put_f64(row.deadline);
    w.put_f64(row.xi_tt);
    w.put_f64(row.xi_et);
    w.put_f64(row.xi_m);
    w.put_f64(row.k_p);
    w.put_f64(row.xi_prime_m);
}

fn decode_timing_row(r: &mut WireReader<'_>) -> WireResult<AppTimingParams> {
    // Direct struct literal (all fields are public): re-validating through
    // `AppTimingParams::new` could round or reject values the designer
    // legitimately produced, and the response must be bit-exact.
    Ok(AppTimingParams {
        name: r.str()?,
        inter_arrival: r.f64()?,
        deadline: r.f64()?,
        xi_tt: r.f64()?,
        xi_et: r.f64()?,
        xi_m: r.f64()?,
        k_p: r.f64()?,
        xi_prime_m: r.f64()?,
    })
}

impl Response {
    /// Encodes the response payload (frame it with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.id);
        match &self.outcome {
            Outcome::Design(design) => {
                w.put_u8(0);
                w.put_bool(design.certified_optimal);
                w.put_bool(design.from_cache);
                w.put_u32(design.slots.len() as u32);
                for slot in &design.slots {
                    w.put_u32(slot.len() as u32);
                    for &app in slot {
                        w.put_u32(app);
                    }
                }
                w.put_u32(design.table.len() as u32);
                for row in &design.table {
                    encode_timing_row(row, &mut w);
                }
            }
            Outcome::Sweep(sweep) => {
                w.put_u8(1);
                w.put_bool(sweep.from_cache);
                w.put_bool(sweep.complete);
                w.put_u32(sweep.rows.len() as u32);
                for row in &sweep.rows {
                    w.put_f64(row.cycle_length);
                    w.put_u32(row.static_slot_count);
                    w.put_f64(row.static_slot_length);
                    w.put_bool(row.feasible);
                    w.put_u32(row.slot_count);
                    w.put_bool(row.certified_optimal);
                }
            }
            Outcome::Campaign(campaign) => {
                w.put_u8(2);
                w.put_bool(campaign.from_cache);
                w.put_u64(campaign.total);
                w.put_u32(campaign.families.len() as u32);
                for family in &campaign.families {
                    w.put_str(&family.label);
                    w.put_u64(family.trials);
                    w.put_u64(family.successes);
                    w.put_f64(family.estimate);
                    w.put_f64(family.lower);
                    w.put_f64(family.upper);
                }
            }
            Outcome::Busy => w.put_u8(3),
            Outcome::Error { kind, message } => {
                w.put_u8(4);
                w.put_u8(kind.tag());
                w.put_str(message);
            }
            Outcome::Progress(progress) => {
                w.put_u8(5);
                w.put_u64(progress.total);
                w.put_u32(progress.families.len() as u32);
                for family in &progress.families {
                    w.put_str(&family.label);
                    w.put_u64(family.scenarios);
                    w.put_u64(family.settled);
                    w.put_u64(family.deadlines_met);
                    w.put_f64(family.settling_mean);
                    encode_opt_f64(family.settling_p50, &mut w);
                    encode_opt_f64(family.settling_p95, &mut w);
                    w.put_f64(family.peak_mean);
                    encode_opt_f64(family.peak_p95, &mut w);
                    w.put_f64(family.tt_share_mean);
                    w.put_f64(family.estimate);
                    w.put_f64(family.lower);
                    w.put_f64(family.upper);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(payload);
        let id = r.u64()?;
        let outcome = match r.u8()? {
            0 => {
                let certified_optimal = r.bool()?;
                let from_cache = r.bool()?;
                let slot_count = r.len(4)?;
                let mut slots = Vec::with_capacity(slot_count);
                for _ in 0..slot_count {
                    let members = r.len(4)?;
                    slots.push((0..members).map(|_| r.u32()).collect::<WireResult<Vec<_>>>()?);
                }
                let rows = r.len(8)?;
                let table =
                    (0..rows).map(|_| decode_timing_row(&mut r)).collect::<WireResult<Vec<_>>>()?;
                Outcome::Design(DesignResult { certified_optimal, from_cache, slots, table })
            }
            1 => {
                let from_cache = r.bool()?;
                let complete = r.bool()?;
                let count = r.len(8)?;
                let rows = (0..count)
                    .map(|_| {
                        Ok(SweepRow {
                            cycle_length: r.f64()?,
                            static_slot_count: r.u32()?,
                            static_slot_length: r.f64()?,
                            feasible: r.bool()?,
                            slot_count: r.u32()?,
                            certified_optimal: r.bool()?,
                        })
                    })
                    .collect::<WireResult<Vec<_>>>()?;
                Outcome::Sweep(SweepResult { from_cache, complete, rows })
            }
            2 => {
                let from_cache = r.bool()?;
                let total = r.u64()?;
                let count = r.len(8)?;
                let families = (0..count)
                    .map(|_| {
                        Ok(FamilyReadout {
                            label: r.str()?,
                            trials: r.u64()?,
                            successes: r.u64()?,
                            estimate: r.f64()?,
                            lower: r.f64()?,
                            upper: r.f64()?,
                        })
                    })
                    .collect::<WireResult<Vec<_>>>()?;
                Outcome::Campaign(CampaignResult { from_cache, total, families })
            }
            3 => Outcome::Busy,
            4 => Outcome::Error { kind: ErrorKind::from_tag(r.u8()?)?, message: r.str()? },
            5 => {
                let total = r.u64()?;
                let count = r.len(8)?;
                let families = (0..count)
                    .map(|_| {
                        Ok(FamilyProgress {
                            label: r.str()?,
                            scenarios: r.u64()?,
                            settled: r.u64()?,
                            deadlines_met: r.u64()?,
                            settling_mean: r.f64()?,
                            settling_p50: decode_opt_f64(&mut r)?,
                            settling_p95: decode_opt_f64(&mut r)?,
                            peak_mean: r.f64()?,
                            peak_p95: decode_opt_f64(&mut r)?,
                            tt_share_mean: r.f64()?,
                            estimate: r.f64()?,
                            lower: r.f64()?,
                            upper: r.f64()?,
                        })
                    })
                    .collect::<WireResult<Vec<_>>>()?;
                Outcome::Progress(CampaignProgress { total, families })
            }
            _ => return Err(WireError::Invalid { what: "outcome tag" }),
        };
        r.finish()?;
        Ok(Response { id, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_design_job() -> DesignJob {
        let spec = cps_core::case_study::derived_fleet_specs().remove(0);
        crate::design_job(&[spec], &AllocatorConfig::default(), &FlexRayConfig::paper_case_study())
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let request = Request {
            id: 42,
            deadline_ms: 1500,
            node_budget: 9,
            require_certified: true,
            job: Job::Design(sample_design_job()),
        };
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn sweep_and_campaign_jobs_round_trip() {
        let sweep = Request {
            id: 1,
            deadline_ms: 0,
            node_budget: 0,
            require_certified: false,
            job: Job::Sweep(SweepJob {
                design: sample_design_job(),
                cycle_lengths: vec![0.005, 0.01],
                static_slot_counts: vec![4, 10],
                slot_lengths: vec![],
            }),
        };
        assert_eq!(Request::decode(&sweep.encode()).unwrap(), sweep);
        let campaign = Request {
            id: 2,
            deadline_ms: 250,
            node_budget: 0,
            require_certified: false,
            job: Job::Campaign(CampaignJob {
                design: sample_design_job(),
                seed: 7,
                drop_probabilities: vec![0.0, 0.2],
                scenarios_per_intensity: 3,
                duration: 1.0,
                alpha: 0.05,
                progress_every: 16,
            }),
        };
        assert_eq!(Request::decode(&campaign.encode()).unwrap(), campaign);
    }

    #[test]
    fn responses_round_trip() {
        let samples = vec![
            Response {
                id: 3,
                outcome: Outcome::Design(DesignResult {
                    certified_optimal: true,
                    from_cache: false,
                    slots: vec![vec![0, 2], vec![1]],
                    table: vec![AppTimingParams::new("C1", 10.0, 2.0, 0.39, 3.97, 0.64, 0.69)
                        .unwrap()],
                }),
            },
            Response {
                id: 4,
                outcome: Outcome::Sweep(SweepResult {
                    from_cache: true,
                    complete: false,
                    rows: vec![SweepRow {
                        cycle_length: 0.005,
                        static_slot_count: 10,
                        static_slot_length: 2.5e-5,
                        feasible: true,
                        slot_count: 3,
                        certified_optimal: true,
                    }],
                }),
            },
            Response {
                id: 5,
                outcome: Outcome::Campaign(CampaignResult {
                    from_cache: false,
                    total: 8,
                    families: vec![FamilyReadout {
                        label: "drop p=0.000".to_string(),
                        trials: 8,
                        successes: 8,
                        estimate: 1.0,
                        lower: 0.63,
                        upper: 1.0,
                    }],
                }),
            },
            Response { id: 6, outcome: Outcome::Busy },
            Response {
                id: 7,
                outcome: Outcome::Error {
                    kind: ErrorKind::DeadlineExceeded,
                    message: "deadline expired".to_string(),
                },
            },
            Response {
                id: 8,
                outcome: Outcome::Progress(CampaignProgress {
                    total: 24,
                    families: vec![FamilyProgress {
                        label: "drop p=0.200".to_string(),
                        scenarios: 12,
                        settled: 11,
                        deadlines_met: 10,
                        settling_mean: 3.25,
                        settling_p50: Some(3.0),
                        settling_p95: None,
                        peak_mean: 0.8,
                        peak_p95: Some(1.1),
                        tt_share_mean: 0.4,
                        estimate: 10.0 / 12.0,
                        lower: 0.51,
                        upper: 0.97,
                    }],
                }),
            },
        ];
        for response in samples {
            assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
    }

    #[test]
    fn content_keys_are_stable_and_discriminating() {
        let job = sample_design_job();
        assert_eq!(job.content_key(), sample_design_job().content_key());
        let mut other = sample_design_job();
        other.alloc.max_slots += 1;
        assert_ne!(job.content_key(), other.content_key());
        // The key covers the design problem only: the request envelope
        // (id, deadline) and the job kind wrapped around it do not enter it.
        let campaign = Job::Campaign(CampaignJob {
            design: sample_design_job(),
            seed: 7,
            drop_probabilities: vec![0.1],
            scenarios_per_intensity: 2,
            duration: 1.0,
            alpha: 0.05,
            progress_every: 0,
        });
        assert_eq!(campaign.design().content_key(), job.content_key());
    }

    #[test]
    fn design_job_content_keys_are_pinned() {
        // The canonical bytes of the case-study design problem are the
        // wire format's fixed point: a change here re-keys every cached
        // artifact and breaks every deployed client.
        let fleet = cps_core::case_study::derived_fleet_specs();
        let alloc = AllocatorConfig::default();
        let bus = FlexRayConfig::paper_case_study();
        let job = crate::design_job(&fleet, &alloc, &bus);
        assert_eq!(job.canonical_bytes().len(), 1444);
        assert_eq!(job.content_key(), 0x40df_fcec_6d71_fa7c);
        let first_app = crate::design_job(&fleet[..1], &alloc, &bus);
        assert_eq!(first_app.content_key(), 0xf265_97d3_44f9_285e);
    }

    #[test]
    fn malformed_payloads_fail_cleanly() {
        let request = Request {
            id: 1,
            deadline_ms: 0,
            node_budget: 0,
            require_certified: false,
            job: Job::Design(sample_design_job()),
        };
        let bytes = request.encode();
        // Every truncation point decodes to a clean error.
        for cut in 0..bytes.len().min(64) {
            assert!(Request::decode(&bytes[..cut]).is_err());
        }
        assert!(Request::decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Request::decode(&extended).is_err());
        // A corrupt collection length cannot force a huge allocation: the
        // header is id 8 + deadline 4 + budget 8 + flag 1 = 21 bytes, byte 21
        // the job tag, and bytes 22..26 the spec count, which `len` refuses
        // against the bytes left before anything is allocated.
        assert_eq!(bytes[21], 0, "design job tag");
        let mut corrupt = bytes;
        corrupt[22..26].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&corrupt).unwrap_err(),
            WireError::Invalid { what: "collection length" }
        );
    }

    #[test]
    fn frames_enforce_the_size_cap() {
        let mut out = Vec::new();
        write_frame(&mut out, b"hello").unwrap();
        let mut cursor = io::Cursor::new(out);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // Announced length above the cap: rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());

        // EOF mid-payload: UnexpectedEof, not a hang.
        let mut truncated = 100u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(&[1, 2, 3]);
        let mut cursor = io::Cursor::new(truncated);
        assert!(read_frame(&mut cursor).is_err());

        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
