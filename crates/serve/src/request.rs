//! Request/response types: the runtime's external contract.
//!
//! A [`DetectionRequest`] is one channel use to decode plus its service
//! constraints (the claimed SNR operating point and a per-request
//! deadline). The runtime answers every accepted request with a
//! [`DetectionResponse`] that carries the request back to the caller —
//! ownership round-trips, so a closed-loop client can resubmit the same
//! buffers forever without touching the allocator. Requests the runtime
//! cannot accept are returned immediately as a typed [`Rejected`]; nothing
//! is ever dropped silently.
//!
//! A [`FrameRequest`] is the block-scale variant: one coherence block of
//! an OFDM resource grid — many receive vectors sharing one channel
//! matrix — submitted as a single unit with one deadline. The runtime
//! keeps the block intact through the worker pool, prepares the shared
//! channel once, and answers with a [`FrameResponse`] carrying one
//! [`Detection`] per subcarrier. The same ownership round-trip applies
//! ([`RejectedFrame`] on refusal, [`crate::ServeRuntime::recycle_frame`]
//! on collection). Inside the runtime the two shapes are one: a
//! `DetectionRequest` is served as a block of one.

use sd_core::Detection;
use sd_wireless::FrameData;
use std::sync::Arc;
use std::time::Duration;

/// One frame to decode, with its service constraints.
#[derive(Debug)]
pub struct DetectionRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: u64,
    /// The received frame (channel estimate, receive vector, σ²).
    pub frame: FrameData,
    /// Operating SNR in dB — the key into the runtime's cost model.
    pub snr_db: f64,
    /// Response-time budget measured from admission. The paper's
    /// real-time line is [`sd_wireless::REAL_TIME_BUDGET`] (10 ms).
    pub deadline: Duration,
}

impl DetectionRequest {
    /// Build a request.
    ///
    /// # Panics
    /// If `snr_db` is not finite — the SNR keys the runtime's cost model,
    /// and a NaN operating point would silently train the lowest-SNR
    /// curve with this request's cost. Rejecting it at the boundary keeps
    /// every downstream consumer total.
    pub fn new(id: u64, frame: FrameData, snr_db: f64, deadline: Duration) -> Self {
        assert!(
            snr_db.is_finite(),
            "request SNR must be finite, got {snr_db}"
        );
        DetectionRequest {
            id,
            frame,
            snr_db,
            deadline,
        }
    }
}

/// A served request: the decision plus where and how fast it was made.
#[derive(Debug)]
pub struct DetectionResponse {
    /// The original request, returned to the caller (frame ownership
    /// round-trips so buffers can be reused).
    pub request: DetectionRequest,
    /// Decoded indices and search instrumentation. The buffer comes from
    /// the runtime's response pool; hand it back with
    /// [`crate::ServeRuntime::recycle`].
    pub detection: Detection,
    /// Index into the runtime's tier registry of the rung that produced
    /// the decision (0 = most accurate).
    pub tier: usize,
    /// Registry label of that rung (e.g. `"exact"`); sharing the
    /// registry's `Arc<str>` keeps the response path allocation-free.
    pub tier_label: Arc<str>,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time the worker spent decoding.
    pub service_time: Duration,
    /// End-to-end admission-to-decision time.
    pub latency: Duration,
    /// Whether `latency` exceeded the request's deadline.
    pub deadline_missed: bool,
}

/// One coherence block to decode: a block of receive vectors sharing a
/// single channel matrix, served as one unit.
#[derive(Debug)]
pub struct FrameRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: u64,
    /// Per-subcarrier detection problems. Every `h` must be bit-identical
    /// to `subcarriers[0].h` — that shared channel is what the frame path
    /// factors once for the whole block.
    pub subcarriers: Vec<FrameData>,
    /// Operating SNR in dB for the whole block (a grid generator uses the
    /// block mean) — the key into the runtime's cost model.
    pub snr_db: f64,
    /// Response-time budget for the *whole block*, measured from
    /// admission.
    pub deadline: Duration,
}

impl FrameRequest {
    /// Build a frame request.
    ///
    /// # Panics
    /// If `subcarriers` is empty, any subcarrier's channel is not
    /// bit-identical to the first's — a frame is *defined* by its shared
    /// channel; mixed channels must be submitted as separate frames — or
    /// `snr_db` is not finite (it keys the cost model; see
    /// [`DetectionRequest::new`]).
    pub fn new(id: u64, subcarriers: Vec<FrameData>, snr_db: f64, deadline: Duration) -> Self {
        assert!(snr_db.is_finite(), "frame SNR must be finite, got {snr_db}");
        assert!(
            !subcarriers.is_empty(),
            "a frame needs at least one subcarrier"
        );
        let h0 = &subcarriers[0].h;
        for (k, f) in subcarriers.iter().enumerate().skip(1) {
            assert!(
                f.h == *h0,
                "subcarrier {k} does not share the frame channel"
            );
        }
        FrameRequest {
            id,
            subcarriers,
            snr_db,
            deadline,
        }
    }

    /// Subcarriers (receive vectors) in the block.
    pub fn block_len(&self) -> usize {
        self.subcarriers.len()
    }
}

/// A served frame: one decision per subcarrier plus where and how fast
/// the block was decoded.
#[derive(Debug)]
pub struct FrameResponse {
    /// The original request, returned to the caller.
    pub request: FrameRequest,
    /// Per-subcarrier detections, in `request.subcarriers` order. The
    /// buffer comes from the runtime's frame pool; hand it back with
    /// [`crate::ServeRuntime::recycle_frame`].
    pub detections: Vec<Detection>,
    /// Registry index of the rung that decoded the whole block (one
    /// ladder decision per frame).
    pub tier: usize,
    /// Registry label of that rung.
    pub tier_label: Arc<str>,
    /// Channel preparations the block cost: 0 when its channel's
    /// factorization came from the prep cache, 1 when the shared channel
    /// was factored, `block_len()` on the per-vector fallback of a
    /// non-cacheable tier — the numerator of the prep-amortization ratio.
    pub prep_factors: usize,
    /// Time spent queued before a worker picked the frame up.
    pub queue_wait: Duration,
    /// Time the worker spent decoding the whole block.
    pub service_time: Duration,
    /// End-to-end admission-to-last-decision time.
    pub latency: Duration,
    /// Whether `latency` exceeded the frame's deadline.
    pub deadline_missed: bool,
}

/// Why a frame submission was refused; the block always comes back.
#[derive(Debug)]
pub struct RejectedFrame {
    /// The frame, returned unprocessed.
    pub request: FrameRequest,
    /// The reason for refusal.
    pub reason: RejectReason,
}

/// Why a submission was refused. The request always comes back to the
/// caller — admission control sheds load explicitly instead of queuing
/// without bound.
#[derive(Debug)]
pub struct Rejected {
    /// The request, returned unprocessed.
    pub request: DetectionRequest,
    /// The reason for refusal.
    pub reason: RejectReason,
}

/// Reason a request was refused at admission.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded ingress queue was at capacity. Under a sharded
    /// topology this is the *target shard's* queue — the one the
    /// request's channel hashed to — so `depth` reports that shard's
    /// backlog (== its share of the total capacity), not a global sum.
    QueueFull {
        /// Queue depth observed at rejection time (== capacity).
        depth: usize,
    },
    /// Predictive admission control refused the request: the target
    /// shard's queued cost — each queued item stamped at admission with
    /// the shard model's per-tier service-time prediction — is already
    /// predicted to outlast the request's *whole* deadline — even a
    /// zero-cost decode would miss, so admitting it would only burn
    /// service time the requests queued behind it still need. Only issued
    /// when [`crate::ServeConfig::with_predictive_admission`] is on and
    /// the shard's cost model has drain-rate evidence.
    PredictedLate {
        /// The predicted queue wait that exceeded the deadline.
        predicted_wait: Duration,
    },
    /// The runtime is shutting down and accepts no new work.
    ShuttingDown,
    /// The request cannot be decoded: one of its subcarriers breaks the
    /// shape `1 ≤ n_tx ≤ n_rx == y.len()` (or differs from the block
    /// channel's shape), or holds a NaN or infinite entry in `H` or `y`,
    /// or a noise variance that is not finite and non-negative.
    /// Admission refuses it before routing, so no worker ever decodes it.
    Malformed {
        /// The first offending subcarrier (0 for a vector, or for a frame
        /// with no subcarriers).
        subcarrier: usize,
        /// What is wrong with it.
        defect: Defect,
    },
}

/// What makes a subcarrier undecodable ([`RejectReason::Malformed`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Defect {
    /// Its shape is not `1 ≤ n_tx ≤ n_rx == y.len()`, its `H` is not the
    /// block channel (subcarrier 0's), or the block has no subcarriers at
    /// all.
    Shape,
    /// `H` or `y` holds a NaN or an infinity, or `σ²` is not finite and
    /// non-negative.
    Value,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth } => write!(f, "ingress queue full ({depth} queued)"),
            RejectReason::PredictedLate { predicted_wait } => write!(
                f,
                "predicted queue wait {predicted_wait:?} exceeds the deadline"
            ),
            RejectReason::ShuttingDown => write!(f, "runtime shutting down"),
            RejectReason::Malformed { subcarrier, defect } => {
                let what = match defect {
                    Defect::Shape => {
                        "its shape is not 1 ≤ n_tx ≤ n_rx == y.len(), or its H is not the block's"
                    }
                    Defect::Value => "H, y or σ² is not finite, or σ² < 0",
                };
                write!(f, "subcarrier {subcarrier} is malformed: {what}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{Constellation, Modulation};

    #[test]
    fn reject_reason_display() {
        let s = format!("{}", RejectReason::QueueFull { depth: 7 });
        assert!(s.contains('7'));
        assert!(format!("{}", RejectReason::ShuttingDown).contains("shutting"));
        let late = RejectReason::PredictedLate {
            predicted_wait: Duration::from_millis(12),
        };
        assert!(format!("{late}").contains("predicted queue wait"));
        let bad = RejectReason::Malformed {
            subcarrier: 3,
            defect: Defect::Value,
        };
        assert!(format!("{bad}").contains("subcarrier 3 is malformed"));
    }

    fn coherent_frames(len: usize) -> Vec<FrameData> {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(3);
        let base = FrameData::generate(4, 4, &c, 0.1, &mut rng);
        (0..len)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(4, 4, &c, 0.1, &mut rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect()
    }

    #[test]
    fn frame_request_validates_the_shared_channel() {
        let req = FrameRequest::new(1, coherent_frames(5), 10.0, Duration::from_millis(10));
        assert_eq!(req.block_len(), 5);
    }

    #[test]
    #[should_panic(expected = "does not share the frame channel")]
    fn mixed_channel_frame_rejected() {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut frames = coherent_frames(3);
        frames.push(FrameData::generate(4, 4, &c, 0.1, &mut rng));
        FrameRequest::new(2, frames, 10.0, Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "at least one subcarrier")]
    fn empty_frame_rejected() {
        FrameRequest::new(3, Vec::new(), 10.0, Duration::from_millis(10));
    }

    /// Regression: a NaN SNR used to sail through construction and poison
    /// the cost model's lowest-SNR bucket; it must be refused at the
    /// boundary instead.
    #[test]
    #[should_panic(expected = "SNR must be finite")]
    fn non_finite_snr_request_rejected() {
        let frame = coherent_frames(1).pop().unwrap();
        DetectionRequest::new(4, frame, f64::NAN, Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "SNR must be finite")]
    fn non_finite_snr_frame_rejected() {
        FrameRequest::new(
            5,
            coherent_frames(2),
            f64::INFINITY,
            Duration::from_millis(10),
        );
    }
}
