//! The load generator: an open loop at a fixed rate and a closed loop for
//! capacity, both driving the real `ServeRuntime` from one thread.
//!
//! Every request is timed from its **due time** to the moment this thread
//! **collects** the response. The generator never spins: between due times
//! it sleeps in `collect_timeout`, which also returns the moment a response
//! arrives, for at most [`NAP`] at a time.
//!
//! Both loops run in slices. Between two slices the runtime drains and the
//! host's speed is calibrated ([`host::worker_speed`]); the work done in a
//! slice counts in reference time at the mean of the speeds on either side
//! of it.

use crate::host::{self, reference};
use crate::stats::percentile;
use crate::trace::{Span, Tracer};
use crate::workload::Req;
use sd_serve::{DetectionResponse, FrameResponse, MetricsSnapshot, ServeRuntime};
use sd_wireless::{Constellation, REAL_TIME_BUDGET};
use std::time::{Duration, Instant};

/// How long in-flight responses may take to come back once submission
/// stops before the run is declared broken.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Longest single sleep of the open loop. On a virtual machine a vCPU
/// that sleeps longer is handed back to the hypervisor, and under load on
/// the physical host it then wakes up milliseconds late, which the frame
/// workloads (one request every 1.7–2.2 ms) would count as latency.
const NAP: Duration = Duration::from_micros(50);

// Responses move once per request; boxing the larger variant would add an
// allocation per response to the generator's own cost.
#[allow(clippy::large_enum_variant)]
pub enum Resp {
    Vector(DetectionResponse),
    Frame(FrameResponse),
}

impl Resp {
    pub fn id(&self) -> u64 {
        match self {
            Resp::Vector(r) => r.request.id,
            Resp::Frame(f) => f.request.id,
        }
    }

    pub fn tier(&self) -> usize {
        match self {
            Resp::Vector(r) => r.tier,
            Resp::Frame(f) => f.tier,
        }
    }

    /// `(queue_wait, service_time, latency)` as the runtime measured them.
    pub fn times(&self) -> (Duration, Duration, Duration) {
        match self {
            Resp::Vector(r) => (r.queue_wait, r.service_time, r.latency),
            Resp::Frame(f) => (f.queue_wait, f.service_time, f.latency),
        }
    }

    pub fn vectors(&self) -> usize {
        match self {
            Resp::Vector(_) => 1,
            Resp::Frame(f) => f.detections.len(),
        }
    }

    pub fn bit_errors(&self, c: &Constellation) -> u64 {
        match self {
            Resp::Vector(r) => r.request.frame.bit_errors(&r.detection.indices, c),
            Resp::Frame(f) => f
                .request
                .subcarriers
                .iter()
                .zip(&f.detections)
                .map(|(s, d)| s.bit_errors(&d.indices, c))
                .sum(),
        }
    }

    /// Every decoded index, subcarrier after subcarrier.
    pub fn indices(&self) -> Vec<usize> {
        match self {
            Resp::Vector(r) => r.detection.indices.clone(),
            Resp::Frame(f) => f
                .detections
                .iter()
                .flat_map(|d| d.indices.clone())
                .collect(),
        }
    }
}

/// The runtime behind one request shape.
pub struct Client<'a> {
    pub rt: &'a ServeRuntime,
}

impl Client<'_> {
    // A shed request comes straight back, as the runtime hands it back.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, req: Req) -> Result<(), Req> {
        match req {
            Req::Vector(r) => self.rt.submit(r).map_err(|e| Req::Vector(e.request)),
            Req::Frame(f) => self.rt.submit_frame(f).map_err(|e| Req::Frame(e.request)),
        }
    }

    fn try_collect(&self, frames: bool) -> Option<Resp> {
        if frames {
            self.rt.try_collect_frame().map(Resp::Frame)
        } else {
            self.rt.try_collect().map(Resp::Vector)
        }
    }

    fn collect_timeout(&self, frames: bool, d: Duration) -> Option<Resp> {
        if frames {
            self.rt.collect_frame_timeout(d).map(Resp::Frame)
        } else {
            self.rt.collect_timeout(d).map(Resp::Vector)
        }
    }

    fn recycle(&self, r: Resp) -> Req {
        match r {
            Resp::Vector(v) => Req::Vector(self.rt.recycle(v)),
            Resp::Frame(f) => Req::Frame(self.rt.recycle_frame(f)),
        }
    }
}

/// One served response kept for the correctness replay.
pub struct Served {
    pub tier: usize,
    pub indices: Vec<usize>,
    pub service_ns: u64,
}

/// The first served response of each sampled pool slot.
pub struct SampleBook {
    pub entries: Vec<Option<Served>>,
}

impl SampleBook {
    pub fn new(slots: usize) -> Self {
        SampleBook {
            entries: (0..slots).map(|_| None).collect(),
        }
    }

    fn record(&mut self, slot: usize, r: &Resp) {
        if let Some(e @ None) = self.entries.get_mut(slot) {
            *e = Some(Served {
                tier: r.tier(),
                indices: r.indices(),
                service_ns: r.times().1.as_nanos() as u64,
            });
        }
    }
}

/// Per-request stage durations (ns): due → submit → (queue wait, service)
/// → egress → collected. The four stages after the submit call tile the
/// due → collected interval exactly.
#[derive(Default)]
pub struct Stages {
    pub lag: Vec<u64>,
    pub submit: Vec<u64>,
    pub queue_wait: Vec<u64>,
    pub service: Vec<u64>,
    pub egress: Vec<u64>,
}

/// A collected response, with the client-side stamps of its request.
struct Completion {
    k: u64,
    vectors: usize,
    tier: usize,
    bit_errors: u64,
    submitted: Instant,
    submit_ns: u64,
    collected: Instant,
    queue_wait: Duration,
    service: Duration,
    latency: Duration,
}

enum Submit {
    Sent,
    /// The pool slot's previous request is still in flight.
    Busy,
    /// The runtime refused the request at admission.
    Shed,
}

/// The generator's state: the runtime, the fixed request pool, and the
/// stamps of every request in flight (indexed by pool slot).
pub struct Generator<'a> {
    client: Client<'a>,
    frames: bool,
    constellation: Constellation,
    pool: &'a mut [Option<Req>],
    book: &'a mut SampleBook,
    submitted_at: Vec<Instant>,
    submit_ns: Vec<u64>,
    in_flight: usize,
    /// Where a traced run's spans go.
    pub tracer: Option<&'a mut Tracer>,
    /// Record stage times and spans for completions handled while set.
    pub tracing: bool,
    pub stages: Stages,
    /// Spans are kept for one request in `span_every`.
    pub span_every: u64,
    /// Requests whose stages came out negative.
    pub stage_violations: u64,
    /// Only responses to requests numbered from here on enter the sample
    /// book, so the replay compares against warmed-up service.
    pub record_from: u64,
}

impl<'a> Generator<'a> {
    pub fn new(
        rt: &'a ServeRuntime,
        frames: bool,
        pool: &'a mut [Option<Req>],
        book: &'a mut SampleBook,
    ) -> Self {
        let now = Instant::now();
        let n = pool.len();
        Generator {
            client: Client { rt },
            frames,
            constellation: crate::workload::constellation(),
            pool,
            book,
            submitted_at: vec![now; n],
            submit_ns: vec![0; n],
            in_flight: 0,
            tracer: None,
            tracing: false,
            stages: Stages::default(),
            span_every: 1,
            stage_violations: 0,
            record_from: 0,
        }
    }

    fn submit(&mut self, k: u64) -> Submit {
        let slot = (k % self.pool.len() as u64) as usize;
        let Some(mut req) = self.pool[slot].take() else {
            return Submit::Busy;
        };
        req.set_id(k);
        let t = Instant::now();
        let res = self.client.submit(req);
        let done = Instant::now();
        match res {
            Ok(()) => {
                self.in_flight += 1;
                self.submitted_at[slot] = t;
                self.submit_ns[slot] = done.duration_since(t).as_nanos() as u64;
                Submit::Sent
            }
            Err(req) => {
                self.pool[slot] = Some(req);
                Submit::Shed
            }
        }
    }

    fn finish(&mut self, resp: Resp) -> Completion {
        let collected = Instant::now();
        let k = resp.id();
        let slot = (k % self.pool.len() as u64) as usize;
        self.in_flight -= 1;
        if k >= self.record_from {
            self.book.record(slot, &resp);
        }
        let (queue_wait, service, latency) = resp.times();
        let c = Completion {
            k,
            vectors: resp.vectors(),
            tier: resp.tier(),
            bit_errors: resp.bit_errors(&self.constellation),
            submitted: self.submitted_at[slot],
            submit_ns: self.submit_ns[slot],
            collected,
            queue_wait,
            service,
            latency,
        };
        self.pool[slot] = Some(self.client.recycle(resp));
        c
    }

    fn collect(&mut self, wait: Duration) -> Option<Completion> {
        let resp = if wait.is_zero() {
            self.client.try_collect(self.frames)
        } else {
            self.client.collect_timeout(self.frames, wait)
        }?;
        Some(self.finish(resp))
    }

    /// Stage bookkeeping for one measured completion that was due at
    /// `due`: stage vectors and (sampled) spans when tracing, and the
    /// non-negativity check always.
    fn stages_of(&mut self, c: &Completion, due: Instant) {
        let lag = c.submitted.checked_duration_since(due);
        let held = c.collected.checked_duration_since(c.submitted);
        let egress = held.and_then(|h| h.checked_sub(c.latency));
        let (Some(lag), Some(egress)) = (lag, egress) else {
            self.stage_violations += 1;
            return;
        };
        if !self.tracing {
            return;
        }
        let st = &mut self.stages;
        st.lag.push(lag.as_nanos() as u64);
        st.submit.push(c.submit_ns);
        st.queue_wait.push(c.queue_wait.as_nanos() as u64);
        st.service.push(c.service.as_nanos() as u64);
        st.egress.push(egress.as_nanos() as u64);
        if !c.k.is_multiple_of(self.span_every) {
            return;
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            let root = tr.span("request", c.k, None, due, c.collected);
            tr.span("loadgen.lag", c.k, Some(root), due, c.submitted);
            let sub = tr.ns(c.submitted);
            tr.push(Span {
                parent: Some(root),
                name: "serve.submit",
                req: c.k,
                start_ns: sub,
                end_ns: sub + c.submit_ns,
            });
            let qw = sub + c.queue_wait.as_nanos() as u64;
            let svc_end = qw + c.service.as_nanos() as u64;
            for (name, start, end) in [
                ("serve.queue_wait", sub, qw),
                ("serve.service", qw, svc_end),
                ("serve.egress", svc_end, tr.ns(c.collected)),
            ] {
                tr.push(Span {
                    parent: Some(root),
                    name,
                    req: c.k,
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
    }

    /// Collect until nothing is in flight, handing each completion to
    /// `each`; an error once that takes longer than [`DRAIN_LIMIT`].
    fn drain(&mut self, mut each: impl FnMut(&mut Self, Completion)) -> Result<(), String> {
        let since = Instant::now();
        while self.in_flight > 0 {
            if since.elapsed() > DRAIN_LIMIT {
                return Err(format!(
                    "{} responses still in flight {DRAIN_LIMIT:?} after submission stopped",
                    self.in_flight
                ));
            }
            if let Some(c) = self.collect(Duration::from_millis(10)) {
                each(self, c);
            }
        }
        Ok(())
    }
}

/// Calibrations per second of the fixed-rate phase's due time.
const SLICES_PER_SECOND: u64 = 4;

/// One second of due time in the fixed-rate phase.
#[derive(Default)]
pub struct Window {
    /// Due → collected latency (ns) of each served request, in reference
    /// time ([`reference_latency`]).
    pub latencies: Vec<u64>,
    /// The same in wall time.
    pub wall_latencies: Vec<u64>,
    /// Vectors offered, and vectors answered within the deadline (in wall
    /// time: the deadline is real).
    pub offered_vectors: u64,
    pub ontime_vectors: u64,
}

/// What the fixed-rate phase measured.
pub struct OpenOutcome {
    pub windows: Vec<Window>,
    pub offered_requests: u64,
    pub served_vectors: u64,
    pub exact_vectors: u64,
    /// Requests refused at admission, and requests whose pool slot was
    /// still in flight when they fell due: both count as failed.
    pub shed: u64,
    pub busy: u64,
    pub bit_errors: u64,
    pub bits: u64,
    /// The workers' speed at each calibration of the measured part.
    pub speeds: Vec<f64>,
    /// The first request number after the phase.
    pub next_k: u64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl OpenOutcome {
    /// Each window's `q`-th latency percentile (ns), in window order.
    pub fn window_percentiles(&mut self, q: f64, wall: bool) -> Vec<f64> {
        self.windows
            .iter_mut()
            .map(|w| {
                let v = if wall {
                    &mut w.wall_latencies
                } else {
                    &mut w.latencies
                };
                percentile(v, q) as f64
            })
            .collect()
    }

    /// Each window's share of offered vectors answered on time.
    pub fn window_ontime(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.ontime_vectors as f64 / w.offered_vectors.max(1) as f64)
            .collect()
    }

    pub fn all_latencies(&self, wall: bool) -> Vec<u64> {
        self.windows
            .iter()
            .flat_map(|w| {
                if wall {
                    &w.wall_latencies
                } else {
                    &w.latencies
                }
            })
            .copied()
            .collect()
    }
}

/// When the runtime was decoding: the union of the service intervals of
/// the requests it served, in time order, each with the decoding time that
/// came before it.
struct Busy {
    spans: Vec<(Instant, Instant, Duration)>,
}

impl Busy {
    fn new(mut intervals: Vec<(Instant, Instant)>) -> Self {
        intervals.sort_unstable_by_key(|&(start, _)| start);
        let mut spans: Vec<(Instant, Instant, Duration)> = Vec::with_capacity(intervals.len());
        let mut total = Duration::ZERO;
        for (start, end) in intervals {
            match spans.last_mut() {
                Some(last) if start <= last.1 => {
                    if end > last.1 {
                        total += end - last.1;
                        last.1 = end;
                    }
                }
                _ => {
                    spans.push((start, end, total));
                    total += end - start;
                }
            }
        }
        Busy { spans }
    }

    /// Decoding time before `t`.
    fn before(&self, t: Instant) -> Duration {
        match self.spans.partition_point(|&(start, _, _)| start <= t) {
            0 => Duration::ZERO,
            i => {
                let (start, end, earlier) = self.spans[i - 1];
                earlier + (t.min(end) - start)
            }
        }
    }

    /// Decoding time between `from` and `to`.
    fn between(&self, from: Instant, to: Instant) -> Duration {
        self.before(to).saturating_sub(self.before(from))
    }
}

/// A request's latency in reference time: the part of its `wall` latency
/// during which the runtime was decoding runs at the calibrated `speed`;
/// the rest (batching waits, wake-ups, the generator's own lag) is time,
/// not work, and counts as it is.
fn reference_latency(wall: Duration, decoding: Duration, speed: f64) -> Duration {
    let decoding = decoding.min(wall);
    wall - decoding + decoding.mul_f64(speed)
}

/// Open loop: requests fall due at `rate_hz` whatever the runtime is
/// doing, in slices of a quarter second of traffic. After each slice the
/// runtime drains and the workers' speed is calibrated; the next slice's
/// schedule starts when that is done, so no request is due during a
/// calibration. Slices due in the first `warm` are served but not
/// measured; then `measure_secs` seconds of traffic are measured.
pub fn open_loop(
    d: &mut Generator,
    rate_hz: u64,
    warm: Duration,
    measure_secs: u64,
    vectors_per_request: u64,
    bits_per_vector: u64,
) -> Result<OpenOutcome, String> {
    let per_slice = (rate_hz / SLICES_PER_SECOND).max(1);
    let warm_slices = (warm.as_millis() as u64 * SLICES_PER_SECOND).div_ceil(1000);
    let k_begin = warm_slices * per_slice;
    let k_end = k_begin + rate_hz * measure_secs;
    let measured = |k: u64| (k_begin..k_end).contains(&k);
    d.record_from = k_begin;
    let snapshot = d.client.rt.metrics();
    let mut out = OpenOutcome {
        // Busy and shed requests were offered too: every window is offered
        // one second of traffic.
        windows: (0..measure_secs)
            .map(|_| Window {
                offered_vectors: rate_hz * vectors_per_request,
                ..Window::default()
            })
            .collect(),
        offered_requests: k_end - k_begin,
        served_vectors: 0,
        exact_vectors: 0,
        shed: 0,
        busy: 0,
        bit_errors: 0,
        bits: 0,
        speeds: Vec::new(),
        next_k: k_end,
        before: snapshot.clone(),
        after: snapshot,
    };
    // The current slice's measured requests (window, due, collected), and
    // the service interval of every request it served: the latencies go
    // into reference time once the calibration after the slice is known.
    let mut slice_lat: Vec<(usize, Instant, Instant)> = Vec::new();
    let mut served: Vec<(Instant, Instant)> = Vec::new();
    let account = |d: &mut Generator,
                   out: &mut OpenOutcome,
                   (slice_lat, served): (&mut Vec<_>, &mut Vec<_>),
                   c: Completion,
                   due_at: Instant| {
        let started = c.submitted + c.queue_wait;
        served.push((started, started + c.service));
        if !measured(c.k) {
            return;
        }
        let lat = c.collected.saturating_duration_since(due_at);
        let window = ((c.k - k_begin) / rate_hz) as usize;
        slice_lat.push((window, due_at, c.collected));
        let v = c.vectors as u64;
        if lat <= REAL_TIME_BUDGET {
            out.windows[window].ontime_vectors += v;
        }
        out.served_vectors += v;
        if c.tier == 0 {
            out.exact_vectors += v;
        }
        out.bit_errors += c.bit_errors;
        out.bits += v * bits_per_vector;
        d.stages_of(&c, due_at);
    };
    let mut speed = host::worker_speed();
    let mut k = 0u64;
    while k < k_end {
        let first = k;
        let last = (first + per_slice).min(k_end);
        if first == k_begin {
            out.before = d.client.rt.metrics();
        }
        let origin = Instant::now();
        let due = |k: u64| origin + Duration::from_nanos((k - first) * 1_000_000_000 / rate_hz);
        while k < last {
            let now = Instant::now();
            while k < last && due(k) <= now {
                match d.submit(k) {
                    Submit::Sent => {}
                    Submit::Busy if measured(k) => out.busy += 1,
                    Submit::Shed if measured(k) => out.shed += 1,
                    Submit::Busy | Submit::Shed => {}
                }
                k += 1;
                while let Some(c) = d.collect(Duration::ZERO) {
                    let due_at = due(c.k);
                    account(d, &mut out, (&mut slice_lat, &mut served), c, due_at);
                }
            }
            if k < last {
                let wait = due(k).saturating_duration_since(Instant::now()).min(NAP);
                if let Some(c) = d.collect(wait) {
                    let due_at = due(c.k);
                    account(d, &mut out, (&mut slice_lat, &mut served), c, due_at);
                }
            }
        }
        d.drain(|d, c| {
            let due_at = due(c.k);
            account(d, &mut out, (&mut slice_lat, &mut served), c, due_at)
        })?;
        let next = host::worker_speed();
        let scale = (speed + next) / 2.0;
        let busy = Busy::new(std::mem::take(&mut served));
        for (window, due_at, collected) in slice_lat.drain(..) {
            let wall = collected.saturating_duration_since(due_at);
            let decoding = busy.between(due_at, collected);
            let w = &mut out.windows[window];
            w.latencies
                .push(reference_latency(wall, decoding, scale).as_nanos() as u64);
            w.wall_latencies.push(wall.as_nanos() as u64);
        }
        if measured(first) {
            out.speeds.push(next);
        }
        speed = next;
    }
    out.after = d.client.rt.metrics();
    Ok(out)
}

/// Length of one slice of the capacity phase.
const CAP_SLICE: Duration = Duration::from_millis(500);

/// What the capacity phase measured.
pub struct CapOutcome {
    /// Vectors per second of reference time.
    pub vectors_per_s: f64,
    /// Vectors per second of wall time.
    pub wall_vectors_per_s: f64,
    /// With a tracer attached: vectors and reference seconds of the traced
    /// slices and of the untraced ones, which alternate.
    pub traced: (u64, f64),
    pub untraced: (u64, f64),
    pub completions: u64,
    /// Each measured slice's vectors per second of reference time.
    pub per_slice: Vec<f64>,
    /// The workers' speed after each measured slice.
    pub speeds: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Submit the next pool item, skipping slots still in flight or refused
/// ones. Returns the attempts made and how many of them failed.
fn submit_next(d: &mut Generator, k: &mut u64) -> (u64, u64) {
    // At most one pass over the pool: some slot is always free while fewer
    // requests than pool items are in flight.
    let n = d.pool.len() as u64;
    for failed in 0..n {
        let r = d.submit(*k);
        *k += 1;
        if let Submit::Sent = r {
            return (failed + 1, failed);
        }
    }
    (n, n)
}

/// Closed loop: keep `outstanding` requests in flight, resubmitting the
/// next pool item as each response is collected, in slices of
/// [`CAP_SLICE`]. Each slice ends by draining the runtime, and the workers'
/// speed is calibrated between slices. Slices in the first `warm` are not
/// counted; those of the next `measure` are. With a tracer attached,
/// tracing is on in every other measured slice.
pub fn closed_loop(
    d: &mut Generator,
    outstanding: usize,
    first_k: u64,
    warm: Duration,
    measure: Duration,
) -> Result<CapOutcome, String> {
    let slices = |t: Duration| (t.as_millis() / CAP_SLICE.as_millis()).max(1) as usize;
    let (warm_n, n) = (slices(warm), slices(measure));
    let mut k = first_k;
    let mut out = CapOutcome {
        vectors_per_s: 0.0,
        wall_vectors_per_s: 0.0,
        traced: (0, 0.0),
        untraced: (0, 0.0),
        completions: 0,
        per_slice: Vec::with_capacity(n),
        speeds: Vec::with_capacity(n),
        attempted: 0,
        failed: 0,
    };
    let (mut vectors, mut ref_s, mut wall_s) = (0u64, 0.0, 0.0);
    let mut speed = host::worker_speed();
    for i in 0..warm_n + n {
        let measured = i >= warm_n;
        d.tracing = d.tracer.is_some() && measured && (i - warm_n) % 2 == 1;
        let start = Instant::now();
        let end = start + CAP_SLICE;
        let (mut slice_vectors, mut completions) = (0u64, 0u64);
        let mut count = |d: &mut Generator, c: Completion| {
            slice_vectors += c.vectors as u64;
            completions += 1;
            if measured {
                // In the closed loop a request is due when it is submitted.
                d.stages_of(&c, c.submitted);
            }
        };
        let (mut attempted, mut failed) = (0, 0);
        for _ in 0..outstanding {
            let (a, f) = submit_next(d, &mut k);
            (attempted, failed) = (attempted + a, failed + f);
        }
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let Some(c) = d.collect((end - now).min(Duration::from_millis(10))) else {
                continue;
            };
            let resubmit = c.collected < end;
            count(d, c);
            if resubmit {
                let (a, f) = submit_next(d, &mut k);
                (attempted, failed) = (attempted + a, failed + f);
            }
        }
        d.drain(&mut count)?;
        let wall = start.elapsed();
        let next = host::worker_speed();
        if measured {
            let r = reference(wall, speed, next);
            vectors += slice_vectors;
            ref_s += r;
            wall_s += wall.as_secs_f64();
            out.completions += completions;
            out.attempted += attempted;
            out.failed += failed;
            out.per_slice.push(slice_vectors as f64 / r);
            out.speeds.push(next);
            let side = if d.tracing {
                &mut out.traced
            } else {
                &mut out.untraced
            };
            side.0 += slice_vectors;
            side.1 += r;
        }
        speed = next;
    }
    d.tracing = false;
    out.vectors_per_s = vectors as f64 / ref_s;
    out.wall_vectors_per_s = vectors as f64 / wall_s;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_merges_overlapping_service() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let us = Duration::from_micros;
        // [10, 30) and [20, 40) overlap; [50, 60) stands alone; [55, 58)
        // lies inside it.
        let busy = Busy::new(vec![
            (at(50), at(60)),
            (at(10), at(30)),
            (at(55), at(58)),
            (at(20), at(40)),
        ]);
        assert_eq!(busy.before(at(5)), us(0));
        assert_eq!(busy.before(at(25)), us(15));
        assert_eq!(busy.before(at(45)), us(30));
        assert_eq!(busy.before(at(100)), us(40));
        assert_eq!(busy.between(at(35), at(55)), us(10));
        assert_eq!(Busy::new(Vec::new()).between(at(0), at(9)), us(0));
    }

    #[test]
    fn only_decoding_time_is_rescaled() {
        let us = Duration::from_micros;
        assert_eq!(reference_latency(us(300), us(100), 0.5), us(250));
        assert_eq!(reference_latency(us(300), us(0), 0.5), us(300));
        // Decoding can only cover the latency it lies in.
        assert_eq!(reference_latency(us(100), us(150), 2.0), us(200));
    }
}
