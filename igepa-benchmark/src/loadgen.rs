//! The load generator: open-loop phases on a seeded schedule, and the
//! pipelined saturation phase.
//!
//! Each connection gets a sending thread and a receiving thread. The
//! sender sleeps until a request is due and sends it; the receiver blocks
//! on the socket and stamps each frame the moment its read returns. (A
//! single thread waiting with `set_read_timeout(next_due - now)` would be
//! simpler, but socket timeouts are rounded up to scheduler ticks — about
//! 8 ms on the reference machine — while `thread::sleep` wakes within
//! ~0.1 ms.) Latency runs from the scheduled send time to the frame's
//! arrival, so a stall also delays every request due during it. Frames are
//! decoded only after the phase, so decoding cannot delay the stamps.

use crate::wire::{self, Conn};
use igepa_engine::EngineRequest;
use std::io;
use std::time::{Duration, Instant};

/// Client-side timestamps of one traced request, in ns since the phase
/// start.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTimes {
    /// Encoding began (the sender woke for the request).
    pub encode_start: u64,
    /// Encoding ended and the frame write began.
    pub encode_end: u64,
    /// The frame write returned.
    pub write_end: u64,
}

/// Everything one connection observed during one phase, indexed by the
/// request's position in the phase.
#[derive(Debug, Default)]
pub struct Exchange {
    /// Correlation id of request 0; request `i` used `first_id + i`.
    pub first_id: u64,
    /// Scheduled send time of each request, in ns since the phase start
    /// (the actual send time for pipelined requests).
    pub due_ns: Vec<u64>,
    /// Arrival of each response, in ns since the phase start.
    pub arrival_ns: Vec<Option<u64>>,
    /// Each response frame, undecoded.
    pub frames: Vec<Option<String>>,
    /// How late each request was sent, in µs.
    pub lag_us: Vec<f64>,
    /// Frames whose id was unknown or already answered.
    pub stray_frames: usize,
    /// The transport failure that ended the phase early, if any.
    pub transport_error: Option<String>,
    /// Client timestamps, when traced.
    pub client: Vec<ClientTimes>,
}

impl Exchange {
    fn new(first_id: u64, n: usize) -> Self {
        Exchange {
            first_id,
            due_ns: Vec::with_capacity(n),
            arrival_ns: vec![None; n],
            frames: vec![None; n],
            ..Exchange::default()
        }
    }

    /// Latency of request `i` in µs, if it was answered.
    pub fn latency_us(&self, i: usize) -> Option<f64> {
        let arrival = self.arrival_ns[i]?;
        Some(arrival.saturating_sub(self.due_ns[i]) as f64 / 1e3)
    }

    /// Files one received frame; returns whether it answered a request.
    fn file(&mut self, frame: String, at_ns: u64) -> bool {
        let slot = wire::frame_id(&frame)
            .or_else(|| wire::decode(&frame).ok().map(|(id, _)| id))
            .and_then(|id| id.checked_sub(self.first_id))
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < self.frames.len() && self.frames[i].is_none());
        match slot {
            Some(i) => {
                self.frames[i] = Some(frame);
                self.arrival_ns[i] = Some(at_ns);
                true
            }
            None => {
                self.stray_frames += 1;
                false
            }
        }
    }
}

fn ns_since(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_nanos() as u64
}

/// Runs one open-loop phase on `conn`: `requests[i]` is due `.0` seconds
/// after `start`. Returns once every request is answered or the
/// connection fails.
pub fn open_loop(
    conn: &mut Conn,
    requests: &[(f64, EngineRequest)],
    start: Instant,
    traced: bool,
) -> Exchange {
    let n = requests.len();
    let mut exchange = Exchange::new(conn.next_id, n);
    conn.next_id += n as u64;
    exchange.due_ns = requests.iter().map(|(at, _)| (at * 1e9) as u64).collect();
    let mut writer = match conn.stream.try_clone() {
        Ok(writer) => writer,
        Err(e) => {
            exchange.transport_error = Some(format!("clone socket: {e}"));
            return exchange;
        }
    };
    let first_id = exchange.first_id;
    let due_ns = exchange.due_ns.clone();

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lag_us = Vec::with_capacity(n);
            let mut client = Vec::with_capacity(if traced { n } else { 0 });
            for (i, (_, body)) in requests.iter().enumerate() {
                let due = start + Duration::from_nanos(due_ns[i]);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let woke = Instant::now();
                lag_us.push(woke.saturating_duration_since(due).as_nanos() as f64 / 1e3);
                let line = wire::encode(first_id + i as u64, body);
                let encoded = traced.then(|| ns_since(start));
                if let Err(e) = wire::send(&mut writer, &line) {
                    return (lag_us, client, Some(format!("send: {e}")));
                }
                if let Some(encode_end) = encoded {
                    client.push(ClientTimes {
                        encode_start: woke.saturating_duration_since(start).as_nanos() as u64,
                        encode_end,
                        write_end: ns_since(start),
                    });
                }
            }
            (lag_us, client, None)
        });

        let mut buf = vec![0u8; 256 * 1024];
        let mut answered = 0;
        while answered < n {
            match conn.frames.read_from(&mut conn.stream, &mut buf) {
                Ok(frames) => {
                    let at = ns_since(start);
                    for frame in frames {
                        answered += usize::from(exchange.file(frame, at));
                    }
                }
                Err(e) => {
                    exchange.transport_error = Some(format!("receive: {e}"));
                    break;
                }
            }
        }
        let (lag_us, client, send_error) = sender.join().expect("sender thread panicked");
        exchange.lag_us = lag_us;
        exchange.client = client;
        if exchange.transport_error.is_none() {
            exchange.transport_error = send_error;
        }
    });
    exchange
}

/// Runs the saturation phase: `requests` pipelined on `conn` with at most
/// `window` in flight, as fast as the server answers. Returns the
/// exchange (due time = send time) and the elapsed wall time.
pub fn pipelined(
    conn: &mut Conn,
    requests: &[EngineRequest],
    window: usize,
) -> (Exchange, Duration) {
    let n = requests.len();
    let mut exchange = Exchange::new(conn.next_id, n);
    conn.next_id += n as u64;
    let start = Instant::now();
    let mut buf = vec![0u8; 256 * 1024];
    let mut next = 0;
    let mut answered = 0;
    let result: io::Result<()> = (|| {
        while answered < n {
            while next - answered < window && next < n {
                exchange.due_ns.push(ns_since(start));
                let line = wire::encode(exchange.first_id + next as u64, &requests[next]);
                wire::send(&mut conn.stream, &line)?;
                next += 1;
            }
            let frames = conn.frames.read_from(&mut conn.stream, &mut buf)?;
            let at = ns_since(start);
            for frame in frames {
                answered += usize::from(exchange.file(frame, at));
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        exchange.transport_error = Some(e.to_string());
    }
    (exchange, start.elapsed())
}
