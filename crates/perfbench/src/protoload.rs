//! `proto_bulk`: one bulk transfer through the §6 protocol endpoint.
//!
//! No simulator layer runs here. The benchmark drives the two endpoints
//! and two wires itself, in the order `Harness::step` does, so that it can
//! time each call; the application on top writes a repeating pattern and
//! verifies it on read without keeping the stream.

use crate::clock::Stopwatch;
use crate::inputs::{payload_pattern, PATTERN_LEN};
use crate::trace::Tracer;
use crate::world::Engine;
use crate::{Rep, Workload};
use mptcp_proto::{Endpoint, EndpointConfig, Micros, Wire, WireFault};
use std::time::Duration;

/// One client-to-server transfer over two lossy wires.
#[derive(Debug, Clone, Copy)]
pub struct ProtoBulk {
    /// Bytes to transfer.
    pub bytes: u64,
    /// Flip the byte at this stream offset after it is read, so the
    /// crate's tests can show the pattern check fails a run.
    pub corrupt_at: Option<u64>,
}

/// Step size of the driving loop, µs (the harness default).
const TICK: Micros = 100;
/// The transfer needs about 2M ticks; far beyond that it has wedged.
const MAX_TICKS: u64 = 50_000_000;

impl ProtoBulk {
    /// 512 MB over a 5 ms and a 20 ms path, both losing 0.5% of segments,
    /// the second also reordering, with 512 KiB buffers.
    pub const TWO_WIRES: Self = Self { bytes: 512_000_000, corrupt_at: None };

    /// The same transfer with its length divided by `d`.
    pub fn scaled(self, d: u64) -> Self {
        Self { bytes: self.bytes / d, ..self }
    }

    fn config() -> EndpointConfig {
        EndpointConfig { send_buf: 512 * 1024, recv_buf: 512 * 1024, ..EndpointConfig::default() }
    }
}

/// Endpoints, wires and payload, ready to run.
pub struct Ready {
    client: Endpoint,
    server: Endpoint,
    wires: [Wire; 2],
    pattern: Vec<u8>,
}

/// Host time and call counts of each call the driving loop makes
/// (accumulated in the traced pass only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoCalls {
    /// Time in `Endpoint::poll`.
    pub poll: Duration,
    /// Time in `Endpoint::on_segment`.
    pub on_segment: Duration,
    /// Time in `Endpoint::write`.
    pub write: Duration,
    /// Time in `Endpoint::read`.
    pub read: Duration,
    /// Time in `Wire::send_a` / `send_b`.
    pub wire_send: Duration,
    /// Time in `Wire::recv_a` / `recv_b`.
    pub wire_recv: Duration,
    /// Ticks stepped.
    pub ticks: u64,
    /// Segments the wires carried, both directions.
    pub segments: u64,
    /// Segments the wires dropped.
    pub wire_dropped: u64,
    /// `poll` calls.
    pub polls: u64,
    /// `poll` calls that returned nothing.
    pub polls_empty: u64,
    /// Client retransmissions, both subflows.
    pub retransmits: u64,
}

impl ProtoCalls {
    /// Time inside the library's calls.
    pub fn attributed(&self) -> Duration {
        self.poll + self.on_segment + self.write + self.read + self.wire_send + self.wire_recv
    }
}

/// Run `f`, adding its host time to `acc` when `on`.
#[inline]
fn timed<T>(on: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = mptcp_netsim::wall_clock();
    let out = f();
    *acc += t.elapsed();
    out
}

impl Workload for ProtoBulk {
    type Ready = Ready;

    fn engine(&self) -> Engine {
        Engine::Serial
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Ready {
        let pattern = tr.span("workload.payload_pattern", || payload_pattern(seed));
        tr.span("proto.endpoint.new", || Ready {
            client: Endpoint::client(Self::config(), 2, seed),
            server: Endpoint::server(Self::config(), 2, seed),
            wires: [
                Wire::new(5_000, seed).with_fault(WireFault::Loss(0.005)),
                Wire::new(20_000, seed.wrapping_add(1))
                    .with_fault(WireFault::Loss(0.005))
                    .with_fault(WireFault::Jitter(2_000)),
            ],
            pattern,
        })
    }

    fn run(&self, ready: Ready, tr: &mut Tracer) -> Rep {
        let Ready { mut client, mut server, mut wires, pattern } = ready;
        let on = tr.is_on();
        let mut calls = ProtoCalls::default();
        let (mut now, mut written, mut read, mut mismatches) = (0 as Micros, 0u64, 0u64, 0u64);
        let mut closed = false;
        let mut buf = vec![0u8; PATTERN_LEN];
        let mut errors = Vec::new();

        let started = Stopwatch::start();
        let mut coarse = Some(tr.begin("proto.ticks_100k"));
        loop {
            if written < self.bytes {
                let off = (written % PATTERN_LEN as u64) as usize;
                let n = (PATTERN_LEN - off).min((self.bytes - written) as usize);
                written +=
                    timed(on, &mut calls.write, || client.write(&pattern[off..off + n])) as u64;
            } else if !closed {
                client.close();
                closed = true;
            }

            now += TICK;
            calls.ticks += 1;
            for (i, wire) in wires.iter_mut().enumerate() {
                for seg in timed(on, &mut calls.wire_recv, || wire.recv_a(now)) {
                    timed(on, &mut calls.on_segment, || client.on_segment(now, i, seg));
                }
                for seg in timed(on, &mut calls.wire_recv, || wire.recv_b(now)) {
                    timed(on, &mut calls.on_segment, || server.on_segment(now, i, seg));
                }
            }
            for (endpoint, from_client) in [(&mut client, true), (&mut server, false)] {
                let out = timed(on, &mut calls.poll, || endpoint.poll(now));
                calls.polls += 1;
                calls.polls_empty += u64::from(out.is_empty());
                for (sub, seg) in out {
                    timed(on, &mut calls.wire_send, || {
                        if from_client {
                            wires[sub].send_a(now, seg)
                        } else {
                            wires[sub].send_b(now, seg)
                        }
                    });
                }
            }

            loop {
                let n = timed(on, &mut calls.read, || server.read(&mut buf));
                if n == 0 {
                    break;
                }
                if let Some(at) = self.corrupt_at.filter(|at| (read..read + n as u64).contains(at)) {
                    buf[(at - read) as usize] ^= 0xff;
                }
                let off = (read % PATTERN_LEN as u64) as usize;
                let head = n.min(PATTERN_LEN - off);
                if buf[..head] != pattern[off..off + head] || buf[head..n] != pattern[..n - head] {
                    mismatches += 1;
                }
                read += n as u64;
            }

            if closed && server.at_eof() && client.send_complete() {
                break;
            }
            if calls.ticks >= MAX_TICKS {
                errors.push(format!("transfer wedged: {read} bytes read after {MAX_TICKS} ticks"));
                break;
            }
            if on && calls.ticks % 100_000 == 0 {
                if let Some(open) = coarse.take() {
                    tr.end(open);
                }
                coarse = Some(tr.begin("proto.ticks_100k"));
            }
        }
        if let Some(open) = coarse.take() {
            tr.end(open);
        }
        let took = started.stop();

        if read != self.bytes {
            errors.push(format!("read {read} bytes of {}", self.bytes));
        }
        if mismatches > 0 {
            errors.push(format!("{mismatches} reads did not match the pattern"));
        }
        calls.segments = wires.iter().map(|w| w.carried).sum();
        calls.wire_dropped = wires.iter().map(|w| w.dropped).sum();
        calls.retransmits = (0..2).map(|i| client.subflow_retransmits(i).0).sum();
        let mss = Self::config().mss as u64;
        Rep {
            wall_s: took.wall_s,
            cpu_s: took.cpu_s,
            pkts: self.bytes.div_ceil(mss),
            goodput_mbps: self.bytes as f64 * 8.0 / now as f64,
            attempted: 1,
            failed: u64::from(!errors.is_empty()),
            repeatable: vec![calls.ticks, calls.segments, calls.wire_dropped, read],
            errors,
            proto: Some(calls),
            ..Rep::default()
        }
    }
}
