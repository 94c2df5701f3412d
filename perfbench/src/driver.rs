//! The load drivers.
//!
//! **Open loop, due-time** ([`Generator`]): requests carry a due time
//! fixed by the seeded plan. Two generator threads, each owning one
//! keep-alive [`loadgen::Client`] for the whole run, take the next due
//! request from a shared cursor, wait until it is due, and send it.
//! Latency is measured from the **due** time, not the moment of issue, so
//! a stall also charges the requests that queued behind it; how late the
//! generator issued each request is recorded beside it.
//!
//! **Closed loop** ([`closed_loop`]): two keep-alive connections, each
//! sending its next request as soon as the previous one is answered. It
//! keeps the CPU busy, so its round trips time the stack rather than
//! how fast an idle virtual CPU wakes up, which on a shared host swings
//! from run to run far more than the stack's own cost.

use crate::spans::Recorder;
use crate::stats::fnv1a;
use loadgen::{Client, Kind};
use obs::{TraceContext, TRACE_HEADER};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Load-generating threads, one keep-alive connection each.
pub const GEN_THREADS: usize = 2;

/// Sleep until this close to the due time, then spin.
const SPIN_NS: u64 = 60_000;

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Op {
    /// Due time, ns after the run epoch.
    pub due_ns: u64,
    pub path: String,
    pub trace: u64,
}

impl Op {
    /// The exact request bytes the client sends (for in-process replays).
    pub fn raw_request(&self) -> String {
        format!(
            "GET {} HTTP/1.1\r\nHost: drafts\r\n{TRACE_HEADER}: {}\r\n\r\n",
            self.path,
            TraceContext::root(self.trace).encode()
        )
    }
}

/// What one request produced.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when the transport failed.
    pub status: u16,
    pub digest: u64,
}

impl Outcome {
    /// Due-time latency in µs; +∞ for a request that failed.
    pub fn latency_us(&self) -> f64 {
        if self.status == 200 {
            (self.done_ns - self.due_ns) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Links client spans to the server-side spans of the same request in
/// traced runs: the server sees the plan's trace id, the client reserves
/// the span id its request span will carry.
pub struct SpanLink {
    pub by_trace: std::collections::HashMap<u64, usize>,
    pub client_span: Vec<AtomicU64>,
}

impl SpanLink {
    pub fn new(ops: &[Op]) -> SpanLink {
        SpanLink {
            by_trace: ops
                .iter()
                .enumerate()
                .map(|(i, op)| (op.trace, i))
                .collect(),
            client_span: ops.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn wait_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Traced runs: where client spans go, and how the server finds them.
pub type Trace = (Arc<Recorder>, Arc<SpanLink>);

/// One phase handed to the generator threads.
struct Job {
    ops: Arc<Vec<Op>>,
    epoch: Instant,
    cursor: AtomicUsize,
    trace: Option<Trace>,
}

/// The generator threads. They live for the whole run, each holding its
/// keep-alive connection, so a phase starts on threads the scheduler has
/// already placed instead of freshly spawned ones.
pub struct Generator {
    jobs: Vec<mpsc::Sender<Arc<Job>>>,
    done: mpsc::Receiver<Vec<(usize, Outcome)>>,
    threads: Vec<JoinHandle<()>>,
}

impl Generator {
    pub fn new(addr: SocketAddr) -> Generator {
        let (done_tx, done) = mpsc::channel();
        let (jobs, threads) = (0..GEN_THREADS)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Arc<Job>>();
                let done_tx = done_tx.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("perfbench-gen-{i}"))
                    .spawn(move || {
                        let mut client = Client::new(addr, Duration::from_secs(10));
                        for job in rx {
                            if done_tx.send(run_job(&mut client, &job)).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn generator thread");
                (tx, thread)
            })
            .unzip();
        Generator {
            jobs,
            done,
            threads,
        }
    }

    /// Replays `ops` (sorted by due time, due times relative to `epoch`).
    pub fn drive(&self, ops: &Arc<Vec<Op>>, epoch: Instant, trace: Option<Trace>) -> Vec<Outcome> {
        let job = Arc::new(Job {
            ops: ops.clone(),
            epoch,
            cursor: AtomicUsize::new(0),
            trace,
        });
        for tx in &self.jobs {
            tx.send(job.clone()).expect("generator thread alive");
        }
        let mut outcomes: Vec<Outcome> = ops
            .iter()
            .map(|op| Outcome {
                due_ns: op.due_ns,
                sent_ns: 0,
                done_ns: 0,
                status: 0,
                digest: 0,
            })
            .collect();
        for _ in &self.jobs {
            for (i, outcome) in self.done.recv().expect("generator thread alive") {
                outcomes[i] = outcome;
            }
        }
        outcomes
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        self.jobs.clear();
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                eprintln!("a generator thread panicked");
            }
        }
    }
}

fn run_job(client: &mut Client, job: &Job) -> Vec<(usize, Outcome)> {
    // Reserved up front: untouched capacity costs no resident memory, and
    // the vector never regrows mid-phase.
    let mut local = Vec::with_capacity(job.ops.len());
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.ops.len() {
            return local;
        }
        let op = &job.ops[i];
        wait_until(job.epoch, op.due_ns);
        let sent_ns = job.epoch.elapsed().as_nanos() as u64;
        let span_id = job.trace.as_ref().map(|(rec, link)| {
            let id = rec.reserve();
            link.client_span[i].store(id, Ordering::Relaxed);
            id
        });
        let ctx = TraceContext::root(op.trace).encode();
        let resp = client.get_traced(&op.path, Some(&ctx));
        let done_ns = job.epoch.elapsed().as_nanos() as u64;
        if let (Some((rec, _)), Some(id)) = (&job.trace, span_id) {
            rec.record_as(id, 0, i as u64, "client.request", sent_ns, done_ns);
        }
        let (status, digest) = match resp {
            Ok((status, body)) => (status, fnv1a(&body)),
            Err(_) => (0, 0),
        };
        local.push((
            i,
            Outcome {
                due_ns: op.due_ns,
                sent_ns,
                done_ns,
                status,
                digest,
            },
        ));
    }
}

/// The requests a closed loop sent in one slice of its measured time.
#[derive(Debug, Default)]
pub struct Slice {
    /// Requests sent.
    pub requests: u64,
    /// Round trip of every bid quote, ns; `u32::MAX` for a failed one.
    pub bid_rtt_ns: Vec<u32>,
}

/// What a closed-loop phase measured, over the requests sent after its
/// warm-up, slice by slice.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub slices: Vec<Slice>,
    /// Length of one slice.
    pub slice_s: f64,
    /// Requests whose answer was wrong or missing.
    pub failed: u64,
}

/// Round trips one closed-loop connection reserves room for per slice.
const SLICE_CAPACITY: usize = 1 << 17;

/// The expected answer to each planned target: `(status, body digest)` by
/// path digest; `None` checks the status only.
pub type Expected = HashMap<u64, (u16, Option<u64>)>;

/// Drives `ops` in a closed loop over [`GEN_THREADS`] connections,
/// cycling through the plan for `warmup` and then `slices` slices of
/// `slice`, and checks every answer against `expected`.
pub fn closed_loop(
    addr: SocketAddr,
    ops: &[Op],
    kinds: &[Kind],
    expected: &Expected,
    warmup: Duration,
    slice: Duration,
    slices: usize,
) -> ClosedLoop {
    let contexts: Vec<String> = ops
        .iter()
        .map(|op| TraceContext::root(op.trace).encode())
        .collect();
    let keys: Vec<u64> = ops.iter().map(|op| fnv1a(op.path.as_bytes())).collect();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let measure_from = warmup.as_nanos() as u64;
    let slice_ns = slice.as_nanos() as u64;
    let end = measure_from + slice_ns * slices as u64;
    let parts: Vec<(Vec<Slice>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GEN_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, Duration::from_secs(10));
                    // Reserved up front, so recording never reallocates
                    // mid-phase; only the pages written become resident.
                    let mut own: Vec<Slice> = (0..slices)
                        .map(|_| Slice {
                            requests: 0,
                            bid_rtt_ns: Vec::with_capacity(SLICE_CAPACITY),
                        })
                        .collect();
                    let mut failed = 0u64;
                    loop {
                        let sent = start.elapsed().as_nanos() as u64;
                        if sent >= end {
                            return (own, failed);
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed) % ops.len();
                        let resp = client.get_traced(&ops[i].path, Some(&contexts[i]));
                        let done = start.elapsed().as_nanos() as u64;
                        if sent < measure_from {
                            continue;
                        }
                        let ok = match (&resp, expected.get(&keys[i])) {
                            (Ok((status, body)), Some(&(want, digest))) => {
                                *status == want && digest.is_none_or(|d| d == fnv1a(body))
                            }
                            _ => false,
                        };
                        failed += u64::from(!ok);
                        let slot = &mut own[((sent - measure_from) / slice_ns) as usize];
                        slot.requests += 1;
                        if kinds[i] == Kind::Bid {
                            slot.bid_rtt_ns.push(if ok {
                                (done - sent).min(u64::from(u32::MAX - 1)) as u32
                            } else {
                                u32::MAX
                            });
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let mut all = ClosedLoop {
        slices: (0..slices).map(|_| Slice::default()).collect(),
        slice_s: slice.as_secs_f64(),
        failed: 0,
    };
    for (own, failed) in parts {
        all.failed += failed;
        for (into, from) in all.slices.iter_mut().zip(own) {
            into.requests += from.requests;
            into.bid_rtt_ns.extend(from.bid_rtt_ns);
        }
    }
    all
}
