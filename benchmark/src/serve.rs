//! Traffic through `BatchedServer`.
//!
//! The two bounded serving metrics are repeated, self-contained operations
//! made by the script's own thread against one server it keeps open
//! ([`FrontDoor`]): the round trip of one request through an idle server, and
//! the time in which the server works off a backlog of 32 requests.
//!
//! The traced run adds the load generator: one sender thread and one
//! collector thread (blocked in `Ticket::wait`), so the generator never takes
//! a core from the sweeps on a 2-core host. Open loop: requests are sent on
//! the seeded schedule whether or not earlier ones completed, and latency
//! runs from the time a request was *due*, so a stalled sender or server
//! shows up as latency instead of vanishing. Closed loop ("saturated"): a
//! fixed number of tickets is kept in flight.

use crate::spans::{Recorder, SpanId};
use crate::Counts;
use gofmm_suite::core::ApplyOptions;
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::{BatchedServer, Error, GofmmOperator, ServeConfig, ServerStats, Ticket};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Single-column right-hand sides the requests draw from.
pub const POOL_COLS: usize = 16;
/// Requests of the backlog, and tickets the closed loop keeps in flight.
pub const SAT_IN_FLIGHT: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Apply,
    Solve,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// When the request is due, seconds after the window opens.
    pub due_s: f64,
    pub kind: Kind,
    /// Column of the right-hand-side pool it sends.
    pub col: usize,
}

/// The seeded request schedule: Poisson arrivals at `rate` per second over
/// `window_s`, every block of four requests holding three applies and one
/// direct solve in seeded order, pool columns drawn uniformly.
pub fn schedule(seed: u64, rate: f64, window_s: f64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c4e_d01e);
    let mut out = Vec::new();
    let mut block = [Kind::Apply, Kind::Apply, Kind::Apply, Kind::Solve];
    let mut t = 0.0;
    loop {
        if out.len() % block.len() == 0 {
            block.shuffle(&mut rng);
        }
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= window_s {
            return out;
        }
        out.push(Request {
            due_s: t,
            kind: block[out.len() % block.len()],
            col: rng.gen_range(0..POOL_COLS),
        });
    }
}

/// The requests of the backlog: eight blocks of a solve and three applies,
/// in that order on every seed (the order decides which batches the server
/// forms), each on a seeded pool column.
pub fn backlog(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbac_106);
    (0..SAT_IN_FLIGHT)
        .map(|i| Request {
            due_s: 0.0,
            kind: if i % 4 == 0 { Kind::Solve } else { Kind::Apply },
            col: rng.gen_range(0..POOL_COLS),
        })
        .collect()
}

/// The right-hand-side pool and the solo result of every request the
/// schedule can make, which each served result must equal bit for bit.
pub struct Pool {
    cols: Vec<DenseMatrix<f64>>,
    solo_apply: Vec<DenseMatrix<f64>>,
    solo_solve: Vec<DenseMatrix<f64>>,
}

impl Pool {
    pub fn new(op: &GofmmOperator<f64>, seed: u64) -> Result<Self, Error> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0900_1c01);
        let cols: Vec<_> = (0..POOL_COLS)
            .map(|_| DenseMatrix::<f64>::random_gaussian(op.n(), 1, &mut rng))
            .collect();
        let solo_apply = cols.iter().map(|c| op.apply(c)).collect::<Result<_, _>>()?;
        let solo_solve = cols.iter().map(|c| op.solve(c)).collect::<Result<_, _>>()?;
        Ok(Pool {
            cols,
            solo_apply,
            solo_solve,
        })
    }

    fn expected(&self, req: &Request) -> &DenseMatrix<f64> {
        match req.kind {
            Kind::Apply => &self.solo_apply[req.col],
            Kind::Solve => &self.solo_solve[req.col],
        }
    }
}

const HOLDOFF: Duration = Duration::from_micros(300);

/// 32-column batches, 300 us hold-off, sweeps at the workload's policy and
/// thread count.
pub fn server_config(options: ApplyOptions) -> ServeConfig {
    ServeConfig::default()
        .with_max_batch_cols(32)
        .with_holdoff(HOLDOFF)
        .with_options(options)
}

/// One server the script keeps open between its calls; while nothing is
/// submitted its worker sleeps on the queue.
pub struct FrontDoor<'p> {
    server: BatchedServer<f64>,
    pool: &'p Pool,
    backlog: Vec<Request>,
    next_col: usize,
}

impl<'p> FrontDoor<'p> {
    pub fn open(
        op: &Arc<GofmmOperator<f64>>,
        config: ServeConfig,
        pool: &'p Pool,
        seed: u64,
    ) -> Self {
        FrontDoor {
            server: BatchedServer::new(Arc::clone(op), config),
            pool,
            backlog: backlog(seed),
            next_col: 0,
        }
    }

    fn submit(&self, req: &Request) -> Result<Ticket<f64>, Error> {
        submit(&self.server, self.pool, req)
    }

    /// Whether a ticket resolved to the solo result of its request.
    fn served(&self, ticket: Result<Ticket<f64>, Error>, req: &Request) -> bool {
        matches!(ticket.and_then(Ticket::wait), Ok(out) if out.data() == self.pool.expected(req).data())
    }

    /// One single-column apply request through the idle server: hold-off,
    /// one batch of one, the hand-offs between the threads. The pool column
    /// advances with every call. Returns the seconds from submission to
    /// result and how many requests failed (rejected, `Err`, or not the solo
    /// result bit for bit).
    pub fn round_trip(&mut self) -> (f64, usize) {
        let request = Request {
            due_s: 0.0,
            kind: Kind::Apply,
            col: self.next_col,
        };
        self.next_col = (self.next_col + 1) % POOL_COLS;
        let start = Instant::now();
        let ok = self.served(self.submit(&request), &request);
        (start.elapsed().as_secs_f64(), usize::from(!ok))
    }

    /// Serve the backlog of 32: the first request goes out alone, the other
    /// 31 once the server has taken it off the queue, so they queue while it
    /// is busy with the first and it then forms its batches from a full queue
    /// (24 applies, then 7 solves), the same ones on every call. (32 requests
    /// submitted at once race the hold-off: the first batch catches however
    /// many made it in time.) The clock starts before the first submission
    /// and stops after the last result, so a stalled thread can only lengthen
    /// a sample. Returns the seconds and how many requests failed.
    pub fn drain_backlog(&self) -> (f64, usize) {
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(self.backlog.len());
        for (i, req) in self.backlog.iter().enumerate() {
            tickets.push(self.submit(req));
            // The queue is empty again once the first batch is formed (or at
            // once, if the submission was refused).
            while i == 0 && self.server.stats().queue_depth > 0 {
                std::thread::sleep(HOLDOFF / 4);
            }
        }
        let failed = tickets
            .into_iter()
            .zip(&self.backlog)
            .map(|(ticket, req)| self.served(ticket, req))
            .filter(|ok| !ok)
            .count();
        (start.elapsed().as_secs_f64(), failed)
    }

    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }
}

pub struct WindowResult {
    /// Completion minus due time per completed request (open loop), or
    /// completion minus submission (closed loop), milliseconds.
    pub latencies_ms: Vec<f64>,
    /// How late the sender submitted each request, milliseconds.
    pub gen_lag_ms: Vec<f64>,
    /// Seconds from the window opening to the last completion.
    pub elapsed_s: f64,
    pub stats: ServerStats,
}

impl WindowResult {
    /// Completions per second.
    pub fn rate(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }

    /// Columns per executed batch.
    pub fn mean_batch_cols(&self) -> f64 {
        self.stats.coalesced_columns as f64 / self.stats.batches.max(1) as f64
    }
}

struct InFlight {
    ticket: Ticket<f64>,
    request: Request,
    origin: Instant,
}

fn submit(server: &BatchedServer<f64>, pool: &Pool, req: &Request) -> Result<Ticket<f64>, Error> {
    match req.kind {
        Kind::Apply => server.submit_apply(&pool.cols[req.col], None),
        Kind::Solve => server.submit_solve(&pool.cols[req.col], None),
    }
}

/// Drive one serving window. `in_flight_cap = None` is the open loop over
/// `requests` as scheduled; `Some(k)` is the closed loop, cycling through
/// `requests` (ignoring due times) with `k` tickets in flight until
/// `window_s` has passed. Every request is counted in `counts`; a rejection,
/// an error or a result that differs from the solo call is a failure.
#[allow(clippy::too_many_arguments)]
pub fn run_window(
    op: &Arc<GofmmOperator<f64>>,
    config: ServeConfig,
    pool: &Pool,
    requests: &[Request],
    window_s: f64,
    in_flight_cap: Option<usize>,
    counts: &mut Counts,
    rec: &Recorder,
    parent: SpanId,
) -> WindowResult {
    let server = BatchedServer::new(Arc::clone(op), config);
    let (tx, rx) = mpsc::channel::<InFlight>();
    // The closed loop's permits: the collector returns one per completion.
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let mut gen_lag_ms = Vec::new();
    let mut rejected = 0usize;
    let mut sent = 0usize;

    let (latencies_ms, failed_results, last_done) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies = Vec::new();
            let mut failed = 0usize;
            let mut last_done = start;
            for flight in rx {
                let wait = rec.open("solver.ticket_wait", parent);
                let result = flight.ticket.wait();
                drop(wait);
                last_done = Instant::now();
                match result {
                    Ok(out) if out.data() == pool.expected(&flight.request).data() => {
                        latencies.push(1e3 * (last_done - flight.origin).as_secs_f64());
                    }
                    _ => failed += 1,
                }
                // The sender may already be gone; a lost permit is harmless.
                let _ = permit_tx.send(());
            }
            (latencies, failed, last_done)
        });

        let mut send = |req: &Request, origin: Instant| {
            sent += 1;
            let guard = rec.open("solver.submit", parent);
            let ticket = submit(&server, pool, req);
            drop(guard);
            match ticket {
                Ok(ticket) => {
                    let flight = InFlight {
                        ticket,
                        request: *req,
                        origin,
                    };
                    tx.send(flight).expect("collector outlives the sender");
                    true
                }
                Err(_) => {
                    rejected += 1;
                    false
                }
            }
        };

        match in_flight_cap {
            None => {
                for req in requests {
                    let due = start + Duration::from_secs_f64(req.due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    gen_lag_ms
                        .push(1e3 * Instant::now().saturating_duration_since(due).as_secs_f64());
                    send(req, due);
                }
            }
            Some(cap) => {
                let deadline = start + Duration::from_secs_f64(window_s);
                let mut in_flight = 0usize;
                for req in requests.iter().cycle() {
                    while in_flight >= cap {
                        permit_rx.recv().expect("collector returns permits");
                        in_flight -= 1;
                    }
                    if Instant::now() >= deadline {
                        break;
                    }
                    if send(req, Instant::now()) {
                        in_flight += 1;
                    }
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });

    counts.attempted += sent;
    counts.failed += rejected + failed_results;
    let stats = server.stats();
    drop(server); // joins the serving worker
    WindowResult {
        latencies_ms,
        gen_lag_ms,
        elapsed_s: (last_done - start).as_secs_f64(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(1, 100.0, 2.0);
        assert_eq!(a, schedule(1, 100.0, 2.0));
        assert_ne!(a, schedule(2, 100.0, 2.0));
        assert!(a.len() > 120 && a.len() < 290, "{} arrivals", a.len());
        assert!(a.windows(2).all(|p| p[0].due_s <= p[1].due_s));
        assert!(a.iter().all(|r| r.due_s < 2.0 && r.col < POOL_COLS));
        // Three applies to one solve in every complete block of four.
        for block in a.chunks_exact(4) {
            assert_eq!(block.iter().filter(|r| r.kind == Kind::Solve).count(), 1);
        }
        let b = backlog(1);
        assert_eq!(b.len(), SAT_IN_FLIGHT);
        assert_eq!(b.iter().filter(|r| r.kind == Kind::Solve).count(), 8);
        assert_eq!(b, backlog(1));
        assert_ne!(b, backlog(2));
    }
}
