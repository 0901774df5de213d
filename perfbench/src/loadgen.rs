//! The load generator: a seeded schedule that does not depend on the
//! daemon's replies.
//!
//! A trace is planned into one schedule per connection. Each request has
//! a **due time**; a connection sends it when it is due *and* the
//! previous reply has arrived, and its latency is counted from the due
//! time, so the wait a slow reply imposes on the requests behind it is
//! not hidden. How late each request went out is recorded beside it.
//! Requests without a due time (`due_ns = 0` throughout) make a
//! connection a closed loop.
//!
//! Events are sharded by job id, so a job's depart travels on the
//! connection that carried its submit and can never overtake it.

use omniboost_models::{ArrivalTrace, JobEvent, SloClass};
use omniboost_rpc::api::{DepartRequest, SubmitRequest};
use omniboost_rpc::client::{RpcClient, RpcError};
use std::time::{Duration, Instant};

/// What a connection sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Submit(SubmitRequest),
    Depart(DepartRequest),
    Status,
    Metrics,
}

impl Call {
    pub fn is_write(&self) -> bool {
        matches!(self, Call::Submit(_) | Call::Depart(_))
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Nanoseconds after the phase start at which the request is due.
    pub due_ns: u64,
    pub call: Call,
    /// Position in the trace (pairs wire samples with in-process ones).
    pub event: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub event: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    pub write: bool,
}

impl Sample {
    /// Latency from the due time: what a user who wanted the request
    /// sent at `due_ns` waited.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Round trip from the actual send.
    pub fn rtt_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }
}

/// Who stamps a request with its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamps {
    /// The request carries the trace's virtual stamp: the daemon's
    /// serving behaviour follows the trace whatever the wall clock does
    /// (and a replay is digest-reproducible). Only sound with one
    /// connection: a stamp older than the engine's clock joins the open
    /// tick, so racing connections would change the work done.
    Trace,
    /// The daemon stamps its own wall clock on arrival, as it does for
    /// independent clients.
    Daemon,
}

/// Plans `trace` onto `connections` schedules: with a `speedup` a
/// request is due at `at_ms / speedup`, without one it is due at once.
pub fn plan(
    trace: &ArrivalTrace,
    speedup: Option<f64>,
    connections: usize,
    stamps: Stamps,
) -> Vec<Vec<Planned>> {
    let mut schedules = vec![Vec::new(); connections.max(1)];
    for (event, stamped) in trace.events().iter().enumerate() {
        let at_ms = (stamps == Stamps::Trace).then_some(stamped.at_ms);
        let (job_id, call) = match stamped.event {
            JobEvent::Arrive(job) => (
                job.id,
                Call::Submit(SubmitRequest {
                    model: job.model,
                    tenant: job.tenant,
                    min_tps: match job.slo {
                        SloClass::Guaranteed { min_tps } => Some(min_tps),
                        SloClass::BestEffort => None,
                    },
                    id: Some(job.id),
                    at_ms,
                }),
            ),
            JobEvent::Depart { job_id } => {
                (job_id, Call::Depart(DepartRequest { id: job_id, at_ms }))
            }
        };
        let due_ns = speedup.map_or(0, |s| (stamped.at_ms as f64 * 1e6 / s) as u64);
        let connection = (job_id % schedules.len() as u64) as usize;
        schedules[connection].push(Planned {
            due_ns,
            call,
            event,
        });
    }
    schedules
}

/// The schedule with a `/v1/status` read after every write, due with it.
pub fn with_status(schedule: Vec<Planned>) -> Vec<Planned> {
    schedule
        .into_iter()
        .flat_map(|write| {
            let read = Planned {
                call: Call::Status,
                ..write.clone()
            };
            [write, read]
        })
        .collect()
}

/// A schedule of reads: one every `every_ns` for `for_ns`, each
/// `metrics_every`-th a `/metrics` scrape and the rest `/v1/status`.
pub fn plan_reads(every_ns: u64, for_ns: u64, metrics_every: usize) -> Vec<Planned> {
    (0..for_ns / every_ns.max(1))
        .map(|i| Planned {
            due_ns: i * every_ns,
            call: if (i as usize + 1).is_multiple_of(metrics_every.max(1)) {
                Call::Metrics
            } else {
                Call::Status
            },
            event: i as usize,
        })
        .collect()
}

/// Time as the generator sees it; faked in tests.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= due_ns`.
    fn wait_until(&self, due_ns: u64);
}

/// The wall clock, counted from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        // Plain sleeps: waking late by the timer slack (tens of
        // microseconds) is recorded as generator lateness, and spinning
        // instead would take a core from the daemon under test.
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

/// Drives one connection through its schedule: waits for each request's
/// due time, sends it, waits for the reply. Stops before a request that
/// would start at or after `stop_ns`.
pub fn drive<C: Clock>(
    clock: &C,
    schedule: &[Planned],
    stop_ns: Option<u64>,
    mut call: impl FnMut(&Call) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(schedule.len());
    for planned in schedule {
        clock.wait_until(planned.due_ns);
        let sent_ns = clock.now_ns();
        if stop_ns.is_some_and(|stop| sent_ns >= stop) {
            break;
        }
        let ok = call(&planned.call);
        samples.push(Sample {
            event: planned.event,
            due_ns: planned.due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            ok,
            write: planned.call.is_write(),
        });
    }
    samples
}

/// Sends one call and checks the reply. A refused admission is a typed
/// answer of the workload, not a failure; a transport error, an untyped
/// error or an undecodable reply is.
pub fn send(client: &mut RpcClient, call: &Call) -> Result<(), RpcError> {
    match call {
        Call::Submit(request) => match client.submit(request) {
            Ok(_) => Ok(()),
            Err(e) if e.is_code("admission-rejected") => Ok(()),
            Err(e) => Err(e),
        },
        Call::Depart(request) => client.depart(request).map(|_| ()),
        Call::Status => client.status().map(|_| ()),
        Call::Metrics => {
            let text = client.metrics()?;
            // The decision-latency histogram families must be there.
            for family in ["omniboost_decision_cold_ms", "omniboost_decision_memo_ms"] {
                if !text.contains(family) {
                    return Err(RpcError::Protocol(format!("/metrics lacks {family}")));
                }
            }
            Ok(())
        }
    }
}

/// Runs one schedule per client, each on a thread of its own, against
/// one shared clock started when all are ready. Returns the samples per
/// connection and the first error text seen, if any.
pub fn run_connections(
    clients: Vec<RpcClient>,
    schedules: &[Vec<Planned>],
    stop_ns: Option<u64>,
) -> (Vec<Vec<Sample>>, Option<String>) {
    assert_eq!(clients.len(), schedules.len(), "one client per schedule");
    let clock = WallClock(Instant::now());
    let results: Vec<(Vec<Sample>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(schedules)
            .map(|(mut client, schedule)| {
                scope.spawn(move || {
                    let mut first_error = None;
                    let samples = drive(&clock, schedule, stop_ns, |call| {
                        match send(&mut client, call) {
                            Ok(()) => true,
                            Err(e) => {
                                first_error.get_or_insert_with(|| e.to_string());
                                false
                            }
                        }
                    });
                    (samples, first_error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let first_error = results.iter().find_map(|(_, e)| e.clone());
    (results.into_iter().map(|(s, _)| s).collect(), first_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    const MS: u64 = 1_000_000;

    /// A clock that only moves when told to: waiting jumps to the due
    /// time, and the fake call below advances it by the service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    fn status_at(due_ns: u64, event: usize) -> Planned {
        Planned {
            due_ns,
            call: Call::Status,
            event,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_when_the_connection_is_busy() {
        // Due every 10 ms; the first reply takes 35 ms, the rest 2 ms.
        let schedule: Vec<Planned> = (0..5).map(|i| status_at(i * 10 * MS, i as usize)).collect();
        let clock = FakeClock(Cell::new(0));
        let mut served = 0;
        let samples = drive(&clock, &schedule, None, |_| {
            clock
                .0
                .set(clock.0.get() + if served == 0 { 35 * MS } else { 2 * MS });
            served += 1;
            true
        });
        // Request 1 was due at 10 ms but could only go out at 35 ms: it
        // is 25 ms late and its latency is 27 ms, not the 2 ms it took.
        assert_eq!(samples[1].sent_ns, 35 * MS);
        assert_eq!(samples[1].late_ms(), 25.0);
        assert_eq!(samples[1].rtt_ms(), 2.0);
        assert_eq!(samples[1].latency_ms(), 27.0);
        // The stall is still felt by request 2 (due 20, sent 37) and 3
        // (due 30, sent 39); request 4 (due 40, free at 41) is 1 ms late.
        assert_eq!(samples[2].latency_ms(), 19.0);
        assert_eq!(samples[3].latency_ms(), 11.0);
        assert_eq!(samples[4].late_ms(), 1.0);
        // An idle connection sends on time.
        assert_eq!(samples[0].late_ms(), 0.0);
        assert_eq!(samples[0].latency_ms(), 35.0);
    }

    #[test]
    fn a_stop_time_ends_a_closed_loop() {
        let schedule: Vec<Planned> = (0..100).map(|i| status_at(0, i)).collect();
        let clock = FakeClock(Cell::new(0));
        let samples = drive(&clock, &schedule, Some(10 * MS), |_| {
            clock.0.set(clock.0.get() + 3 * MS);
            true
        });
        // Sent at 0, 3, 6 and 9 ms; the fifth would start at 12 ms.
        assert_eq!(samples.len(), 4);
    }

    #[test]
    fn a_depart_travels_on_its_submits_connection_and_after_it() {
        for seed in [1, 42, 43] {
            let trace = canon::seeded_trace(canon::OPEN_LOOP, 120_000, seed);
            let schedules = plan(&trace, Some(10.0), 2, Stamps::Daemon);
            assert_eq!(
                schedules.iter().map(Vec::len).sum::<usize>(),
                trace.len(),
                "every event is planned exactly once"
            );
            let mut submitted: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            let mut departs = 0;
            for (connection, schedule) in schedules.iter().enumerate() {
                assert!(schedule.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
                assert!(schedule.windows(2).all(|w| w[0].event < w[1].event));
                for (position, planned) in schedule.iter().enumerate() {
                    match &planned.call {
                        Call::Submit(request) => {
                            let id = request.id.expect("planned submits carry ids");
                            assert_eq!(id % 2, connection as u64);
                            submitted.insert(id, (connection, position));
                        }
                        Call::Depart(request) => {
                            departs += 1;
                            let (conn, pos) = submitted[&request.id];
                            assert_eq!(conn, connection, "depart on another connection");
                            assert!(pos < position, "depart ahead of its submit");
                        }
                        Call::Status | Call::Metrics => unreachable!("traces plan writes only"),
                    }
                }
            }
            assert!(departs > 0);
        }
    }

    #[test]
    fn reads_are_evenly_spaced_with_a_scrape_every_hundredth() {
        let reads = plan_reads(5 * MS, 1_000 * MS, 100);
        assert_eq!(reads.len(), 200);
        assert_eq!(reads[1].due_ns, 5 * MS);
        let scrapes: Vec<usize> = reads
            .iter()
            .filter(|p| p.call == Call::Metrics)
            .map(|p| p.event)
            .collect();
        assert_eq!(scrapes, [99, 199]);
    }
}
