//! Open-loop request generator: a fixed arrival schedule, sent over a
//! few keep-alive connections regardless of how fast replies come back.
//!
//! Request `k` of a phase is due at `k / rate` seconds after the phase
//! starts. Connection `j` sends the requests with `k % connections == j`
//! in order, each at its due time or as soon as its previous reply is
//! in. Latency is timed from the due time, so a stall also charges the
//! wait it imposes on later requests; lateness (send time minus due
//! time) shows how far the generator itself fell behind.

use crate::stats::{median, Summary};
use flames_serve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One request as the generator saw it; times are offsets from the
/// phase start.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index into the request stream.
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// HTTP status, `None` on a transport error.
    pub status: Option<u16>,
    pub body: String,
}

impl Sent {
    /// Request latency from the scheduled send time.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Sends `count` requests from `bodies[first..]` at `rate` per second
/// over `clients` (one thread each); returns them in index order.
pub fn run_phase(
    addr: SocketAddr,
    clients: &mut [Client],
    bodies: &[String],
    first: usize,
    count: usize,
    rate: f64,
) -> Vec<Sent> {
    let connections = clients.len();
    let start = Instant::now();
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in (j..count).step_by(connections) {
                        let due = Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let index = first + k;
                        let sent_at = start.elapsed();
                        let reply = client.diagnose(&bodies[index % bodies.len()]);
                        let done = start.elapsed();
                        let (status, body) = match reply {
                            Ok(r) => (Some(r.status), r.body),
                            Err(e) => {
                                // A broken connection is replaced so later
                                // requests are still sent.
                                if let Ok(fresh) = Client::connect(addr) {
                                    *client = fresh;
                                }
                                (None, e.to_string())
                            }
                        };
                        out.push(Sent {
                            index,
                            due,
                            sent: sent_at,
                            done,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    sent
}

/// Verdict on one rate of the ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub latency: Summary,
    pub lateness_p50_ms: f64,
    pub lateness_max_ms: f64,
    /// Median lateness of the second half of the phase minus that of the
    /// first half.
    pub lateness_growth_ms: f64,
    pub failures: usize,
    /// Tail latency within the limit, no failures, lateness not growing.
    pub meets: bool,
}

impl Rung {
    /// Judges a phase against the latency limit. Lateness "grows" when
    /// the second half runs later than the first by more than a tenth
    /// of the limit: the generator, and the server behind it, fell
    /// behind the schedule, so the rate is not sustained.
    pub fn judge(rate: f64, sent: &[Sent], limit_ms: f64) -> Option<Self> {
        let latencies: Vec<f64> = sent.iter().map(Sent::latency_ms).collect();
        let latency = Summary::of(&latencies)?;
        let lateness: Vec<f64> = sent.iter().map(Sent::lateness_ms).collect();
        let half = lateness.len() / 2;
        let growth = if half == 0 {
            0.0
        } else {
            median(&lateness[half..]) - median(&lateness[..half])
        };
        let failures = sent.iter().filter(|s| s.status != Some(200)).count();
        let lateness_max_ms = lateness.iter().copied().fold(0.0, f64::max);
        Some(Self {
            rate,
            meets: failures == 0 && latency.tail <= limit_ms && growth <= 0.1 * limit_ms,
            lateness_p50_ms: median(&lateness),
            lateness_max_ms,
            lateness_growth_ms: growth,
            failures,
            latency,
        })
    }

    pub fn describe(&self) -> String {
        format!(
            "rate {} rps: latency {}; lateness p50 {:.3} ms, max {:.3} ms, growth {:.3} ms; \
             {} failed; {}",
            self.rate,
            self.latency.describe("ms"),
            self.lateness_p50_ms,
            self.lateness_max_ms,
            self.lateness_growth_ms,
            self.failures,
            if self.meets { "meets" } else { "misses" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn sent(due: u64, sent: u64, done: u64) -> Sent {
        Sent {
            index: 0,
            due: ms(due),
            sent: ms(sent),
            done: ms(done),
            status: Some(200),
            body: String::new(),
        }
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 0, sent 5 ms late, answered 3 ms after sending.
        let s = sent(0, 5, 8);
        assert_eq!(s.latency_ms(), 8.0);
        assert_eq!(s.lateness_ms(), 5.0);
        // Sent on time: latency is the service time.
        assert_eq!(sent(10, 10, 14).latency_ms(), 4.0);
    }

    #[test]
    fn growing_lateness_fails_the_rung() {
        // Every reply takes 20 ms but requests are due every 10 ms: each
        // request goes out 10 ms later than the one before.
        let backlog: Vec<Sent> = (0..40).map(|k| sent(10 * k, 20 * k, 20 * k + 20)).collect();
        let rung = Rung::judge(100.0, &backlog, 1000.0).unwrap();
        assert!(rung.lateness_growth_ms > 100.0);
        assert!(!rung.meets);
        // Keeping up: every request on time, 5 ms of service.
        let steady: Vec<Sent> = (0..40).map(|k| sent(10 * k, 10 * k, 10 * k + 5)).collect();
        let rung = Rung::judge(100.0, &steady, 1000.0).unwrap();
        assert!(rung.meets);
        assert_eq!(rung.latency.p50, 5.0);
    }

    #[test]
    fn failures_and_slow_tails_fail_the_rung() {
        let mut v: Vec<Sent> = (0..40).map(|k| sent(10 * k, 10 * k, 10 * k + 5)).collect();
        v[3].status = Some(503);
        assert!(!Rung::judge(100.0, &v, 1000.0).unwrap().meets);
        let slow: Vec<Sent> = (0..40).map(|k| sent(10 * k, 10 * k, 10 * k + 50)).collect();
        assert!(!Rung::judge(100.0, &slow, 40.0).unwrap().meets);
    }
}
