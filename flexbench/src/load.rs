//! The closed-loop load generator and the in-process daemon it drives.
//!
//! The daemon is `flexvec_serve::start` with its default
//! `ServerConfig`, bound to loopback ports. Clients are threads of this
//! process, each holding one TCP connection and sending its next
//! request only after the previous reply arrived (a closed loop: every
//! caller waits for its answer). The in-process `paper-suite` workload
//! uses the same loop with an evaluation in place of a request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use flexvec_serve::{fetch_metrics, start, Client, ServerConfig, ServerHandle};

use crate::check::reply_field;

/// A request that takes longer than this fails instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One completed operation of a timed phase.
#[derive(Debug)]
pub struct Record<R> {
    /// Position in the workload's seeded stream.
    pub index: usize,
    /// Start time, from the start of the phase.
    pub start: Duration,
    /// Time from start to completion.
    pub latency: Duration,
    /// What the operation returned.
    pub result: R,
}

/// A timed phase: every completed operation, in stream order.
#[derive(Debug)]
pub struct Phase<R> {
    /// Completed operations sorted by stream index.
    pub records: Vec<Record<R>>,
    /// When the phase started.
    pub started: Instant,
    /// Phase start until the last client finished.
    pub wall: Duration,
}

impl<R> Phase<R> {
    /// Completed operations per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.records.len() as f64 / self.wall.as_secs_f64()
    }

    /// Operations completed in each whole second of the phase, per
    /// second.
    pub fn window_rates(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.wall.as_secs() as usize];
        for r in &self.records {
            if let Some(c) = counts.get_mut((r.start + r.latency).as_secs() as usize) {
                *c += 1.0;
            }
        }
        counts
    }

    /// Latencies in milliseconds, in stream order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Runs `clients` closed-loop callers for `duration` over the
/// workload's endless seeded stream, from position `first` on. Callers
/// claim positions in order, so the operations performed are always
/// the positions `first..first + n`. `connect` builds a caller's state
/// (its connection), `prepare` looks up a position's input outside the
/// timed interval, and `op` performs the timed operation on it.
pub fn closed_loop<S, P, R: Send>(
    clients: usize,
    duration: Duration,
    first: usize,
    connect: impl Fn() -> S + Sync,
    prepare: impl Fn(usize) -> P + Sync,
    op: impl Fn(&mut S, P) -> R + Sync,
) -> Phase<R> {
    let next = AtomicUsize::new(first);
    let all = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (next, all, connect, prepare, op) = (&next, &all, &connect, &prepare, &op);
            scope.spawn(move || {
                let mut state = connect();
                let mut mine = Vec::new();
                while started.elapsed() < duration {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let input = prepare(index);
                    let t = Instant::now();
                    let result = op(&mut state, input);
                    mine.push(Record {
                        index,
                        start: t - started,
                        latency: t.elapsed(),
                        result,
                    });
                }
                all.lock().expect("records lock").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut records = all.into_inner().expect("records lock");
    records.sort_by_key(|r| r.index);
    Phase {
        records,
        started,
        wall,
    }
}

/// A running daemon with its request and `/metrics` addresses.
pub struct Daemon {
    handle: ServerHandle,
    /// Request port, `host:port`.
    pub addr: String,
    /// `/metrics` port, `host:port`.
    pub metrics_addr: String,
}

impl Daemon {
    /// Starts the daemon on loopback with the default configuration
    /// (workers, queue, cache capacity) and a `/metrics` endpoint.
    ///
    /// # Errors
    ///
    /// Listener bind failures.
    pub fn start() -> Result<Daemon, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..ServerConfig::default()
        };
        let handle = start(config).map_err(|e| format!("daemon start: {e}"))?;
        let addr = handle.addr.to_string();
        let metrics_addr = handle
            .metrics_addr
            .expect("metrics endpoint configured")
            .to_string();
        Ok(Daemon {
            handle,
            addr,
            metrics_addr,
        })
    }

    /// Scrapes `/metrics`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn scrape(&self) -> Result<Scrape, String> {
        fetch_metrics(&self.metrics_addr).map(|body| Scrape::parse(&body))
    }

    /// Drains and joins every daemon thread.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// Opens one client connection, as a closed-loop caller's state.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_timeout(addr, IO_TIMEOUT, Some(IO_TIMEOUT))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one request line on a caller's connection.
pub fn send(client: &mut Result<Client, String>, line: &str) -> Result<String, String> {
    match client {
        Ok(c) => c.request_raw(line).map_err(|e| format!("transport: {e}")),
        Err(e) => Err(e.clone()),
    }
}

/// Sends items `0..items` (`line` gives an item's request line) from
/// `clients` connections, each until `done` accepts its reply, at most
/// `max_sends` times. Every reply must be `ok`.
///
/// # Errors
///
/// The first item whose send failed, whose reply was not `ok`, or that
/// never reached `done`, with what went wrong.
pub fn warm<'a>(
    addr: &str,
    clients: usize,
    items: usize,
    line: impl Fn(usize) -> &'a str + Sync,
    max_sends: usize,
    done: impl Fn(&str) -> bool + Sync,
) -> Result<(), (usize, String)> {
    let next = AtomicUsize::new(0);
    let failure = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..clients.min(items).max(1) {
            scope.spawn(|| {
                let mut client = connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let line = line(i);
                    let mut outcome =
                        Err(format!("not on its steady tier after {max_sends} sends"));
                    for _ in 0..max_sends {
                        match send(&mut client, line) {
                            Ok(reply) if reply_field(&reply, "ok").as_deref() != Some("true") => {
                                outcome = Err(format!("{reply:.300}"));
                                break;
                            }
                            Ok(reply) if done(&reply) => {
                                outcome = Ok(());
                                break;
                            }
                            Ok(_) => {}
                            Err(e) => {
                                outcome = Err(e);
                                break;
                            }
                        }
                    }
                    if let Err(e) = outcome {
                        failure.lock().expect("failure lock").get_or_insert((i, e));
                        break;
                    }
                }
            });
        }
    });
    match failure.into_inner().expect("failure lock") {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// One `/metrics` scrape: every sample by its full name (labels
/// included).
#[derive(Clone, Debug, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the Prometheus text format.
    pub fn parse(body: &str) -> Scrape {
        Scrape(
            body.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A sample's value (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// How far `name` moved since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// The median of the observations a histogram family gained since
    /// `before`, in the family's unit, interpolated inside its
    /// power-of-two bucket.
    pub fn hist_median(&self, before: &Scrape, family: &str) -> f64 {
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .keys()
            .filter_map(|k| {
                let le = k
                    .strip_prefix(family)?
                    .strip_prefix("_bucket{le=\"")?
                    .strip_suffix("\"}")?;
                Some((le.parse::<f64>().ok()?, self.delta(before, k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = self.delta(before, &format!("{family}_count"));
        if total <= 0.0 {
            return 0.0;
        }
        let half = total / 2.0;
        let mut below = 0.0;
        let mut lower = 0.0;
        for (le, cumulative) in buckets {
            if cumulative >= half {
                let inside = cumulative - below;
                let frac = if inside > 0.0 {
                    (half - below) / inside
                } else {
                    1.0
                };
                return lower + frac * (le - lower);
            }
            below = cumulative;
            lower = le;
        }
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_samples_and_histogram_median() {
        let before = Scrape::parse("h_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 0\nh_count 0\n");
        let after = Scrape::parse(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 4\nh_count 4\nc_total 7\n",
        );
        assert_eq!(after.get("c_total"), 7.0);
        assert_eq!(after.hist_median(&before, "h"), 1.0);
    }

    #[test]
    fn closed_loop_claims_a_prefix_of_the_stream() {
        let phase = closed_loop(
            2,
            Duration::from_millis(20),
            0,
            || (),
            |i| i,
            |_, i| {
                std::thread::sleep(Duration::from_micros(200));
                i
            },
        );
        for (k, r) in phase.records.iter().enumerate() {
            assert_eq!(r.index, k);
            assert_eq!(r.result, k);
        }
    }
}
