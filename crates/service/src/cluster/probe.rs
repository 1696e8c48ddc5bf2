//! Per-node health tracking: a background prober plus failure reports
//! from the proxy path.
//!
//! Every node starts healthy. A node is **ejected** (marked unhealthy,
//! skipped by routing) after `eject_after` consecutive failures —
//! whether those came from the background `GET /healthz` probe or from
//! real proxy traffic, so a crashed owner leaves the rotation after a
//! few failed requests instead of waiting out a probe interval. It is
//! **re-admitted** the moment one probe succeeds: re-admission is the
//! prober's job alone, so a node that answers probes but sheds real
//! traffic (`503`) oscillates at probe cadence rather than per-request.
//!
//! Routing treats health as advice, not a gate: the proxy prefers
//! healthy nodes in rendezvous order but falls back to ejected ones when
//! nothing healthy is left, so a probe outage can degrade latency but
//! never manufactures a total outage.

use crate::cluster::client::NodeClient;
use crate::signals::RouterCells;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Health-probe tuning.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Delay between probe rounds.
    pub interval: Duration,
    /// Consecutive failures (probe or proxy) before a node is ejected.
    pub eject_after: u32,
    /// Per-probe connect/read budget.
    pub timeout: Duration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: Duration::from_millis(1000),
            eject_after: 3,
            timeout: Duration::from_millis(500),
        }
    }
}

/// Shared health state: one flag and failure counter per node.
pub(crate) struct HealthState {
    nodes: Vec<String>,
    healthy: Vec<AtomicBool>,
    failures: Vec<AtomicU32>,
    eject_after: u32,
    /// The router's counters: ejections and readmissions count here.
    cells: Arc<RouterCells>,
}

impl HealthState {
    pub fn new(nodes: Vec<String>, eject_after: u32, cells: Arc<RouterCells>) -> Self {
        let healthy = nodes.iter().map(|_| AtomicBool::new(true)).collect();
        let failures = nodes.iter().map(|_| AtomicU32::new(0)).collect();
        HealthState {
            nodes,
            healthy,
            failures,
            eject_after: eject_after.max(1),
            cells,
        }
    }

    pub fn is_healthy(&self, node: usize) -> bool {
        self.healthy[node].load(Ordering::Acquire)
    }

    pub fn healthy_count(&self) -> usize {
        self.healthy
            .iter()
            .filter(|h| h.load(Ordering::Acquire))
            .count()
    }

    /// Record a failure against a node (probe or proxy). Ejects after
    /// the configured consecutive-failure threshold.
    pub fn note_failure(&self, node: usize) {
        let failures = self.failures[node].fetch_add(1, Ordering::AcqRel) + 1;
        if failures >= self.eject_after && self.healthy[node].swap(false, Ordering::AcqRel) {
            self.cells.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a successful proxy round trip: clears the failure streak
    /// but does not re-admit (that is the prober's call).
    pub fn note_success(&self, node: usize) {
        self.failures[node].store(0, Ordering::Release);
    }

    /// Record a successful probe: clears the streak and re-admits.
    fn note_probe_success(&self, node: usize) {
        self.failures[node].store(0, Ordering::Release);
        if !self.healthy[node].swap(true, Ordering::AcqRel) {
            self.cells.readmissions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The background prober: polls every node's `/healthz` on an interval
/// and maintains the shared [`HealthState`]. Dropping it stops the
/// thread.
pub(crate) struct HealthProbe {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Run one probe round over every node, updating `state`.
pub(crate) fn probe_round(state: &HealthState, client: &NodeClient) {
    for (i, node) in state.nodes.iter().enumerate() {
        let alive = client
            .request(node, "GET", "/healthz", None, &[], b"")
            .map(|resp| resp.status == 200)
            .unwrap_or(false);
        if alive {
            state.note_probe_success(i);
        } else {
            state.note_failure(i);
        }
    }
}

impl HealthProbe {
    /// Start probing. The probe keeps its own client so a wedged node
    /// cannot starve the proxy's connection pool.
    pub fn start(state: Arc<HealthState>, config: ProbeConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_state = state;
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let client = NodeClient::new(config.timeout, config.timeout);
            while !thread_stop.load(Ordering::Acquire) {
                probe_round(&thread_state, &client);
                // Sleep in short slices so shutdown is prompt even with
                // a long probe interval.
                let mut remaining = config.interval;
                while !thread_stop.load(Ordering::Acquire) && remaining > Duration::ZERO {
                    let slice = remaining.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        HealthProbe {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for HealthProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejection_needs_the_full_streak_and_readmission_is_probe_only() {
        let state = HealthState::new(vec!["a:1".into(), "b:2".into()], 3, Arc::default());
        assert!(state.is_healthy(0));
        state.note_failure(0);
        state.note_failure(0);
        assert!(state.is_healthy(0), "two failures stay under the threshold");
        state.note_failure(0);
        assert!(!state.is_healthy(0));
        assert_eq!(state.cells.snapshot().ejections, 1);
        assert_eq!(state.healthy_count(), 1);
        // A proxy success clears the streak but does not re-admit.
        state.note_success(0);
        assert!(!state.is_healthy(0));
        // A probe success re-admits.
        state.note_probe_success(0);
        assert!(state.is_healthy(0));
        assert_eq!(state.cells.snapshot().readmissions, 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let state = HealthState::new(vec!["a:1".into()], 2, Arc::default());
        state.note_failure(0);
        state.note_success(0);
        state.note_failure(0);
        assert!(state.is_healthy(0), "streak was broken by the success");
        state.note_failure(0);
        assert!(!state.is_healthy(0));
    }
}
