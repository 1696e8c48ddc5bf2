//! Cross-node invalidation propagation: admin mutations accepted by any
//! node are re-broadcast to its configured peers.
//!
//! A node started with `--peer` addresses forwards every *locally
//! initiated* `POST /admin/evict` and `POST /admin/refresh` to each
//! peer, verbatim, after applying it locally. Forwarded copies carry the
//! [`FANOUT_HEADER`] marker; a node that receives a marked request
//! applies it locally and does **not** re-broadcast, so a fully meshed
//! peer set converges in one hop and cannot loop.
//!
//! Application is idempotent by construction — evicting an
//! already-evicted fingerprint drops zero entries, refreshing an
//! already-refreshed pair is a no-op delta — so a peer receiving the
//! same broadcast twice (client retry through the router, overlapping
//! meshes) converges to the same state. A peer answering `404` counts
//! as applied: under rendezvous routing most peers never registered the
//! schema being invalidated, and "nothing to drop" is the converged
//! state, not a failure.

use crate::cluster::client::NodeClient;
use crate::signals::HttpCells;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Marker header on forwarded admin requests (compared lowercased, as
/// the request parser stores header names).
pub(crate) const FANOUT_HEADER: &str = "x-schema-summary-fanout";

/// The peer broadcaster owned by a node's HTTP server.
pub(crate) struct Fanout {
    peers: Vec<String>,
    client: NodeClient,
    /// The node's counters: broadcasts count into `fanout_sent` and
    /// `fanout_failed`.
    cells: Arc<HttpCells>,
}

impl Fanout {
    /// Build a broadcaster over `peers` with a per-peer request budget.
    pub fn new(peers: Vec<String>, timeout: Duration, cells: Arc<HttpCells>) -> Self {
        Fanout {
            peers,
            client: NodeClient::new(timeout, timeout),
            cells,
        }
    }

    /// Number of configured peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Re-send one admin request to every peer, marked so receivers do
    /// not broadcast again. Best-effort: failures are counted (and
    /// visible in `/metrics`) but do not fail the local request — the
    /// local application already succeeded, and the peer's own journal
    /// and caches converge on its next restart or refresh.
    pub fn broadcast(&self, target: &str, body: &[u8]) {
        for peer in &self.peers {
            let delivered = self
                .client
                .request(
                    peer,
                    "POST",
                    target,
                    Some("application/json"),
                    &[("X-Schema-Summary-Fanout", "1")],
                    body,
                )
                .map(|resp| resp.status < 300 || resp.status == 404)
                .unwrap_or(false);
            if delivered {
                &self.cells.fanout_sent
            } else {
                &self.cells.fanout_failed
            }
            .fetch_add(1, Ordering::Relaxed);
        }
    }
}
