//! The service on loopback and the keep-alive clients that load it.

use schema_summary_service::cluster::NodeClient;
use schema_summary_service::{
    ExpandSpec, HttpConfig, HttpServer, ServiceConfig, SummaryRequest, SummaryService,
};
use std::sync::Arc;
use std::time::Duration;

/// Level sizes of every `levels` and `expand` request, finest first.
pub const LEVELS: [usize; 3] = [12, 6, 3];

/// Worker threads for the server and the client-thread budget: the
/// machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One request the benchmark sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Summary {
        schema: String,
        algorithm: &'static str,
        k: usize,
    },
    Levels {
        schema: String,
        algorithm: &'static str,
    },
    Expand {
        schema: String,
        algorithm: &'static str,
        level: usize,
        group: usize,
    },
}

impl Op {
    pub fn schema(&self) -> &str {
        match self {
            Op::Summary { schema, .. } | Op::Levels { schema, .. } | Op::Expand { schema, .. } => {
                schema
            }
        }
    }

    pub fn algorithm(&self) -> &'static str {
        match self {
            Op::Summary { algorithm, .. }
            | Op::Levels { algorithm, .. }
            | Op::Expand { algorithm, .. } => algorithm,
        }
    }

    pub fn path(&self) -> &'static str {
        match self {
            Op::Summary { .. } => "/v1/summary",
            Op::Levels { .. } => "/v1/levels",
            Op::Expand { .. } => "/v1/expand",
        }
    }

    pub fn request(&self) -> SummaryRequest {
        let mut request = SummaryRequest {
            schema: Some(self.schema().to_string()),
            algorithm: Some(self.algorithm().to_string()),
            ..Default::default()
        };
        match self {
            Op::Summary { k, .. } => request.k = Some(*k),
            Op::Levels { .. } => request.levels = Some(LEVELS.to_vec()),
            Op::Expand { level, group, .. } => {
                request.levels = Some(LEVELS.to_vec());
                request.expand = Some(ExpandSpec {
                    level: *level,
                    group: *group,
                });
            }
        }
        request
    }

    pub fn body(&self) -> String {
        serde_json::to_string(&self.request()).expect("requests serialize")
    }
}

/// A running service behind its HTTP front-end.
pub struct Node {
    pub service: Arc<SummaryService>,
    pub server: HttpServer,
    pub addr: String,
}

impl Node {
    pub fn start(config: ServiceConfig) -> Node {
        let service = Arc::new(SummaryService::try_new(config).expect("service store opens"));
        let http = HttpConfig {
            workers: nproc(),
            ..HttpConfig::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service), http)
            .expect("loopback port binds");
        let addr = server.local_addr().to_string();
        Node {
            service,
            server,
            addr,
        }
    }

    pub fn client(&self) -> Client {
        Client {
            inner: NodeClient::new(Duration::from_secs(5), Duration::from_secs(30)),
            node: self.addr.clone(),
        }
    }
}

/// One keep-alive connection's worth of client.
pub struct Client {
    inner: NodeClient,
    node: String,
}

impl Client {
    /// POST `body` to `path`; a non-200 reply or a transport error is an
    /// `Err` naming it.
    pub fn post(&self, path: &str, body: &str) -> Result<Vec<u8>, String> {
        let response = self
            .inner
            .request(
                &self.node,
                "POST",
                path,
                Some("application/json"),
                &[],
                body.as_bytes(),
            )
            .map_err(|e| format!("{path}: transport error: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "{path}: HTTP {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        Ok(response.body)
    }

    pub fn send(&self, op: &Op) -> Result<Vec<u8>, String> {
        self.post(op.path(), &op.body())
    }
}
