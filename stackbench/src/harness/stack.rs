//! The system under test: an in-process `re_server` with explicit
//! configuration, its datasets, and the clients that talk to it.

use crate::harness::data::{self, Sizes};
use re_server::{
    serve, LocalClient, RankedQueryServer, ServerConfig, ServerHandle, ServerTransport, TcpClient,
    WireProtocol,
};
use re_storage::Database;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Connections never exceed this (`nproc` is 2); there is one load thread.
pub const MAX_CONNECTIONS: usize = 2;

/// CPUs the full-size run needs: `exec_threads` of [`server_config`].
pub const MIN_CPUS: usize = 2;

/// The configuration every run uses. Every field is written out, so no
/// default that reads the environment can leak in.
pub fn server_config(trace_sample: u64) -> ServerConfig {
    ServerConfig {
        workers: 2,
        transport: ServerTransport::Reactor,
        session_ttl: Duration::from_secs(300),
        plan_cache_capacity: 128,
        exec_threads: 2,
        session_budget_bytes: 0,
        slow_query_millis: 0,
        trace_sample,
        max_inflight: 64,
        max_pipeline: 32,
        shed_pool_queue: 0,
        default_deadline_millis: 0,
    }
}

/// How one load thread reaches the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// In-process: no socket, no codec.
    Local,
    /// TCP, JSON lines.
    Json,
    /// TCP, length-prefixed binary frames.
    Binary,
}

impl ClientKind {
    pub fn protocol(self) -> Option<WireProtocol> {
        match self {
            ClientKind::Local => None,
            ClientKind::Json => Some(WireProtocol::Json),
            ClientKind::Binary => Some(WireProtocol::Binary),
        }
    }
}

/// A running server with its datasets registered.
pub struct Stack {
    pub server: Arc<RankedQueryServer>,
    handle: ServerHandle,
    datasets: Vec<(&'static str, Arc<Database>)>,
}

impl Stack {
    /// Generate `datasets` from `seed`, register them, start serving on a
    /// loopback port the system picks.
    pub fn start(datasets: &[&'static str], sizes: &Sizes, seed: u64, trace_sample: u64) -> Stack {
        let config = server_config(trace_sample);
        let server = RankedQueryServer::new(config.clone());
        let datasets: Vec<(&'static str, Arc<Database>)> = datasets
            .iter()
            .map(|&name| {
                let db = Arc::new(data::generate(name, sizes, seed));
                server.catalog().register_shared(name, Arc::clone(&db));
                (name, db)
            })
            .collect();
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config)
            .expect("bind a loopback port for the server");
        Stack {
            server,
            handle,
            datasets,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn db(&self, name: &str) -> &Arc<Database> {
        self.datasets
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, db)| db)
            .unwrap_or_else(|| panic!("dataset `{name}` is not part of this stack"))
    }

    pub fn local(&self) -> LocalClient {
        LocalClient::new(Arc::clone(&self.server))
    }

    pub fn tcp(&self, protocol: WireProtocol) -> TcpClient {
        TcpClient::connect_with(self.addr(), protocol).expect("connect to the in-process server")
    }

    /// Stop serving and join the server's threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}
