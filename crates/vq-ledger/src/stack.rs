//! Bringing the system up the way a workload drives it: a cluster on its
//! fabric, optionally a `VqServer` in front, and one client type over the
//! three ways in.

use crate::inputs::Batch;
use crate::spec::{Edge, Ready, Spec};
use std::sync::Arc;
use vq_cluster::{Cluster, ClusterClient, ClusterMsg};
use vq_collection::SearchRequest;
use vq_core::{ScoredPoint, VqError, VqResult};
use vq_net::Transport;
use vq_server::{BinClient, ClusterBackend, Registry, RestClient, ServerConfig, VqServer};

/// Name the served collection goes by on both ports.
pub const COLLECTION: &str = "ledger";

pub fn serve<T: Transport<ClusterMsg>>(cluster: &Arc<Cluster<T>>) -> VqResult<VqServer> {
    let registry = Arc::new(Registry::new());
    registry.insert(COLLECTION, Arc::new(ClusterBackend::new(cluster.clone())));
    let config = ServerConfig {
        rest_addr: "127.0.0.1:0".to_string(),
        bin_addr: Some("127.0.0.1:0".to_string()),
    };
    VqServer::serve(registry, &config).map_err(|e| VqError::Network(format!("server start: {e}")))
}

/// A caller's connection, whichever way in it uses.
pub enum Client<T: Transport<ClusterMsg>> {
    Rest(RestClient),
    Bin(BinClient),
    InProc(ClusterClient<T>),
}

impl<T: Transport<ClusterMsg>> Client<T> {
    pub fn connect(
        edge: Edge,
        cluster: &Arc<Cluster<T>>,
        server: Option<&VqServer>,
    ) -> VqResult<Self> {
        let server = || server.ok_or_else(|| VqError::Internal("this edge needs a server".into()));
        Ok(match edge {
            Edge::Rest => Client::Rest(RestClient::connect(server()?.rest_addr())?),
            Edge::Bin => {
                let addr = server()?
                    .bin_addr()
                    .ok_or_else(|| VqError::Internal("binary port disabled".into()))?;
                Client::Bin(BinClient::connect(addr)?)
            }
            Edge::InProc => Client::InProc(cluster.client()),
        })
    }

    pub fn search(&mut self, request: &SearchRequest) -> VqResult<Vec<ScoredPoint>> {
        match self {
            Client::Rest(c) => c.search(COLLECTION, request),
            Client::Bin(c) => c.search(COLLECTION, request),
            Client::InProc(c) => c.search(request.clone()),
        }
    }

    /// Upsert one batch and wait for its acknowledgement.
    pub fn upsert(&mut self, batch: &Batch) -> VqResult<()> {
        match self {
            Client::Rest(c) => c.upsert_points(COLLECTION, &batch.points),
            Client::Bin(c) => c.upsert_block(COLLECTION, &batch.block).map(|_| ()),
            Client::InProc(c) => c.upsert_block(&batch.block),
        }
    }
}

/// Make loaded data searchable the way the workload asks; returns how
/// many indexes (or quantized segments) that built.
pub fn make_ready<T: Transport<ClusterMsg>>(
    spec: &Spec,
    client: &mut ClusterClient<T>,
) -> VqResult<usize> {
    match spec.ready {
        Ready::FlatScan => Ok(0),
        Ready::BuildHnsw => {
            client.seal_all()?;
            client.build_indexes()
        }
        Ready::Quantize => {
            client.seal_all()?;
            client.quantize()
        }
    }
}

/// REST searches carry no `rerank_depth` (the Qdrant-shaped body has no
/// field for it), so only requests without one are comparable over REST.
pub fn rest_can_express(request: &SearchRequest) -> bool {
    request.params == vq_collection::SearchParams::default() && request.filter.is_none()
}
