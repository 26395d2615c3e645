//! Serving backends: the dyn-erased surface the HTTP and binary frontends
//! call into, and its cluster-backed implementation.
//!
//! The frontends are deliberately not generic over the cluster's
//! transport — a server process speaks to *one* cluster, and erasing
//! `Transport` here keeps every route handler monomorphic. The erased
//! trait is small: exactly the operations the Qdrant-compatible API
//! exposes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use vq_cluster::{Cluster, ClusterClient, ClusterMsg};
use vq_collection::{CollectionConfig, CollectionStats, SearchRequest};
use vq_core::{PointBlock, ScoredPoint, VqError, VqResult};
use vq_net::Transport;

/// One served collection: the operations the REST and binary frontends
/// need, with the cluster transport type erased.
pub trait Backend: Send + Sync {
    /// Collection parameters (dimension, metric, …).
    fn config(&self) -> CollectionConfig;
    /// Upsert a columnar block; returns how many rows were written.
    fn upsert_block(&self, block: Arc<PointBlock>) -> VqResult<usize>;
    /// Broadcast–reduce search.
    fn search(&self, request: SearchRequest) -> VqResult<Vec<ScoredPoint>>;
    /// Live point count.
    fn count(&self) -> VqResult<usize>;
    /// Collection statistics.
    fn stats(&self) -> VqResult<CollectionStats>;
}

/// A [`Backend`] over a live [`Cluster`].
///
/// Clients are pooled: a route handler checks one out for the duration of
/// a call and returns it, so concurrent HTTP connections don't serialize
/// on a single client while idle connections don't pin cluster endpoints.
pub struct ClusterBackend<T: Transport<ClusterMsg>> {
    cluster: Arc<Cluster<T>>,
    pool: Mutex<Vec<ClusterClient<T>>>,
}

impl<T: Transport<ClusterMsg>> ClusterBackend<T> {
    /// Wrap a running cluster.
    pub fn new(cluster: Arc<Cluster<T>>) -> Self {
        ClusterBackend {
            cluster,
            pool: Mutex::new(Vec::new()),
        }
    }

    fn with_client<R>(&self, f: impl FnOnce(&mut ClusterClient<T>) -> VqResult<R>) -> VqResult<R> {
        let mut client = {
            let mut pool = self.pool.lock();
            pool.pop()
        }
        .unwrap_or_else(|| self.cluster.client());
        let result = f(&mut client);
        self.pool.lock().push(client);
        result
    }
}

impl<T: Transport<ClusterMsg>> Backend for ClusterBackend<T> {
    fn config(&self) -> CollectionConfig {
        *self.cluster.collection_config()
    }

    fn upsert_block(&self, block: Arc<PointBlock>) -> VqResult<usize> {
        let n = block.len();
        self.with_client(|c| c.upsert_block(&block))?;
        Ok(n)
    }

    fn search(&self, request: SearchRequest) -> VqResult<Vec<ScoredPoint>> {
        self.with_client(|c| c.search(request))
    }

    fn count(&self) -> VqResult<usize> {
        self.with_client(|c| c.count(None))
    }

    fn stats(&self) -> VqResult<CollectionStats> {
        self.with_client(|c| c.stats())
    }
}

/// Builds a backend on demand when `PUT /collections/{name}` arrives for
/// a collection that doesn't exist yet (how `vq serve` spins up a
/// cluster per created collection).
pub type BackendFactory =
    Box<dyn Fn(&str, CollectionConfig) -> VqResult<Arc<dyn Backend>> + Send + Sync>;

/// The set of collections a server exposes, by name.
#[derive(Default)]
pub struct Registry {
    collections: RwLock<HashMap<String, Arc<dyn Backend>>>,
    factory: Option<BackendFactory>,
}

impl Registry {
    /// An empty registry that rejects unknown collection creation.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry that creates collections through `factory`.
    pub fn with_factory(factory: BackendFactory) -> Self {
        Registry {
            collections: RwLock::new(HashMap::new()),
            factory: Some(factory),
        }
    }

    /// Pre-register a collection under `name`.
    pub fn insert(&self, name: &str, backend: Arc<dyn Backend>) {
        self.collections
            .write()
            .insert(name.to_string(), backend);
    }

    /// Look up a collection.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Backend>> {
        self.collections.read().get(name).cloned()
    }

    /// Collection names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Create-or-validate, the semantics of Qdrant's `PUT
    /// /collections/{name}`: creating an existing collection succeeds if
    /// the parameters match (idempotent PUT) and errors otherwise.
    /// Returns whether a new collection was created.
    pub fn create(&self, name: &str, config: CollectionConfig) -> VqResult<bool> {
        if let Some(existing) = self.get(name) {
            let have = existing.config();
            if have.dim != config.dim || have.metric != config.metric {
                return Err(VqError::InvalidRequest(format!(
                    "collection `{name}` exists with dim {} metric {:?}",
                    have.dim, have.metric
                )));
            }
            return Ok(false);
        }
        let factory = self.factory.as_ref().ok_or_else(|| {
            VqError::InvalidRequest(format!(
                "collection `{name}` does not exist and this server cannot create collections"
            ))
        })?;
        let backend = factory(name, config)?;
        self.collections
            .write()
            .insert(name.to_string(), backend);
        Ok(true)
    }
}
