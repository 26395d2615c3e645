//! # vq — a distributed vector database and HPC benchmarking toolkit
//!
//! `vq` is a from-scratch Rust reproduction of the system studied in
//! *"Exploring Distributed Vector Databases Performance on HPC Platforms:
//! A Study with Qdrant"* (SC'25 workshops): a stateful, sharded vector
//! database in the mold of Qdrant, together with the HPC substrate the
//! study ran on (simulated) and the full measurement harness that
//! regenerates every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use vq::prelude::*;
//!
//! // A 4-worker cluster (threads), one shard per worker.
//! let collection = CollectionConfig::new(64, Distance::Cosine);
//! let cluster = Cluster::start(ClusterConfig::new(4), collection).unwrap();
//! let mut client = cluster.client();
//!
//! // Insert a few points.
//! let points: Vec<Point> = (0..256)
//!     .map(|i| {
//!         let mut v = vec![0.0f32; 64];
//!         v[(i % 64) as usize] = 1.0;
//!         Point::new(i, v)
//!     })
//!     .collect();
//! client.upsert_batch(points).unwrap();
//!
//! // Broadcast–reduce search across all workers.
//! let mut probe = vec![0.0f32; 64];
//! probe[7] = 1.0;
//! let hits = client.search(SearchRequest::new(probe, 3)).unwrap();
//! assert_eq!(hits[0].id % 64, 7);
//! cluster.shutdown();
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`vq_core`] | vectors, distance kernels, points, top-k |
//! | [`vq_index`] | HNSW / flat / IVF / PQ indexes |
//! | [`vq_storage`] | segment stores, WAL, snapshots |
//! | [`vq_collection`] | segments + optimizer = one shard's state |
//! | [`vq_net`] | network cost model, in-process + TCP transports, wire codec |
//! | [`vq_cluster`] | workers, placement, broadcast–reduce |
//! | [`vq_server`] | Qdrant-compatible REST + binary protocol serving |
//! | [`vq_client`] | live drivers + calibrated client simulations |
//! | [`vq_hpc`] | virtual time, DES engine, CPU/GPU/queue models |
//! | [`vq_obs`] | metrics registry, phase spans, flight recorder |
//! | [`vq_embed`] | embedding pipeline (orchestrator, GPU batching) |
//! | [`vq_workload`] | synthetic peS2o corpus, BV-BRC terms, recall |

#![warn(missing_docs)]

pub use vq_client;
pub use vq_cluster;
pub use vq_collection;
pub use vq_core;
pub use vq_embed;
pub use vq_hpc;
pub use vq_index;
pub use vq_net;
pub use vq_obs;
pub use vq_server;
pub use vq_storage;
pub use vq_workload;

/// The commonly-used surface of the whole stack.
pub mod prelude {
    pub use vq_client::{
        ClusterService, ExecutorKind, LiveClusterService, LiveQueryRunner, LiveUploader,
        ModeledClusterService, PipelineMode, PipelinePolicy, Plan, Runtime, VirtualClock,
        WallClock,
    };
    pub use vq_cluster::{
        Cluster, ClusterClient, ClusterConfig, Deadlines, Durability, HealConfig,
        Placement, SearchExec, SearchOutcome, WorkerHealth, WorkerInfo,
    };
    pub use vq_collection::{
        CollectionConfig, CollectionStats, IndexingPolicy, LocalCollection, QuantizationConfig,
        RecommendRequest, SearchParams, SearchRequest, TierKind,
    };
    pub use vq_core::{
        DataSize, Distance, Filter, Payload, PayloadValue, Point, PointId, ScoredPoint,
        VectorLayout, VqError, VqResult,
    };
    pub use vq_index::{
        rerank, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, IvfPqConfig, IvfPqIndex,
        PqCodec, PqConfig, RerankSource, SourceRerank, SqCodec, SqConfig,
    };
    pub use vq_server::{
        BinClient, ClusterBackend, Registry, RestClient, ServerConfig, VqServer,
    };
    pub use vq_storage::{FullPrecisionTier, SharedTierBackend, TierBackend, TierConfig};
    pub use vq_workload::{
        CorpusSpec, DatasetSpec, EmbeddingModel, GroundTruth, TermWorkload,
    };
}
