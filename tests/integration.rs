//! End-to-end integration tests across crates: workload → collection →
//! index → search, with recall checked against exact ground truth.

use vq::prelude::*;

fn dataset(n: u64, dim: usize) -> DatasetSpec {
    let corpus = CorpusSpec::small(n.max(1000)).seed(11);
    let model = EmbeddingModel::small(&corpus, dim);
    DatasetSpec::with_vectors(corpus, model, n)
}

#[test]
fn ingest_index_search_recall_pipeline() {
    let d = dataset(3000, 32);
    let config = CollectionConfig::new(32, Distance::Cosine)
        .max_segment_points(512)
        .indexing(IndexingPolicy::Deferred);
    let collection = LocalCollection::new(config);
    for i in 0..d.len() {
        collection.upsert(d.point(i)).unwrap();
    }
    assert_eq!(collection.len(), 3000);

    // Bulk-upload flow: nothing indexed during ingest.
    assert_eq!(collection.stats().indexed_segments, 0);
    collection.seal_active();
    let built = collection.build_all_indexes().unwrap();
    assert!(built >= 5, "expected several segment indexes, built {built}");
    let stats = collection.stats();
    assert_eq!(stats.indexed_segments, stats.sealed_segments);
    assert!(stats.index_coverage() > 0.99);

    // Recall vs exact ground truth through the full stack.
    let terms = TermWorkload::generate(d.corpus(), 50);
    let queries = terms.query_vectors(d.model());
    let gt = GroundTruth::compute(&d, Distance::Cosine, &queries, 10);
    let mut results = Vec::new();
    for q in &queries {
        let hits = collection
            .search(&SearchRequest::new(q.clone(), 10).ef(128))
            .unwrap();
        results.push(hits.iter().map(|h| h.id as u32).collect::<Vec<_>>());
    }
    let recall = gt.mean_recall(&results);
    assert!(recall > 0.85, "end-to-end recall@10 = {recall:.3}");
}

#[test]
fn wal_crash_recovery_preserves_search_results() {
    let config = CollectionConfig::new(16, Distance::Euclid).max_segment_points(128);
    let d = dataset(500, 16);

    let wal = vq::vq_storage::Wal::in_memory();
    let collection = LocalCollection::with_wal(config, wal);
    for i in 0..d.len() {
        collection.upsert(d.point(i)).unwrap();
    }
    for id in [3u64, 77, 205] {
        collection.delete(id).unwrap();
    }

    // Replay the same logical history into a fresh WAL and recover from
    // it — the crash-recovery path end to end.
    let mut replay_wal = vq::vq_storage::Wal::in_memory();
    for i in 0..d.len() {
        let row = vq::vq_core::PointBlock::from_points(&[d.point(i)]).unwrap();
        replay_wal
            .append(&vq::vq_storage::WalRecord::UpsertBlock(row))
            .unwrap();
    }
    for id in [3u64, 77, 205] {
        replay_wal
            .append(&vq::vq_storage::WalRecord::Delete(id))
            .unwrap();
    }
    let recovered = LocalCollection::recover(config, replay_wal).unwrap();
    assert_eq!(recovered.len(), collection.len());
    let q = d.point(42).vector;
    let a = collection.search(&SearchRequest::new(q.clone(), 5)).unwrap();
    let b = recovered.search(&SearchRequest::new(q, 5)).unwrap();
    assert_eq!(
        a.iter().map(|h| h.id).collect::<Vec<_>>(),
        b.iter().map(|h| h.id).collect::<Vec<_>>()
    );
    assert_eq!(recovered.get(77), None);
}

#[test]
fn index_families_agree_on_easy_queries() {
    use vq::vq_index::{DenseVectors, VectorSource};
    let d = dataset(2000, 24);
    let mut source = DenseVectors::new(24);
    for i in 0..d.len() {
        source.push(&vq::vq_core::vector::normalized(&d.point(i).vector));
    }
    let flat = FlatIndex::new(Distance::Cosine);
    let hnsw = HnswIndex::build(&source, Distance::Cosine, HnswConfig::default().seed(3));
    let ivf = IvfIndex::build(&source, Distance::Cosine, IvfConfig::with_nlist(16).seed(4));
    let terms = TermWorkload::generate(d.corpus(), 30);
    let mut hnsw_recall = 0.0;
    let mut ivf_recall = 0.0;
    for t in terms.terms() {
        let q = vq::vq_core::vector::normalized(&terms.query_vector(d.model(), t.id));
        let truth: Vec<u32> = flat.search(&source, &q, 10, None).iter().map(|h| h.0).collect();
        let h: Vec<u32> = hnsw
            .search(&source, &q, 10, 128, None)
            .iter()
            .map(|x| x.0)
            .collect();
        let v: Vec<u32> = ivf
            .search(&source, &q, 10, Some(8), None)
            .iter()
            .map(|x| x.0)
            .collect();
        hnsw_recall += vq::vq_index::recall_at_k(&h, &truth);
        ivf_recall += vq::vq_index::recall_at_k(&v, &truth);
    }
    hnsw_recall /= 30.0;
    ivf_recall /= 30.0;
    assert!(hnsw_recall > 0.9, "HNSW recall {hnsw_recall:.3}");
    assert!(ivf_recall > 0.7, "IVF recall {ivf_recall:.3}");
    assert_eq!(VectorSource::len(&source), 2000);
}

#[test]
fn pq_compression_pipeline() {
    let d = dataset(1500, 32);
    let mut source = vq::vq_index::DenseVectors::new(32);
    for i in 0..d.len() {
        source.push(&d.point(i).vector);
    }
    let pq = PqCodec::build(&source, Distance::Euclid, PqConfig::with_m(8).ks(64).seed(5));
    assert_eq!(pq.len(), 1500);
    assert!(pq.compression_ratio() > 10.0);
    // ADC search quality sanity: well above random.
    let flat = FlatIndex::new(Distance::Euclid);
    let mut recall = 0.0;
    for i in 0..20u64 {
        let q = d.point(i * 7).vector;
        let truth: Vec<u32> = flat.search(&source, &q, 10, None).iter().map(|h| h.0).collect();
        let got: Vec<u32> = pq.search(&q, 10, None, None).iter().map(|h| h.0).collect();
        recall += vq::vq_index::recall_at_k(&got, &truth);
    }
    assert!(recall / 20.0 > 0.3, "PQ recall {}", recall / 20.0);
}

#[test]
fn filtered_search_respects_payloads_end_to_end() {
    let d = dataset(800, 16);
    let config = CollectionConfig::new(16, Distance::Cosine).max_segment_points(256);
    let collection = LocalCollection::new(config);
    for i in 0..d.len() {
        collection.upsert(d.point(i)).unwrap();
    }
    while collection.optimize_once().unwrap() {}
    // Filter on a topic that exists.
    let topic = d.corpus().paper(0).topic as i64;
    let q = d.point(0).vector;
    let hits = collection
        .search(
            &SearchRequest::new(q, 20)
                .filter(Filter::must_match("topic", topic))
                .with_payload(),
        )
        .unwrap();
    assert!(!hits.is_empty());
    for h in &hits {
        let p = h.payload.as_ref().unwrap();
        assert_eq!(p.get("topic"), Some(&PayloadValue::Int(topic)));
    }
}
