//! Everything a run feeds the system, generated from the seed alone: the
//! points (as row batches and as columnar blocks), the query pool with
//! its exact answers, and the churn op list.

use crate::spec::{self, Spec};
use std::collections::HashMap;
use std::sync::Arc;
use vq_collection::SearchRequest;
use vq_core::{splitmix64, Distance, Point, PointBlock, PointId};
use vq_index::{DenseVectors, FlatIndex};
use vq_workload::{CorpusSpec, DatasetSpec, EmbeddingModel, GroundTruth, TermWorkload};

/// One upsert: the same points row-wise (REST) and columnar (binary,
/// in-proc).
pub struct Batch {
    /// Empty unless `generate` was asked to keep the rows.
    pub points: Vec<Point>,
    pub block: Arc<PointBlock>,
}

pub struct Inputs {
    pub dataset: DatasetSpec,
    pub batches: Vec<Batch>,
    /// The measured phase cycles through these.
    pub queries: Vec<SearchRequest>,
    /// Exact top-k of the first `recall_queries` queries over the loaded
    /// points (ids, as `GroundTruth` keeps them).
    pub truth: GroundTruth,
}

pub fn search_request(spec: &Spec, vector: Vec<f32>, index: usize) -> SearchRequest {
    let mut request = SearchRequest::new(vector, spec::K);
    if spec.alternate_payload && index % 2 == 1 {
        request = request.with_payload();
    }
    if let Some(depth) = spec.rerank_depth {
        request = request.rerank_depth(depth);
    }
    request
}

/// `keep_rows` keeps each batch's row-wise points beside its block. Only
/// a REST load and the traced run read them, and a second copy of the
/// dataset in the ledger's own memory is a second copy in `peak_rss_mb`.
pub fn generate(spec: &Spec, seed: u64, keep_rows: bool) -> Inputs {
    let corpus = CorpusSpec::small(spec.points as u64).seed(seed);
    let model = EmbeddingModel::small(&corpus, spec.dim);
    let mut dataset = DatasetSpec::with_vectors(corpus, model, spec.points as u64);
    if !spec.payload {
        dataset = dataset.without_payload();
    }
    let batches = dataset
        .upload_batches(spec.batch)
        .map(|range| {
            let points = dataset.points_in(range);
            let block = Arc::new(PointBlock::from_points(&points).expect("uniform dimension"));
            Batch {
                points: if keep_rows { points } else { Vec::new() },
                block,
            }
        })
        .collect();
    let terms = TermWorkload::generate(dataset.corpus(), spec::QUERY_POOL as u32);
    let vectors = terms.query_vectors(dataset.model());
    let truth = GroundTruth::compute(
        &dataset,
        Distance::Cosine,
        &vectors[..spec.recall_queries],
        spec::K,
    );
    let queries = vectors
        .into_iter()
        .enumerate()
        .map(|(i, v)| search_request(spec, v, i))
        .collect();
    Inputs {
        dataset,
        batches,
        queries,
        truth,
    }
}

/// Mean recall@k of `results` (ids per query) against exact `truth`.
pub fn mean_recall(truth: &[Vec<PointId>], results: &[Vec<PointId>]) -> f64 {
    assert_eq!(truth.len(), results.len());
    let total: f64 = truth
        .iter()
        .zip(results)
        .map(|(want, got)| {
            let hit = got.iter().filter(|id| want.contains(id)).count();
            hit as f64 / want.len().max(1) as f64
        })
        .sum();
    total / truth.len().max(1) as f64
}

pub fn truth_ids(truth: &GroundTruth, queries: usize) -> Vec<Vec<PointId>> {
    (0..queries)
        .map(|q| truth.answers(q).iter().map(|&o| o as PointId).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

/// One tick of the paced writer.
pub struct ChurnTick {
    pub update: Arc<PointBlock>,
    pub deletes: Vec<PointId>,
}

/// The writer's fixed op list. Ids are split once into a delete pool
/// (each id deleted at most once, never updated) and an update pool
/// (updated any number of times, last write wins), so the state after any
/// prefix of ticks is known without replaying the system's own logic.
pub struct ChurnPlan {
    pub ticks: Vec<ChurnTick>,
}

fn draw(state: &mut u64, bound: usize) -> usize {
    *state = splitmix64(*state);
    ((*state as u128 * bound as u128) >> 64) as usize
}

impl ChurnPlan {
    pub fn generate(inputs: &Inputs, seed: u64, ticks: usize) -> ChurnPlan {
        let n = inputs.dataset.len() as usize;
        let mut state = splitmix64(seed ^ 0xC4_0AD1);
        // Fisher–Yates; the first half feeds deletes, the second updates.
        let mut ids: Vec<PointId> = (0..n as PointId).collect();
        for i in (1..n).rev() {
            ids.swap(i, draw(&mut state, i + 1));
        }
        let (delete_pool, update_pool) = ids.split_at(n / 2);
        let ticks = ticks.min(delete_pool.len() / spec::CHURN_DELETES_PER_TICK);
        let model = inputs.dataset.model();
        let corpus = inputs.dataset.corpus();
        let plan = (0..ticks)
            .map(|t| {
                let deletes = delete_pool
                    [t * spec::CHURN_DELETES_PER_TICK..(t + 1) * spec::CHURN_DELETES_PER_TICK]
                    .to_vec();
                let mut chosen: Vec<PointId> = Vec::with_capacity(spec::CHURN_UPDATES_PER_TICK);
                while chosen.len() < spec::CHURN_UPDATES_PER_TICK {
                    let id = update_pool[draw(&mut state, update_pool.len())];
                    if !chosen.contains(&id) {
                        chosen.push(id);
                    }
                }
                let points: Vec<Point> = chosen
                    .iter()
                    .enumerate()
                    .map(|(j, &id)| {
                        let mut point = inputs.dataset.point(id);
                        // A fresh embedding of the same topic, drawn from
                        // an id space the initial load never touches.
                        let fresh = (n + t * spec::CHURN_UPDATES_PER_TICK + j) as u64;
                        point.vector = model.embed(fresh, corpus.paper(id).topic);
                        point
                    })
                    .collect();
                ChurnTick {
                    update: Arc::new(PointBlock::from_points(&points).expect("uniform dimension")),
                    deletes,
                }
            })
            .collect();
        ChurnPlan { ticks: plan }
    }

    /// State after the first `done` ticks: the deleted ids, and for every
    /// updated id the vector of its last update (as sent, unnormalized).
    pub fn expected(&self, done: usize) -> (Vec<PointId>, HashMap<PointId, Vec<f32>>) {
        let mut deleted = Vec::new();
        let mut updated = HashMap::new();
        for tick in &self.ticks[..done] {
            deleted.extend_from_slice(&tick.deletes);
            for row in 0..tick.update.len() {
                updated.insert(tick.update.id(row), tick.update.vector(row).to_vec());
            }
        }
        (deleted, updated)
    }
}

/// Exact top-k over the live points after `done` churn ticks.
pub fn truth_after_churn(
    inputs: &Inputs,
    plan: &ChurnPlan,
    done: usize,
    queries: usize,
) -> Vec<Vec<PointId>> {
    let (deleted, updated) = plan.expected(done);
    let deleted: std::collections::HashSet<PointId> = deleted.into_iter().collect();
    let dim = inputs.dataset.model().dim();
    let mut ids = Vec::new();
    let mut vectors = DenseVectors::new(dim);
    for batch in &inputs.batches {
        for row in 0..batch.block.len() {
            let id = batch.block.id(row);
            if deleted.contains(&id) {
                continue;
            }
            let raw = updated
                .get(&id)
                .map_or(batch.block.vector(row), Vec::as_slice);
            vectors.push(&vq_core::vector::normalized(raw));
            ids.push(id);
        }
    }
    let flat = FlatIndex::new(Distance::Cosine);
    inputs.queries[..queries]
        .iter()
        .map(|q| {
            flat.search(
                &vectors,
                &vq_core::vector::normalized(&q.vector),
                spec::K,
                None,
            )
            .into_iter()
            .map(|(offset, _)| ids[offset as usize])
            .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Spec {
        spec::by_name("ingest_churn")
            .expect("a known workload")
            .smoke()
    }

    fn flatten(plan: &ChurnPlan) -> Vec<(Vec<PointId>, Vec<f32>, Vec<PointId>)> {
        plan.ticks
            .iter()
            .map(|t| {
                let ids = (0..t.update.len()).map(|r| t.update.id(r)).collect();
                let vectors = (0..t.update.len())
                    .flat_map(|r| t.update.vector(r).to_vec())
                    .collect();
                (ids, vectors, t.deletes.clone())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_ops_and_final_state_other_seed_other_ops() {
        let spec = small();
        let (a, b, c) = (
            generate(&spec, 7, true),
            generate(&spec, 7, true),
            generate(&spec, 8, true),
        );
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.points, y.points);
        }
        assert_ne!(a.batches[0].points, c.batches[0].points);

        let (plan_a, plan_b, plan_c) = (
            ChurnPlan::generate(&a, 7, 40),
            ChurnPlan::generate(&b, 7, 40),
            ChurnPlan::generate(&c, 8, 40),
        );
        assert_eq!(plan_a.ticks.len(), 40);
        assert_eq!(flatten(&plan_a), flatten(&plan_b));
        assert_ne!(flatten(&plan_a), flatten(&plan_c));
        let (deleted_a, updated_a) = plan_a.expected(40);
        let (deleted_b, updated_b) = plan_b.expected(40);
        assert_eq!(deleted_a, deleted_b);
        assert_eq!(updated_a, updated_b);
        assert_eq!(
            truth_after_churn(&a, &plan_a, 40, spec.recall_queries),
            truth_after_churn(&b, &plan_b, 40, spec.recall_queries)
        );
    }

    #[test]
    fn the_op_list_never_updates_what_it_deletes() {
        let spec = small();
        let inputs = generate(&spec, 3, false);
        let plan = ChurnPlan::generate(&inputs, 3, 60);
        let (deleted, updated) = plan.expected(plan.ticks.len());
        assert_eq!(
            deleted.len(),
            plan.ticks.len() * spec::CHURN_DELETES_PER_TICK
        );
        let unique: std::collections::HashSet<_> = deleted.iter().collect();
        assert_eq!(unique.len(), deleted.len(), "an id is deleted at most once");
        assert!(deleted.iter().all(|id| !updated.contains_key(id)));
        assert!(deleted
            .iter()
            .chain(updated.keys())
            .all(|&id| id < inputs.dataset.len()));
        // A prefix of the plan leaves a prefix of the state.
        let (early, _) = plan.expected(10);
        assert_eq!(early[..], deleted[..early.len()]);
    }

    #[test]
    fn recall_counts_shared_ids() {
        let truth = vec![vec![1, 2, 3, 4], vec![9, 8]];
        assert_eq!(mean_recall(&truth, &[vec![4, 3, 2, 1], vec![8, 9]]), 1.0);
        assert_eq!(mean_recall(&truth, &[vec![1, 2, 7, 7], vec![]]), 0.25);
    }
}
