//! `collection.segments_sealed` counts every roll of the active segment,
//! however the rows arrive. Alone in its test binary: the recorder is
//! process-global, so no other test may upsert while the guard is up.

use vq_collection::{CollectionConfig, LocalCollection};
use vq_core::{Distance, Point, PointBlock};

#[test]
fn block_rolls_count_as_seals() {
    let _obs = vq_obs::ObsGuard::install_default();
    let sealed = || vq_obs::snapshot().unwrap().counter("collection.segments_sealed");
    let config = CollectionConfig::new(2, Distance::Euclid).max_segment_points(4);
    let points: Vec<Point> = (0..10u64).map(|i| Point::new(i, vec![i as f32, 0.0])).collect();

    // One 10-row block over 4-point segments rolls twice mid-block.
    let via_block = LocalCollection::new(config);
    via_block
        .upsert_block(&PointBlock::from_points(&points).unwrap())
        .unwrap();
    assert_eq!(sealed(), 2);

    // Ten one-point upserts roll at the same two rows.
    let via_points = LocalCollection::new(config);
    for p in points {
        via_points.upsert(p).unwrap();
    }
    assert_eq!(sealed(), 4);
    assert_eq!(via_block.stats().segments, via_points.stats().segments);
}
