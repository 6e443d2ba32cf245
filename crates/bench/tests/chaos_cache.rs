//! An armed `cache.corrupt_entry` fault through the cell-cache decoder.
//!
//! The dd-chaos plane is process-global: while this test has it armed,
//! every cache entry any other test in the same process decodes would be
//! corrupted too. It therefore lives in a test binary of its own, away
//! from the cache unit tests.

use std::collections::HashMap;

use dd_baselines::{DefenseKind, ScenarioMatrix, VictimSpec};
use dd_bench::cache::{parse_cell_cache, render_cell_cache};
use dnn_defender::Json;

#[test]
fn chaos_corrupt_entry_fault_exercises_the_eviction_path() {
    let matrix = ScenarioMatrix::new(VictimSpec::tiny_mlp(7))
        .budget(2)
        .defense_kind(DefenseKind::Undefended)
        .threads(1);
    let key = matrix.cell_keys()[0].1;
    let report = matrix.run().expect("tiny matrix");
    let cells = HashMap::from([(key, report.cells[0].clone())]);
    let json = Json::parse(&render_cell_cache(&cells)).expect("cache parses");
    let session =
        dd_chaos::arm(dd_chaos::ChaosPlan::inert(7).with_rule("cache.corrupt_entry", 1_000_000));
    let load = parse_cell_cache(&json);
    let report = session.finish();
    assert!(load.cells.is_empty(), "every entry was corrupted");
    assert_eq!(load.corrupt_evicted, 1);
    assert_eq!(report.fires_at("cache.corrupt_entry"), 1);
    // Disarmed, the same document loads cleanly again.
    let clean = parse_cell_cache(&json);
    assert_eq!(clean.cells.len(), 1);
    assert_eq!(clean.corrupt_evicted, 0);
}
