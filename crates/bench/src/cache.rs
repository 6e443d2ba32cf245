//! The on-disk content-addressed cell cache (`artifacts/cache/cells.json`).
//!
//! Format v2: `{"version": 2, "cell_protocol_version": <v>, "cells":
//! {"0x<key>": <CellReport>, …}}`, keys sorted for deterministic bytes.
//!
//! The `cell_protocol_version` stamp records the
//! [`CELL_PROTOCOL_VERSION`] the cells were computed under. Cache *keys*
//! already hash that version, so stale entries could never produce a false
//! hit — but before the stamp existed, a protocol bump mid-tree left the
//! old entries in the file forever (dead weight that pruning only clears
//! on full `repro all` runs, and a trap for any tool that reads the file
//! without re-deriving keys). The loader therefore **evicts** the whole
//! file — returns an empty cache, no error — whenever the stamp (or the
//! container version) does not match what this build would write.

use std::collections::HashMap;
use std::path::Path;

use dd_baselines::{CellReport, CELL_PROTOCOL_VERSION};
use dnn_defender::Json;

/// Version of the cache *container* format (not of the cells' semantics —
/// that is the `cell_protocol_version` stamp). v2 added the stamp.
pub const CELL_CACHE_FORMAT_VERSION: u64 = 2;

/// Outcome of a cache load: the usable cells plus eviction accounting,
/// so harnesses (and the chaos campaign) can see exactly how much of
/// the file survived validation.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// The entries that decoded cleanly.
    pub cells: HashMap<u64, CellReport>,
    /// Entries dropped because their key or payload failed to decode
    /// (on-disk corruption, or an armed `cache.corrupt_entry` fault).
    pub corrupt_evicted: usize,
    /// The whole file was evicted (missing, unparsable, another
    /// container version, or a different cell-protocol stamp).
    pub evicted_all: bool,
}

impl CacheLoad {
    fn evicted() -> CacheLoad {
        CacheLoad {
            evicted_all: true,
            ..CacheLoad::default()
        }
    }
}

/// Load the cell cache. A file that is missing, malformed, from another
/// container version, or stamped with a different
/// [`CELL_PROTOCOL_VERSION`] loads empty with `evicted_all` set (stale
/// caches evict, they never error). Corrupt entries are evicted
/// individually — the rest of the file stays usable — and the eviction
/// is reported, never a crash: a recomputed cell simply replaces the
/// evicted one on the next save.
pub fn load_cell_cache(path: &Path) -> CacheLoad {
    let Ok(text) = std::fs::read_to_string(path) else {
        return CacheLoad::evicted();
    };
    let Ok(json) = Json::parse(&text) else {
        eprintln!("repro: ignoring malformed cell cache {}", path.display());
        return CacheLoad::evicted();
    };
    let load = parse_cell_cache(&json);
    if load.corrupt_evicted > 0 {
        eprintln!(
            "repro: evicted {} corrupt cell-cache entr{} from {} ({} kept)",
            load.corrupt_evicted,
            if load.corrupt_evicted == 1 {
                "y"
            } else {
                "ies"
            },
            path.display(),
            load.cells.len(),
        );
    }
    load
}

/// The eviction-aware decode behind [`load_cell_cache`] (separated so the
/// version-mismatch behavior is testable without touching the fs). When
/// an armed chaos plan fires `cache.corrupt_entry` (keyed by cell key),
/// the entry's payload is replaced with garbage *before* validation, so
/// the injected corruption exercises the same decode-and-evict path a
/// real bit-rotted file would.
pub fn parse_cell_cache(json: &Json) -> CacheLoad {
    let stamp = |key| json.get(key).and_then(Json::as_u64);
    let (Some(CELL_CACHE_FORMAT_VERSION), Some(CELL_PROTOCOL_VERSION), Some(Json::Obj(fields))) = (
        stamp("version"),
        stamp("cell_protocol_version"),
        json.get("cells"),
    ) else {
        return CacheLoad::evicted();
    };
    let mut load = CacheLoad::default();
    for (key, value) in fields {
        let parsed_key = key
            .strip_prefix("0x")
            .and_then(|k| u64::from_str_radix(k, 16).ok());
        let Some(key) = parsed_key else {
            load.corrupt_evicted += 1;
            continue;
        };
        let chaos_garbage;
        let value = if dd_chaos::fires("cache.corrupt_entry", key) {
            chaos_garbage = Json::str("chaos: corrupted cache entry");
            &chaos_garbage
        } else {
            value
        };
        match CellReport::from_json(value) {
            Ok(cell) => {
                load.cells.insert(key, cell);
            }
            Err(_) => load.corrupt_evicted += 1,
        }
    }
    load
}

/// Render the cache document (sorted keys, deterministic bytes).
pub fn render_cell_cache(cells: &HashMap<u64, CellReport>) -> String {
    let mut keys: Vec<u64> = cells.keys().copied().collect();
    keys.sort_unstable();
    let fields: Vec<(String, Json)> = keys
        .into_iter()
        .map(|key| (format!("{key:#018x}"), cells[&key].to_json()))
        .collect();
    Json::obj()
        .with("version", Json::uint(CELL_CACHE_FORMAT_VERSION))
        .with("cell_protocol_version", Json::uint(CELL_PROTOCOL_VERSION))
        .with("cells", Json::Obj(fields))
        .render_pretty()
}

/// Write the cache, creating parent directories as needed. The write is
/// atomic (temp file + rename in the same directory): a crash or an
/// injected fault mid-write leaves the previous cache intact, never a
/// half-written file.
pub fn save_cell_cache(path: &Path, cells: &HashMap<u64, CellReport>) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp_name = path
        .file_name()
        .map(|name| name.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("cells.json"));
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result =
        std::fs::write(&tmp, render_cell_cache(cells)).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_baselines::{DefenseKind, ScenarioMatrix, VictimSpec};

    fn one_cell() -> HashMap<u64, CellReport> {
        let matrix = ScenarioMatrix::new(VictimSpec::tiny_mlp(7))
            .budget(2)
            .defense_kind(DefenseKind::Undefended)
            .threads(1);
        let key = matrix.cell_keys()[0].1;
        let report = matrix.run().expect("tiny matrix");
        HashMap::from([(key, report.cells[0].clone())])
    }

    #[test]
    fn cache_round_trips_and_evicts_on_version_mismatch() {
        let cells = one_cell();
        let rendered = render_cell_cache(&cells);
        let json = Json::parse(&rendered).expect("cache parses");
        assert_eq!(
            json.field_u64("cell_protocol_version"),
            Ok(CELL_PROTOCOL_VERSION)
        );

        // Round trip.
        let back = parse_cell_cache(&json).cells;
        assert_eq!(back.len(), 1);
        let key = *cells.keys().next().expect("key");
        assert_eq!(back[&key].scenario, cells[&key].scenario);

        // A mid-tree CELL_PROTOCOL_VERSION bump evicts instead of erroring
        // (regression test for the stale-cache hazard: pre-stamp caches
        // kept entries from older protocol versions forever).
        let cells_field = json.field("cells").expect("cells").clone();
        let stale = Json::obj()
            .with("version", Json::uint(CELL_CACHE_FORMAT_VERSION))
            .with(
                "cell_protocol_version",
                Json::uint(CELL_PROTOCOL_VERSION + 1),
            )
            .with("cells", cells_field.clone());
        let load = parse_cell_cache(&stale);
        assert!(load.cells.is_empty() && load.evicted_all);
        let unstamped = Json::obj()
            .with("version", Json::uint(CELL_CACHE_FORMAT_VERSION))
            .with("cells", cells_field.clone());
        let load = parse_cell_cache(&unstamped);
        assert!(load.cells.is_empty() && load.evicted_all);
        let old_container = Json::obj()
            .with("version", Json::uint(1))
            .with("cell_protocol_version", Json::uint(CELL_PROTOCOL_VERSION))
            .with("cells", cells_field);
        let load = parse_cell_cache(&old_container);
        assert!(load.cells.is_empty() && load.evicted_all);
    }

    #[test]
    fn missing_and_malformed_files_load_empty() {
        let dir = std::env::temp_dir().join(format!("dd-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let missing = dir.join("nope.json");
        let load = load_cell_cache(&missing);
        assert!(load.cells.is_empty() && load.evicted_all);
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{not json").expect("write");
        let load = load_cell_cache(&garbled);
        assert!(load.cells.is_empty() && load.evicted_all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dd-cache-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cells.json");
        let cells = one_cell();
        save_cell_cache(&path, &cells).expect("save");
        let reloaded = load_cell_cache(&path);
        assert_eq!(reloaded.cells.len(), 1);
        assert_eq!(reloaded.corrupt_evicted, 0);
        assert!(!reloaded.evicted_all);
        // The temp file was renamed away, not left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_evict_individually_with_accounting() {
        let cells = one_cell();
        let rendered = render_cell_cache(&cells);
        let json = Json::parse(&rendered).expect("cache parses");
        // Splice a garbage entry next to the good one.
        let Json::Obj(mut fields) = json.clone() else {
            panic!("cache document is an object");
        };
        for (name, value) in &mut fields {
            if name == "cells" {
                let Json::Obj(entries) = value else {
                    panic!("cells is an object");
                };
                entries.push(("0xdeadbeefdeadbeef".to_string(), Json::str("bit rot")));
                entries.push(("not-a-key".to_string(), Json::Null));
            }
        }
        let load = parse_cell_cache(&Json::Obj(fields));
        assert_eq!(load.cells.len(), 1, "the good entry survives");
        assert_eq!(load.corrupt_evicted, 2);
        assert!(!load.evicted_all);
    }
}
