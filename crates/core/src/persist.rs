//! The persisted operator format: the `CONFIG` / `TREE` / `LISTS` / `BASES`
//! (and, for tuned operators, `TUNED_FAR` / `TUNE_META`) header blobs behind
//! [`Evaluator::write_to`] / [`Evaluator::open_from`]. All little-endian,
//! scalars by IEEE bit pattern, enums as `u8` tags — deterministic and exact,
//! because the serving stack asserts bit-identity between in-memory and
//! reopened operators. The interaction panels themselves are spilled by
//! [`Evaluator::spill_panels`] (see `panel.rs`); this file owns only what
//! surrounds them.

use crate::compress::{CompRef, Compressed, CompressionStats};
use crate::config::{GofmmConfig, PanelPrecision, TraversalPolicy};
use crate::distance::DistanceMetric;
use crate::error::Error;
use crate::evaluate::{Evaluator, NearMap};
use crate::lists::InteractionLists;
use crate::panel::Panel;
use crate::skel::NodeBasis;
use crate::tune::TuneStats;
use gofmm_linalg::{
    check_scalar_width, decode_scalar_vec, encode_scalar_slice, DenseMatrix, Scalar,
};
use gofmm_store::{classes, ByteReader, ByteWriter, FilePanelStore, StoreError, StoreWriter};
use gofmm_telemetry::Stopwatch;
use gofmm_tree::PartitionTree;
use std::path::Path;
use std::sync::Arc;

impl<T: Scalar> Evaluator<'_, T> {
    /// Persist the operator state this evaluator serves into `writer`: the
    /// configuration, the partition tree, the interaction lists, the
    /// skeleton bases, and every packed interaction panel (via
    /// [`Evaluator::spill_panels`]). A finished file reopens with
    /// [`Evaluator::open_from`] into an evaluator whose applies are
    /// bit-identical to this one's.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for an already file-backed evaluator;
    /// [`Error::Storage`] on a write failure.
    pub fn write_to(&self, writer: &mut StoreWriter) -> Result<(), Error> {
        let comp = self.compressed();
        let mut buf = Vec::new();
        let mut put = |class: u16, encode: &dyn Fn(&mut Vec<u8>)| {
            buf.clear();
            encode(&mut buf);
            writer.put_raw(class, 0, &buf)
        };
        put(classes::CONFIG, &|buf| {
            encode_header::<T>(buf, &comp.config)
        })?;
        put(classes::TREE, &|buf| encode_tree(buf, &comp.tree))?;
        put(classes::LISTS, &|buf| encode_lists(buf, &comp.lists))?;
        put(classes::BASES, &|buf| encode_bases::<T>(buf, &comp.bases))?;
        if let Some(lists) = &self.tuned_far {
            put(classes::TUNED_FAR, &|buf| encode_tuned_far(buf, lists))?;
        }
        if let Some(ts) = &self.tune_stats {
            put(classes::TUNE_META, &|buf| encode_tune_meta(buf, ts))?;
        }
        self.spill_panels(writer)
    }
}

impl<T: Scalar> Evaluator<'static, T> {
    /// Reopen an operator persisted with [`Evaluator::write_to`]: rebuild
    /// the compressed representation from the store's headers (the partition
    /// tree is replayed deterministically from its permutation) and serve
    /// every interaction panel *out of core* through the store's LRU
    /// resident set, bounded by `resident_budget` decoded bytes.
    ///
    /// Returns the reconstructed compression (shared, so a factorization can
    /// serve it next to the evaluator) and the file-backed evaluator. The
    /// reconstructed compression carries no neighbor lists and zeroed
    /// compression statistics — everything the evaluation and factorization
    /// phases read (tree, lists, bases, config) is exact.
    ///
    /// # Errors
    /// [`Error::Storage`] when the file is missing, incomplete, corrupt, or
    /// was written by an operator of a different scalar precision.
    pub fn open_from(
        path: &Path,
        resident_budget: usize,
    ) -> Result<(Arc<Compressed<T>>, Self), Error> {
        let t0 = Stopwatch::start();
        let store = Arc::new(FilePanelStore::open(path, resident_budget)?);
        let config = decode_header::<T>(&store.read_raw(classes::CONFIG, 0)?)?;
        let tree = decode_tree(&store.read_raw(classes::TREE, 0)?)?;
        let lists = decode_lists(&store.read_raw(classes::LISTS, 0)?)?;
        let bases = decode_bases::<T>(&store.read_raw(classes::BASES, 0)?)?;
        let node_count = tree.node_count();
        if lists.near.len() != node_count
            || lists.far.len() != node_count
            || bases.len() != node_count
        {
            return Err(Error::Storage {
                message: format!(
                    "store headers disagree: tree has {node_count} nodes, lists {}/{}, bases {}",
                    lists.near.len(),
                    lists.far.len(),
                    bases.len()
                ),
            });
        }
        let not_leaf = |&&h: &&usize| h >= node_count || !tree.is_leaf(h);
        if let Some(bad) = lists.near.iter().flatten().find(not_leaf) {
            return Err(Error::Storage {
                message: format!("near list entry {bad} is not a leaf of the tree"),
            });
        }
        let near_map = NearMap::new(&tree, &lists);
        let comp = Compressed {
            tree,
            lists,
            bases,
            neighbors: None,
            config,
            stats: CompressionStats::default(),
        };
        let mut far = Vec::with_capacity(node_count);
        let mut near = Vec::with_capacity(node_count);
        for heap in 0..node_count {
            far.push(Panel::stored(&store, classes::S2S, heap));
            near.push(Panel::stored(&store, classes::L2L, heap));
        }
        let comp = Arc::new(comp);
        let mut evaluator = Evaluator::assemble_evaluator(
            CompRef::Shared(Arc::clone(&comp)),
            far,
            near,
            near_map,
            t0,
        );
        // A tuned operator persisted its effective far lists and tune stats;
        // restore them so applies stack weights against the tuned panels'
        // column order and keep reporting the tuning outcome.
        if store.contains(classes::TUNED_FAR, 0) {
            let lists = decode_tuned_far(&store.read_raw(classes::TUNED_FAR, 0)?)?;
            if lists.len() != node_count {
                return Err(Error::Storage {
                    message: format!(
                        "tuned far lists cover {} nodes, tree has {node_count}",
                        lists.len()
                    ),
                });
            }
            evaluator.tuned_far = Some(lists);
        }
        if store.contains(classes::TUNE_META, 0) {
            evaluator.tune_stats = Some(decode_tune_meta(&store.read_raw(classes::TUNE_META, 0)?)?);
        }
        Ok((comp, evaluator))
    }
}

fn metric_tag(metric: DistanceMetric) -> u8 {
    match metric {
        DistanceMetric::Kernel => 0,
        DistanceMetric::Angle => 1,
        DistanceMetric::Geometric => 2,
        DistanceMetric::Lexicographic => 3,
        DistanceMetric::Random => 4,
    }
}

fn metric_from_tag(tag: u8) -> Result<DistanceMetric, StoreError> {
    Ok(match tag {
        0 => DistanceMetric::Kernel,
        1 => DistanceMetric::Angle,
        2 => DistanceMetric::Geometric,
        3 => DistanceMetric::Lexicographic,
        4 => DistanceMetric::Random,
        other => return Err(StoreError::Corrupt(format!("unknown metric tag {other}"))),
    })
}

/// The `u8` tag a [`TraversalPolicy`] persists as — shared with the solver's
/// store files, so a policy is never encoded two different ways.
#[doc(hidden)]
pub fn policy_tag(policy: TraversalPolicy) -> u8 {
    match policy {
        TraversalPolicy::Sequential => 0,
        TraversalPolicy::LevelByLevel => 1,
        TraversalPolicy::DagHeft => 2,
        TraversalPolicy::DagFifo => 3,
    }
}

/// Inverse of [`policy_tag`]; an unknown tag is a corrupt file.
#[doc(hidden)]
pub fn policy_from_tag(tag: u8) -> Result<TraversalPolicy, StoreError> {
    Ok(match tag {
        0 => TraversalPolicy::Sequential,
        1 => TraversalPolicy::LevelByLevel,
        2 => TraversalPolicy::DagHeft,
        3 => TraversalPolicy::DagFifo,
        other => return Err(StoreError::Corrupt(format!("unknown policy tag {other}"))),
    })
}

fn precision_tag(precision: PanelPrecision) -> u8 {
    match precision {
        PanelPrecision::Native => 0,
        PanelPrecision::MixedF32 => 1,
    }
}

fn precision_from_tag(tag: u8) -> Result<PanelPrecision, StoreError> {
    Ok(match tag {
        0 => PanelPrecision::Native,
        1 => PanelPrecision::MixedF32,
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown panel-precision tag {other}"
            )))
        }
    })
}

/// CONFIG blob: operator scalar width and every [`GofmmConfig`] field (the
/// panel precision among them).
fn encode_header<T: Scalar>(out: &mut Vec<u8>, config: &GofmmConfig) {
    let mut w = ByteWriter::new(out);
    w.u8(std::mem::size_of::<T>() as u8);
    w.usize(config.leaf_size);
    w.usize(config.max_rank);
    w.f64(config.tolerance);
    w.usize(config.neighbors);
    w.f64(config.budget);
    w.u8(metric_tag(config.metric));
    w.usize(config.num_threads);
    w.u8(policy_tag(config.policy));
    w.usize(config.sample_size);
    w.usize(config.ann_iters);
    w.u64(config.seed);
    w.u8(precision_tag(config.panel_precision));
}

fn decode_header<T: Scalar>(bytes: &[u8]) -> Result<GofmmConfig, StoreError> {
    let mut r = ByteReader::new(bytes);
    check_scalar_width::<T>(r.u8()?)?;
    let config = GofmmConfig {
        leaf_size: r.usize()?,
        max_rank: r.usize()?,
        tolerance: r.f64()?,
        neighbors: r.usize()?,
        budget: r.f64()?,
        metric: metric_from_tag(r.u8()?)?,
        num_threads: r.usize()?,
        policy: policy_from_tag(r.u8()?)?,
        sample_size: r.usize()?,
        ann_iters: r.usize()?,
        seed: r.u64()?,
        panel_precision: precision_from_tag(r.u8()?)?,
    };
    r.finish()?;
    Ok(config)
}

/// TREE blob: `(n, depth, perm)` — everything [`PartitionTree::from_perm`]
/// needs to replay the deterministic build.
fn encode_tree(out: &mut Vec<u8>, tree: &PartitionTree) {
    let mut w = ByteWriter::new(out);
    w.usize(tree.n());
    w.u32(tree.depth());
    w.usize_slice(tree.perm());
}

fn decode_tree(bytes: &[u8]) -> Result<PartitionTree, StoreError> {
    let mut r = ByteReader::new(bytes);
    let n = r.usize()?;
    let depth = r.u32()?;
    let perm = r.usize_slice()?;
    r.finish()?;
    // Validate before from_perm, which asserts on malformed input.
    if perm.len() != n {
        return Err(StoreError::Corrupt(format!(
            "tree permutation has {} entries for n = {n}",
            perm.len()
        )));
    }
    let mut seen = vec![false; n];
    for &p in &perm {
        if p >= n || seen[p] {
            return Err(StoreError::Corrupt(format!(
                "tree permutation entry {p} out of range or duplicated"
            )));
        }
        seen[p] = true;
    }
    Ok(PartitionTree::from_perm(n, depth, perm))
}

/// One per-node family of index lists: a count, then each node's list.
fn put_node_lists(w: &mut ByteWriter<'_>, lists: &[Vec<usize>]) {
    w.usize(lists.len());
    for l in lists {
        w.usize_slice(l);
    }
}

fn node_lists(r: &mut ByteReader<'_>) -> Result<Vec<Vec<usize>>, StoreError> {
    let count = r.usize()?;
    let mut lists = Vec::with_capacity(count);
    for _ in 0..count {
        lists.push(r.usize_slice()?);
    }
    Ok(lists)
}

/// LISTS blob: the per-node Near and Far interaction lists.
fn encode_lists(out: &mut Vec<u8>, lists: &InteractionLists) {
    let mut w = ByteWriter::new(out);
    put_node_lists(&mut w, &lists.near);
    put_node_lists(&mut w, &lists.far);
}

fn decode_lists(bytes: &[u8]) -> Result<InteractionLists, StoreError> {
    let mut r = ByteReader::new(bytes);
    let near = node_lists(&mut r)?;
    let far = node_lists(&mut r)?;
    r.finish()?;
    Ok(InteractionLists { near, far })
}

/// BASES blob: every node's skeleton basis (`None` encoded as a 0 tag).
fn encode_bases<T: Scalar>(out: &mut Vec<u8>, bases: &[Option<NodeBasis<T>>]) {
    {
        let mut w = ByteWriter::new(out);
        w.u8(std::mem::size_of::<T>() as u8);
        w.usize(bases.len());
    }
    for basis in bases {
        match basis {
            None => ByteWriter::new(out).u8(0),
            Some(b) => {
                {
                    let mut w = ByteWriter::new(out);
                    w.u8(1);
                    w.usize_slice(&b.skeleton);
                    w.usize(b.interp.rows());
                    w.usize(b.interp.cols());
                }
                encode_scalar_slice(out, b.interp.data());
                let mut w = ByteWriter::new(out);
                w.f64(b.residual);
            }
        }
    }
}

fn decode_bases<T: Scalar>(bytes: &[u8]) -> Result<Vec<Option<NodeBasis<T>>>, StoreError> {
    let mut r = ByteReader::new(bytes);
    check_scalar_width::<T>(r.u8()?)?;
    let count = r.usize()?;
    let mut bases = Vec::with_capacity(count);
    for _ in 0..count {
        if r.u8()? == 0 {
            bases.push(None);
            continue;
        }
        let skeleton = r.usize_slice()?;
        let rows = r.usize()?;
        let cols = r.usize()?;
        let data = decode_scalar_vec::<T>(&mut r, rows * cols)?;
        let residual = r.f64()?;
        bases.push(Some(NodeBasis {
            skeleton,
            interp: DenseMatrix::from_vec(rows, cols, data),
            residual,
        }));
    }
    r.finish()?;
    Ok(bases)
}

/// TUNED_FAR blob: the per-node effective far lists left by a committed
/// [`Evaluator::tune`] (same shape as the LISTS blob's far half).
fn encode_tuned_far(out: &mut Vec<u8>, lists: &[Vec<usize>]) {
    put_node_lists(&mut ByteWriter::new(out), lists);
}

fn decode_tuned_far(bytes: &[u8]) -> Result<Vec<Vec<usize>>, StoreError> {
    let mut r = ByteReader::new(bytes);
    let lists = node_lists(&mut r)?;
    r.finish()?;
    Ok(lists)
}

/// TUNE_META blob: the [`TuneStats`] snapshot of the tune that produced the
/// persisted panels.
fn encode_tune_meta(out: &mut Vec<u8>, ts: &TuneStats) {
    let mut w = ByteWriter::new(out);
    w.usize(ts.bytes_before);
    w.usize(ts.bytes_after);
    w.usize(ts.blocks_dropped);
    w.usize(ts.panels_truncated);
    w.f64(ts.measured_eps2);
    w.usize(ts.accepted);
    w.usize(ts.rejected);
    w.f64(ts.time);
}

fn decode_tune_meta(bytes: &[u8]) -> Result<TuneStats, StoreError> {
    let mut r = ByteReader::new(bytes);
    let ts = TuneStats {
        bytes_before: r.usize()?,
        bytes_after: r.usize()?,
        blocks_dropped: r.usize()?,
        panels_truncated: r.usize()?,
        measured_eps2: r.f64()?,
        accepted: r.usize()?,
        rejected: r.usize()?,
        time: r.f64()?,
    };
    r.finish()?;
    Ok(ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::tune::AccuracyBudget;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};

    fn operator() -> (KernelMatrix, Compressed<f64>) {
        let n = 384;
        let k = KernelMatrix::new(
            PointCloud::uniform(n, 3, 5),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "persist-test",
        );
        let config = GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(48)
            .with_tolerance(1e-8)
            .with_budget(0.3)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential);
        let comp = compress::<f64, _>(&k, &config);
        (k, comp)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gofmm-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(ev: &Evaluator<'_, f64>, path: &Path) {
        let mut writer = StoreWriter::create(path).unwrap();
        ev.write_to(&mut writer).unwrap();
        writer.finish().unwrap();
    }

    #[test]
    fn version_two_store_file_is_refused_with_a_typed_error() {
        let (k, comp) = operator();
        let dir = scratch("v2");
        let path = dir.join("operator.gfmm");
        write(&Evaluator::new(&k, &comp), &path);
        assert!(Evaluator::<f64>::open_from(&path, 1 << 20).is_ok());
        let current = std::fs::read(&path).unwrap();
        // Files from before the near-layout tag (version 2), from before the
        // CONFIG blob lost its block-cache flag and second precision tag
        // (version 3), from before it lost the near-layout tag (version 4),
        // from before a panel was one tagged blob (version 5), and from
        // before the strict rank-budget and budget-limited flags went
        // (version 6).
        for version in [2u32, 3, 4, 5, 6] {
            let mut file = current.clone();
            file[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &file).unwrap();
            match Evaluator::<f64>::open_from(&path, 1 << 20) {
                Err(Error::Storage { message }) => {
                    assert!(message.contains(&format!("version {version}")), "{message}")
                }
                Err(other) => panic!("expected Error::Storage, got {other}"),
                Ok(_) => panic!("a version-{version} store file must be refused"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Untuned and tuned evaluators (dense and low-rank owner panels) each
    /// persist, reopen and apply bit-identically.
    #[test]
    fn tuned_and_untuned_evaluators_round_trip_bit_identically() {
        let (k, comp) = operator();
        let dir = scratch("tuned");
        let w = DenseMatrix::from_fn(comp.n(), 3, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let mut ev = Evaluator::new(&k, &comp);
        for tuned in [false, true] {
            if tuned {
                let stats = ev.tune(&AccuracyBudget::new(1e-3)).unwrap();
                assert!(stats.accepted_any(), "1e-3 must be attainable");
                assert!(stats.panels_truncated > 0, "the tune must truncate panels");
            }
            let path = dir.join(format!("tuned-{tuned}.gfmm"));
            write(&ev, &path);
            let (_, reopened) = Evaluator::<f64>::open_from(&path, 1 << 16).unwrap();
            assert_eq!(reopened.tune_stats(), ev.tune_stats(), "tuned = {tuned}");
            let (want, _) = ev.apply(&w).unwrap();
            let (got, _) = reopened.apply(&w).unwrap();
            assert_eq!(got.data(), want.data(), "tuned = {tuned}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
