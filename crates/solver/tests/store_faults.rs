//! Store faults surface as typed errors. An out-of-core operator whose store
//! file is truncated under it returns `Error::Storage` from every apply,
//! every solve and every CG solve, under all four traversal policies,
//! without a panic on a DAG worker or the serving worker and without
//! poisoning the engine: the leased workspace goes back to its pool, a
//! second call fails the same way, and once the file is whole again the
//! same engine serves the same bits as before the fault.

use gofmm_core::{ApplyOptions, Evaluator, GofmmConfig, StorageConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{
    cg, BatchedServer, Error, GofmmOperator, KrylovOptions, ServeConfig, Shifted, StoreWriter,
    UlvFactor,
};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

/// A resident budget far below any panel or node: every blob is faulted in
/// from the file on every use.
const TINY_BUDGET: usize = 1024;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gofmm-store-fault-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn operator(n: usize, storage: StorageConfig) -> GofmmOperator<f64> {
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, 33),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "store-faults",
    );
    let config = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(36)
        .with_tolerance(1e-8)
        .with_budget(0.0)
        .with_threads(2);
    GofmmOperator::<f64>::builder(&kernel)
        .config(config)
        .factorize(1e-1)
        .storage(storage)
        .build()
        .expect("operator")
}

fn rhs(n: usize, cols: usize, seed: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i * 31 + j * 7 + seed * 13) % 23) as f64 - 11.0) / 7.0
    })
}

/// Cut the store file down to its first page: every blob then reads past
/// the end of the file. Returns the file's bytes, to restore it with.
fn truncate(path: &Path) -> Vec<u8> {
    let whole = std::fs::read(path).unwrap();
    let file = OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(4096).unwrap();
    whole
}

/// The message of an `Error::Storage`, failing on anything else.
fn storage_message<T>(result: Result<T, Error>, what: &str) -> String {
    match result {
        Err(Error::Storage { message }) => message,
        Err(other) => panic!("{what}: expected Error::Storage, got {other}"),
        Ok(_) => panic!("{what}: a truncated store served a result"),
    }
}

#[test]
fn truncated_store_fails_apply_and_solve_with_storage_errors() {
    let n = 384;
    let op = operator(n, StorageConfig::InMemory);
    let dir = tmp_dir("engines");
    let path = dir.join("operator.gfmm");
    let mut writer = StoreWriter::create(&path).unwrap();
    op.evaluator().write_to(&mut writer).unwrap();
    let ulv = op.ulv_factor().expect("ULV factor");
    ulv.write_to(&mut writer).unwrap();
    writer.finish().unwrap();
    let (comp, evaluator) = Evaluator::<f64>::open_from(&path, TINY_BUDGET).unwrap();
    let factor = UlvFactor::<f64>::open_from(&path, comp, TINY_BUDGET).unwrap();

    let w = rhs(n, 3, 17);
    let b = rhs(n, 2, 19);
    let (want_u, _) = evaluator.apply(&w).unwrap();
    let want_x = factor.solve(&b).unwrap();
    let whole = truncate(&path);
    for policy in ALL_POLICIES {
        for threads in [1, 2] {
            let label = format!("{policy}/{threads}");
            let opts = ApplyOptions::new()
                .with_policy(policy)
                .with_threads(threads);
            let first = storage_message(evaluator.apply_with(&w, &opts), &label);
            let again = storage_message(evaluator.apply_with(&w, &opts), &label);
            assert_eq!(first, again, "{label}: a second apply fails differently");
            let first = storage_message(factor.solve_with(&b, &opts), &label);
            let again = storage_message(factor.solve_with(&b, &opts), &label);
            assert_eq!(first, again, "{label}: a second solve fails differently");
        }
    }
    // Every failed call handed its workspace back: the first one is reused.
    assert_eq!(
        evaluator.pool_lease_stats().0,
        1,
        "apply workspaces created"
    );
    assert_eq!(factor.pool_lease_stats().0, 1, "solve workspaces created");
    // CG over the same engines. Its two-column applies lease a workspace of
    // their own width, so its reference is the in-memory operator's CG:
    // reopened engines give its bits.
    let shifted = Shifted::new(&evaluator, factor.lambda());
    let cg_opts = KrylovOptions::default();
    let (want_cg, _) = op.solve_cg(&b, &cg_opts).unwrap();
    let first = storage_message(cg(&shifted, &factor, &b, &cg_opts), "CG");
    let again = storage_message(cg(&shifted, &factor, &b, &cg_opts), "CG");
    assert_eq!(first, again, "a second CG solve fails differently");

    std::fs::write(&path, whole).unwrap();
    for policy in ALL_POLICIES {
        let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
        let (u, _) = evaluator.apply_with(&w, &opts).expect("apply after repair");
        assert_eq!(u.data(), want_u.data(), "{policy}: apply after repair");
        let x = factor.solve_with(&b, &opts).expect("solve after repair");
        assert_eq!(x.data(), want_x.data(), "{policy}: solve after repair");
    }
    let (x, _) = cg(&shifted, &factor, &b, &cg_opts).expect("CG after repair");
    assert_eq!(x.data(), want_cg.data(), "CG after repair");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_flights_over_a_truncated_store_resolve_to_storage_errors() {
    let n = 384;
    let dir = tmp_dir("served");
    let op = Arc::new(operator(
        n,
        StorageConfig::File {
            dir: dir.clone(),
            resident_budget: TINY_BUDGET,
        },
    ));
    let path = op.store().expect("file storage").path().to_path_buf();
    let server = BatchedServer::new(Arc::clone(&op), ServeConfig::default());
    let w = rhs(n, 1, 23);
    let b = rhs(n, 2, 29);
    let want_u = op.apply(&w).unwrap();
    let want_x = op.solve(&b).unwrap();
    let cg_opts = KrylovOptions::default();
    let (want_cg, _) = op.solve_cg(&b, &cg_opts).unwrap();

    let whole = truncate(&path);
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(server.submit_apply(&w, None).expect("admit apply"));
        tickets.push(server.submit_solve(&b, None).expect("admit solve"));
        let cg_ticket = server.submit_solve_cg(&b, &cg_opts, None);
        tickets.push(cg_ticket.expect("admit CG solve"));
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        storage_message(ticket.wait(), &format!("ticket {i}"));
    }

    // The coalescing worker survived its failed flights and serves the next.
    std::fs::write(&path, whole).unwrap();
    let u = server.submit_apply(&w, None).unwrap().wait();
    assert_eq!(u.expect("apply after repair").data(), want_u.data());
    let x = server.submit_solve(&b, None).unwrap().wait();
    assert_eq!(x.expect("solve after repair").data(), want_x.data());
    let x = server.submit_solve_cg(&b, &cg_opts, None).unwrap().wait();
    assert_eq!(x.expect("CG solve after repair").data(), want_cg.data());
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
