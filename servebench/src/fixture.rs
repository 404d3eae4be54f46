//! Set-up: generate the dataset, train PS3, start a `Router` behind an
//! in-process `NetServer` on a loopback port, and wait for its first
//! answer. The dataset and training seed are fixed; the workload seed only
//! drives the request stream.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ps3_core::baselines::LssModel;
use ps3_core::LSS_BUDGET_GRID;
use ps3_core::{Ps3Config, Ps3System, QueryRequest, Router, TableId, TrainedPs3, TrainingData};
use ps3_data::{Dataset, DatasetConfig, ScaleProfile};
use ps3_net::NetServer;

use crate::trace::Tracer;
use crate::wire::{encode_request, read_body, reply_of};
use crate::workload::Workload;

/// Seed of the dataset and of training: the same table and models for
/// every workload seed.
pub const DATA_SEED: u64 = 42;

pub struct Fixture {
    pub ds: Arc<Dataset>,
    /// The system the server started with (the checker's reference).
    pub system: Arc<Ps3System>,
    pub router: Arc<Router>,
    pub table: TableId,
    pub server: NetServer,
}

impl Fixture {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop the server, then drain and stop the router.
    pub fn shutdown(self) {
        let Fixture { router, server, .. } = self;
        drop(server);
        router.shutdown();
    }
}

/// Train the way `Ps3System::train` does, one timed span per stage.
fn train_traced(ds: &Dataset, cfg: Ps3Config, tracer: &mut Tracer) -> Ps3System {
    let training = tracer.span("setup.training_data", |_| {
        TrainingData::compute(&ds.pt, &ds.stats, &ds.train_queries, cfg.threads)
    });
    let trained = tracer.span("setup.models", |_| {
        TrainedPs3::train(&training, cfg.clone())
    });
    let lss = tracer.span("setup.lss", |_| {
        let normalized: Vec<Vec<Vec<f64>>> = training
            .features
            .iter()
            .map(|f| {
                let mut m = f.rows.clone();
                trained.normalizer.apply_matrix(&mut m);
                m
            })
            .collect();
        LssModel::train(
            &training,
            &normalized,
            &cfg.gbdt,
            &LSS_BUDGET_GRID,
            cfg.fs_eval_queries,
            cfg.seed,
        )
    });
    Ps3System::from_parts(
        Arc::clone(&ds.pt),
        Arc::clone(&ds.stats),
        trained,
        lss,
        Arc::new(training),
    )
}

/// Build the fixture for `workload` and return it with the set-up time in
/// seconds. With a tracer, training runs stage by stage under spans.
pub fn setup(
    workload: Workload,
    snapshot_dir: &Path,
    tracer: Option<&mut Tracer>,
) -> (Fixture, f64) {
    let started = Instant::now();
    let cfg = Ps3Config::default().with_seed(DATA_SEED);
    let config = DatasetConfig::new(workload.dataset(), ScaleProfile::Default);
    let (ds, system) = match tracer {
        Some(tracer) => {
            let ds = tracer.span("setup.dataset", |_| config.build(DATA_SEED));
            let system = train_traced(&ds, cfg, tracer);
            (ds, system)
        }
        None => {
            let ds = config.build(DATA_SEED);
            let system = ds.train_system(cfg);
            (ds, system)
        }
    };
    let ds = Arc::new(ds);
    let system = Arc::new(system);
    let router = Router::builder()
        .table(workload.table(), Arc::clone(&system))
        .snapshot_dir(PathBuf::from(snapshot_dir))
        .build();
    let table = router.table_id(workload.table()).expect("registered table");
    let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind loopback");
    // The first answer closes set-up.
    let first = QueryRequest::ps3(ds.test_queries[0].clone(), 0.1, 0).on_table(workload.table());
    let mut stream = TcpStream::connect(server.addr()).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(&encode_request(1, &first))
        .expect("send first request");
    let body = read_body(&mut stream).expect("first reply");
    assert!(
        matches!(reply_of(&body), Ok((1, true))),
        "first request was refused"
    );
    let setup_s = started.elapsed().as_secs_f64();
    (
        Fixture {
            ds,
            system,
            router,
            table,
            server,
        },
        setup_s,
    )
}
