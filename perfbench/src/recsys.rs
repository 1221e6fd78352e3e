//! `recsys-delta`: an embedding-heavy recommender on the striped path
//! (`qps_per_connection = 4` over 4-engine NICs). Each step touches a
//! few seeded embedding shards plus the dense tower and takes a delta
//! checkpoint; every [`FULL_EVERY`]-th step is instead a full checkpoint
//! followed by a restore, and the step half-way between is a delta
//! followed by a restore, so both kinds of version are verified.

use portus::DaemonConfig;
use portus_dnn::{DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_sim::SimRng;

use crate::runner::RealWorkload;
use crate::world::World;
use crate::zoo::probe_sample;

/// Embedding shards of 1 MiB each.
pub const SHARDS: usize = 64;
/// One step in this many is a full checkpoint plus a restore.
pub const FULL_EVERY: u64 = 8;
/// Queue pairs per connection (and DMA engines per NIC).
const QPS: usize = 4;

/// The recommender: [`SHARDS`] embedding shards and a two-layer tower.
pub fn spec() -> ModelSpec {
    let mut tensors: Vec<TensorMeta> = (0..SHARDS)
        .map(|i| TensorMeta::new(format!("embedding.shard{i}"), DType::F32, vec![4096, 64]))
        .collect();
    tensors.push(TensorMeta::new(
        "dense.fc1.weight",
        DType::F32,
        vec![512, 64],
    ));
    tensors.push(TensorMeta::new(
        "dense.fc2.weight",
        DType::F32,
        vec![64, 512],
    ));
    ModelSpec::new("dlrm-bench", tensors)
}

/// Tensors step `i` touches: 1–4 distinct seeded shards and the tower.
pub fn touched(seed: u64, i: u64) -> Vec<usize> {
    let mut rng = SimRng::new(seed).fork(i);
    let n = 1 + rng.gen_range(4) as usize;
    let mut out: Vec<usize> = Vec::with_capacity(n + 2);
    while out.len() < n {
        let s = rng.gen_range(SHARDS as u64) as usize;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out.extend([SHARDS, SHARDS + 1]);
    out
}

/// The `recsys-delta` workload.
pub struct RecsysDelta {
    world: World,
    seed: u64,
    model: ModelInstance,
}

impl RealWorkload for RecsysDelta {
    const SAMPLE: u64 = 4 * FULL_EVERY;
    const ROUND: u64 = FULL_EVERY;

    fn setup(seed: u64) -> RecsysDelta {
        let spec = spec();
        let cfg = DaemonConfig {
            qps_per_connection: QPS,
            ..DaemonConfig::default()
        };
        let bytes = spec.total_bytes();
        let mut world = World::start(cfg, QPS, 3 * bytes + (64 << 20), bytes + (64 << 20))
            .expect("recsys-delta world starts");
        let model = ModelInstance::materialize(&spec, &world.gpu, seed, Materialization::Owned)
            .expect("recommender fits the GPU");
        world.register(&model);
        RecsysDelta { world, seed, model }
    }

    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn unit(&mut self, i: u64) {
        let w = &mut self.world;
        let m = &mut self.model;
        match i % FULL_EVERY {
            0 => {
                w.train(m, None);
                if w.checkpoint(m, true) {
                    w.train(m, Some(&[SHARDS]));
                    w.restore(m);
                }
            }
            k => {
                let verify = k == FULL_EVERY / 2;
                w.train(m, Some(&touched(self.seed, i)));
                if w.checkpoint_delta(m, verify) && verify {
                    w.train(m, Some(&[SHARDS]));
                    w.restore(m);
                }
            }
        }
    }

    fn user_bytes(&self) -> u64 {
        self.model.spec().total_bytes()
    }

    fn probe_names(&self) -> Vec<String> {
        vec![self.model.spec().name.clone()]
    }

    fn probe_sample(&self) -> Vec<u8> {
        probe_sample(std::slice::from_ref(&self.model), 64 << 20)
    }

    fn close(self) -> Vec<String> {
        self.world.close();
        Vec::new()
    }
}
