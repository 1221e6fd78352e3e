//! `model-hub`: [`MODELS`] small fine-tunes in [`FAMILIES`] families on
//! a daemon with dedup and the paged catalog enabled.
//!
//! Every model of a family is materialized from the family's seed and
//! then diverged by a few sparse steps, so most of its chunks are
//! shared with its siblings. Set-up registers every model and
//! checkpoints it once; the timed phase then picks models by seed and
//! mixes a sparse step plus checkpoint with about one restore per four
//! checkpoints. Every picked name must resolve through the catalog.

use portus::{CatalogConfig, DaemonConfig, DedupConfig};
use portus_dnn::{test_spec, Materialization, ModelInstance, ModelSpec};
use portus_sim::SimRng;

use crate::runner::RealWorkload;
use crate::world::World;
use crate::zoo::probe_sample;

/// Models on the hub.
pub const MODELS: usize = 1024;
/// Model families (shared base weights).
pub const FAMILIES: usize = 4;

/// Family `f`'s layout: `4 + f` tensors of `16 (1 + f)` KiB, so models
/// span one to seven 64 KiB dedup chunks.
fn family_spec(f: usize) -> ModelSpec {
    test_spec(&format!("family{f}"), 4 + f, (16 << 10) * (1 + f as u64))
}

/// What unit `i` does: `(model, restore?)`. Units cycle through the
/// families so every run holds the same mix of model sizes; the model
/// within the family and the operation are seeded.
pub fn pick(seed: u64, i: u64) -> (usize, bool) {
    let mut rng = SimRng::new(seed).fork(i);
    let family = (i % FAMILIES as u64) as usize;
    let member = rng.gen_range((MODELS / FAMILIES) as u64) as usize;
    (family + FAMILIES * member, rng.gen_range(5) == 0)
}

/// The `model-hub` workload.
pub struct ModelHub {
    world: World,
    seed: u64,
    models: Vec<ModelInstance>,
    /// Names the timed phase picked, for the catalog probe.
    picked: Vec<String>,
}

impl RealWorkload for ModelHub {
    const SAMPLE: u64 = 512;
    const ROUND: u64 = FAMILIES as u64;

    fn setup(seed: u64) -> ModelHub {
        let families: Vec<ModelSpec> = (0..FAMILIES).map(family_spec).collect();
        let logical: u64 = (0..MODELS)
            .map(|j| families[j % FAMILIES].total_bytes())
            .sum();
        let cfg = DaemonConfig {
            table_capacity: 2 * MODELS as u32,
            alloc_slots: 16 * MODELS as u32,
            dedup: Some(DedupConfig::default()),
            catalog: Some(CatalogConfig::default()),
            ..DaemonConfig::default()
        };
        let mut world = World::start(cfg, 1, 4 * logical + (64 << 20), logical + (64 << 20))
            .expect("model-hub world starts");
        let mut models = Vec::with_capacity(MODELS);
        for j in 0..MODELS {
            let f = j % FAMILIES;
            let spec = families[f].renamed(format!("hub/family{f}/model{j}"));
            let mut model = ModelInstance::materialize(
                &spec,
                &world.gpu,
                seed ^ f as u64,
                Materialization::Owned,
            )
            .expect("hub model fits the GPU");
            let mut rng = SimRng::new(seed).fork(0x5EED_0000 + j as u64);
            for _ in 0..1 + rng.gen_range(3) {
                let t = rng.gen_range(spec.layer_count() as u64) as usize;
                model.train_step_sparse(&[t]);
            }
            if world.register(&model) {
                world.checkpoint(&mut model, true);
            }
            models.push(model);
        }
        ModelHub {
            world,
            seed,
            models,
            picked: Vec::new(),
        }
    }

    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn unit(&mut self, i: u64) {
        let (j, restore) = pick(self.seed, i);
        let w = &mut self.world;
        let model = &mut self.models[j];
        let name = model.spec().name.clone();
        let resolved = w
            .daemon
            .index()
            .catalog()
            .map(|cat| matches!(cat.lookup(&name), Ok(Some(_))));
        if resolved != Some(true) {
            w.ledger.attempted += 1;
            w.ledger.fail(format!("catalog: {name} does not resolve"));
            return;
        }
        let tensor = (i % model.tensors().len() as u64) as usize;
        w.train(model, Some(&[tensor]));
        if restore {
            w.restore(model);
        } else {
            w.checkpoint(model, true);
        }
        if w.ledger.sampling || w.ctx.tracer.is_enabled() {
            self.picked.push(name);
        }
    }

    fn user_bytes(&self) -> u64 {
        self.models.iter().map(|m| m.spec().total_bytes()).sum()
    }

    fn probe_names(&self) -> Vec<String> {
        self.picked.clone()
    }

    fn probe_sample(&self) -> Vec<u8> {
        probe_sample(&self.models, 64 << 20)
    }

    fn close(self) -> Vec<String> {
        self.world.close();
        Vec::new()
    }
}
