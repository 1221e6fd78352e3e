//! `zoo-full`: closed-loop full checkpoint → restore cycles over four
//! Table II models on the default daemon (one QP, serial seal).
//!
//! Every round visits each model once, in a seeded order. A visit
//! retires the previous model from the daemon, registers this one, runs
//! a training step, checkpoints, runs another step and restores, so the
//! namespace holds one model at a time and memory stays near one
//! model's size instead of four.

use portus::DaemonConfig;
use portus_dnn::{zoo, Materialization, ModelInstance, ModelSpec};
use portus_sim::{SimDuration, SimRng};

use crate::runner::RealWorkload;
use crate::world::World;

/// The zoo models this workload cycles over.
pub fn specs() -> Vec<ModelSpec> {
    vec![
        zoo::resnet50(),
        zoo::alexnet(),
        zoo::swin_b(),
        zoo::convnext_base(),
    ]
}

/// The model unit `i` visits: round `i / 4` is a seeded permutation.
pub fn visit(seed: u64, i: u64) -> usize {
    let mut rng = SimRng::new(seed).fork(i / 4);
    let mut order = [0, 1, 2, 3];
    for k in (1..order.len()).rev() {
        order.swap(k, rng.gen_range(k as u64 + 1) as usize);
    }
    order[(i % 4) as usize]
}

/// The `zoo-full` workload.
pub struct ZooFull {
    world: World,
    seed: u64,
    models: Vec<ModelInstance>,
    /// The model currently registered with the daemon.
    live: Option<usize>,
    /// Virtual (checkpoint, restore) time of the first visit to each
    /// model in the traced pass, for the headline cross-check.
    firsts: Vec<Option<(SimDuration, SimDuration)>>,
}

impl RealWorkload for ZooFull {
    const SAMPLE: u64 = 6;
    const ROUND: u64 = 4;

    fn setup(seed: u64) -> ZooFull {
        let specs = specs();
        let largest = specs.iter().map(ModelSpec::total_bytes).max().unwrap_or(0);
        let all: u64 = specs.iter().map(ModelSpec::total_bytes).sum();
        let world = World::start(
            DaemonConfig::default(),
            1,
            2 * largest + (64 << 20),
            all + (64 << 20),
        )
        .expect("zoo-full world starts");
        let models = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                ModelInstance::materialize(
                    spec,
                    &world.gpu,
                    seed ^ k as u64,
                    Materialization::Owned,
                )
                .expect("zoo model fits the GPU")
            })
            .collect();
        ZooFull {
            world,
            seed,
            models,
            live: None,
            firsts: vec![None; specs.len()],
        }
    }

    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn unit(&mut self, i: u64) {
        let k = visit(self.seed, i);
        if let Some(prev) = self.live.take() {
            let name = self.models[prev].spec().name.clone();
            self.world.drop_model(&name);
        }
        let model = &mut self.models[k];
        if !self.world.register(model) {
            return;
        }
        self.live = Some(k);
        self.world.train(model, None);
        let t0 = self.world.ctx.clock.now();
        let saved = self.world.checkpoint(model, true);
        let t1 = self.world.ctx.clock.now();
        self.world.train(model, None);
        let restored = saved && self.world.restore(model);
        let t2 = self.world.ctx.clock.now();
        if restored && self.world.ctx.tracer.is_enabled() && self.firsts[k].is_none() {
            self.firsts[k] = Some((t1.saturating_since(t0), t2.saturating_since(t1)));
        }
    }

    fn user_bytes(&self) -> u64 {
        self.live.map_or(0, |k| self.models[k].spec().total_bytes())
    }

    fn probe_names(&self) -> Vec<String> {
        self.models.iter().map(|m| m.spec().name.clone()).collect()
    }

    fn probe_sample(&self) -> Vec<u8> {
        probe_sample(&self.models, 64 << 20)
    }

    /// Headline cross-check, once the world's memory is back: each
    /// model's virtual checkpoint and restore time in the traced pass
    /// must equal `realplane::portus_times` — the Figs. 11/12 harness —
    /// exactly.
    fn close(self) -> Vec<String> {
        self.world.close();
        drop(self.models);
        let mut errors = Vec::new();
        for (spec, got) in specs().iter().zip(&self.firsts) {
            let Some(got) = got else {
                continue;
            };
            let want = portus_bench::realplane::portus_times(spec);
            if *got != want {
                errors.push(format!(
                    "headline {}: benchmark (ckpt {}, restore {}) != portus_times (ckpt {}, restore {})",
                    spec.name, got.0, got.1, want.0, want.1
                ));
            }
        }
        errors
    }
}

/// Up to `cap` bytes of the models' tensors, concatenated.
pub fn probe_sample(models: &[ModelInstance], cap: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for t in models.iter().flat_map(|m| m.tensors()) {
        if out.len() >= cap {
            break;
        }
        let mut bytes = t.buffer.to_vec();
        bytes.truncate(cap - out.len());
        out.extend_from_slice(&bytes);
    }
    out
}
