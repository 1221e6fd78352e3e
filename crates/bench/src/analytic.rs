//! Analytic experiment runners (the GPT-scale workloads of §V-E and
//! the model-zoo sweeps where the full byte movement is unnecessary).

use portus_cluster::ops::{portus_checkpoint_cost, torch_save_cost};
use portus_cluster::{
    mean_utilization, run_training, utilization_trace, Backend, JobShape, Policy, RunResult,
    TrainingConfig, UtilSample,
};
use portus_dnn::{zoo, IterationProfile, ModelSpec};
use portus_sim::{CostModel, SimDuration};
use serde::Serialize;

fn table2_job(spec: &ModelSpec) -> JobShape {
    JobShape::single(spec.total_bytes(), spec.layer_count() as u64)
}

/// The Megatron grid of §V-E: 16 A40s across two nodes.
pub fn gpt_job(spec: &ModelSpec) -> JobShape {
    JobShape {
        total_bytes: spec.total_bytes(),
        tensor_count: spec.layer_count() as u64,
        shards: 16,
        nodes: 2,
    }
}

/// One point of Fig. 14: checkpoint-operation time at a GPT scale.
#[derive(Debug, Clone, Serialize)]
pub struct GptScalePoint {
    /// GPT config name.
    pub model: String,
    /// Parameters (billions).
    pub params_b: f64,
    /// Checkpoint size (GB).
    pub size_gb: f64,
    /// `torch.save` to BeeGFS (s).
    pub torch_save: f64,
    /// Portus (s).
    pub portus: f64,
}

/// Fig. 14: the GPT family sweep.
pub fn fig14_points(m: &CostModel) -> Vec<GptScalePoint> {
    zoo::gpt_family()
        .into_iter()
        .map(|spec| {
            let job = gpt_job(&spec);
            GptScalePoint {
                model: spec.name.clone(),
                params_b: spec.param_count() as f64 / 1e9,
                size_gb: spec.total_bytes() as f64 / 1e9,
                torch_save: torch_save_cost(m, job, Backend::BeegfsPmem)
                    .total()
                    .as_secs_f64(),
                portus: portus_checkpoint_cost(m, job).as_secs_f64(),
            }
        })
        .collect()
}

/// The fine-grained checkpoint interval used by the Fig. 15/16 runs
/// (calibrated; a failure loses at most ~45 s of work on GPT-22.4B).
pub const FIG15_INTERVAL: u32 = 26;

/// The GPT-22.4B training config under a given policy.
pub fn gpt22_config(policy: Policy) -> TrainingConfig {
    let spec = zoo::gpt_22b();
    TrainingConfig {
        job: gpt_job(&spec),
        profile: IterationProfile::from_total(zoo::gpt_iteration(&spec.name)),
        policy,
    }
}

/// Fig. 15: end-to-end GPT-22.4B training under CheckFreq vs Portus.
pub fn fig15_runs(m: &CostModel, iterations: u64) -> Vec<(String, RunResult)> {
    [
        Policy::CheckFreq {
            every: FIG15_INTERVAL,
            backend: Backend::BeegfsPmem,
        },
        Policy::PortusSync {
            every: FIG15_INTERVAL,
        },
        Policy::PortusAsync {
            every: FIG15_INTERVAL,
        },
    ]
    .into_iter()
    .map(|p| {
        (
            p.label().to_string(),
            run_training(m, &gpt22_config(p), iterations),
        )
    })
    .collect()
}

/// Fig. 16: the 500-second GPU-utilization traces (10 s windows).
pub fn fig16_traces(m: &CostModel) -> Vec<(String, Vec<UtilSample>, f64)> {
    let horizon = SimDuration::from_secs(500);
    let window = SimDuration::from_secs(10);
    [
        Policy::CheckFreq {
            every: FIG15_INTERVAL,
            backend: Backend::BeegfsPmem,
        },
        Policy::PortusAsync {
            every: FIG15_INTERVAL,
        },
    ]
    .into_iter()
    .map(|p| {
        let run = run_training(m, &gpt22_config(p), 2000);
        let trace = utilization_trace(&run.segments, window, horizon);
        let avg = mean_utilization(&trace);
        (p.label().to_string(), trace, avg)
    })
    .collect()
}

/// One row of Fig. 2: checkpoint overhead share of training time.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Model name.
    pub model: String,
    /// Checkpoint interval (iterations), per CheckFreq's policy.
    pub every: u32,
    /// Share of training time spent checkpointing, 0–1.
    pub share: f64,
}

/// Fig. 2: checkpoint overhead for ViT, GPT-10B and GPT-22.4B with the
/// existing (torch.save-to-BeeGFS) stack at CheckFreq's frequencies.
pub fn fig2_rows(m: &CostModel) -> Vec<OverheadRow> {
    let vit = zoo::vit_l_32_card();
    let cases: Vec<(String, JobShape, IterationProfile, u32)> = vec![
        (
            vit.spec.name.clone(),
            table2_job(&vit.spec),
            IterationProfile::from_total(vit.iteration),
            83,
        ),
        (
            "gpt-10b".into(),
            gpt_job(&zoo::gpt_10b()),
            IterationProfile::from_total(zoo::gpt_iteration("gpt-10b")),
            100,
        ),
        (
            "gpt-22.4b".into(),
            gpt_job(&zoo::gpt_22b()),
            IterationProfile::from_total(zoo::gpt_iteration("gpt-22.4b")),
            100,
        ),
    ];
    cases
        .into_iter()
        .map(|(model, job, profile, every)| {
            let cfg = TrainingConfig {
                job,
                profile,
                policy: Policy::TorchSave {
                    every,
                    backend: Backend::BeegfsPmem,
                },
            };
            let run = run_training(m, &cfg, 5 * every as u64);
            OverheadRow {
                model,
                every,
                share: run.checkpoint_share(),
            }
        })
        .collect()
}

/// Table I (analytic): the four-way split of the baseline BERT
/// checkpoint on BeeGFS-PMem.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Shares {
    /// GPU→DRAM share (paper: 15.5 %).
    pub gpu_to_dram: f64,
    /// Serialization share (paper: 41.7 %).
    pub serialization: f64,
    /// RDMA transmission share (paper: 30.0 %).
    pub transmission: f64,
    /// Server DAX-write share (paper: 12.8 %).
    pub dax_write: f64,
}

/// Computes Table I's shares from a measured breakdown.
pub fn table1_shares(
    snapshot: SimDuration,
    serialize: SimDuration,
    transmit: SimDuration,
    media: SimDuration,
) -> Table1Shares {
    let total = (snapshot + serialize + transmit + media).as_secs_f64();
    Table1Shares {
        gpu_to_dram: snapshot.as_secs_f64() / total,
        serialization: serialize.as_secs_f64() / total,
        transmission: transmit.as_secs_f64() / total,
        dax_write: media.as_secs_f64() / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shares_span_the_published_band() {
        let m = CostModel::icdcs24();
        let rows = fig2_rows(&m);
        // Paper: "at least 24.9%" (ViT) ... "up to 41%" (GPT-22.4B).
        assert!(
            (0.22..0.30).contains(&rows[0].share),
            "vit {:.3}",
            rows[0].share
        );
        assert!(
            (0.36..0.45).contains(&rows[2].share),
            "gpt22 {:.3}",
            rows[2].share
        );
        assert!(rows[0].share < rows[1].share && rows[1].share < rows[2].share);
    }

    #[test]
    fn fig14_scales_with_model_size() {
        let m = CostModel::icdcs24();
        let pts = fig14_points(&m);
        assert_eq!(pts.len(), 4);
        assert!(pts.windows(2).all(|w| w[0].torch_save < w[1].torch_save));
        assert!(pts[3].torch_save > 120.0);
        assert!((13.0..17.0).contains(&pts[3].portus));
    }

    #[test]
    fn fig16_average_utilizations() {
        let m = CostModel::icdcs24();
        let traces = fig16_traces(&m);
        let cf = traces.iter().find(|(l, _, _)| l == "CheckFreq").unwrap();
        let pa = traces.iter().find(|(l, _, _)| l == "Portus-async").unwrap();
        assert!((0.72..0.80).contains(&pa.2), "portus util {:.3}", pa.2);
        assert!(cf.2 < 0.43, "checkfreq util {:.3}", cf.2);
    }
}
