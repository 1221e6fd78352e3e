//! Optimizer state expansion.
//!
//! A checkpoint holds "parameters and optimizer states" (§I). The
//! paper's measured sizes correspond to fp32 parameters alone, so the
//! default checkpoint content is [`CheckpointContent::WeightsOnly`]; the
//! Adam/SGD-momentum expansions are provided for the multi-tenant and
//! extension experiments.

use serde::{Deserialize, Serialize};

use crate::{ModelSpec, TensorMeta};

/// Which optimizer a training job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD: no extra state.
    Sgd,
    /// SGD with momentum: one extra tensor per parameter.
    SgdMomentum,
    /// Adam: two extra tensors per parameter (first/second moments).
    Adam,
}

impl OptimizerKind {
    /// Extra state tensors per parameter tensor.
    pub fn state_tensors_per_param(self) -> usize {
        match self {
            OptimizerKind::Sgd => 0,
            OptimizerKind::SgdMomentum => 1,
            OptimizerKind::Adam => 2,
        }
    }

    /// Suffixes of the extra state tensors.
    pub fn state_suffixes(self) -> &'static [&'static str] {
        match self {
            OptimizerKind::Sgd => &[],
            OptimizerKind::SgdMomentum => &["momentum"],
            OptimizerKind::Adam => &["exp_avg", "exp_avg_sq"],
        }
    }
}

/// What a checkpoint contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CheckpointContent {
    /// fp32 weights only — matches every size the paper reports.
    WeightsOnly,
    /// Weights plus optimizer state for the given optimizer.
    WithOptimizer(OptimizerKind),
}

impl CheckpointContent {
    /// Expands `spec` into the tensor list actually checkpointed.
    pub fn expand(self, spec: &ModelSpec) -> ModelSpec {
        match self {
            CheckpointContent::WeightsOnly => spec.clone(),
            CheckpointContent::WithOptimizer(opt) => {
                let mut tensors =
                    Vec::with_capacity(spec.tensors.len() * (1 + opt.state_tensors_per_param()));
                for t in &spec.tensors {
                    tensors.push(t.clone());
                    for suffix in opt.state_suffixes() {
                        tensors.push(TensorMeta::new(
                            format!("{}.{suffix}", t.name),
                            t.dtype,
                            t.shape.clone(),
                        ));
                    }
                }
                ModelSpec::new(spec.name.clone(), tensors)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_spec;

    #[test]
    fn weights_only_is_identity() {
        let spec = test_spec("m", 3, 256);
        let out = CheckpointContent::WeightsOnly.expand(&spec);
        assert_eq!(out, spec);
    }

    #[test]
    fn adam_triples_the_payload() {
        let spec = test_spec("m", 3, 256);
        let content = CheckpointContent::WithOptimizer(OptimizerKind::Adam);
        let out = content.expand(&spec);
        assert_eq!(out.layer_count(), 9);
        assert_eq!(out.total_bytes(), spec.total_bytes() * 3);
        assert!(out.tensors[1].name.ends_with("exp_avg"));
        assert!(out.tensors[2].name.ends_with("exp_avg_sq"));
    }

    #[test]
    fn momentum_doubles_the_payload() {
        let spec = test_spec("m", 2, 128);
        let out = CheckpointContent::WithOptimizer(OptimizerKind::SgdMomentum).expand(&spec);
        assert_eq!(out.total_bytes(), spec.total_bytes() * 2);
    }
}
