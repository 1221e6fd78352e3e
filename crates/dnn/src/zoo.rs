//! The paper's model zoo.
//!
//! Table II of the paper fixes the seven representative models (layer
//! counts, parameter counts); §V-E fixes the GPT family (1.5 B – 22.4 B
//! parameters, checkpoint sizes 6 GB – 89.6 GB, fp32). The specs
//! generated here match those numbers exactly in parameter count and
//! layer count; per-layer sizes follow a deterministic skewed
//! distribution so that the average layer lands near the ~2.5 MiB the
//! paper reports, with a realistic mix of small bias-like and large
//! embedding-like tensors.

use portus_sim::hash::splitmix64;
use portus_sim::SimDuration;

use crate::{DType, ModelSpec, TensorMeta};

/// A zoo entry: the spec plus the published Table II numbers it must
/// match, and the calibrated training-iteration time used by the
/// end-to-end experiments.
#[derive(Debug, Clone)]
pub struct ModelCard {
    /// The generated spec.
    pub spec: ModelSpec,
    /// Published parameter count (for verification).
    pub published_params: u64,
    /// Published checkpoint size in MiB (for verification).
    pub published_mib: u64,
    /// Calibrated wall time of one training iteration on the paper's
    /// hardware (single GPU for the Table II models, 16×A40 for GPT).
    pub iteration: SimDuration,
}

/// Generates `layers` F32 tensors whose element counts sum exactly to
/// `total_params`, with a deterministic skewed size distribution.
fn synthetic_spec(name: &str, layers: usize, total_params: u64) -> ModelSpec {
    assert!(layers > 0 && total_params >= layers as u64);
    // Skewed weights: squaring a uniform variate gives a long-ish tail
    // (a few embedding-sized tensors, many small ones).
    let weights: Vec<f64> = (0..layers)
        .map(|i| {
            let r = (splitmix64(i as u64 ^ 0xD44_5EED) % 10_000) as f64 / 10_000.0;
            0.05 + r * r * 4.0
        })
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut remaining = total_params;
    let mut tensors = Vec::with_capacity(layers);
    for (i, w) in weights.iter().enumerate() {
        let numel = if i + 1 == layers {
            remaining
        } else {
            let share = ((total_params as f64) * w / wsum).round() as u64;
            share.clamp(1, remaining.saturating_sub((layers - 1 - i) as u64))
        };
        remaining -= numel;
        // Factor into a 2-D shape when cleanly divisible, else 1-D.
        let shape = if numel % 64 == 0 {
            vec![numel / 64, 64]
        } else {
            vec![numel]
        };
        tensors.push(TensorMeta::new(
            format!("{name}.layer{i}.weight"),
            DType::F32,
            shape,
        ));
    }
    ModelSpec::new(name, tensors)
}

#[cfg(test)]
const MIB: u64 = 1 << 20;

macro_rules! zoo_model {
    ($fn_name:ident, $card_fn:ident, $name:literal, $layers:literal,
     $params:literal, $mib:literal, $iter_ms:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> ModelSpec {
            synthetic_spec($name, $layers, $params)
        }

        #[doc = concat!("The zoo card for ", $name, " (spec + published numbers).")]
        pub fn $card_fn() -> ModelCard {
            ModelCard {
                spec: $fn_name(),
                published_params: $params,
                published_mib: $mib,
                iteration: SimDuration::from_millis($iter_ms),
            }
        }
    };
}

zoo_model!(
    alexnet,
    alexnet_card,
    "alexnet",
    16,
    61_100_000,
    233,
    90,
    "AlexNet: 16 layers, 61.1 M params, 233 MiB (Table II)."
);
zoo_model!(
    convnext_base,
    convnext_base_card,
    "convnext_base",
    344,
    88_600_000,
    338,
    210,
    "ConvNeXt-Base: 344 layers, 88.6 M params, 338 MiB (Table II)."
);
zoo_model!(
    resnet50,
    resnet50_card,
    "resnet50",
    161,
    25_600_000,
    97,
    180,
    "ResNet-50: 161 layers, 25.6 M params, 97 MiB (Table II)."
);
zoo_model!(
    swin_b,
    swin_b_card,
    "swin_b",
    329,
    87_800_000,
    335,
    230,
    "Swin-B: 329 layers, 87.8 M params, 335 MiB (Table II)."
);
zoo_model!(
    vgg19_bn,
    vgg19_bn_card,
    "vgg19_bn",
    70,
    143_700_000,
    548,
    240,
    "VGG19-BN: 70 layers, 143.7 M params, 548 MiB (Table II)."
);
zoo_model!(
    vit_l_32,
    vit_l_32_card,
    "vit_l_32",
    296,
    306_500_000,
    1169,
    69,
    "ViT-L/32: 296 layers, 306.5 M params, 1169 MiB (Table II)."
);
zoo_model!(
    bert_large,
    bert_large_card,
    "bert_large",
    396,
    336_200_000,
    1282,
    350,
    "BERT-Large-Uncased: 396 layers, 336.2 M params, 1282 MiB (Table II)."
);

/// All seven Table II models, in the paper's order.
pub fn table2_cards() -> Vec<ModelCard> {
    vec![
        alexnet_card(),
        convnext_base_card(),
        resnet50_card(),
        swin_b_card(),
        vgg19_bn_card(),
        vit_l_32_card(),
        bert_large_card(),
    ]
}

/// Looks a Table II model up by name.
pub fn by_name(name: &str) -> Option<ModelCard> {
    table2_cards().into_iter().find(|c| c.spec.name == name)
}

// ---------------------------------------------------------------------
// The GPT family (§V-E): Megatron-style transformer layouts.
// ---------------------------------------------------------------------

/// Builds a GPT spec with the given transformer geometry. Tensors follow
/// the Megatron layout: token embedding, then per layer QKV / attention
/// output / two MLP projections plus layer norms and biases.
pub fn gpt_with(name: &str, hidden: u64, layers: u64, vocab: u64) -> ModelSpec {
    let h = hidden;
    let mut tensors = Vec::new();
    tensors.push(TensorMeta::new(
        format!("{name}.embedding.word_embeddings"),
        DType::F32,
        vec![vocab, h],
    ));
    tensors.push(TensorMeta::new(
        format!("{name}.embedding.position_embeddings"),
        DType::F32,
        vec![2048, h],
    ));
    for l in 0..layers {
        let p = format!("{name}.transformer.layer{l}");
        tensors.push(TensorMeta::new(
            format!("{p}.ln1.weight"),
            DType::F32,
            vec![h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.ln1.bias"),
            DType::F32,
            vec![h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.attn.qkv.weight"),
            DType::F32,
            vec![3 * h, h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.attn.qkv.bias"),
            DType::F32,
            vec![3 * h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.attn.out.weight"),
            DType::F32,
            vec![h, h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.attn.out.bias"),
            DType::F32,
            vec![h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.ln2.weight"),
            DType::F32,
            vec![h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.ln2.bias"),
            DType::F32,
            vec![h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.mlp.fc1.weight"),
            DType::F32,
            vec![4 * h, h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.mlp.fc1.bias"),
            DType::F32,
            vec![4 * h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.mlp.fc2.weight"),
            DType::F32,
            vec![h, 4 * h],
        ));
        tensors.push(TensorMeta::new(
            format!("{p}.mlp.fc2.bias"),
            DType::F32,
            vec![h],
        ));
    }
    tensors.push(TensorMeta::new(
        format!("{name}.final_ln.weight"),
        DType::F32,
        vec![h],
    ));
    tensors.push(TensorMeta::new(
        format!("{name}.final_ln.bias"),
        DType::F32,
        vec![h],
    ));
    ModelSpec::new(name, tensors)
}

/// GPT-1.5B (GPT-2 XL geometry): ~6 GB fp32 checkpoint.
pub fn gpt_1_5b() -> ModelSpec {
    gpt_with("gpt-1.5b", 1600, 48, 50_257)
}

/// GPT-4.7B: the family's second point, ~19 GB fp32 checkpoint.
pub fn gpt_4_7b() -> ModelSpec {
    gpt_with("gpt-4.7b", 2880, 46, 50_257)
}

/// GPT-10B: ~40 GB fp32 checkpoint.
pub fn gpt_10b() -> ModelSpec {
    gpt_with("gpt-10b", 4096, 49, 50_257)
}

/// GPT-22.4B: the paper's largest model, 89.6 GB fp32 checkpoint.
pub fn gpt_22b() -> ModelSpec {
    gpt_with("gpt-22.4b", 6144, 49, 50_257)
}

/// Calibrated per-iteration wall time for the GPT family on the paper's
/// 16×A40 Megatron setup (fixed so Fig. 2's overhead shares and
/// Fig. 15's throughput ratio come out).
pub fn gpt_iteration(spec_name: &str) -> SimDuration {
    match spec_name {
        "gpt-1.5b" => SimDuration::from_millis(320),
        "gpt-4.7b" => SimDuration::from_millis(560),
        "gpt-10b" => SimDuration::from_millis(900),
        "gpt-22.4b" => SimDuration::from_millis(1730),
        other => panic!("unknown GPT config {other}"),
    }
}

/// The four GPT scale points of Fig. 14, smallest first.
pub fn gpt_family() -> Vec<ModelSpec> {
    vec![gpt_1_5b(), gpt_4_7b(), gpt_10b(), gpt_22b()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_published_numbers() {
        for card in table2_cards() {
            assert_eq!(
                card.spec.param_count(),
                card.published_params,
                "{} param count",
                card.spec.name
            );
            // fp32 bytes must land on the published MiB (rounded).
            let mib = (card.spec.param_count() * 4 + MIB / 2) / MIB;
            assert!(
                mib.abs_diff(card.published_mib) <= 1,
                "{}: generated {mib} MiB vs published {} MiB",
                card.spec.name,
                card.published_mib
            );
        }
    }

    #[test]
    fn table2_layer_counts_match() {
        let expect = [
            ("alexnet", 16),
            ("convnext_base", 344),
            ("resnet50", 161),
            ("swin_b", 329),
            ("vgg19_bn", 70),
            ("vit_l_32", 296),
            ("bert_large", 396),
        ];
        for (name, layers) in expect {
            assert_eq!(by_name(name).unwrap().spec.layer_count(), layers, "{name}");
        }
    }

    #[test]
    fn specs_are_deterministic() {
        assert_eq!(bert_large(), bert_large());
        assert_eq!(resnet50().total_bytes(), resnet50().total_bytes());
    }

    #[test]
    fn average_layer_is_megabyte_scale() {
        // §V-B: "the average size of a model layer is around 2.5 MiB".
        let cards = table2_cards();
        let (sum, n) = cards.iter().fold((0u64, 0usize), |(s, n), c| {
            (s + c.spec.total_bytes(), n + c.spec.layer_count())
        });
        let avg = sum as f64 / n as f64 / MIB as f64;
        assert!((1.0..5.0).contains(&avg), "avg layer {avg:.2} MiB");
    }

    #[test]
    fn gpt_sizes_hit_the_published_range() {
        let gb = |spec: &ModelSpec| spec.total_bytes() as f64 / 1e9;
        assert!((5.5..7.0).contains(&gb(&gpt_1_5b())), "{}", gb(&gpt_1_5b()));
        assert!((38.0..42.0).contains(&gb(&gpt_10b())), "{}", gb(&gpt_10b()));
        // The paper's headline: 89.6 GB for GPT-22.4B.
        let big = gb(&gpt_22b());
        assert!((87.0..92.0).contains(&big), "GPT-22.4B is {big} GB");
        let params = gpt_22b().param_count() as f64 / 1e9;
        assert!((22.0..23.0).contains(&params), "{params}B params");
    }

    #[test]
    fn unknown_model_is_none() {
        assert!(by_name("gpt-j").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown GPT config")]
    fn unknown_gpt_iteration_panics() {
        gpt_iteration("gpt-j");
    }
}
