//! Model specifications and GPU-resident model instances.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use portus_mem::{GpuDevice, MemResult};

use crate::{DType, GpuTensor, TensorMeta};

/// The static description of a model: an ordered list of named tensors.
/// Fixed for the lifetime of a training job — the property Portus
/// exploits to pre-build the checkpoint structure on PMem (§III-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name (the ModelTable key).
    pub name: String,
    /// Ordered tensors ("layers" in the paper's terminology).
    pub tensors: Vec<TensorMeta>,
}

impl ModelSpec {
    /// Creates a spec from a name and tensor list.
    pub fn new(name: impl Into<String>, tensors: Vec<TensorMeta>) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            tensors,
        }
    }

    /// Number of tensors.
    pub fn layer_count(&self) -> usize {
        self.tensors.len()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> u64 {
        self.tensors.iter().map(TensorMeta::numel).sum()
    }

    /// Total checkpoint payload in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tensors.iter().map(TensorMeta::size_bytes).sum()
    }

    /// A copy of this spec under a new name (used when sharding).
    pub fn renamed(&self, name: impl Into<String>) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            tensors: self.tensors.clone(),
        }
    }
}

/// How an instance's tensor bytes are backed on the simulated GPU. Owned
/// bytes are the one backing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialization {
    /// Real, writable bytes, generated once into the buffer at
    /// allocation.
    Owned,
}

/// A model whose tensors live in (simulated) GPU memory.
///
/// # Examples
///
/// ```
/// use portus_dnn::{test_spec, Materialization, ModelInstance};
/// use portus_mem::GpuDevice;
/// use portus_sim::SimContext;
///
/// let gpu = GpuDevice::new(SimContext::icdcs24(), 0, 1 << 30);
/// let spec = test_spec("mlp", 4, 64 * 1024);
/// let mut model = ModelInstance::materialize(&spec, &gpu, 42, Materialization::Owned)?;
/// assert_eq!(model.tensors().len(), spec.layer_count());
/// let before = model.model_checksum();
/// model.train_step();
/// assert_ne!(model.model_checksum(), before);
/// # Ok::<(), portus_mem::MemError>(())
/// ```
#[derive(Debug)]
pub struct ModelInstance {
    spec: ModelSpec,
    tensors: Vec<GpuTensor>,
    step: u64,
    dirty: Vec<bool>,
}

impl ModelInstance {
    /// Allocates every tensor of `spec` on `gpu`. Tensor `i` gets
    /// deterministic content derived from `seed` and `i`, written once
    /// into owned bytes, 8 per store.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (GPU out of memory). A failed call
    /// gives back every byte of HBM it reserved.
    pub fn materialize(
        spec: &ModelSpec,
        gpu: &Arc<GpuDevice>,
        seed: u64,
        Materialization::Owned: Materialization,
    ) -> MemResult<ModelInstance> {
        let mut tensors = Vec::with_capacity(spec.tensors.len());
        for (i, meta) in spec.tensors.iter().enumerate() {
            let tensor_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let buffer = gpu.alloc_with(meta.size_bytes(), |bytes| {
                fill_deterministic(bytes, tensor_seed)
            });
            match buffer {
                Ok(buffer) => tensors.push(GpuTensor::new(meta.clone(), buffer)),
                Err(e) => {
                    // Give back what this call reserved before failing.
                    for t in &tensors {
                        gpu.free(&t.buffer);
                    }
                    return Err(e);
                }
            }
        }
        let dirty = vec![true; spec.tensors.len()];
        Ok(ModelInstance {
            spec: spec.clone(),
            tensors,
            step: 0,
            dirty,
        })
    }

    /// The static spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The GPU tensors, in spec order.
    pub fn tensors(&self) -> &[GpuTensor] {
        &self.tensors
    }

    /// Training steps applied so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Simulates one parameter update (phase **U** of Fig. 8): mutates a
    /// deterministic slice of every tensor so successive checkpoints
    /// differ verifiably.
    pub fn train_step(&mut self) {
        let all: Vec<usize> = (0..self.tensors.len()).collect();
        self.train_step_sparse(&all);
    }

    /// Simulates a *sparse* parameter update touching only the listed
    /// tensors — the access pattern of embedding-heavy recommendation
    /// models, and what makes incremental (delta) checkpointing pay
    /// off. Out-of-range indices are ignored.
    pub fn train_step_sparse(&mut self, touched: &[usize]) {
        self.step += 1;
        for &i in touched.iter().filter(|&&i| i < self.tensors.len()) {
            self.dirty[i] = true;
            let t = &self.tensors[i];
            // Touch up to 64 bytes at a step-dependent offset.
            let len = t.buffer.len();
            if len == 0 {
                continue;
            }
            let window = 64.min(len);
            let offset =
                (self.step.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (i as u64)) % (len - window + 1);
            let mut patch = [0u8; 64];
            for (j, b) in patch[..window as usize].iter_mut().enumerate() {
                *b = (self.step as u8)
                    .wrapping_add(i as u8)
                    .wrapping_add(j as u8);
            }
            t.buffer
                .write_at(offset, &patch[..window as usize])
                .expect("patch lies inside the tensor");
        }
    }

    /// Which tensors have been updated since the last
    /// [`ModelInstance::take_dirty`] (all `true` after materialization).
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Returns the dirty mask and clears it — call when a checkpoint of
    /// the current state has been taken.
    pub fn take_dirty(&mut self) -> Vec<bool> {
        std::mem::replace(&mut self.dirty, vec![false; self.tensors.len()])
    }

    /// Checksums of every tensor, in spec order.
    pub fn tensor_checksums(&self) -> Vec<u64> {
        self.tensors.iter().map(GpuTensor::checksum).collect()
    }

    /// A combined checksum over all tensors.
    pub fn model_checksum(&self) -> u64 {
        self.tensor_checksums()
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, c| acc.rotate_left(13) ^ c)
    }

    /// Releases the GPU memory accounting for this instance's tensors.
    pub fn release(&self, gpu: &GpuDevice) {
        for t in &self.tensors {
            gpu.free(&t.buffer);
        }
    }
}

/// Writes a tensor's deterministic content: byte `abs` is bits 32..39 of
/// `(seed + abs)·K`, `K = 0x9E37_79B9_7F4A_7C15`. That is `seed·K` plus an
/// additive stride of `K` per byte, so eight lanes `8·K` apart each yield
/// one byte of an 8-byte word per add, with no multiply per byte.
fn fill_deterministic(out: &mut [u8], seed: u64) {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes: [u64; 8] = std::array::from_fn(|j| seed.wrapping_add(j as u64).wrapping_mul(K));
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        let mut w = 0u64;
        for (j, lane) in lanes.iter_mut().enumerate() {
            w |= ((*lane >> 32) & 0xFF) << (8 * j);
            *lane = lane.wrapping_add(K.wrapping_mul(8));
        }
        word.copy_from_slice(&w.to_le_bytes());
    }
    for (b, lane) in words.into_remainder().iter_mut().zip(&lanes) {
        *b = (lane >> 32) as u8;
    }
}

/// Creates a small synthetic spec for tests: `layers` tensors of
/// `bytes_per_layer` bytes each (F32, 1-D).
pub fn test_spec(name: &str, layers: usize, bytes_per_layer: u64) -> ModelSpec {
    assert_eq!(bytes_per_layer % 4, 0, "layer bytes must be f32-aligned");
    let tensors = (0..layers)
        .map(|i| {
            TensorMeta::new(
                format!("{name}.layer{i}.weight"),
                DType::F32,
                vec![bytes_per_layer / 4],
            )
        })
        .collect();
    ModelSpec::new(name, tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_sim::SimContext;

    fn gpu() -> Arc<GpuDevice> {
        GpuDevice::new(SimContext::icdcs24(), 0, 4 << 30)
    }

    #[test]
    fn spec_accounting() {
        let spec = test_spec("m", 10, 4096);
        assert_eq!(spec.layer_count(), 10);
        assert_eq!(spec.total_bytes(), 40960);
        assert_eq!(spec.param_count(), 10240);
    }

    #[test]
    fn owned_instance_is_deterministic() {
        let gpu = gpu();
        let spec = test_spec("m", 4, 1024);
        let a = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
        let b = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
        assert_eq!(a.model_checksum(), b.model_checksum());
        let c = ModelInstance::materialize(&spec, &gpu, 8, Materialization::Owned).unwrap();
        assert_ne!(a.model_checksum(), c.model_checksum());
    }

    #[test]
    fn train_step_changes_content() {
        let gpu = gpu();
        let spec = test_spec("m", 3, 512);
        let mut m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        let before = m.model_checksum();
        m.train_step();
        assert_ne!(m.model_checksum(), before);
        assert_eq!(m.step(), 1);
    }

    /// Pins the materialized bytes: a change to the generator must fail here.
    #[test]
    fn owned_bytes_match_the_per_byte_formula() {
        let gpu = gpu();
        for seed in [0, 7, 0xDEAD_BEEF, u64::MAX - 3, u64::MAX] {
            for len in [0u64, 1, 7, 8, 4095, 4097, 100_003] {
                let spec = ModelSpec::new(
                    "m",
                    (0..2)
                        .map(|i| TensorMeta::new(format!("t{i}"), DType::U8, vec![len]))
                        .collect(),
                );
                let m =
                    ModelInstance::materialize(&spec, &gpu, seed, Materialization::Owned).unwrap();
                for (i, t) in m.tensors().iter().enumerate() {
                    let tensor_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
                    let expect: Vec<u8> = (0..len)
                        .map(|abs| {
                            (tensor_seed
                                .wrapping_add(abs)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                >> 32) as u8
                        })
                        .collect();
                    assert_eq!(
                        t.buffer.to_vec(),
                        expect,
                        "seed {seed} len {len} tensor {i}"
                    );
                }
                m.release(&gpu);
            }
        }
    }

    #[test]
    fn a_failed_materialize_gives_back_its_reservation() {
        let gpu = GpuDevice::new(SimContext::icdcs24(), 0, 3 * 4096);
        let big = test_spec("big", 2, 8192);
        let err = ModelInstance::materialize(&big, &gpu, 1, Materialization::Owned).unwrap_err();
        assert!(matches!(err, portus_mem::MemError::DeviceFull { .. }));
        assert_eq!(gpu.allocated(), 0);
        let fits = test_spec("fits", 3, 4096);
        let m = ModelInstance::materialize(&fits, &gpu, 1, Materialization::Owned).unwrap();
        assert_eq!(gpu.allocated(), 3 * 4096);
        m.release(&gpu);
    }

    #[test]
    fn release_returns_memory() {
        let gpu = gpu();
        let spec = test_spec("m", 2, 2048);
        let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        assert_eq!(gpu.allocated(), 4096);
        m.release(&gpu);
        assert_eq!(gpu.allocated(), 0);
    }
}
