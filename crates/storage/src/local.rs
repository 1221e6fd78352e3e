//! Local file system: ext4 on NVMe.

use std::collections::HashMap;

use parking_lot::RwLock;
use portus_sim::{SimContext, SimDuration};

use crate::{FileBackend, ReadBreakdown, StorageError, StorageResult, WriteBreakdown};

/// In-memory file store behind [`Ext4Nvme`].
#[derive(Debug, Default)]
struct FileStore {
    files: RwLock<HashMap<String, Vec<u8>>>,
    used: RwLock<u64>,
}

impl FileStore {
    fn insert(&self, path: &str, data: Vec<u8>, capacity: u64) -> StorageResult<()> {
        let mut files = self.files.write();
        let mut used = self.used.write();
        let old = files.get(path).map_or(0, |f| f.len() as u64);
        let new_used = *used - old + data.len() as u64;
        if new_used > capacity {
            return Err(StorageError::NoSpace {
                requested: data.len() as u64,
                free: capacity - (*used - old),
            });
        }
        *used = new_used;
        files.insert(path.to_string(), data);
        Ok(())
    }

    fn get(&self, path: &str) -> StorageResult<Vec<u8>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn remove(&self, path: &str) -> bool {
        let mut files = self.files.write();
        if let Some(data) = files.remove(path) {
            *self.used.write() -= data.len() as u64;
            true
        } else {
            false
        }
    }

    fn size(&self, path: &str) -> Option<u64> {
        self.files.read().get(path).map(|f| f.len() as u64)
    }
}

/// ext4 on a local NVMe SSD (the paper's "ext4-NVMe" baseline): buffered
/// writes through the page cache, block-layer writeback at the device's
/// 2.7 GB/s, O_DIRECT reads on the restore path, and GPUDirect Storage
/// support.
#[derive(Debug)]
pub struct Ext4Nvme {
    ctx: SimContext,
    capacity: u64,
    store: FileStore,
}

impl Ext4Nvme {
    /// Creates a local NVMe file system of `capacity` bytes.
    pub fn new(ctx: SimContext, capacity: u64) -> Ext4Nvme {
        Ext4Nvme {
            ctx,
            capacity,
            store: FileStore::default(),
        }
    }
}

impl FileBackend for Ext4Nvme {
    fn label(&self) -> &'static str {
        "ext4-NVMe"
    }

    fn write_file(&self, path: &str, data: Vec<u8>) -> StorageResult<WriteBreakdown> {
        let len = data.len() as u64;
        let ctx = &self.ctx;
        // Metadata: create/open (path resolution, inode allocation).
        let metadata = ctx.model.ext4_metadata_op() + ctx.model.kernel_crossing();
        ctx.charge(metadata);
        ctx.stats.record_kernel_crossings(1);
        // write(2) + fsync(2): user→page-cache copy, journal/extent
        // overhead, device writeback — 53.7% of the local checkpoint
        // time per Fig. 13.
        let persist = ctx.model.ext4_nvme_write(len) + ctx.model.kernel_crossing() * 2;
        ctx.charge(persist);
        ctx.stats.record_kernel_crossings(2);
        ctx.stats.record_copy(len); // user buffer -> page cache
        self.store.insert(path, data, self.capacity)?;
        Ok(WriteBreakdown {
            metadata,
            transmit: SimDuration::ZERO,
            persist,
        })
    }

    fn read_file(&self, path: &str) -> StorageResult<(Vec<u8>, ReadBreakdown)> {
        let data = self.store.get(path)?;
        let len = data.len() as u64;
        let ctx = &self.ctx;
        let metadata = ctx.model.ext4_metadata_op() + ctx.model.kernel_crossing();
        let media = ctx.model.ext4_nvme_read(len) + ctx.model.kernel_crossing();
        ctx.charge(metadata + media);
        ctx.stats.record_kernel_crossings(2);
        ctx.stats.record_copy(len);
        Ok((
            data,
            ReadBreakdown {
                metadata,
                transmit: SimDuration::ZERO,
                media,
            },
        ))
    }

    fn delete(&self, path: &str) -> bool {
        self.store.remove(path)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        self.store.size(path)
    }

    fn supports_gds(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvme_write_read_round_trips() {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx.clone(), 1 << 30);
        let b = fs.write_file("a.ckpt", vec![7u8; 1 << 20]).unwrap();
        assert!(b.persist > SimDuration::ZERO);
        assert_eq!(b.transmit, SimDuration::ZERO);
        let (data, rb) = fs.read_file("a.ckpt").unwrap();
        assert_eq!(data, vec![7u8; 1 << 20]);
        assert!(rb.media > SimDuration::ZERO);
        assert_eq!(fs.file_size("a.ckpt"), Some(1 << 20));
    }

    #[test]
    fn nvme_effective_write_rate_is_about_1gbps() {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx, 8 << 30);
        let len = 1u64 << 30;
        let b = fs.write_file("big", vec![0u8; len as usize]).unwrap();
        let eff = len as f64 / b.persist.as_secs_f64();
        assert!((0.8e9..1.3e9).contains(&eff), "effective {eff:.3e} B/s");
    }

    #[test]
    fn capacity_is_enforced() {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx, 1024);
        assert!(matches!(
            fs.write_file("too-big", vec![0; 2048]),
            Err(StorageError::NoSpace { .. })
        ));
        // Overwrite accounting: replacing a file frees its old bytes.
        fs.write_file("f", vec![0; 1000]).unwrap();
        fs.write_file("f", vec![0; 1024]).unwrap();
    }

    #[test]
    fn missing_file_errors_and_delete_works() {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx, 1 << 20);
        assert!(matches!(
            fs.read_file("nope"),
            Err(StorageError::NotFound(_))
        ));
        fs.write_file("f", vec![1, 2, 3]).unwrap();
        assert!(fs.delete("f"));
        assert!(!fs.delete("f"));
    }

    #[test]
    fn kernel_crossings_are_counted() {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx.clone(), 1 << 20);
        let before = ctx.stats.snapshot();
        fs.write_file("f", vec![0; 4096]).unwrap();
        let delta = ctx.stats.snapshot().since(&before);
        assert_eq!(delta.kernel_crossings, 3); // open + write + fsync
    }
}
