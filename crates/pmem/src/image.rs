//! Device images: save/load the durable content of a [`PmemDevice`] to a
//! file.
//!
//! `portusctl` operates on these images the way the real tool operates on
//! a `/dev/dax` device: `portusctl view IMAGE` lists the models stored on
//! it, `portusctl dump` extracts a checkpoint. Only *durable* content is
//! imaged — anything still in flight in the simulated cache is lost,
//! exactly like pulling the plug.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use portus_sim::SimContext;

use crate::{PmemDevice, PmemError, PmemMode, PmemResult};

const IMAGE_MAGIC: &[u8; 8] = b"PORTUSPM";
const IMAGE_VERSION: u32 = 1;
const PAGE: usize = 4096;

/// Reads exactly `buf.len()` bytes at image offset `*at`, advancing it.
fn read_at(r: &mut impl Read, at: &mut u64, buf: &mut [u8]) -> PmemResult<()> {
    r.read_exact(buf).map_err(|e| PmemError::ImageIo {
        kind: e.kind(),
        at: *at,
    })?;
    *at += buf.len() as u64;
    Ok(())
}

/// Writes all of `buf` at image offset `*at`, advancing it.
fn write_at(w: &mut impl Write, at: &mut u64, buf: &[u8]) -> PmemResult<()> {
    w.write_all(buf).map_err(|e| PmemError::ImageIo {
        kind: e.kind(),
        at: *at,
    })?;
    *at += buf.len() as u64;
    Ok(())
}

/// Writes the durable pages of `dev` to `path`.
///
/// # Errors
///
/// Returns [`PmemError::ImageIo`] on I/O failure.
pub fn save_image(dev: &PmemDevice, path: &Path) -> PmemResult<()> {
    let pages = dev.durable_pages();
    let mut at = 0;
    let file = File::create(path).map_err(|e| PmemError::ImageIo { kind: e.kind(), at })?;
    let mut w = BufWriter::new(file);
    write_at(&mut w, &mut at, IMAGE_MAGIC)?;
    write_at(&mut w, &mut at, &IMAGE_VERSION.to_le_bytes())?;
    let mode: u8 = match dev.mode() {
        PmemMode::DevDax => 0,
        PmemMode::FsDax => 1,
    };
    write_at(&mut w, &mut at, &[mode])?;
    write_at(&mut w, &mut at, &dev.capacity().to_le_bytes())?;
    write_at(&mut w, &mut at, &(pages.len() as u64).to_le_bytes())?;
    for (idx, content) in pages {
        write_at(&mut w, &mut at, &idx.to_le_bytes())?;
        write_at(&mut w, &mut at, &content[..])?;
    }
    w.flush()
        .map_err(|e| PmemError::ImageIo { kind: e.kind(), at })
}

/// Loads a device image from `path` into a fresh [`PmemDevice`] sharing
/// `ctx`.
///
/// # Errors
///
/// Returns [`PmemError::ImageIo`] on I/O failure (a truncated image
/// fails with `UnexpectedEof` at the offset it ends), and
/// [`PmemError::ImageMagic`], [`PmemError::ImageVersion`] or
/// [`PmemError::ImageMode`] for a malformed header.
pub fn load_image(ctx: SimContext, path: &Path) -> PmemResult<Arc<PmemDevice>> {
    let mut at = 0;
    let file = File::open(path).map_err(|e| PmemError::ImageIo { kind: e.kind(), at })?;
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    read_at(&mut r, &mut at, &mut magic)?;
    if &magic != IMAGE_MAGIC {
        return Err(PmemError::ImageMagic { found: magic });
    }
    let mut u32buf = [0u8; 4];
    read_at(&mut r, &mut at, &mut u32buf)?;
    let version = u32::from_le_bytes(u32buf);
    if version != IMAGE_VERSION {
        return Err(PmemError::ImageVersion { found: version });
    }
    let mut mode_buf = [0u8; 1];
    read_at(&mut r, &mut at, &mut mode_buf)?;
    let mode = match mode_buf[0] {
        0 => PmemMode::DevDax,
        1 => PmemMode::FsDax,
        found => return Err(PmemError::ImageMode { found }),
    };
    let mut u64buf = [0u8; 8];
    read_at(&mut r, &mut at, &mut u64buf)?;
    let capacity = u64::from_le_bytes(u64buf);
    read_at(&mut r, &mut at, &mut u64buf)?;
    let n_pages = u64::from_le_bytes(u64buf);

    let dev = PmemDevice::new(ctx, mode, capacity);
    let mut pages = Vec::with_capacity(n_pages as usize);
    for _ in 0..n_pages {
        read_at(&mut r, &mut at, &mut u64buf)?;
        let idx = u64::from_le_bytes(u64buf);
        let mut content = Box::new([0u8; PAGE]);
        read_at(&mut r, &mut at, &mut content[..])?;
        pages.push((idx, content));
    }
    dev.restore_pages(pages);
    Ok(dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_round_trips_durable_content_only() {
        let dir = std::env::temp_dir().join("portus-pmem-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.img");

        let ctx = SimContext::icdcs24();
        let dev = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 30);
        dev.write(8192, b"durable data").unwrap();
        dev.persist(8192, 12).unwrap();
        dev.write(0, b"volatile").unwrap(); // never persisted

        save_image(&dev, &path).unwrap();
        let loaded = load_image(ctx, &path).unwrap();
        assert_eq!(loaded.capacity(), 1 << 30);
        assert_eq!(loaded.mode(), PmemMode::DevDax);

        let mut out = [0u8; 12];
        loaded.read(8192, &mut out).unwrap();
        assert_eq!(&out, b"durable data");
        let mut lost = [0u8; 8];
        loaded.read(0, &mut lost).unwrap();
        assert_eq!(lost, [0u8; 8], "volatile content must not be imaged");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join("portus-pmem-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.img");
        std::fs::write(&path, b"not an image at all").unwrap();
        assert_eq!(
            load_image(SimContext::icdcs24(), &path).unwrap_err(),
            PmemError::ImageMagic {
                found: *b"not an i"
            }
        );
        std::fs::remove_file(&path).ok();
    }

    /// A bad version or mode byte, and a truncated image, fail with
    /// their own variants; the truncation names the offset it ends at.
    #[test]
    fn malformed_headers_and_truncation_are_typed() {
        let dir = std::env::temp_dir().join("portus-pmem-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.img");
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::FsDax, 1 << 20);
        dev.write(0, b"page").unwrap();
        dev.persist(0, 4).unwrap();
        save_image(&dev, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Header: magic 0..8, version 8..12, mode 12, capacity 13..21,
        // page count 21..29, then one (index, 4 KiB page) pair.
        assert_eq!(good.len(), 29 + 8 + PAGE);
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            load_image(SimContext::icdcs24(), &path).unwrap_err()
        };
        let mut bad = good.clone();
        bad[8] = 9;
        assert_eq!(load(&bad), PmemError::ImageVersion { found: 9 });
        let mut bad = good.clone();
        bad[12] = 7;
        assert_eq!(load(&bad), PmemError::ImageMode { found: 7 });
        assert_eq!(
            load(&good[..good.len() - 1]),
            PmemError::ImageIo {
                kind: std::io::ErrorKind::UnexpectedEof,
                at: 37
            }
        );
        std::fs::remove_file(&path).ok();
    }
}
