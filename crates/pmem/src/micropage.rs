//! Sorted variable-length micro-pages for the on-PMem model catalog.
//!
//! A micro-page is a fixed-size (~4 KiB) PMem region holding a sorted
//! run of `name → offset` entries. Pages are immutable once published:
//! catalog mutations copy-on-write a fresh page and swing a pointer, so
//! a torn write can only corrupt a page nothing references yet. The
//! codec here is deliberately dumb — a 16-byte header followed by
//! length-prefixed entries — because all ordering and directory logic
//! lives above it (`portus-core::catalog`).
//!
//! Layout (little-endian):
//!
//! ```text
//! +0   u32  magic  "CPGE"
//! +4   u32  entry count
//! +8   u32  used bytes (header included)
//! +12  u32  reserved (zero)
//! +16  entries: [len u16][name bytes][mindex_off u64] ...
//! ```

use crate::{typed, PmemDevice, PmemError, PmemResult};

/// Magic stamped on every catalog micro-page ("CPGE").
pub const PAGE_MAGIC: u32 = 0x4350_4745;

/// Fixed page header size in bytes.
pub const PAGE_HEADER: u64 = 16;

/// Encoded size of one `(name, offset)` entry inside a page.
pub fn entry_encoded_len(name: &str) -> u64 {
    2 + name.len() as u64 + 8
}

/// Splits an ascending entry run into page-sized chunks.
///
/// Each returned chunk fits in `page_bytes` (header included). Entries
/// are not reordered; the caller guarantees sortedness. A single entry
/// larger than a page gets a page of its own — the device write will
/// then fail loudly rather than silently truncate.
pub fn pack_pages(entries: &[(String, u64)], page_bytes: u64) -> Vec<&[(String, u64)]> {
    let mut pages = Vec::new();
    let mut start = 0usize;
    let mut used = PAGE_HEADER;
    for (i, (name, _)) in entries.iter().enumerate() {
        let el = entry_encoded_len(name);
        if i > start && used + el > page_bytes {
            pages.push(&entries[start..i]);
            start = i;
            used = PAGE_HEADER;
        }
        used += el;
    }
    if start < entries.len() {
        pages.push(&entries[start..]);
    }
    pages
}

/// Writes a full page image at `page_off` (volatile until persisted).
///
/// Returns the used byte count. The caller persists the whole region and
/// only then publishes a pointer to it.
///
/// # Errors
///
/// Fails with [`PmemError::Bounds`]-style device errors, or
/// `PmemError::Corrupt` if the entries overflow `page_bytes`.
pub fn write_page(
    dev: &PmemDevice,
    page_off: u64,
    page_bytes: u64,
    entries: &[(String, u64)],
) -> PmemResult<u64> {
    let mut used = PAGE_HEADER;
    for (name, _) in entries {
        used += entry_encoded_len(name);
    }
    if used > page_bytes {
        return Err(PmemError::Corrupt(format!(
            "micro-page overflow: {used} bytes of entries into a {page_bytes}-byte page"
        )));
    }
    typed::write_u32(dev, page_off, PAGE_MAGIC)?;
    typed::write_u32(dev, page_off + 4, entries.len() as u32)?;
    typed::write_u32(dev, page_off + 8, used as u32)?;
    typed::write_u32(dev, page_off + 12, 0)?;
    let mut cur = page_off + PAGE_HEADER;
    for (name, off) in entries {
        cur += typed::write_str(dev, cur, name)?;
        typed::write_u64(dev, cur, *off)?;
        cur += 8;
    }
    Ok(used)
}

/// Reads the header of the page at `page_off`: `(count, used)`.
///
/// # Errors
///
/// `PmemError::Corrupt` when the magic does not match (torn or stale
/// page), plus device bounds errors.
pub fn read_page_header(dev: &PmemDevice, page_off: u64) -> PmemResult<(u32, u32)> {
    let magic = typed::read_u32(dev, page_off)?;
    if magic != PAGE_MAGIC {
        return Err(PmemError::Corrupt(format!(
            "bad micro-page magic {magic:#x} at {page_off:#x}"
        )));
    }
    let count = typed::read_u32(dev, page_off + 4)?;
    let used = typed::read_u32(dev, page_off + 8)?;
    Ok((count, used))
}

/// Decodes every entry of the page at `page_off`, in stored order.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic, plus device bounds errors.
pub fn read_page(dev: &PmemDevice, page_off: u64) -> PmemResult<Vec<(String, u64)>> {
    let (count, _) = read_page_header(dev, page_off)?;
    let mut out = Vec::with_capacity(count as usize);
    let mut cur = page_off + PAGE_HEADER;
    for _ in 0..count {
        let (name, consumed) = typed::read_str(dev, cur)?;
        cur += consumed;
        let off = typed::read_u64(dev, cur)?;
        cur += 8;
        out.push((name, off));
    }
    Ok(out)
}

/// Reads only the first (smallest) key of the page at `page_off`.
///
/// Used by the catalog to resolve derived-key ties without decoding the
/// whole page. Returns `None` for an empty page.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic, plus device bounds errors.
pub fn read_first_key(dev: &PmemDevice, page_off: u64) -> PmemResult<Option<String>> {
    let (count, _) = read_page_header(dev, page_off)?;
    if count == 0 {
        return Ok(None);
    }
    let (name, _) = typed::read_str(dev, page_off + PAGE_HEADER)?;
    Ok(Some(name))
}

/// Binary-searches the page at `page_off` for `name`.
///
/// Decodes the page once (one DAX read pass) and searches the decoded
/// run; returns the stored offset when present.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic, plus device bounds errors.
pub fn search_page(dev: &PmemDevice, page_off: u64, name: &str) -> PmemResult<Option<u64>> {
    let entries = read_page(dev, page_off)?;
    match entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
        Ok(i) => Ok(Some(entries[i].1)),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmemMode;
    use portus_sim::SimContext;

    fn dev() -> std::sync::Arc<PmemDevice> {
        PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20)
    }

    fn entries(n: usize) -> Vec<(String, u64)> {
        (0..n)
            .map(|i| (format!("model-{i:06}"), 1000 + i as u64))
            .collect()
    }

    #[test]
    fn page_round_trips() {
        let dev = dev();
        let ents = entries(50);
        let used = write_page(&dev, 4096, 4096, &ents).unwrap();
        assert!(used <= 4096);
        let (count, used2) = read_page_header(&dev, 4096).unwrap();
        assert_eq!(count, 50);
        assert_eq!(u64::from(used2), used);
        assert_eq!(read_page(&dev, 4096).unwrap(), ents);
        assert_eq!(
            read_first_key(&dev, 4096).unwrap().as_deref(),
            Some("model-000000")
        );
    }

    #[test]
    fn search_hits_and_misses() {
        let dev = dev();
        let ents = entries(64);
        write_page(&dev, 0, 4096, &ents).unwrap();
        assert_eq!(search_page(&dev, 0, "model-000031").unwrap(), Some(1031));
        assert_eq!(search_page(&dev, 0, "model-999999").unwrap(), None);
        assert_eq!(search_page(&dev, 0, "").unwrap(), None);
    }

    #[test]
    fn pack_respects_page_budget() {
        let ents = entries(1000);
        let pages = pack_pages(&ents, 4096);
        assert!(pages.len() > 1);
        let mut total = 0;
        for page in &pages {
            let used: u64 =
                PAGE_HEADER + page.iter().map(|(n, _)| entry_encoded_len(n)).sum::<u64>();
            assert!(used <= 4096, "packed page overflows: {used}");
            total += page.len();
        }
        assert_eq!(total, 1000);
        // Order preserved across page boundaries.
        let flat: Vec<_> = pages.iter().flat_map(|p| p.iter().cloned()).collect();
        assert_eq!(flat, ents);
    }

    #[test]
    fn overflowing_write_is_rejected() {
        let dev = dev();
        let ents = entries(300);
        let err = write_page(&dev, 0, 4096, &ents).unwrap_err();
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let dev = dev();
        assert!(read_page_header(&dev, 512).is_err());
    }
}
