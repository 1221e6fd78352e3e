//! Sorted variable-length micro-pages for the on-PMem model catalog.
//!
//! A micro-page is a fixed-size (~4 KiB) PMem region holding a sorted
//! run of `name → offset` entries. Pages are immutable once published:
//! catalog mutations copy-on-write a fresh page and swing a pointer, so
//! a torn write can only corrupt a page nothing references yet. The
//! codec here is deliberately dumb — a 16-byte header followed by
//! length-prefixed entries — because all ordering and directory logic
//! lives above it (`portus-core::catalog`). The one ordering helper is
//! [`cmp_first_key`], the catalog's directory probe: it compares a name
//! with a page's first name from a single 64-byte read of the page.
//! Every header read is checked against the page size, so a flipped
//! count or used-bytes word surfaces as `PmemError::Corrupt` instead of
//! an allocation sized from garbage.
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

use std::cmp::Ordering;

use crate::{typed, PmemDevice, PmemError, PmemResult, Structure};

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
/// Fails with [`PmemError::OutOfBounds`]-style device errors, or
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
        return Err(PmemError::corrupt(
            Structure::MicroPage,
            page_off,
            format!("overflow: {used} bytes of entries into a {page_bytes}-byte page"),
        ));
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

/// Smallest encoded entry: a length prefix, an empty name, an offset.
const MIN_ENTRY: u32 = 10;

/// Bytes [`cmp_first_key`] reads in its first device read: the header
/// plus the first entry's length prefix and up to 46 name bytes.
const PROBE_BYTES: usize = 64;

/// Reads and checks the header of the `page_bytes`-sized page at
/// `page_off`, in one device read: `(count, used)`.
///
/// # Errors
///
/// `PmemError::Corrupt` when the magic does not match (torn or stale
/// page), or when `used` lies outside `16..=page_bytes` or `count`
/// claims more entries than `used` can hold — so no caller ever sizes
/// an allocation from an unchecked word. Plus device bounds errors.
pub fn read_page_header(
    dev: &PmemDevice,
    page_off: u64,
    page_bytes: u64,
) -> PmemResult<(u32, u32)> {
    let mut head = [0u8; PAGE_HEADER as usize];
    dev.read(page_off, &mut head)?;
    let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4-byte word"));
    let (magic, count, used) = (word(0), word(4), word(8));
    if magic != PAGE_MAGIC {
        return Err(PmemError::corrupt(
            Structure::MicroPage,
            page_off,
            format!("bad magic {magic:#x}"),
        ));
    }
    let used_ok = (PAGE_HEADER..=page_bytes).contains(&u64::from(used));
    if !used_ok || count > (used - PAGE_HEADER as u32) / MIN_ENTRY {
        // The count is judged against the used bytes, so a bad used
        // word is the one named.
        return Err(PmemError::corrupt(
            Structure::MicroPage,
            page_off + if used_ok { 4 } else { 8 },
            format!("claims {count} entries in {used} of {page_bytes} bytes"),
        ));
    }
    Ok((count, used))
}

/// Decodes every entry of the `page_bytes`-sized page at `page_off`, in
/// stored order: the header, then one device read of the page's used
/// bytes, decoded from that buffer.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic or header, or an entry that runs
/// past the page's used bytes, plus device bounds errors.
pub fn read_page(
    dev: &PmemDevice,
    page_off: u64,
    page_bytes: u64,
) -> PmemResult<Vec<(String, u64)>> {
    let (count, used) = read_page_header(dev, page_off, page_bytes)?;
    let mut body = vec![0u8; used as usize - PAGE_HEADER as usize];
    dev.read(page_off + PAGE_HEADER, &mut body)?;
    // Names the entry starting `left` bytes before the used end.
    let overrun = |left: usize| {
        PmemError::corrupt(
            Structure::MicroPage,
            page_off + u64::from(used) - left as u64,
            format!("an entry runs past the page's {used} used bytes"),
        )
    };
    let mut rest = &body[..];
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let left = rest.len();
        let (len, tail) = rest.split_first_chunk::<2>().ok_or_else(|| overrun(left))?;
        let (name, tail) = tail
            .split_at_checked(usize::from(u16::from_le_bytes(*len)))
            .ok_or_else(|| overrun(left))?;
        let (off, tail) = tail.split_first_chunk::<8>().ok_or_else(|| overrun(left))?;
        out.push((
            String::from_utf8_lossy(name).into_owned(),
            u64::from_le_bytes(*off),
        ));
        rest = tail;
    }
    Ok(out)
}

/// Compares the first (smallest) name of the page at `page_off` with
/// `name`: the directory probe of the catalog's binary search.
///
/// One device read covers the header and a first name of up to 46
/// bytes; a longer first name whose leading 46 bytes tie with `name`
/// reads its tail in a second read (256-byte stack chunks). Nothing is
/// allocated. An empty page compares below every name.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic or a first entry that overruns
/// the page's used bytes, plus device bounds errors.
pub fn cmp_first_key(dev: &PmemDevice, page_off: u64, name: &str) -> PmemResult<Ordering> {
    let mut head = [0u8; PROBE_BYTES];
    dev.read(page_off, &mut head)?;
    let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4-byte word"));
    if word(0) != PAGE_MAGIC {
        return Err(PmemError::corrupt(
            Structure::MicroPage,
            page_off,
            format!("bad magic {:#x}", word(0)),
        ));
    }
    if word(4) == 0 {
        return Ok(Ordering::Less);
    }
    let start = PAGE_HEADER as usize + 2;
    let len = usize::from(u16::from_le_bytes([head[start - 2], head[start - 1]]));
    if (start + len + 8) as u64 > u64::from(word(8)) {
        return Err(PmemError::corrupt(
            Structure::MicroPage,
            page_off + PAGE_HEADER,
            format!("first name of {len} bytes overruns the page"),
        ));
    }
    let key = name.as_bytes();
    let shared = len.min(key.len());
    let in_head = shared.min(PROBE_BYTES - start);
    match head[start..start + in_head].cmp(&key[..in_head]) {
        Ordering::Equal => {}
        o => return Ok(o),
    }
    let mut chunk = [0u8; 256];
    let mut i = in_head;
    while i < shared {
        let n = (shared - i).min(chunk.len());
        dev.read(page_off + (start + i) as u64, &mut chunk[..n])?;
        match chunk[..n].cmp(&key[i..i + n]) {
            Ordering::Equal => i += n,
            o => return Ok(o),
        }
    }
    Ok(len.cmp(&key.len()))
}

/// Binary-searches the `page_bytes`-sized page at `page_off` for `name`.
///
/// Decodes the page once (one DAX read pass) and searches the decoded
/// run; returns the stored offset when present.
///
/// # Errors
///
/// `PmemError::Corrupt` on a bad magic or header, plus device bounds
/// errors.
pub fn search_page(
    dev: &PmemDevice,
    page_off: u64,
    page_bytes: u64,
    name: &str,
) -> PmemResult<Option<u64>> {
    let entries = read_page(dev, page_off, page_bytes)?;
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
        let (count, used2) = read_page_header(&dev, 4096, 4096).unwrap();
        assert_eq!(count, 50);
        assert_eq!(u64::from(used2), used);
        assert_eq!(read_page(&dev, 4096, 4096).unwrap(), ents);
    }

    #[test]
    fn search_hits_and_misses() {
        let dev = dev();
        let ents = entries(64);
        write_page(&dev, 0, 4096, &ents).unwrap();
        assert_eq!(
            search_page(&dev, 0, 4096, "model-000031").unwrap(),
            Some(1031)
        );
        assert_eq!(search_page(&dev, 0, 4096, "model-999999").unwrap(), None);
        assert_eq!(search_page(&dev, 0, 4096, "").unwrap(), None);
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

    /// The offset a micro-page `Corrupt` error names, if `r` is one.
    fn corrupt_at<T>(r: PmemResult<T>) -> Option<u64> {
        match r {
            Err(PmemError::Corrupt {
                structure: Structure::MicroPage,
                at,
                ..
            }) => Some(at),
            _ => None,
        }
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let dev = dev();
        assert_eq!(corrupt_at(read_page_header(&dev, 512, 4096)), Some(512));
        assert_eq!(corrupt_at(cmp_first_key(&dev, 512, "model")), Some(512));
    }

    #[test]
    fn corrupt_header_words_are_typed_errors() {
        // A flipped count must not size an allocation: decoding such a
        // page once tried to reserve ~64 GiB and aborted the process.
        let page = |at: u64, word: u32| {
            let dev = dev();
            write_page(&dev, 0, 512, &entries(3)).unwrap();
            typed::write_u32(&dev, at, word).unwrap();
            dev
        };
        for (at, word, why) in [
            (4, 0x7FFF_FFFF, "count past what used can hold"),
            (8, 513, "used past the page"),
            (8, 15, "used inside the header"),
        ] {
            let dev = page(at, word);
            assert_eq!(
                corrupt_at(read_page_header(&dev, 0, 512)),
                Some(at),
                "{why}"
            );
            assert_eq!(corrupt_at(read_page(&dev, 0, 512)), Some(at), "{why}");
        }
        // A first name overrunning the used bytes fails the probe too.
        assert_eq!(
            corrupt_at(cmp_first_key(&page(8, 20), 0, "model")),
            Some(PAGE_HEADER)
        );
        // The largest count the used bytes allow is accepted.
        let dev = page(4, 7);
        typed::write_u32(&dev, 8, 16 + 10 * 7).unwrap();
        assert_eq!(read_page_header(&dev, 0, 512).unwrap(), (7, 86));
    }

    #[test]
    fn an_entry_past_the_used_bytes_is_corrupt() {
        // Three 22-byte entries; each forgery below passes the header
        // checks, so only the decode can catch it.
        let forged = |at: u64, bytes: &[u8]| {
            let dev = dev();
            write_page(&dev, 0, 512, &entries(3)).unwrap();
            dev.write(at, bytes).unwrap();
            read_page(&dev, 0, 512)
        };
        // Each error names the offset of the entry that overruns.
        for (at, bytes, entry, why) in [
            (
                8,
                &46u32.to_le_bytes()[..],
                38,
                "used cut inside the second entry",
            ),
            (
                16,
                &u16::MAX.to_le_bytes()[..],
                16,
                "a name length past the page",
            ),
            (8, &81u32.to_le_bytes()[..], 60, "the last offset cut short"),
        ] {
            assert_eq!(corrupt_at(forged(at, bytes)), Some(entry), "{why}");
        }
        assert_eq!(forged(8, &82u32.to_le_bytes()).unwrap(), entries(3));
    }

    #[test]
    fn first_key_probe_orders_names_like_strings() {
        let dev = dev();
        write_page(
            &dev,
            0,
            1024,
            &[("model-b".into(), 1), ("model-c".into(), 2)],
        )
        .unwrap();
        assert_eq!(cmp_first_key(&dev, 0, "model-b").unwrap(), Ordering::Equal);
        assert_eq!(cmp_first_key(&dev, 0, "model-c").unwrap(), Ordering::Less);
        assert_eq!(
            cmp_first_key(&dev, 0, "model-a").unwrap(),
            Ordering::Greater
        );
        // A proper prefix of the first name sorts before it, and the
        // first name sorts before its extensions.
        assert_eq!(cmp_first_key(&dev, 0, "model-").unwrap(), Ordering::Greater);
        assert_eq!(cmp_first_key(&dev, 0, "").unwrap(), Ordering::Greater);
        assert_eq!(cmp_first_key(&dev, 0, "model-b0").unwrap(), Ordering::Less);
        // An empty page compares below every name, the empty one too.
        write_page(&dev, 1024, 1024, &[]).unwrap();
        assert_eq!(cmp_first_key(&dev, 1024, "").unwrap(), Ordering::Less);
        assert_eq!(cmp_first_key(&dev, 1024, "a").unwrap(), Ordering::Less);

        // A 300-byte multibyte first name: every answer below is decided
        // past byte 46, so it needs the tail read.
        let long = format!("tenant-α/{}", "模".repeat(96));
        assert!(long.len() >= 200);
        write_page(&dev, 2048, 1024, &[(long.clone(), 9)]).unwrap();
        let cut = |n: usize| &long.as_bytes()[..n];
        let with_last = |b: u8| {
            let mut v = long.as_bytes().to_vec();
            *v.last_mut().unwrap() = b;
            String::from_utf8_lossy(&v).into_owned()
        };
        assert_eq!(cmp_first_key(&dev, 2048, &long).unwrap(), Ordering::Equal);
        let prefix = std::str::from_utf8(cut(long.len() - 3)).unwrap();
        assert_eq!(
            cmp_first_key(&dev, 2048, prefix).unwrap(),
            Ordering::Greater
        );
        assert_eq!(
            cmp_first_key(&dev, 2048, &format!("{long}!")).unwrap(),
            Ordering::Less
        );
        // The last byte of '模' is 0xA1: 0x80 sorts below, 0xBF above.
        assert_eq!(
            cmp_first_key(&dev, 2048, &with_last(0x80)).unwrap(),
            Ordering::Greater
        );
        assert_eq!(
            cmp_first_key(&dev, 2048, &with_last(0xBF)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            cmp_first_key(&dev, 2048, "tenant-α/").unwrap(),
            Ordering::Greater
        );
    }
}
