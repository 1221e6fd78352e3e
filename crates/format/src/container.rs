//! The checkpoint container format.
//!
//! This is the stand-in for `torch.save`'s pickled container: a tagged
//! binary file holding, per tensor, a metadata header (name, dtype,
//! shape — what "the DNN training framework adds ... to the tensors in
//! each layer", Fig. 3 step 2) followed by the raw payload, with an
//! FNV-1a trailer protecting the whole file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8  "PORTUSCK"
//! version  4
//! name     2+n  (u16 length prefix, UTF-8)
//! count    4  number of tensors
//! per tensor:
//!   name   2+n
//!   dtype  1  (DType::code)
//!   ndim   1
//!   dims   8*ndim
//!   len    8  payload bytes
//!   data   len
//! trailer  8  FNV-1a of everything above
//! ```

use std::io::{self, Read, Write};
use std::sync::Arc;

use portus_dnn::{DType, TensorMeta};
use portus_mem::Buffer;
use portus_sim::hash::Fnv1a;

use crate::{FormatError, FormatResult};

const MAGIC: &[u8; 8] = b"PORTUSCK";
/// Decode-side sanity cap on a single tensor payload (1 TiB).
const MAX_TENSOR_BYTES: u64 = 1 << 40;
const VERSION: u32 = 1;

/// Where a tensor payload comes from during encoding.
#[derive(Debug, Clone)]
pub enum PayloadSource {
    /// Raw bytes already in host memory.
    Bytes(Vec<u8>),
    /// A device buffer, streamed in chunks.
    Buffer(Arc<Buffer>),
}

impl PayloadSource {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            PayloadSource::Bytes(v) => v.len() as u64,
            PayloadSource::Buffer(b) => b.len(),
        }
    }

    /// `true` for empty payloads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One entry to encode: tensor metadata plus its payload.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The tensor's metadata header.
    pub meta: TensorMeta,
    /// The payload.
    pub data: PayloadSource,
}

/// A fully decoded checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// The model name recorded in the container.
    pub model_name: String,
    /// Decoded tensors in file order.
    pub tensors: Vec<(TensorMeta, Vec<u8>)>,
}

impl CheckpointFile {
    /// Total payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.tensors.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Finds a tensor's payload by name.
    pub fn tensor(&self, name: &str) -> Option<&(TensorMeta, Vec<u8>)> {
        self.tensors.iter().find(|(m, _)| m.name == name)
    }
}

/// Hashes what it writes and counts its offset.
struct HashingWriter<W> {
    inner: W,
    hash: Fnv1a,
    pos: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: Fnv1a::new(),
            pos: 0,
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hash.update(buf);
        self.inner.write_all(buf)?;
        self.pos += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Hashes what it reads and counts its offset.
struct HashingReader<R> {
    inner: R,
    hash: Fnv1a,
    pos: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: Fnv1a::new(),
            pos: 0,
        }
    }

    fn read_exact_hashed(&mut self, buf: &mut [u8]) -> FormatResult<()> {
        self.inner.read_exact(buf).map_err(FormatError::from)?;
        self.hash.update(buf);
        self.pos += buf.len() as u64;
        Ok(())
    }
}

fn write_str<W: Write>(w: &mut HashingWriter<W>, s: &str) -> FormatResult<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(FormatError::NameTooLong {
            len: bytes.len(),
            at: w.pos,
        });
    }
    w.write_all(&(bytes.len() as u16).to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Encodes a checkpoint into `w`. Note that a reference `&mut W` also
/// works as the writer.
///
/// # Errors
///
/// I/O errors from the writer, [`FormatError::PayloadSize`] if a
/// payload length disagrees with its metadata,
/// [`FormatError::NameTooLong`] for a name past the u16 prefix, and
/// [`FormatError::PayloadRead`] if a device buffer cannot be read.
pub fn write_checkpoint<W: Write>(
    w: W,
    model_name: &str,
    entries: &[CheckpointEntry],
) -> FormatResult<()> {
    let mut w = HashingWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_str(&mut w, model_name)?;
    w.write_all(&(entries.len() as u32).to_le_bytes())?;
    for e in entries {
        if e.data.len() != e.meta.size_bytes() {
            return Err(FormatError::PayloadSize {
                tensor: e.meta.name.clone(),
                payload: e.data.len(),
                metadata: e.meta.size_bytes(),
                at: w.pos,
            });
        }
        write_str(&mut w, &e.meta.name)?;
        w.write_all(&[e.meta.dtype.code()])?;
        w.write_all(&[e.meta.shape.len() as u8])?;
        for d in &e.meta.shape {
            w.write_all(&d.to_le_bytes())?;
        }
        w.write_all(&e.data.len().to_le_bytes())?;
        match &e.data {
            PayloadSource::Bytes(v) => w.write_all(v)?,
            PayloadSource::Buffer(b) => {
                let mut chunk = [0u8; 64 * 1024];
                let mut pos = 0u64;
                while pos < b.len() {
                    let n = ((b.len() - pos) as usize).min(chunk.len());
                    b.read_at(pos, &mut chunk[..n])
                        .map_err(|source| FormatError::PayloadRead {
                            tensor: e.meta.name.clone(),
                            source,
                        })?;
                    w.write_all(&chunk[..n])?;
                    pos += n as u64;
                }
            }
        }
    }
    let trailer = w.hash.finish();
    w.write_all(&trailer.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Decodes a checkpoint from `r`, verifying the trailer. A `&mut R`
/// also works as the reader.
///
/// # Errors
///
/// One variant per malformed field ([`FormatError::BadMagic`],
/// [`FormatError::UnsupportedVersion`], [`FormatError::BadDtype`],
/// [`FormatError::NameNotUtf8`], [`FormatError::ImplausiblePayload`],
/// [`FormatError::PayloadSize`]), [`FormatError::ChecksumMismatch`] on
/// a corrupt trailer, and I/O errors from the reader.
pub fn read_checkpoint<R: Read>(r: R) -> FormatResult<CheckpointFile> {
    let mut r = HashingReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact_hashed(&mut magic)?;
    if &magic != MAGIC {
        return Err(FormatError::BadMagic { found: magic });
    }
    let mut u32b = [0u8; 4];
    r.read_exact_hashed(&mut u32b)?;
    let version = u32::from_le_bytes(u32b);
    if version != VERSION {
        return Err(FormatError::UnsupportedVersion { found: version });
    }
    let model_name = read_str(&mut r)?;
    r.read_exact_hashed(&mut u32b)?;
    let count = u32::from_le_bytes(u32b);

    // Not preallocated from `count`: a corrupted count must fail on the
    // missing bytes or the checksum, not abort on a huge allocation.
    let mut tensors = Vec::new();
    for _ in 0..count {
        let at = r.pos;
        let name = read_str(&mut r)?;
        let mut byte = [0u8; 1];
        r.read_exact_hashed(&mut byte)?;
        let dtype = DType::from_code(byte[0]).ok_or(FormatError::BadDtype {
            code: byte[0],
            at: r.pos - 1,
        })?;
        r.read_exact_hashed(&mut byte)?;
        let ndim = byte[0] as usize;
        let mut shape = Vec::with_capacity(ndim);
        let mut u64b = [0u8; 8];
        for _ in 0..ndim {
            r.read_exact_hashed(&mut u64b)?;
            shape.push(u64::from_le_bytes(u64b));
        }
        r.read_exact_hashed(&mut u64b)?;
        let len = u64::from_le_bytes(u64b);
        let meta = TensorMeta::new(name, dtype, shape);
        // Sanity cap before any allocation: protects against corrupted
        // headers that happen to keep metadata and length consistent.
        if len > MAX_TENSOR_BYTES {
            return Err(FormatError::ImplausiblePayload {
                tensor: meta.name,
                len,
                at,
            });
        }
        if meta.size_bytes() != len {
            return Err(FormatError::PayloadSize {
                payload: len,
                metadata: meta.size_bytes(),
                tensor: meta.name,
                at,
            });
        }
        let mut data = vec![0u8; len as usize];
        r.read_exact_hashed(&mut data)?;
        tensors.push((meta, data));
    }
    let expected = r.hash.finish();
    let mut trailer = [0u8; 8];
    r.inner
        .read_exact(&mut trailer)
        .map_err(FormatError::from)?;
    let found = u64::from_le_bytes(trailer);
    if found != expected {
        return Err(FormatError::ChecksumMismatch { expected, found });
    }
    Ok(CheckpointFile {
        model_name,
        tensors,
    })
}

fn read_str<R: Read>(r: &mut HashingReader<R>) -> FormatResult<String> {
    let at = r.pos;
    let mut lbuf = [0u8; 2];
    r.read_exact_hashed(&mut lbuf)?;
    let len = u16::from_le_bytes(lbuf) as usize;
    let mut sbuf = vec![0u8; len];
    r.read_exact_hashed(&mut sbuf)?;
    String::from_utf8(sbuf).map_err(|_| FormatError::NameNotUtf8 { at })
}

/// The exact encoded size of a checkpoint with the given entries
/// (headers + payloads + trailer), without encoding it.
pub fn encoded_size(model_name: &str, metas: &[TensorMeta]) -> u64 {
    let mut size = 8 + 4 + 2 + model_name.len() as u64 + 4;
    for m in metas {
        size += 2 + m.name.len() as u64 + 1 + 1 + 8 * m.shape.len() as u64 + 8 + m.size_bytes();
    }
    size + 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_mem::MemorySegment;
    use portus_sim::MemoryKind;

    fn sample_entries() -> Vec<CheckpointEntry> {
        vec![
            CheckpointEntry {
                meta: TensorMeta::new("a.weight", DType::F32, vec![4, 2]),
                data: PayloadSource::Bytes((0..32u8).collect()),
            },
            CheckpointEntry {
                meta: TensorMeta::new("a.bias", DType::F16, vec![3]),
                data: PayloadSource::Bytes(vec![9; 6]),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut out = Vec::new();
        write_checkpoint(&mut out, "toy", &sample_entries()).unwrap();
        let file = read_checkpoint(&out[..]).unwrap();
        assert_eq!(file.model_name, "toy");
        assert_eq!(file.tensors.len(), 2);
        assert_eq!(file.tensors[0].0.name, "a.weight");
        assert_eq!(file.tensors[0].1, (0..32u8).collect::<Vec<_>>());
        assert_eq!(file.tensor("a.bias").unwrap().1, vec![9; 6]);
        assert_eq!(
            out.len() as u64,
            encoded_size(
                "toy",
                &[file.tensors[0].0.clone(), file.tensors[1].0.clone(),]
            )
        );
    }

    #[test]
    fn buffer_payloads_stream() {
        let bytes = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let buf = Buffer::new(MemoryKind::GpuHbm, MemorySegment::from_bytes(bytes));
        let entries = vec![CheckpointEntry {
            meta: TensorMeta::new("big", DType::U8, vec![256 * 1024]),
            data: PayloadSource::Buffer(buf.clone()),
        }];
        let mut out = Vec::new();
        write_checkpoint(&mut out, "m", &entries).unwrap();
        let file = read_checkpoint(&out[..]).unwrap();
        assert_eq!(file.tensors[0].1, buf.to_vec());
    }

    #[test]
    fn corruption_is_detected() {
        let mut out = Vec::new();
        write_checkpoint(&mut out, "toy", &sample_entries()).unwrap();
        // The middle byte lies in a.weight's payload (bytes 57..89).
        let mid = out.len() / 2;
        out[mid] ^= 0xFF;
        assert!(matches!(
            read_checkpoint(&out[..]),
            Err(FormatError::ChecksumMismatch { .. })
        ));
    }

    /// Each malformed header field fails with its own variant, naming
    /// the value found and where. a.weight's entry starts at byte 21:
    /// name prefix 21, dtype 31, ndim 32, dims 33..49, length 49..57.
    #[test]
    fn malformed_fields_are_typed_with_their_offsets() {
        let mut good = Vec::new();
        write_checkpoint(&mut good, "toy", &sample_entries()).unwrap();
        let read_with = |at: usize, bytes: &[u8]| {
            let mut out = good.clone();
            out[at..at + bytes.len()].copy_from_slice(bytes);
            read_checkpoint(&out[..]).unwrap_err()
        };
        assert!(matches!(
            read_with(8, &2u32.to_le_bytes()),
            FormatError::UnsupportedVersion { found: 2 }
        ));
        assert!(matches!(
            read_with(31, &[0xEE]),
            FormatError::BadDtype { code: 0xEE, at: 31 }
        ));
        assert!(matches!(
            read_with(23, &[0xFF]),
            FormatError::NameNotUtf8 { at: 21 }
        ));
        assert!(matches!(
            read_with(49, &31u64.to_le_bytes()),
            FormatError::PayloadSize { ref tensor, payload: 31, metadata: 32, at: 21 }
                if tensor == "a.weight"
        ));
        assert!(matches!(
            read_with(49, &(1u64 << 41).to_le_bytes()),
            FormatError::ImplausiblePayload { ref tensor, len, at: 21 }
                if tensor == "a.weight" && len == 1 << 41
        ));
    }

    #[test]
    fn an_overlong_name_is_rejected_on_encode() {
        let name = "n".repeat(70_000);
        assert!(matches!(
            write_checkpoint(&mut Vec::new(), &name, &[]),
            Err(FormatError::NameTooLong {
                len: 70_000,
                at: 12
            })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let mut out = Vec::new();
        write_checkpoint(&mut out, "toy", &sample_entries()).unwrap();
        out.truncate(out.len() - 3);
        assert!(read_checkpoint(&out[..]).is_err());
    }

    #[test]
    fn size_mismatch_is_rejected_on_encode() {
        let entries = vec![CheckpointEntry {
            meta: TensorMeta::new("w", DType::F32, vec![4]),
            data: PayloadSource::Bytes(vec![0; 3]), // 16 expected
        }];
        let mut out = Vec::new();
        // The entry starts after magic, version, "m" and the count.
        assert!(matches!(
            write_checkpoint(&mut out, "m", &entries),
            Err(FormatError::PayloadSize { ref tensor, payload: 3, metadata: 16, at: 19 })
                if tensor == "w"
        ));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let mut out = Vec::new();
        write_checkpoint(&mut out, "empty", &[]).unwrap();
        let file = read_checkpoint(&out[..]).unwrap();
        assert_eq!(file.model_name, "empty");
        assert!(file.tensors.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            read_checkpoint(&b"NOTACKPT........."[..]),
            Err(FormatError::BadMagic { found }) if &found == b"NOTACKPT"
        ));
    }
}
