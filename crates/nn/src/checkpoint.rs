//! Minimal binary checkpoint format for model parameters.
//!
//! Layout: magic `b"SKYN"`, format version `u32`, parameter count `u32`,
//! then for each parameter its element count (`u32`) followed by the raw
//! little-endian `f32` payload. Parameters are visited in the model's
//! [`Layer::visit_params`] order, so save/load must use structurally
//! identical models.

use crate::Layer;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SKYN";
const VERSION: u32 = 1;

/// Errors produced by checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file is not a SkyNet checkpoint or uses an unknown version.
    BadHeader(String),
    /// The stored tensor inventory does not match the model.
    ModelMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadHeader(d) => write!(f, "bad checkpoint header: {d}"),
            CheckpointError::ModelMismatch(d) => write!(f, "checkpoint/model mismatch: {d}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Snapshots every parameter tensor of `model` as a flat `f32` blob, in
/// [`Layer::visit_params`] order. The building block shared by
/// [`save_params`] and the training checkpoint in `skynet-core`.
pub fn collect_params(model: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut blobs: Vec<Vec<f32>> = Vec::new();
    model.visit_params(&mut |p| blobs.push(p.value.as_slice().to_vec()));
    blobs
}

/// Writes `blobs` (as produced by [`collect_params`] on a structurally
/// identical model) back into `model`'s parameters.
///
/// # Errors
///
/// Returns [`CheckpointError::ModelMismatch`] when the blob inventory
/// (count or per-parameter length) disagrees with the model.
pub fn apply_params(model: &mut dyn Layer, blobs: &[Vec<f32>]) -> Result<(), CheckpointError> {
    let mut idx = 0usize;
    let mut mismatch: Option<String> = None;
    model.visit_params(&mut |p| {
        if mismatch.is_some() {
            return;
        }
        match blobs.get(idx) {
            Some(blob) if blob.len() == p.numel() => {
                p.value.as_mut_slice().copy_from_slice(blob);
            }
            Some(blob) => {
                mismatch = Some(format!(
                    "parameter {idx}: checkpoint has {} values, model expects {}",
                    blob.len(),
                    p.numel()
                ));
            }
            None => {
                mismatch = Some(format!(
                    "checkpoint has {} parameters, model has more",
                    blobs.len()
                ));
            }
        }
        idx += 1;
    });
    if let Some(detail) = mismatch {
        return Err(CheckpointError::ModelMismatch(detail));
    }
    if idx != blobs.len() {
        return Err(CheckpointError::ModelMismatch(format!(
            "checkpoint has {} parameters, model consumed {idx}",
            blobs.len()
        )));
    }
    Ok(())
}

/// Serializes every parameter of `model` to `path`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failures.
pub fn save_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let blobs = collect_params(model);
    let mut file = File::create(path)?;
    file.write_all(MAGIC)?;
    file.write_all(&VERSION.to_le_bytes())?;
    file.write_all(&(blobs.len() as u32).to_le_bytes())?;
    for blob in &blobs {
        file.write_all(&(blob.len() as u32).to_le_bytes())?;
        let mut bytes = Vec::with_capacity(blob.len() * 4);
        for v in blob {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&bytes)?;
    }
    Ok(())
}

/// Restores parameters saved by [`save_params`] into a structurally
/// identical model.
///
/// The header is not trusted: the parameter count and every blob length
/// are checked against the bytes left in the file before anything is
/// allocated, so a corrupt or hostile file fails cleanly instead of
/// asking for gigabytes.
///
/// # Errors
///
/// Returns [`CheckpointError::BadHeader`] for foreign, truncated or
/// inconsistent files and [`CheckpointError::ModelMismatch`] when the
/// parameter inventory disagrees with the model.
pub fn load_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path)?;
    let mut file = Fields(&bytes);
    if file.take(4, "magic")? != MAGIC {
        return Err(CheckpointError::BadHeader("wrong magic bytes".into()));
    }
    let version = file.u32("version")?;
    if version != VERSION as usize {
        return Err(CheckpointError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let count = file.u32("parameter count")?;
    // Every parameter needs at least its 4-byte length field.
    if count > file.0.len() / 4 {
        return Err(CheckpointError::BadHeader(format!(
            "parameter count {count} exceeds the {} bytes left in the file",
            file.0.len()
        )));
    }
    let mut blobs: Vec<Vec<f32>> = Vec::with_capacity(count);
    for i in 0..count {
        let len = file.u32(&format!("parameter {i} length"))?;
        let data = file.take(
            len.saturating_mul(4),
            &format!("parameter {i} ({len} values)"),
        )?;
        blobs.push(
            data.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        );
    }
    apply_params(model, &blobs)
}

/// The unread tail of a checkpoint file; every read is checked against
/// it, so no header field can ask for more than the file holds.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The next `n` bytes, or [`CheckpointError::BadHeader`] naming
    /// `field` when fewer are left.
    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], CheckpointError> {
        if self.0.len() < n {
            return Err(CheckpointError::BadHeader(format!(
                "{field} needs {n} bytes, {} left in the file",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// The next little-endian `u32` field.
    fn u32(&mut self, field: &str) -> Result<usize, CheckpointError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Mode, Sequential};
    use skynet_tensor::{conv::ConvGeometry, rng::SkyRng, Shape, Tensor};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skynet-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = SkyRng::new(0);
        let mut a = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, ConvGeometry::same3x3(), &mut rng)),
            Box::new(Conv2d::pointwise(4, 3, &mut rng)),
        ]);
        let mut rng2 = SkyRng::new(99);
        let mut b = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, ConvGeometry::same3x3(), &mut rng2)),
            Box::new(Conv2d::pointwise(4, 3, &mut rng2)),
        ]);
        let path = tmpfile("roundtrip");
        save_params(&mut a, &path).unwrap();
        load_params(&mut b, &path).unwrap();
        let x = Tensor::ones(Shape::new(1, 2, 4, 4));
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let mut rng = SkyRng::new(0);
        let mut a = Sequential::new(vec![Box::new(Conv2d::pointwise(2, 2, &mut rng))]);
        let mut b = Sequential::new(vec![Box::new(Conv2d::pointwise(2, 3, &mut rng))]);
        let path = tmpfile("mismatch");
        save_params(&mut a, &path).unwrap();
        let err = load_params(&mut b, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::ModelMismatch(_)));
        std::fs::remove_file(path).ok();
    }

    /// Loads `bytes` as a checkpoint into a one-layer model. Every call
    /// must return, never abort on a huge allocation.
    fn load_bytes(name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        let path = tmpfile(name);
        std::fs::write(&path, bytes).unwrap();
        let mut rng = SkyRng::new(0);
        let mut m = Sequential::new(vec![Box::new(Conv2d::pointwise(2, 3, &mut rng))]);
        let res = load_params(&mut m, &path);
        std::fs::remove_file(path).ok();
        res
    }

    fn header(count: u32) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&count.to_le_bytes());
        b
    }

    #[test]
    fn huge_parameter_count_is_a_bad_header() {
        let err = load_bytes("huge-count", &header(u32::MAX)).unwrap_err();
        match err {
            CheckpointError::BadHeader(d) => assert!(d.contains("parameter count"), "{d}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn blob_length_past_eof_is_a_bad_header() {
        let mut b = header(1);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        b.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_bytes("huge-len", &b).unwrap_err();
        match err {
            CheckpointError::BadHeader(d) => assert!(d.contains("parameter 0"), "{d}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_valid_checkpoint_is_an_error() {
        let mut rng = SkyRng::new(0);
        let mut a = Sequential::new(vec![Box::new(Conv2d::pointwise(2, 3, &mut rng))]);
        let path = tmpfile("truncate-src");
        save_params(&mut a, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(load_bytes("truncate-full", &full).is_ok());
        for cut in 0..full.len() {
            assert!(
                load_bytes("truncate", &full[..cut]).is_err(),
                "{cut} of {} bytes loaded",
                full.len()
            );
        }
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = tmpfile("foreign");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let mut rng = SkyRng::new(0);
        let mut m = Sequential::new(vec![Box::new(Conv2d::pointwise(1, 1, &mut rng))]);
        let err = load_params(&mut m, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader(_)));
        std::fs::remove_file(path).ok();
    }
}
