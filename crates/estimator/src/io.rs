//! Binary persistence for trained estimators.
//!
//! OmniBoost's selling point is "train once, schedule forever": the
//! design-time artefact (embedding tensor + CNN weights + target
//! transform) must outlive the process. This module serializes the whole
//! [`CnnEstimator`] into a small versioned binary blob (a few hundred
//! KiB) and back.

use crate::estimator::CnnEstimator;
use crate::model::ActivationKind;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

const MAGIC: u32 = 0x0B00_57E5;
const VERSION: u16 = 1;

/// Errors produced while loading a persisted design-time artefact (an
/// estimator blob or an evaluation-cache snapshot).
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The blob is not an estimator file or is truncated/corrupt.
    Corrupt(&'static str),
    /// The blob was written by an incompatible format version.
    Version(u16),
    /// A persisted evaluation cache belongs to different hardware: its
    /// recorded board fingerprint does not match the board it is being
    /// loaded for. Serving daemons treat this as "start cold", not as
    /// corruption.
    BoardMismatch {
        /// Fingerprint of the board the cache is being loaded for.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error reading estimator: {e}"),
            LoadError::Corrupt(what) => write!(f, "corrupt estimator blob: {what}"),
            LoadError::Version(v) => write!(f, "unsupported estimator format version {v}"),
            LoadError::BoardMismatch { expected, found } => write!(
                f,
                "persisted cache was collected on different hardware \
                 (board fingerprint {found:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, LoadError> {
    if buf.remaining() < 4 {
        return Err(LoadError::Corrupt("string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(LoadError::Corrupt("string body"));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| LoadError::Corrupt("string utf-8"))
}

fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    buf.put_u64_le(values.len() as u64);
    for v in values {
        buf.put_f32_le(*v);
    }
}

fn get_f32s(buf: &mut Bytes) -> Result<Vec<f32>, LoadError> {
    if buf.remaining() < 8 {
        return Err(LoadError::Corrupt("f32 array length"));
    }
    let len = buf.get_u64_le() as usize;
    if len
        .checked_mul(4)
        .is_none_or(|bytes| buf.remaining() < bytes)
    {
        return Err(LoadError::Corrupt("f32 array body"));
    }
    Ok((0..len).map(|_| buf.get_f32_le()).collect())
}

impl CnnEstimator {
    /// Serializes the estimator into a binary blob.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(256 * 1024);
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);

        // Embedding tensor.
        let emb = self.embedding();
        buf.put_u32_le(emb.num_models() as u32);
        buf.put_u32_le(emb.max_layers() as u32);
        buf.put_f64_le(emb.scale_ms());
        for row in 0..emb.num_models() {
            put_string(&mut buf, emb.model_name_of(row));
            buf.put_u32_le(emb.layer_count(row) as u32);
        }
        put_f32s(&mut buf, emb.raw_values());

        // Target transform.
        put_f32s(&mut buf, &self.transform_arrays().concat());

        // Network: activation tag + parameter snapshot.
        buf.put_u8(activation_tag(self.activation()));
        let snapshot = self.export_net_params();
        buf.put_u32_le(snapshot.len() as u32);
        for t in &snapshot {
            buf.put_u32_le(t.shape().len() as u32);
            for d in t.shape() {
                buf.put_u32_le(*d as u32);
            }
            put_f32s(&mut buf, t.data());
        }
        buf.freeze()
    }

    /// Reconstructs an estimator from [`CnnEstimator::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on corrupt or version-mismatched blobs.
    pub fn from_bytes(mut blob: Bytes) -> Result<Self, LoadError> {
        if blob.remaining() < 6 {
            return Err(LoadError::Corrupt("header"));
        }
        if blob.get_u32_le() != MAGIC {
            return Err(LoadError::Corrupt("magic"));
        }
        let version = blob.get_u16_le();
        if version != VERSION {
            return Err(LoadError::Version(version));
        }
        let buf = &mut blob;
        if buf.remaining() < 16 {
            return Err(LoadError::Corrupt("embedding header"));
        }
        let num_models = buf.get_u32_le() as usize;
        let max_layers = buf.get_u32_le() as usize;
        let scale_ms = buf.get_f64_le();
        // Pre-allocate no more than the remaining bytes can hold: a model
        // takes at least 8 (name length + layer count), a tensor at least
        // 12 (rank + data length). A hostile count then fails on the
        // bytes, not on the allocator.
        let models_cap = num_models.min(buf.remaining() / 8);
        let mut names = Vec::with_capacity(models_cap);
        let mut counts = Vec::with_capacity(models_cap);
        for _ in 0..num_models {
            names.push(get_string(buf)?);
            if buf.remaining() < 4 {
                return Err(LoadError::Corrupt("layer count"));
            }
            counts.push(buf.get_u32_le() as usize);
        }
        let values = get_f32s(buf)?;
        if values.len() != 3 * num_models * max_layers {
            return Err(LoadError::Corrupt("embedding values"));
        }

        // Shape validation (exactly 4×3 values) lives in
        // `CnnEstimator::rebuild`, the single choke point every loader
        // goes through.
        let transform_flat = get_f32s(buf)?;

        if buf.remaining() < 5 {
            return Err(LoadError::Corrupt("network header"));
        }
        let activation = activation_from_tag(buf.get_u8())?;
        let n_params = buf.get_u32_le() as usize;
        let mut snapshot = Vec::with_capacity(n_params.min(buf.remaining() / 12));
        for _ in 0..n_params {
            if buf.remaining() < 4 {
                return Err(LoadError::Corrupt("tensor rank"));
            }
            let rank = buf.get_u32_le() as usize;
            if buf.remaining() < rank * 4 {
                return Err(LoadError::Corrupt("tensor shape"));
            }
            let shape: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
            let data = get_f32s(buf)?;
            let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if numel != Some(data.len()) {
                return Err(LoadError::Corrupt("tensor data"));
            }
            snapshot.push(omniboost_tensor::Tensor::from_vec(data, &shape));
        }

        CnnEstimator::rebuild(
            names,
            counts,
            max_layers,
            scale_ms,
            values,
            transform_flat,
            activation,
            snapshot,
        )
    }

    /// Writes the estimator to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Loads an estimator previously written by [`CnnEstimator::save`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] for I/O, corruption or version problems.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        let raw = fs::read(path)?;
        Self::from_bytes(Bytes::from(raw))
    }
}

/// Activation tag encoding for the blob.
pub(crate) fn activation_tag(kind: ActivationKind) -> u8 {
    match kind {
        ActivationKind::Gelu => 0,
        ActivationKind::Relu => 1,
    }
}

/// Inverse of [`activation_tag`].
pub(crate) fn activation_from_tag(tag: u8) -> Result<ActivationKind, LoadError> {
    match tag {
        0 => Ok(ActivationKind::Gelu),
        1 => Ok(ActivationKind::Relu),
        _ => Err(LoadError::Corrupt("activation tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::embedding::EmbeddingTensor;
    use crate::model::EstimatorNet;
    use crate::preprocess::TargetTransform;
    use crate::train::TrainConfig;
    use omniboost_hw::{Board, Device, Mapping, NoiseModel, Workload};
    use omniboost_models::{zoo, ModelId};

    fn trained() -> (Board, CnnEstimator) {
        let board = Board::hikey970();
        let dataset = DatasetConfig {
            num_workloads: 24,
            threads: 4,
            ..DatasetConfig::default()
        }
        .generate(&board);
        let (est, _) = CnnEstimator::train(
            &board,
            &dataset,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        (board, est)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (_, est) = trained();
        let blob = est.to_bytes();
        let restored = CnnEstimator::from_bytes(blob).expect("roundtrip");
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::Vgg16]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let a = est.predict(&w, &m).unwrap();
        let b = restored.predict(&w, &m).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_via_filesystem() {
        let (_, est) = trained();
        let dir = std::env::temp_dir().join("omniboost-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("estimator.bin");
        est.save(&path).unwrap();
        let restored = CnnEstimator::load(&path).expect("load");
        let w = Workload::from_ids([ModelId::MobileNet]);
        let m = Mapping::all_on(&w, Device::BigCpu);
        assert_eq!(
            est.predict(&w, &m).unwrap(),
            restored.predict(&w, &m).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Byte offset of the target transform's length field inside a blob
    /// (everything before it is the header + embedding section).
    fn transform_offset(est: &CnnEstimator) -> usize {
        let emb = est.embedding();
        let mut off = 4 + 2; // magic + version
        off += 4 + 4 + 8; // num_models + max_layers + scale_ms
        for row in 0..emb.num_models() {
            off += 4 + emb.model_name_of(row).len() + 4; // name + layer count
        }
        off + 8 + 4 * emb.raw_values().len() // values length + body
    }

    #[test]
    fn truncated_transform_roundtrips_to_corrupt_not_panic() {
        // A persisted blob whose target transform lost one value used to
        // reach `copy_from_slice` on a ragged chunk and panic; it must
        // round-trip to `LoadError::Corrupt` instead.
        let (_, est) = trained();
        let blob = est.to_bytes().to_vec();
        let off = transform_offset(&est);
        let len = u64::from_le_bytes(blob[off..off + 8].try_into().unwrap());
        assert_eq!(len, 12, "blob layout drifted; fix transform_offset");
        let mut bad = blob.clone();
        bad[off..off + 8].copy_from_slice(&11u64.to_le_bytes());
        bad.drain(off + 8..off + 12); // drop one f32; rest stays aligned
        assert!(matches!(
            CnnEstimator::from_bytes(Bytes::from(bad)),
            Err(LoadError::Corrupt("target transform"))
        ));
    }

    #[test]
    fn short_multiple_of_three_transform_is_rejected_not_zero_filled() {
        // 9 values chunk evenly into 3×3, which the old rebuild accepted
        // and silently zero-filled the fourth row with — corrupting
        // predictions instead of failing the load.
        let (_, est) = trained();
        let blob = est.to_bytes().to_vec();
        let off = transform_offset(&est);
        let mut bad = blob.clone();
        bad[off..off + 8].copy_from_slice(&9u64.to_le_bytes());
        bad.drain(off + 8..off + 8 + 12); // drop three f32s
        assert!(matches!(
            CnnEstimator::from_bytes(Bytes::from(bad)),
            Err(LoadError::Corrupt("target transform"))
        ));
        // An oversized transform is equally corrupt: splice 4 extra bytes.
        let mut long = blob;
        long[off..off + 8].copy_from_slice(&13u64.to_le_bytes());
        long.splice(off + 8..off + 8, 0.25f32.to_le_bytes());
        assert!(matches!(
            CnnEstimator::from_bytes(Bytes::from(long)),
            Err(LoadError::Corrupt("target transform"))
        ));
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let (_, est) = trained();
        let blob = est.to_bytes();
        // Wrong magic.
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            CnnEstimator::from_bytes(Bytes::from(bad)),
            Err(LoadError::Corrupt(_))
        ));
        // Truncation.
        let short = blob.slice(0..blob.len() / 2);
        assert!(CnnEstimator::from_bytes(short).is_err());
        // Future version.
        let mut versioned = blob.to_vec();
        versioned[4] = 0xFF;
        assert!(matches!(
            CnnEstimator::from_bytes(Bytes::from(versioned)),
            Err(LoadError::Version(_))
        ));
    }

    /// A blob's header and embedding grid, the model table still to come.
    fn header(num_models: u32, max_layers: u32, scale_ms: f64) -> BytesMut {
        let mut buf = BytesMut::with_capacity(1024);
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(num_models);
        buf.put_u32_le(max_layers);
        buf.put_f64_le(scale_ms);
        buf
    }

    /// A blob that is well-formed up to its parameter tensors: `models`
    /// rows of `layers` layers each in an `M × L` grid, a zero embedding,
    /// a 12-value transform, then `n_params` announced and none present.
    fn up_to_params(grid: (u32, u32), scale_ms: f64, layers: u32, n_params: u32) -> Bytes {
        let (models, max_layers) = grid;
        let mut buf = header(models, max_layers, scale_ms);
        for _ in 0..models {
            put_string(&mut buf, "m");
            buf.put_u32_le(layers);
        }
        put_f32s(&mut buf, &vec![0.0; 3 * (models * max_layers) as usize]);
        put_f32s(&mut buf, &[1.0; 12]);
        buf.put_u8(activation_tag(ActivationKind::Gelu));
        buf.put_u32_le(n_params);
        buf.freeze()
    }

    #[test]
    fn hostile_f32_array_length_is_corrupt_not_an_overflow() {
        // `len * 4` on a length of 2^62 overflowed: a panic in debug, a
        // capacity overflow in release.
        let mut buf = header(0, 0, 1.0);
        buf.put_u64_le(1 << 62);
        assert!(matches!(
            CnnEstimator::from_bytes(buf.freeze()),
            Err(LoadError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_counts_are_corrupt_not_an_abort() {
        // `Vec::with_capacity` on a `u32::MAX` model or tensor count
        // aborted the process.
        let models = header(u32::MAX, 4, 1.0).freeze();
        let tensors = up_to_params((4, 4), 1.0, 4, u32::MAX);
        for blob in [models, tensors] {
            assert!(matches!(
                CnnEstimator::from_bytes(blob),
                Err(LoadError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn hostile_embedding_headers_are_corrupt_not_a_panic() {
        // A grid too small for the network's two poolings panicked in
        // `EstimatorNet::new`; a layer count past the grid or a scale that
        // is not a positive number loaded.
        let cases = [
            (up_to_params((1, 1), 1.0, 1, 0), "embedding grid"),
            (up_to_params((4, 4), 1.0, 5, 0), "layer count table"),
            (up_to_params((4, 4), f64::NAN, 4, 0), "embedding scale"),
            (up_to_params((4, 4), -1.0, 4, 0), "embedding scale"),
            (up_to_params((4, 4), 1.0, 4, 0), "parameter count"),
        ];
        for (blob, want) in cases {
            match CnnEstimator::from_bytes(blob) {
                Err(LoadError::Corrupt(what)) => assert_eq!(what, want),
                Err(other) => panic!("expected Corrupt({want:?}), got {other:?}"),
                Ok(_) => panic!("expected Corrupt({want:?}), the blob loaded"),
            }
        }
    }

    /// An untrained estimator over four models of at most 20 layers: the
    /// real blob layout with a short embedding, so a byte-by-byte sweep
    /// of its header stays cheap.
    fn small_untrained() -> CnnEstimator {
        let models: Vec<_> = [
            ModelId::AlexNet,
            ModelId::ResNet34,
            ModelId::Vgg13,
            ModelId::InceptionV3,
        ]
        .into_iter()
        .map(zoo::build)
        .collect();
        let embedding = EmbeddingTensor::profile(&Board::hikey970(), &models, NoiseModel::none());
        let net = EstimatorNet::new(4, embedding.max_layers(), ActivationKind::Gelu, 7);
        let transform = TargetTransform::fit(&[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]);
        CnnEstimator::from_parts(embedding, net, transform)
    }

    #[test]
    fn torn_headers_fail_closed_at_every_byte() {
        let est = small_untrained();
        let blob = est.to_bytes().to_vec();
        let transform = transform_offset(&est);
        let len = u64::from_le_bytes(blob[transform..transform + 8].try_into().unwrap());
        assert_eq!(len, 12, "blob layout drifted; fix transform_offset");
        // Transform (length + 12 values), activation tag, tensor count.
        let first_tensor = transform + 8 + 48 + 1 + 4;
        let values = transform - 4 * est.embedding().raw_values().len();
        // Bytes that carry values, not structure: the format has no
        // checksum, so flipping one decodes to another value. They are
        // the embedding scale, the embedding's values and the
        // transform's values.
        let is_value = |at: usize| {
            (14..22).contains(&at)
                || (values..transform).contains(&at)
                || (transform + 8..transform + 56).contains(&at)
        };
        let load = |bytes: &[u8]| CnnEstimator::from_bytes(Bytes::from(bytes.to_vec()));
        assert!(load(&blob).is_ok());
        for cut in (0..=first_tensor).chain([blob.len() - 1]) {
            assert!(load(&blob[..cut]).is_err(), "a {cut}-byte prefix loaded");
        }
        for at in 0..first_tensor {
            let mut torn = blob.clone();
            torn[at] ^= 0xFF;
            if load(&torn).is_ok() {
                assert!(is_value(at), "a flipped structural byte at {at} loaded");
            }
        }
    }
}
