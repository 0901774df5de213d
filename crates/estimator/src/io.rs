//! Binary persistence for trained estimators.
//!
//! OmniBoost's selling point is "train once, schedule forever": the
//! design-time artefact (embedding tensor + CNN weights + target
//! transform) must outlive the process. This module serializes the whole
//! [`CnnEstimator`] into a small versioned binary blob (a few hundred
//! KiB) and back.

use crate::estimator::CnnEstimator;
use crate::model::ActivationKind;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

const MAGIC: u32 = 0x0B00_57E5;
/// 2 since a ReLU network's residual blocks are ReLU too: under 1 they
/// were GELU, so a version-1 ReLU blob would load as another network.
const VERSION: u16 = 2;

/// Errors produced while loading a persisted estimator blob.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The blob is not an estimator file or is truncated/corrupt.
    Corrupt(&'static str),
    /// The blob was written by an incompatible format version.
    Version(u16),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error reading estimator: {e}"),
            LoadError::Corrupt(what) => write!(f, "corrupt estimator blob: {what}"),
            LoadError::Version(v) => write!(f, "unsupported estimator format version {v}"),
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

/// A little-endian read cursor over a blob. Every read names the field
/// it fails on when the blob runs out.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], LoadError> {
        if self.0.len() < n {
            return Err(LoadError::Corrupt(what));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], LoadError> {
        Ok(self.take(N, what)?.try_into().expect("took N bytes"))
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, LoadError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, LoadError> {
        self.array(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, LoadError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, LoadError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, LoadError> {
        self.array(what).map(f64::from_le_bytes)
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut Reader) -> Result<String, LoadError> {
    let len = buf.u32("string length")? as usize;
    let raw = buf.take(len, "string body")?;
    String::from_utf8(raw.to_vec()).map_err(|_| LoadError::Corrupt("string utf-8"))
}

fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_f32s(buf: &mut Reader) -> Result<Vec<f32>, LoadError> {
    let len = buf.u64("f32 array length")? as usize;
    let bytes = len
        .checked_mul(4)
        .ok_or(LoadError::Corrupt("f32 array body"))?;
    let body = buf.take(bytes, "f32 array body")?;
    Ok(body
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect())
}

impl CnnEstimator {
    /// Serializes the estimator into a binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 * 1024);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());

        // Embedding tensor.
        let emb = self.embedding();
        buf.extend_from_slice(&(emb.num_models() as u32).to_le_bytes());
        buf.extend_from_slice(&(emb.max_layers() as u32).to_le_bytes());
        buf.extend_from_slice(&emb.scale_ms().to_le_bytes());
        for row in 0..emb.num_models() {
            put_string(&mut buf, emb.model_name_of(row));
            buf.extend_from_slice(&(emb.layer_count(row) as u32).to_le_bytes());
        }
        put_f32s(&mut buf, emb.raw_values());

        // Target transform.
        put_f32s(&mut buf, &self.transform_arrays().concat());

        // Network: activation tag + parameter snapshot.
        buf.push(activation_tag(self.activation()));
        let snapshot = self.export_net_params();
        buf.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        for t in &snapshot {
            buf.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
            for d in t.shape() {
                buf.extend_from_slice(&(*d as u32).to_le_bytes());
            }
            put_f32s(&mut buf, t.data());
        }
        buf
    }

    /// Reconstructs an estimator from [`CnnEstimator::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on corrupt or version-mismatched blobs.
    pub fn from_bytes(blob: impl AsRef<[u8]>) -> Result<Self, LoadError> {
        let buf = &mut Reader(blob.as_ref());
        if buf.remaining() < 6 {
            return Err(LoadError::Corrupt("header"));
        }
        if buf.u32("header")? != MAGIC {
            return Err(LoadError::Corrupt("magic"));
        }
        let version = buf.u16("header")?;
        if version != VERSION {
            return Err(LoadError::Version(version));
        }
        if buf.remaining() < 16 {
            return Err(LoadError::Corrupt("embedding header"));
        }
        let num_models = buf.u32("embedding header")? as usize;
        let max_layers = buf.u32("embedding header")? as usize;
        let scale_ms = buf.f64("embedding header")?;
        // Pre-allocate no more than the remaining bytes can hold: a model
        // takes at least 8 (name length + layer count), a tensor at least
        // 12 (rank + data length). A hostile count then fails on the
        // bytes, not on the allocator.
        let models_cap = num_models.min(buf.remaining() / 8);
        let mut names = Vec::with_capacity(models_cap);
        let mut counts = Vec::with_capacity(models_cap);
        for _ in 0..num_models {
            names.push(get_string(buf)?);
            counts.push(buf.u32("layer count")? as usize);
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
        let activation = activation_from_tag(buf.u8("network header")?)?;
        let n_params = buf.u32("network header")? as usize;
        let mut snapshot = Vec::with_capacity(n_params.min(buf.remaining() / 12));
        for _ in 0..n_params {
            let rank = buf.u32("tensor rank")? as usize;
            if buf.remaining() < rank * 4 {
                return Err(LoadError::Corrupt("tensor shape"));
            }
            let shape = (0..rank)
                .map(|_| buf.u32("tensor shape").map(|d| d as usize))
                .collect::<Result<Vec<usize>, _>>()?;
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
        Self::from_bytes(fs::read(path)?)
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
    use crate::embedding::EmbeddingTensor;
    use crate::estimator::tests::trained;
    use crate::model::EstimatorNet;
    use crate::preprocess::TargetTransform;
    use omniboost_hw::{Board, Device, Mapping, NoiseModel, Workload};
    use omniboost_models::{zoo, ModelId};

    #[test]
    fn roundtrip_preserves_predictions() {
        let est = trained();
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
        let est = trained();
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
        let est = trained();
        let blob = est.to_bytes().to_vec();
        let off = transform_offset(est);
        let len = u64::from_le_bytes(blob[off..off + 8].try_into().unwrap());
        assert_eq!(len, 12, "blob layout drifted; fix transform_offset");
        let mut bad = blob.clone();
        bad[off..off + 8].copy_from_slice(&11u64.to_le_bytes());
        bad.drain(off + 8..off + 12); // drop one f32; rest stays aligned
        assert!(matches!(
            CnnEstimator::from_bytes(bad),
            Err(LoadError::Corrupt("target transform"))
        ));
    }

    #[test]
    fn short_multiple_of_three_transform_is_rejected_not_zero_filled() {
        // 9 values chunk evenly into 3×3, which the old rebuild accepted
        // and silently zero-filled the fourth row with — corrupting
        // predictions instead of failing the load.
        let est = trained();
        let blob = est.to_bytes().to_vec();
        let off = transform_offset(est);
        let mut bad = blob.clone();
        bad[off..off + 8].copy_from_slice(&9u64.to_le_bytes());
        bad.drain(off + 8..off + 8 + 12); // drop three f32s
        assert!(matches!(
            CnnEstimator::from_bytes(bad),
            Err(LoadError::Corrupt("target transform"))
        ));
        // An oversized transform is equally corrupt: splice 4 extra bytes.
        let mut long = blob;
        long[off..off + 8].copy_from_slice(&13u64.to_le_bytes());
        long.splice(off + 8..off + 8, 0.25f32.to_le_bytes());
        assert!(matches!(
            CnnEstimator::from_bytes(long),
            Err(LoadError::Corrupt("target transform"))
        ));
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let est = trained();
        let blob = est.to_bytes();
        // Wrong magic.
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            CnnEstimator::from_bytes(bad),
            Err(LoadError::Corrupt(_))
        ));
        // Truncation.
        let short = &blob[..blob.len() / 2];
        assert!(CnnEstimator::from_bytes(short).is_err());
        // Future version.
        let mut versioned = blob.to_vec();
        versioned[4] = 0xFF;
        assert!(matches!(
            CnnEstimator::from_bytes(versioned),
            Err(LoadError::Version(_))
        ));
    }

    /// A version-1 blob is refused, not loaded under version 2's meaning.
    #[test]
    fn version_1_blobs_are_refused() {
        let mut blob = small_untrained().to_bytes();
        blob[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            CnnEstimator::from_bytes(blob),
            Err(LoadError::Version(1))
        ));
    }

    /// A blob's header and embedding grid, the model table still to come.
    fn header(num_models: u32, max_layers: u32, scale_ms: f64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&num_models.to_le_bytes());
        buf.extend_from_slice(&max_layers.to_le_bytes());
        buf.extend_from_slice(&scale_ms.to_le_bytes());
        buf
    }

    /// A blob that is well-formed up to its parameter tensors: `models`
    /// rows of `layers` layers each in an `M × L` grid, a zero embedding,
    /// a 12-value transform, then `n_params` announced and none present.
    fn up_to_params(grid: (u32, u32), scale_ms: f64, layers: u32, n_params: u32) -> Vec<u8> {
        let (models, max_layers) = grid;
        let mut buf = header(models, max_layers, scale_ms);
        for _ in 0..models {
            put_string(&mut buf, "m");
            buf.extend_from_slice(&layers.to_le_bytes());
        }
        put_f32s(&mut buf, &vec![0.0; 3 * (models * max_layers) as usize]);
        put_f32s(&mut buf, &[1.0; 12]);
        buf.push(activation_tag(ActivationKind::Gelu));
        buf.extend_from_slice(&n_params.to_le_bytes());
        buf
    }

    #[test]
    fn hostile_f32_array_length_is_corrupt_not_an_overflow() {
        // `len * 4` on a length of 2^62 overflowed: a panic in debug, a
        // capacity overflow in release.
        let mut buf = header(0, 0, 1.0);
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(matches!(
            CnnEstimator::from_bytes(buf),
            Err(LoadError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_counts_are_corrupt_not_an_abort() {
        // `Vec::with_capacity` on a `u32::MAX` model or tensor count
        // aborted the process.
        let models = header(u32::MAX, 4, 1.0);
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
        let load = |bytes: &[u8]| CnnEstimator::from_bytes(bytes);
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

    #[test]
    fn blob_format_is_pinned() {
        // FNV-1a over the blob of a fixed untrained estimator: a change
        // here is a change of the on-disk format, which needs a new
        // `VERSION`.
        use std::hash::Hasher;
        let blob = small_untrained().to_bytes();
        let mut h = omniboost_hw::Fnv1a::default();
        h.write(&blob);
        assert_eq!((blob.len(), h.finish()), (81_471, 0x63bf_c6b4_2de7_181d));
    }
}
