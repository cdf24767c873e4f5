//! Versioned, checksummed machine-state snapshots.
//!
//! Long paper-scale runs (48 SMs, 8 FR-FCFS partitions, millions of
//! cycles) must survive crashes and kills: this crate is the wire format
//! that every stateful crate serializes into so a run can be checkpointed
//! at a cycle boundary and resumed bit-exactly later. It sits below every
//! timing crate in the workspace graph and is dependency-free by design.
//!
//! Four layers:
//!
//! * [`Enc`] / [`Dec`] — a flat little-endian byte codec (fixed-width
//!   integers, `f64` via its bit pattern, length-prefixed strings and
//!   sequences).
//! * [`Snap`] — how a value writes itself with those primitives, with
//!   impls for the std containers and two field-list macros
//!   ([`snap_struct!`] for plain values, [`snap_state!`] for types that
//!   restore in place over a configuration-built object). There is no
//!   reflection and no schema beyond the field lists themselves, and a
//!   struct field missing from its list does not compile.
//! * [`Snapshot`] — the file container: an 8-byte magic, a format
//!   version, a 64-bit configuration fingerprint, the payload, and an
//!   FNV-1a-64 checksum trailer over everything before it.
//! * atomic persistence — [`Snapshot::write_atomic`] writes to a
//!   temporary sibling and renames, so a checkpoint file is either the
//!   complete old snapshot or the complete new one, never a torn write.
//!
//! Determinism contract: encoders must produce identical bytes for
//! identical machine state (the [`Snap`] container impls write hash-map
//! contents sorted by key and heaps as sorted sequences), so "snapshot →
//! restore → snapshot" is byte-idempotent and restored runs replay
//! exactly.
//!
//! Snapshots are host-format files: multi-byte fields are explicitly
//! little-endian, but the payload layout is tied to [`FORMAT_VERSION`]
//! and is not a cross-release interchange format.

mod fixed_hash;
mod snap;

pub use fixed_hash::{FixedHasher, FixedMap, FixedSet, FixedState};
pub use snap::{
    __with_restore, __with_save, load_fixed, restore_each, restore_opt, save_each, save_opt, Snap,
};

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"VKSNAP01";

/// Current payload layout version. Bump on any incompatible change to
/// what the workspace crates encode.
pub const FORMAT_VERSION: u32 = 2;

/// Offset basis of FNV-1a-64.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Prime of FNV-1a-64.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a-64 over `bytes`, continuing from `state` (seed with
/// [`fnv1a_init`]). Used both for the file checksum and for the
/// configuration fingerprint.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The FNV-1a-64 offset basis, the initial `state` for [`fnv1a`].
pub fn fnv1a_init() -> u64 {
    FNV_OFFSET
}

/// Everything that can go wrong producing or consuming a snapshot.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem failure while reading or writing a snapshot file.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's layout version is not [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checksum trailer does not match the file contents.
    BadChecksum,
    /// The decoder ran past the end of the payload.
    Truncated,
    /// The payload decoded to an impossible value (bad enum tag,
    /// oversized length, unconsumed trailing bytes, ...).
    Malformed(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(detail) => write!(f, "snapshot i/o error: {detail}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch (corrupt file)"),
            SnapError::Truncated => write!(f, "snapshot payload truncated"),
            SnapError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Byte encoder. All integers are little-endian fixed width; sequences
/// and strings carry a `u64` length prefix.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (NaN payloads and
    /// signed zeros round-trip exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a sequence-length prefix.
    pub fn seq(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.seq(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an `Option<u32>` as a presence byte plus the value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }
}

/// Byte decoder over a payload slice. Every read is bounds-checked and
/// returns [`SnapError::Truncated`] past the end.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize {v}")))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a sequence-length prefix, rejecting lengths that could not
    /// possibly fit in the remaining payload (corruption guard so a bad
    /// length cannot trigger a huge allocation).
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Malformed(format!(
                "sequence length {n} exceeds {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.seq()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.seq()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            b => Err(SnapError::Malformed(format!("option tag {b}"))),
        }
    }

    /// Reads an `Option<u32>`.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            b => Err(SnapError::Malformed(format!("option tag {b}"))),
        }
    }

    /// Asserts the whole payload was consumed — catches encoder/decoder
    /// drift where a field was added to one side only.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Malformed(format!(
                "{} unconsumed trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// One snapshot: a format version, the configuration fingerprint of the
/// run that produced it, and the opaque machine-state payload.
pub struct Snapshot {
    /// Payload layout version ([`FORMAT_VERSION`] when produced by this
    /// build).
    pub version: u32,
    /// FNV-1a-64 fingerprint of the producing configuration + workload;
    /// a resume under a different configuration must be refused.
    pub fingerprint: u64,
    /// The encoded machine state.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Wraps a payload under the current format version.
    pub fn new(fingerprint: u64, payload: Vec<u8>) -> Self {
        Self {
            version: FORMAT_VERSION,
            fingerprint,
            payload,
        }
    }

    /// Serializes the container: magic, version, fingerprint,
    /// length-prefixed payload, FNV-1a-64 checksum of all prior bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 36);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = fnv1a(fnv1a_init(), &out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and verifies a container produced by [`Snapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        // magic(8) + version(4) + fingerprint(8) + len(8) + checksum(8)
        if bytes.len() < 36 {
            return Err(SnapError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(fnv1a_init(), body) != stored {
            return Err(SnapError::BadChecksum);
        }
        let mut d = Dec::new(&bytes[8..bytes.len() - 8]);
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let fingerprint = d.u64()?;
        let payload = d.bytes()?;
        d.finish()?;
        Ok(Self {
            version,
            fingerprint,
            payload,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a
    /// temporary sibling in the same directory (created if missing) and
    /// are renamed into place, so readers never observe a torn file.
    ///
    /// Each call writes its own sibling, `<path>.<pid>-<n>.tmp`, so
    /// concurrent writers of one path never rename each other's bytes
    /// away; the last rename wins. A failed write removes its sibling.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapError> {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let io = |e: std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(io)?;
            }
        }
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}-{n}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let written = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&self.to_bytes())?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written.map_err(io)
    }

    /// Reads and verifies a snapshot file.
    pub fn read(path: &Path) -> Result<Self, SnapError> {
        let bytes =
            fs::read(path).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f32(1.5);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.str("warp μ");
        e.bytes(&[1, 2, 3]);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.opt_u32(Some(4));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f32().unwrap(), 1.5);
        let z = d.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "warp μ");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.opt_u32().unwrap(), Some(4));
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_errors_not_panics() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert!(matches!(d.u64(), Err(SnapError::Truncated)));
    }

    #[test]
    fn oversized_sequence_length_is_rejected() {
        let mut e = Enc::new();
        e.u64(1 << 40); // claims a petabyte-scale sequence
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.seq(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn unconsumed_payload_is_detected() {
        let mut e = Enc::new();
        e.u32(5);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u16().unwrap();
        assert!(matches!(d.finish(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn container_round_trips() {
        let snap = Snapshot::new(0x1234_5678, vec![9, 8, 7, 6]);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.version, FORMAT_VERSION);
        assert_eq!(back.fingerprint, 0x1234_5678);
        assert_eq!(back.payload, vec![9, 8, 7, 6]);
        // The container encoding itself is deterministic.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let bytes = Snapshot::new(42, b"state".to_vec()).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn wrong_version_is_a_structured_error() {
        let mut snap = Snapshot::new(1, vec![]);
        snap.version = FORMAT_VERSION + 1;
        // Re-checksum by rebuilding the container manually.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&snap.version.to_le_bytes());
        out.extend_from_slice(&snap.fingerprint.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        let sum = fnv1a(fnv1a_init(), &out);
        out.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&out),
            Err(SnapError::BadVersion { found, expected })
                if found == FORMAT_VERSION + 1 && expected == FORMAT_VERSION
        ));
    }

    /// A fresh scratch directory unique to this process and thread.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vksnap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Names of the `*.tmp` files directly under `dir`.
    fn tmp_files(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn write_atomic_creates_parents_and_reads_back() {
        let dir = scratch_dir("test");
        let path = dir.join("deep/nested/ckpt-100.vksnap");
        let snap = Snapshot::new(7, vec![1, 1, 2, 3, 5, 8]);
        snap.write_atomic(&path).unwrap();
        let back = Snapshot::read(&path).unwrap();
        assert_eq!(back.fingerprint, 7);
        assert_eq!(back.payload, vec![1, 1, 2, 3, 5, 8]);
        // No temp file left behind.
        assert_eq!(tmp_files(path.parent().unwrap()), Vec::<String>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        const THREADS: u64 = 8;
        let dir = scratch_dir("race");
        let path = dir.join("shared.vksnap");
        let snap = |t: u64| Snapshot::new(t, vec![t as u8; 64 + t as usize]);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    // Every writer starts at once, so their renames overlap.
                    start.wait();
                    for i in 0..20 {
                        let written = snap(t).write_atomic(path);
                        assert!(written.is_ok(), "writer {t}, write {i}: {written:?}");
                    }
                });
            }
        });
        let back = Snapshot::read(&path).unwrap();
        assert!(back.fingerprint < THREADS);
        assert_eq!(back.payload, snap(back.fingerprint).payload);
        assert_eq!(tmp_files(&dir), Vec::<String>::new());
        fs::remove_dir_all(&dir).unwrap();
    }
}
