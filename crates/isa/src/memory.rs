//! Flat sparse functional memory.
//!
//! This is the *functional* memory image: descriptor sets, acceleration
//! structures, framebuffers and shader scratch all live in one 64-bit
//! address space. The *timing* of accesses is modelled separately by
//! `vksim-mem`; the functional interpreter only needs correct values.

use vksim_snapshot::{Dec, Enc, FixedMap, Snap, SnapError};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

// The byte path of a word access: four one-byte accesses, so the word may
// straddle a page.
fn read_bytewise(m: &SimMemory, addr: u64) -> u32 {
    u32::from_le_bytes(std::array::from_fn(|i| m.read_u8(addr + i as u64)))
}

fn write_bytewise(m: &mut SimMemory, addr: u64, value: u32) {
    for (i, b) in value.to_le_bytes().into_iter().enumerate() {
        m.write_u8(addr + i as u64, b);
    }
}

// Where the word at `addr` starts within its page; `None` when it straddles
// a page boundary.
fn word_offset(addr: u64) -> Option<usize> {
    let off = (addr as usize) & (PAGE_SIZE - 1);
    (off <= PAGE_SIZE - 4).then_some(off)
}

/// Sparse paged byte-addressable memory with little-endian 32-bit accessors.
///
/// Unwritten memory reads as zero, like freshly allocated device memory in
/// the simulator.
///
/// # Example
///
/// ```
/// use vksim_isa::SimMemory;
/// let mut m = SimMemory::new();
/// m.write_f32(0x1000, 3.5);
/// assert_eq!(m.read_f32(0x1000), 3.5);
/// assert_eq!(m.read_u32(0xdead_beef), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    pages: FixedMap<u64, Page>,
}

/// One resident page. A newtype so the snapshot codec can write it as a
/// length-prefixed byte string instead of 4096 separate elements.
#[derive(Clone, Debug)]
struct Page(Box<[u8; PAGE_SIZE]>);

impl Snap for Page {
    fn save(&self, e: &mut Enc) {
        e.bytes(&self.0[..]);
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let raw = d.bytes()?.into_boxed_slice();
        let len = raw.len();
        raw.try_into().map(Page).map_err(|_| {
            SnapError::Malformed(format!("memory page of {len} bytes, not {PAGE_SIZE}"))
        })
    }
}

// Snapshot encoding: resident pages sorted by page number, each as the page
// index plus its 4 KiB of bytes.
vksim_snapshot::snap_struct!(SimMemory { pages });

impl SimMemory {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p.0[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr).0[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    fn page_mut(&mut self, addr: u64) -> &mut Page {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Page(Box::new([0u8; PAGE_SIZE])))
    }

    /// Reads a little-endian u32: one page lookup, or one per byte when the
    /// word straddles a page.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let Some(off) = word_offset(addr) else {
            return read_bytewise(self, addr);
        };
        self.pages.get(&(addr >> PAGE_SHIFT)).map_or(0, |p| {
            u32::from_le_bytes(p.0[off..off + 4].try_into().expect("a 4-byte slice"))
        })
    }

    /// Writes a little-endian u32: one page lookup, or one per byte when the
    /// word straddles a page.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        match word_offset(addr) {
            Some(off) => self.page_mut(addr).0[off..off + 4].copy_from_slice(&value.to_le_bytes()),
            None => write_bytewise(self, addr, value),
        }
    }

    /// Reads an f32.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an f32.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr + 4, (value >> 32) as u32);
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
    }

    /// Number of resident pages (footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SimMemory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 4), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u32_roundtrip_and_endianness() {
        let mut m = SimMemory::new();
        m.write_u32(0x100, 0x1234_5678);
        assert_eq!(m.read_u8(0x100), 0x78);
        assert_eq!(m.read_u8(0x103), 0x12);
        assert_eq!(m.read_u32(0x100), 0x1234_5678);
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        let mut m = SimMemory::new();
        m.write_f32(8, -0.0);
        assert_eq!(m.read_u32(8), 0x8000_0000);
        m.write_f32(8, f32::NAN);
        assert!(m.read_f32(8).is_nan());
    }

    #[test]
    fn cross_page_access() {
        let mut m = SimMemory::new();
        let addr = (1 << 12) - 2; // straddles first page boundary
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = SimMemory::new();
        m.write_u64(0x2000, 0xDEAD_BEEF_0123_4567);
        assert_eq!(m.read_u64(0x2000), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = SimMemory::new();
        m.write_bytes(0x50, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x50, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn snapshot_round_trip_is_exact_and_sorted() {
        let mut m = SimMemory::new();
        m.write_u32(0x9_0000, 0xCAFE_F00D);
        m.write_u8(0x42, 7);
        m.write_u64((1 << 12) - 4, u64::MAX); // straddles a page boundary
        let mut e = vksim_snapshot::Enc::new();
        m.save(&mut e);
        let bytes = e.into_bytes();
        let back = SimMemory::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back.read_u32(0x9_0000), 0xCAFE_F00D);
        assert_eq!(back.read_u8(0x42), 7);
        assert_eq!(back.read_u64((1 << 12) - 4), u64::MAX);
        assert_eq!(back.resident_pages(), m.resident_pages());
        // Re-encoding is byte-identical (sorted pages, no map-order leak).
        let mut e2 = vksim_snapshot::Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    /// The word path against the byte path: on random addresses, page
    /// offsets 4092–4095 included, in mapped and unmapped pages.
    #[test]
    fn word_accesses_equal_their_bytes() {
        use vksim_testkit::prop::{check, u32_in, u64_in, vec_of};
        use vksim_testkit::prop_assert_eq;
        let image = |m: &SimMemory| {
            let mut e = vksim_snapshot::Enc::new();
            m.save(&mut e);
            e.into_bytes()
        };
        let access = (
            u64_in(0, 4),
            u32_in(0, 8),
            u32_in(0, 4096),
            u32_in(0, u32::MAX),
        );
        check(&vec_of(access, 1, 24), |accesses| {
            let addrs: Vec<u64> = accesses
                .iter()
                .map(|&(page, pick, off, _)| {
                    let off = if pick < 4 { 4092 + pick } else { off };
                    (page << PAGE_SHIFT) + u64::from(off)
                })
                .collect();
            let (mut words, mut bytes) = (SimMemory::new(), SimMemory::new());
            for (&a, &(.., value)) in addrs.iter().zip(accesses) {
                words.write_u32(a, value);
                value
                    .to_le_bytes()
                    .iter()
                    .enumerate()
                    .for_each(|(i, &b)| bytes.write_u8(a + i as u64, b));
            }
            prop_assert_eq!(image(&words), image(&bytes), "word writes vs byte writes");
            let probes: Vec<u64> = addrs
                .iter()
                .flat_map(|&a| [a, a + (9 << PAGE_SHIFT)])
                .collect();
            for &a in &probes {
                prop_assert_eq!(
                    words.read_u32(a),
                    read_bytewise(&words, a),
                    "read at {a:#x}"
                );
            }
            Ok(())
        });
    }
}
