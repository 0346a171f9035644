//! Functional, byte-addressable main memory with a bump allocator.

/// Base address handed out by the allocator. Address 0 is left unmapped so
/// that an accidental null-based access is easy to spot in tests.
const ALLOC_BASE: u64 = 0x1_0000;

/// Bytes of address space the arena reserves up front. A block this large
/// is mapped lazily and unmapped on drop, so only the bytes a run touches
/// become resident and growing within it never copies. A smaller block
/// would, once freed, raise glibc's mapping threshold (it adapts up to
/// 32 MiB), after which arena-sized blocks stay in the heap: that added
/// about 5 MiB to the peak RSS of a two-worker hierarchy sweep.
const ARENA_RESERVE: usize = 64 << 20;

/// A flat, byte-addressable functional memory.
///
/// One byte arena covers the bump allocator's contiguous range, starting at
/// the allocator base. All values default to zero: the arena grows with
/// zero fill when a store lands past its end, and a load past its end reads
/// zero; a store below the allocator base panics. The embedded bump allocator hands out non-overlapping,
/// 64-byte-aligned buffers for workloads and for the AVA M-VRF (the paper's
/// `set_virtual_vrf` intrinsic performs the equivalent `malloc`).
///
/// ```
/// use ava_memory::MainMemory;
/// let mut m = MainMemory::new();
/// let a = m.alloc(64);
/// m.write_u64(a, 0xdead_beef);
/// assert_eq!(m.read_u64(a), 0xdead_beef);
/// assert_eq!(m.read_u64(a + 8), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    /// Bytes from `ALLOC_BASE` up to the highest byte ever stored.
    bytes: Vec<u8>,
    next_alloc: u64,
}

impl Default for MainMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl MainMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bytes: Vec::with_capacity(ARENA_RESERVE),
            next_alloc: ALLOC_BASE,
        }
    }

    /// Allocates `bytes` bytes and returns the base address. Allocations are
    /// 64-byte (cache-line) aligned and never overlap.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        self.next_alloc += bytes.div_ceil(64).max(1) * 64;
        base
    }

    /// The address range `[start, end)` covered by all allocations so far.
    #[must_use]
    pub fn allocated_range(&self) -> (u64, u64) {
        (ALLOC_BASE, self.next_alloc)
    }

    /// Reads a little-endian 64-bit word (need not be aligned).
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let Some(at) = addr.checked_sub(ALLOC_BASE) else {
            return 0;
        };
        let at = at as usize;
        if let Some(word) = self.bytes.get(at..at + 8) {
            return u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        }
        // The word straddles or lies past the end of the arena: the missing
        // bytes were never written and read as zero.
        let mut word = [0; 8];
        let tail = self.bytes.get(at..).unwrap_or_default();
        let n = tail.len().min(8);
        word[..n].copy_from_slice(&tail[..n]);
        u64::from_le_bytes(word)
    }

    /// Writes a little-endian 64-bit word (need not be aligned).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.span_mut(addr, 8).copy_from_slice(&value.to_le_bytes());
    }

    /// Reads an `f64`.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a slice of doubles into memory starting at `addr`.
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) {
        let span = self.span_mut(addr, 8 * values.len());
        for (word, v) in span.chunks_exact_mut(8).zip(values) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// The `len` bytes at `addr`, growing the arena with zero fill when they
    /// reach past its end.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the allocator base (the unmapped null
    /// region).
    fn span_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let at = addr
            .checked_sub(ALLOC_BASE)
            .unwrap_or_else(|| panic!("store to unmapped address {addr:#x}"))
            as usize;
        if self.bytes.len() < at + len {
            self.bytes.resize(at + len, 0);
        }
        &mut self.bytes[at..at + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_f64(0x9999), 0.0);
        let a = m.alloc(64);
        assert_eq!(m.read_u64(a), 0);
        assert_eq!(m.read_u64(a + 1_000_000), 0);
    }

    #[test]
    fn u64_and_f64_roundtrip() {
        let mut m = MainMemory::new();
        let a = m.alloc(16);
        m.write_u64(a, 0x0123_4567_89ab_cdef);
        m.write_f64(a + 8, -1234.5);
        assert_eq!(m.read_u64(a), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(a + 8), -1234.5);
    }

    #[test]
    fn unaligned_words_overlap_their_neighbours() {
        let mut m = MainMemory::new();
        let a = m.alloc(64);
        m.write_u64(a + 3, 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.read_u64(a + 3), 0xaabb_ccdd_eeff_0011);
        // Little-endian: the word at `a` holds the low five bytes in its
        // top five, and the word at `a + 8` the high three in its bottom three.
        assert_eq!(m.read_u64(a), 0xdd_eeff_0011 << 24);
        assert_eq!(m.read_u64(a + 8), 0xaa_bbcc);
        m.write_u64(a + 5, u64::MAX);
        assert_eq!(m.read_u64(a + 3), 0xffff_ffff_ffff_0011);
    }

    #[test]
    fn a_word_straddling_the_arena_end_reads_zero_beyond_it() {
        let mut m = MainMemory::new();
        let a = m.alloc(8);
        m.write_u64(a, u64::MAX);
        assert_eq!(m.read_u64(a + 4), 0xffff_ffff);
        assert_eq!(m.read_u64(a + 8), 0);
    }

    #[test]
    fn stores_past_the_allocated_range_grow_the_arena_with_zeros() {
        let mut m = MainMemory::new();
        let a = m.alloc(64);
        let (_, end) = m.allocated_range();
        m.write_f64(end + 4096, 7.5);
        assert_eq!(m.read_f64(end + 4096), 7.5);
        assert_eq!(m.read_u64(end), 0);
        assert_eq!(m.read_u64(a), 0);
        // A later allocation sits where the bump pointer puts it, over the
        // bytes the earlier store left behind.
        assert_eq!(m.alloc(8192), end);
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn stores_below_the_allocator_base_panic() {
        MainMemory::new().write_u64(0x100, 1);
    }

    #[test]
    fn alloc_returns_aligned_non_overlapping_buffers() {
        let mut m = MainMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(1);
        let c = m.alloc(4096);
        let d = m.alloc(0);
        assert_eq!(a % 64, 0);
        assert_eq!(b, a + 128); // 100 rounded to 128
        assert_eq!(c, b + 64);
        assert_eq!(d, c + 4096);
        assert_eq!(m.allocated_range(), (a, d + 64));
    }

    #[test]
    fn slice_writes_roundtrip() {
        let mut m = MainMemory::new();
        let a = m.alloc(8 * 5);
        let vals = [1.0, 2.5, -3.0, 0.0, 1e30];
        m.write_f64_slice(a, &vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(m.read_f64(a + 8 * i as u64), *v);
        }
    }

    #[test]
    fn allocations_start_above_the_null_page() {
        let mut m = MainMemory::new();
        assert!(m.alloc(8) >= ALLOC_BASE);
    }
}
