use std::collections::HashMap;

use emx_isa::Program;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse, paged byte-addressable memory covering the full 32-bit address
/// space.
///
/// Pages are allocated on first touch (reads of untouched memory return
/// zero, like zero-initialized RAM). Multi-byte accesses are
/// little-endian.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory image with a program's data segment loaded.
    pub fn with_program(program: &Program) -> Self {
        let mut mem = Memory::new();
        mem.write_bytes(program.data_base(), program.data());
        mem
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian 16-bit value (no alignment requirement; the
    /// executor enforces alignment as an architectural rule).
    pub fn read_u16(&self, addr: u32) -> u16 {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 2 <= PAGE_SIZE {
            // Fast path: both bytes on one page, one page lookup.
            match self.page(addr) {
                Some(p) => u16::from_le_bytes([p[offset], p[offset + 1]]),
                None => 0,
            }
        } else {
            u16::from(self.read_u8(addr)) | (u16::from(self.read_u8(addr.wrapping_add(1))) << 8)
        }
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 2 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[offset..offset + 2].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_u8(addr, value as u8);
            self.write_u8(addr.wrapping_add(1), (value >> 8) as u8);
        }
    }

    /// Reads a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 4 <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => {
                    u32::from_le_bytes([p[offset], p[offset + 1], p[offset + 2], p[offset + 3]])
                }
                None => 0,
            }
        } else {
            u32::from(self.read_u16(addr)) | (u32::from(self.read_u16(addr.wrapping_add(2))) << 16)
        }
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 4 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_u16(addr, value as u16);
            self.write_u16(addr.wrapping_add(2), (value >> 16) as u16);
        }
    }

    /// Writes a byte slice starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u32)))
            .collect()
    }

    /// Number of touched (allocated) pages — a rough working-set metric.
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }

    /// The touched pages in address order, as `(base address, bytes)`,
    /// so a whole memory image can be compared or digested
    /// deterministically.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        let mut keys: Vec<u32> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k << PAGE_SHIFT, &self.pages[&k][..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0x1234), 0);
        assert_eq!(m.touched_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x1122_3344);
        assert_eq!(m.read_u8(0x100), 0x44);
        assert_eq!(m.read_u8(0x103), 0x11);
        assert_eq!(m.read_u16(0x100), 0x3344);
        assert_eq!(m.read_u32(0x100), 0x1122_3344);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 2;
        m.write_u32(addr, 0xdead_beef);
        assert_eq!(m.read_u32(addr), 0xdead_beef);
        assert_eq!(m.touched_pages(), 2);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new();
        m.write_bytes(0x40, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x40, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pages_come_in_address_order() {
        let mut m = Memory::new();
        m.write_u8(0x3005, 9);
        m.write_u8(0x1000, 7);
        let pages: Vec<(u32, u8, u8)> = m.pages().map(|(base, p)| (base, p[0], p[5])).collect();
        assert_eq!(pages, vec![(0x1000, 7, 0), (0x3000, 0, 9)]);
    }

    #[test]
    fn high_addresses_work() {
        let mut m = Memory::new();
        m.write_u32(0xffff_fff0, 7);
        assert_eq!(m.read_u32(0xffff_fff0), 7);
    }
}
