//! CRC-32 (IEEE 802.3 / zlib polynomial), table-driven (slicing-by-8),
//! dependency-free.
//!
//! The feed puts a CRC over every frame payload so that corruption
//! anywhere — including a mis-framed stream after a damaged length
//! prefix — is detected instead of silently producing a wrong summary.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes; `TABLES[0]` is the classic one-byte table. Eight of them let
/// eight input bytes be folded in per step (slicing-by-8).
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xffffffff`, final xor `0xffffffff`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition the sliced loop must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_equals_bytewise_on_every_length() {
        // xorshift bytes; every length 0..=4 KiB crosses every alignment
        // of the 8-byte step and its remainder.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4096 + 7)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=4096 {
            let at = len % 8;
            let slice = &data[at..at + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len}");
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn check_value() {
        // The standard check input for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"hello feed");
        let b = crc32(b"hello feeD");
        assert_ne!(a, b);
    }
}
