//! CRC32 (IEEE 802.3, reflected): the checksum of every v2 frame and of the
//! index footer.
//!
//! Slicing-by-8: table `k` maps a byte to its CRC contribution `k` bytes
//! further on, so one step folds 8 input bytes with 8 lookups and no carried
//! dependency between them; a part's last `len % 8` bytes take the bytewise
//! step of table 0.

/// The 8 lookup tables, built at compile time.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 of `parts` read as one byte string — a v2 frame's header and
/// columns, or the index footer: the integrity check that turns a flipped
/// bit anywhere in them into a clean decode error (CRC32 detects every
/// single-bit error by construction).
pub(super) fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::crc32;

    /// The textbook bit-at-a-time CRC32, the reference the tables must match.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn the_check_value_of_the_standard() {
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(&[b""]), 0);
    }

    #[test]
    fn every_split_into_parts_reads_as_the_whole() {
        let data: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let whole = &data[..len];
            let want = bitwise(whole);
            assert_eq!(crc32(&[whole]), want, "len {len}");
            for i in 0..=len {
                assert_eq!(crc32(&[&whole[..i], &whole[i..]]), want, "{len} at {i}");
                for j in i..=len {
                    let parts = [&whole[..i], &whole[i..j], &whole[j..]];
                    assert_eq!(crc32(&parts), want, "{len} at {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn a_random_64_kib_buffer_matches_the_bitwise_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..65_536)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        assert_eq!(crc32(&[&data]), bitwise(&data));
        assert_eq!(crc32(&[&data[..12_345], &data[12_345..]]), bitwise(&data));
    }
}
