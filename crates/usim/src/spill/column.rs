//! Byte ↔ value codecs: how one column of values, and one enum-typed field,
//! becomes bytes and comes back. Pure functions of their arguments — no
//! I/O, no allocation on the decode side (the caller sizes `out` from a
//! checked frame header), which is the shape a fuzzer or a SIMD pass wants.
//! Which columns a frame holds, and in which encoding, is `frame`'s table.

use super::bad_data;
use std::io;
use uswg_fsc::{FileCategory, FileType, Owner, UsageClass};
use uswg_netfs::OpKind;

/// Encodes an [`OpKind`] as its index in [`OpKind::ALL`].
pub(super) fn encode_op(kind: OpKind) -> u8 {
    kind.index() as u8
}

pub(super) fn decode_op(code: u8) -> io::Result<OpKind> {
    OpKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| bad_data(format!("unknown op code {code}")))
}

/// Packs a [`FileCategory`] into one byte: `type * 8 + owner * 4 + usage`.
pub(super) fn encode_category(cat: FileCategory) -> u8 {
    let t = match cat.file_type {
        FileType::Dir => 0u8,
        FileType::Reg => 1,
        FileType::Notes => 2,
    };
    let o = match cat.owner {
        Owner::User => 0u8,
        Owner::Other => 1,
    };
    let u = match cat.usage {
        UsageClass::ReadOnly => 0u8,
        UsageClass::New => 1,
        UsageClass::ReadWrite => 2,
        UsageClass::Temp => 3,
    };
    t * 8 + o * 4 + u
}

pub(super) fn decode_category(code: u8) -> io::Result<FileCategory> {
    let file_type = match code / 8 {
        0 => FileType::Dir,
        1 => FileType::Reg,
        2 => FileType::Notes,
        _ => return Err(bad_data(format!("unknown category code {code}"))),
    };
    let owner = match (code / 4) % 2 {
        0 => Owner::User,
        _ => Owner::Other,
    };
    let usage = match code % 4 {
        0 => UsageClass::ReadOnly,
        1 => UsageClass::New,
        2 => UsageClass::ReadWrite,
        _ => UsageClass::Temp,
    };
    Ok(FileCategory {
        file_type,
        owner,
        usage,
    })
}

/// Decodes the 0/1 aborted column, rejecting other values (corruption —
/// v1 has no CRC, so the strict check is its only line of defence).
pub(super) fn decode_aborted(code: u8) -> io::Result<bool> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad_data(format!("aborted flag {other} is not 0/1"))),
    }
}

/// Decodes one v1 column — `out.len()` values of `width` bytes each — back
/// to its values.
pub(super) fn decode_fixed_col(buf: &[u8], width: usize, out: &mut [u64]) {
    for (raw, slot) in buf.chunks_exact(width).zip(out) {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(raw);
        *slot = u64::from_le_bytes(le);
    }
}

/// Varint of a u64 is at most 10 bytes; the per-value bound on an integer
/// column's encoded length.
pub(super) const MAX_VARINT: usize = 10;

/// Zigzag: maps small-magnitude signed deltas to small unsigned varints.
pub(super) fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

pub(super) fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub(super) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint from `buf` at `*pos`, rejecting truncated or
/// overflowing encodings.
pub(super) fn take_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| bad_data("varint runs past its column".into()))?;
        *pos += 1;
        let payload = (b & 0x7F) as u64;
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(bad_data("varint overflows u64".into()));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends one v2 integer column: length prefix + zigzag-delta varints.
pub(super) fn push_delta_col(body: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let len_at = body.len();
    body.extend_from_slice(&[0u8; 4]);
    let data_at = body.len();
    let mut prev = 0u64;
    for v in values {
        put_varint(body, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
    let len = (body.len() - data_at) as u32;
    body[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes a v2 integer column back to its `out.len()` values, requiring
/// the encoding to consume the column exactly.
pub(super) fn decode_delta_col(buf: &[u8], out: &mut [u64]) -> io::Result<()> {
    let mut pos = 0usize;
    let mut prev = 0u64;
    for slot in out.iter_mut() {
        let z = take_varint(buf, &mut pos)?;
        prev = prev.wrapping_add(unzigzag(z) as u64);
        *slot = prev;
    }
    if pos != buf.len() {
        return Err(bad_data("trailing bytes in integer column".into()));
    }
    Ok(())
}

/// Appends one v2 byte column: length prefix, then a flag byte (`0` raw /
/// `1` RLE) and the payload — whichever encoding is smaller.
pub(super) fn push_u8_col(body: &mut Vec<u8>, values: &[u8]) {
    let mut rle = Vec::new();
    let mut i = 0usize;
    while i < values.len() {
        let v = values[i];
        let mut run = 1u64;
        while i + (run as usize) < values.len() && values[i + run as usize] == v {
            run += 1;
        }
        rle.push(v);
        put_varint(&mut rle, run);
        i += run as usize;
    }
    let (flag, payload): (u8, &[u8]) = if rle.len() < values.len() {
        (1, &rle)
    } else {
        (0, values)
    };
    let len = (1 + payload.len()) as u32;
    body.extend_from_slice(&len.to_le_bytes());
    body.push(flag);
    body.extend_from_slice(payload);
}

/// Decodes a v2 byte column back to its `out.len()` bytes (widened: a
/// decoded frame is one slab of `u64`).
pub(super) fn decode_u8_col(buf: &[u8], out: &mut [u64]) -> io::Result<()> {
    let count = out.len();
    let (&flag, payload) = buf
        .split_first()
        .ok_or_else(|| bad_data("byte column missing its encoding flag".into()))?;
    match flag {
        0 => {
            if payload.len() != count {
                return Err(bad_data(format!(
                    "raw byte column holds {} bytes, frame promises {count}",
                    payload.len()
                )));
            }
            for (slot, &b) in out.iter_mut().zip(payload) {
                *slot = b.into();
            }
            Ok(())
        }
        1 => {
            let mut filled = 0usize;
            let mut pos = 0usize;
            while filled < count {
                let v = *payload
                    .get(pos)
                    .ok_or_else(|| bad_data("RLE column runs out of pairs".into()))?;
                pos += 1;
                let run = take_varint(payload, &mut pos)?;
                if run == 0 || run > (count - filled) as u64 {
                    return Err(bad_data(format!("RLE run length {run} out of range")));
                }
                out[filled..filled + run as usize].fill(v.into());
                filled += run as usize;
            }
            if pos != payload.len() {
                return Err(bad_data("trailing bytes in RLE column".into()));
            }
            Ok(())
        }
        other => Err(bad_data(format!("unknown byte-column encoding {other}"))),
    }
}
