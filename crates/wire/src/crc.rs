//! CRC-32 (IEEE 802.3 polynomial): a slice-by-8 summer and the O(1)
//! algebra that lets a hop fix a trailer without summing.
//!
//! Links in the simulator lose frames but never corrupt them, so in normal
//! operation the checksum always verifies; it is kept on the wire for
//! realism, for fault-injection tests, and so the header overhead accounting
//! in the experiments matches a deployable format.
//!
//! A frame is summed in full exactly twice, by the member that encodes it
//! and by the member that terminates it ([`crc32`]: eight input bytes per
//! step through eight precomputed tables — the same polynomial, the same
//! result for every input as the plain byte-at-a-time loop, pinned by the
//! test vectors). No hop in between touches the payload: a relay peeks
//! the header, decrements the TTL byte and repairs the trailer with
//! [`crc32_patch`]; a shim wraps an already-trailed frame and derives the
//! outer trailer with [`crc32_of_trailed`] and [`crc32_combine`]. All
//! three reduce to advancing a 32-bit register across a run of zero
//! bytes (`zero_advance`), which is therefore what a relay hop pays the
//! wire layer for, once per frame per link.

/// Lazily built reflected-polynomial lookup tables. `t[0]` is the classic
/// byte-at-a-time table; `t[k]` maps a byte to its CRC contribution `k`
/// positions earlier in an 8-byte block.
#[inline]
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// A 32×32 GF(2) linear operator on CRC registers; column `j` is the image
/// of bit `j`.
type Gf2Op = [u32; 32];

/// Bit-serial operator application: one pass per set bit of `v`, each
/// branching on a bit of the register. Table construction and the tests'
/// reference only — the per-frame path goes through [`sliced_op`].
fn gf2_apply(m: &Gf2Op, mut v: u32) -> u32 {
    let mut r = 0u32;
    let mut j = 0usize;
    while v != 0 {
        if v & 1 != 0 {
            r ^= m[j];
        }
        v >>= 1;
        j += 1;
    }
    r
}

/// Number of precomputed doubling operators; supports patch distances up to
/// `2^48 - 1` bytes, far beyond any frame the codec can produce.
const ZERO_OPS: usize = 48;

/// Lazily built operators: `ops[k]` advances a CRC *difference* register
/// across `2^k` zero bytes — i.e. multiplication by `x^(8·2^k) mod P` in the
/// reflected representation. Built once by matrix squaring of the one-byte
/// step `v → (v >> 8) ^ t0[v & 0xFF]`.
fn zero_ops() -> &'static [Gf2Op; ZERO_OPS] {
    use std::sync::OnceLock;
    static OPS: OnceLock<[Gf2Op; ZERO_OPS]> = OnceLock::new();
    OPS.get_or_init(|| {
        let t0 = &tables()[0];
        let mut ops = [[0u32; 32]; ZERO_OPS];
        for (j, col) in ops[0].iter_mut().enumerate() {
            let v = 1u32 << j;
            *col = (v >> 8) ^ t0[(v & 0xFF) as usize];
        }
        for k in 1..ZERO_OPS {
            let prev = ops[k - 1];
            for j in 0..32 {
                ops[k][j] = gf2_apply(&prev, prev[j]);
            }
        }
        ops
    })
}

/// One doubling operator sliced by register byte: `s[i][b]` is the
/// operator's image of the register `b << 8·i`. The operator is linear,
/// so its image of any register is the XOR of one entry per byte — four
/// loads and three XORs, with no branch on the register's bits (which
/// change with every frame and every flow, so a predictor cannot learn
/// them).
type SlicedOp = [[u32; 256]; 4];

/// The sliced form of `zero_ops()[k]`, built on first use: 4 KiB a step,
/// and a frame of `n` bytes only ever reaches the steps below `log2 n`
/// (eleven for an MTU-sized frame). Boxed, so the steps nothing reaches
/// cost the binary a pointer each rather than a table each.
#[inline]
fn sliced_op(k: usize) -> &'static SlicedOp {
    use std::sync::OnceLock;
    static SLICED: [OnceLock<Box<SlicedOp>>; ZERO_OPS] = [const { OnceLock::new() }; ZERO_OPS];
    SLICED[k].get_or_init(|| {
        let op = &zero_ops()[k];
        let mut s = [[0u32; 256]; 4];
        for (i, slice) in s.iter_mut().enumerate() {
            for (b, slot) in slice.iter_mut().enumerate() {
                *slot = gf2_apply(op, (b as u32) << (8 * i));
            }
        }
        Box::new(s)
    })
}

/// Patch a CRC-32 for a single changed byte without re-summing the message.
///
/// `old_crc` is the CRC of the original message; the byte at distance
/// `dist_from_end` from the message's last byte (0 = the final byte itself)
/// changed from `old_byte` to `new_byte`. Returns the CRC of the patched
/// message.
///
/// Why this works: the per-byte register update `r → (r >> 8) ^ t0[(r ^ b)
/// & 0xFF]` is GF(2)-linear jointly in register and data byte, so the
/// *difference* between the two runs' registers is zero until the patched
/// byte, becomes `t0[old ^ new]` there, and then evolves through the
/// remaining `d` bytes exactly as if they were zeros:
/// `new_crc = old_crc ^ x^(8d)·t0[old ^ new] mod P`. The init/xorout
/// constants cancel in the XOR. The zero-byte advance runs in
/// `O(popcount(d))` operator applications via the precomputed doubling
/// tables, so patching a frame costs the same whether it is 10 bytes or a
/// megabyte.
#[inline]
pub fn crc32_patch(old_crc: u32, dist_from_end: usize, old_byte: u8, new_byte: u8) -> u32 {
    old_crc ^ zero_advance(tables()[0][(old_byte ^ new_byte) as usize], dist_from_end)
}

/// Advance a raw CRC register across `len` zero bytes — multiplication by
/// `x^(8·len) mod P` in the reflected representation: one sliced doubling
/// operator per set bit of `len`.
#[inline]
fn zero_advance(mut v: u32, len: usize) -> u32 {
    let mut d = len;
    while d != 0 {
        let k = d.trailing_zeros() as usize;
        if k >= ZERO_OPS {
            break;
        }
        let s = sliced_op(k);
        v = s[0][(v & 0xFF) as usize]
            ^ s[1][((v >> 8) & 0xFF) as usize]
            ^ s[2][((v >> 16) & 0xFF) as usize]
            ^ s[3][(v >> 24) as usize];
        d &= d - 1;
    }
    v
}

/// CRC-32 of a concatenation from the parts' CRCs, without touching the
/// bytes: `crc32(A ‖ B) = x^(8·|B|)·crc32(A) ⊕ crc32(B) mod P`.
///
/// Why the init/xorout conditioning needs no correction term: with
/// `F(D, i)` the raw register after feeding `D` from initial register `i`,
/// linearity gives `F(B, i) = F(B, 0) ⊕ x^(8·|B|)·i`. Expanding
/// `crc(A‖B) = F(B, F(A, i₀)) ⊕ x₀` and substituting the same identity for
/// `crc(B)` makes both the `i₀` and `x₀` constants cancel in the XOR.
#[inline]
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    zero_advance(crc_a, len_b) ^ crc_b
}

/// CRC-32 of a self-checksummed frame `body ‖ crc32(body).to_be_bytes()`,
/// given only its trailer value — O(1), four table steps.
///
/// Un-finalizing the trailer (`⊕ 0xFFFF_FFFF`) recovers the register state
/// the summer held after `body`'s last byte; feeding the four trailer bytes
/// from there continues the very computation that produced them.
#[inline]
pub fn crc32_of_trailed(trailer: u32) -> u32 {
    let t = &tables()[0];
    let mut c = trailer ^ 0xFFFF_FFFF;
    for b in trailer.to_be_bytes() {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
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
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_matches_byte_at_a_time() {
        // Reference implementation: the classic one-byte loop.
        let reference = |data: &[u8]| -> u32 {
            let t = &tables()[0];
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        // Every length 0..=64 exercises the 8-byte kernel and every
        // possible remainder, with non-repeating content.
        let buf: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect();
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), reference(&buf[..len]), "len {len}");
        }
    }

    /// Deterministic non-repeating filler.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(167) ^ (i >> 8) ^ 0x5A) as u8).collect()
    }

    #[test]
    fn patch_matches_full_resum_every_offset() {
        // Every offset of every length up to 80 pins the patch kernel
        // bitwise-identical to a full re-sum, for two different new values.
        for len in 1..=80usize {
            let orig = filler(len);
            let base = crc32(&orig);
            for off in 0..len {
                let d = len - 1 - off;
                for new in [orig[off] ^ 0xFF, orig[off].wrapping_add(1)] {
                    let mut patched = orig.clone();
                    patched[off] = new;
                    assert_eq!(
                        crc32_patch(base, d, orig[off], new),
                        crc32(&patched),
                        "len {len} off {off} new {new:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn patch_matches_full_resum_large_distances() {
        // Large messages exercise the high doubling operators.
        for len in [1_000usize, 4_099, 70_001] {
            let orig = filler(len);
            let base = crc32(&orig);
            for off in [0, 1, len / 3, len / 2, len - 2, len - 1] {
                let mut patched = orig.clone();
                patched[off] ^= 0xA5;
                assert_eq!(
                    crc32_patch(base, len - 1 - off, orig[off], patched[off]),
                    crc32(&patched),
                    "len {len} off {off}"
                );
            }
        }
    }

    #[test]
    fn patch_same_byte_is_identity() {
        let orig = filler(37);
        let base = crc32(&orig);
        for off in 0..orig.len() {
            assert_eq!(crc32_patch(base, orig.len() - 1 - off, orig[off], orig[off]), base);
        }
    }

    #[test]
    fn combine_matches_full_sum_every_split() {
        // Every split point of several lengths pins crc32_combine
        // bitwise-identical to summing the concatenation directly.
        for len in [0usize, 1, 7, 8, 9, 64, 257, 1_400] {
            let buf = filler(len);
            let whole = crc32(&buf);
            for split in 0..=len {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len()),
                    whole,
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn trailed_matches_full_sum() {
        // A frame that ends in its own big-endian CRC trailer: the O(1)
        // resume from the trailer equals summing the whole frame.
        for len in [1usize, 5, 37, 360, 1_400] {
            let body = filler(len);
            let trailer = crc32(&body);
            let mut frame = body;
            frame.extend_from_slice(&trailer.to_be_bytes());
            assert_eq!(crc32_of_trailed(trailer), crc32(&frame), "len {len}");
        }
    }

    /// The kernel the sliced tables replaced, kept as their reference:
    /// one bit-serial operator application per set bit of `len`.
    fn zero_advance_bit_serial(mut v: u32, len: usize) -> u32 {
        for (k, op) in zero_ops().iter().enumerate() {
            if (len >> k) & 1 != 0 {
                v = gf2_apply(op, v);
            }
        }
        v
    }

    proptest! {
        #[test]
        fn zero_advance_matches_bit_serial(
            v in any::<u32>(), d in 0usize..1 << 20, high in 32u32..ZERO_OPS as u32,
        ) {
            prop_assert_eq!(zero_advance(v, d), zero_advance_bit_serial(v, d));
            // No frame reaches the steps past 2^32; they are built on
            // first use like the rest and must be just as right.
            let far = d | 1usize << high;
            prop_assert_eq!(zero_advance(v, far), zero_advance_bit_serial(v, far));
            // Bits past the last operator are ignored, as they always were.
            prop_assert_eq!(zero_advance(v, far | 1usize << 63), zero_advance(v, far));
        }

        #[test]
        fn combine_matches_full_sum_random_splits(
            data in proptest::collection::vec(any::<u8>(), 0..4097), at in any::<usize>(),
        ) {
            let (a, b) = data.split_at(at % (data.len() + 1));
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&data));
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
