//! Microbenchmarks for the zero-copy relay kernels: the incremental
//! CRC-32 trailer patch against a full re-sum, the trailer combine and
//! the shim wrap built on it, and the `PduView` peek against a full
//! `Pdu::decode`, at relay-typical frame sizes.
//!
//! A relay carries many flows, so no two consecutive frames hand a kernel
//! the same CRC register, TTL or header: every row walks a table of
//! [`ROT`] distinct inputs per sample and reports the time per element. A
//! kernel whose cost depends on its operand's bits reads several times
//! cheaper on one repeated input than it runs at in a relay, once the
//! branch predictor has learned that input.
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rina_wire::crc::{crc32, crc32_combine, crc32_of_trailed, crc32_patch};
use rina_wire::{DataPdu, Pdu, PduView};

/// Distinct inputs each row rotates through, one pass per sample.
const ROT: usize = 256;

/// A data PDU with `payload`, distinct per `i` in sequence number, CEPs
/// and TTL (which makes the header sum, the trailer and the patched byte
/// pair distinct too).
fn data_pdu(i: usize, payload: bytes::Bytes) -> DataPdu {
    DataPdu {
        dest_addr: 1_000,
        src_addr: 7,
        qos_id: 2,
        dest_cep: 11 + i as u32,
        src_cep: 13,
        seq: 12_345 + 977 * i as u64,
        flags: 0,
        ttl: 2 + (i % 250) as u8,
        payload,
    }
}

/// The big-endian CRC-32 trailer a frame ends in.
fn trailer_of(frame: &[u8]) -> u32 {
    u32::from_be_bytes(frame[frame.len() - 4..].try_into().expect("4-byte trailer"))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_kernels");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Elements(ROT as u64));
    for &len in &[64usize, 360, 1400] {
        let frames: Vec<bytes::Bytes> = (0..ROT)
            .map(|i| Pdu::Data(data_pdu(i, bytes::Bytes::from(vec![0xA5u8; len]))).encode())
            .collect();
        // What the relay's patch reads off each arrival: the old trailer,
        // the TTL byte's distance from the end of the body, the TTL.
        let patches: Vec<(u32, usize, u8)> = frames
            .iter()
            .map(|f| {
                let v = PduView::peek(f).expect("encoder frame peeks");
                (trailer_of(f), f.len() - 4 - 1 - v.ttl_offset, v.ttl)
            })
            .collect();
        g.bench_function(format!("crc_patch/{len}"), |b| {
            b.iter(|| {
                for &(old_crc, dist, ttl) in &patches {
                    black_box(crc32_patch(black_box(old_crc), black_box(dist), ttl, ttl - 1));
                }
            });
        });
        // A running sum over the frames, as a shim's wrap appends each to
        // its header: every call's register is the previous call's result.
        g.bench_function(format!("crc_combine/{len}"), |b| {
            b.iter(|| {
                frames.iter().fold(0u32, |crc_a, f| {
                    crc32_combine(crc_a, black_box(trailer_of(f)), black_box(f.len()))
                })
            });
        });
        // The shim's wrap of a frame an upper DIF hands down: the outer
        // trailer comes from the inner frame's own, the payload is copied
        // but never summed.
        let wraps: Vec<DataPdu> =
            frames.iter().enumerate().map(|(i, f)| data_pdu(i, f.clone())).collect();
        g.bench_function(format!("shim_wrap/{len}"), |b| {
            b.iter(|| {
                for d in &wraps {
                    let inner = crc32_of_trailed(trailer_of(&d.payload));
                    black_box(black_box(d).encode_with_payload_crc(inner));
                }
            });
        });
        g.bench_function(format!("crc_full_resum/{len}"), |b| {
            b.iter(|| {
                for f in &frames {
                    black_box(crc32(black_box(&f[..f.len() - 4])));
                }
            });
        });
        g.bench_function(format!("peek/{len}"), |b| {
            b.iter(|| {
                for f in &frames {
                    black_box(PduView::peek(black_box(f)));
                }
            });
        });
        g.bench_function(format!("decode/{len}"), |b| {
            b.iter(|| {
                for f in &frames {
                    black_box(Pdu::decode(black_box(f)).expect("valid frame"));
                }
            });
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
