//! Packet formats of the baseline stack.
//!
//! An IP-like header over every packet; TCP-like segments, UDP-like
//! datagrams, and IP-in-IP encapsulation (for Mobile-IP tunneling) inside.

use crate::addr::IpAddr;
use bytes::Bytes;
use rina_wire::codec::{Reader, Writer};
use rina_wire::WireError;

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// A transport port number. Servers sit on *well-known* ports — the
/// overload of connection identifiers with application names the paper
/// calls out (§3.1 remark).
pub type Port = u16;

/// TCP-like segment kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    /// Data (also carries cumulative ack).
    Data,
    /// Pure acknowledgement.
    Ack,
    /// Orderly close.
    Fin,
    /// Abort / refuse.
    Rst,
}

impl SegKind {
    fn to_u8(self) -> u8 {
        match self {
            SegKind::Syn => 1,
            SegKind::SynAck => 2,
            SegKind::Data => 3,
            SegKind::Ack => 4,
            SegKind::Fin => 5,
            SegKind::Rst => 6,
        }
    }
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => SegKind::Syn,
            2 => SegKind::SynAck,
            3 => SegKind::Data,
            4 => SegKind::Ack,
            5 => SegKind::Fin,
            6 => SegKind::Rst,
            _ => return Err(WireError::Invalid("seg kind")),
        })
    }
}

/// A TCP-like segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: Port,
    /// Destination port.
    pub dst_port: Port,
    /// Segment kind.
    pub kind: SegKind,
    /// Sequence number (segment-granularity).
    pub seq: u64,
    /// Cumulative acknowledgement (next expected seq).
    pub ack: u64,
    /// Payload (Data only).
    pub payload: Bytes,
}

/// A UDP-like datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Source port.
    pub src_port: Port,
    /// Destination port.
    pub dst_port: Port,
    /// Payload.
    pub payload: Bytes,
}

/// What an IP-like packet carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// TCP-like segment.
    Seg(Segment),
    /// UDP-like datagram.
    Dgram(Datagram),
    /// IP-in-IP encapsulated packet (Mobile-IP tunnel).
    Encap(Box<Packet>),
}

/// An IP-like packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source interface address.
    pub src: IpAddr,
    /// Destination interface address.
    pub dst: IpAddr,
    /// Remaining hops.
    pub ttl: u8,
    /// Transport payload.
    pub payload: Payload,
}

const P_SEG: u8 = 6;
const P_DGRAM: u8 = 17;
const P_ENCAP: u8 = 4;

impl Packet {
    /// Shorthand for a datagram packet.
    pub fn dgram(src: IpAddr, dst: IpAddr, src_port: Port, dst_port: Port, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            payload: Payload::Dgram(Datagram { src_port, dst_port, payload }),
        }
    }

    /// Encode with trailing CRC.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(32);
        self.encode_into(&mut w);
        w.finish_with_crc()
    }

    fn encode_into(&self, w: &mut Writer) {
        w.u32(self.src.0).u32(self.dst.0).u8(self.ttl);
        match &self.payload {
            Payload::Seg(s) => {
                w.u8(P_SEG)
                    .u16(s.src_port)
                    .u16(s.dst_port)
                    .u8(s.kind.to_u8())
                    .varint(s.seq)
                    .varint(s.ack)
                    .raw(&s.payload);
            }
            Payload::Dgram(d) => {
                w.u8(P_DGRAM).u16(d.src_port).u16(d.dst_port).raw(&d.payload);
            }
            Payload::Encap(inner) => {
                w.u8(P_ENCAP);
                inner.encode_into(w);
            }
        }
    }

    /// Decode, verifying the CRC.
    pub fn decode(buf: &Bytes) -> Result<Packet, WireError> {
        let mut r = Reader::new_checked(buf)?;
        Self::decode_from(&mut r)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Packet, WireError> {
        let src = IpAddr(r.u32()?);
        let dst = IpAddr(r.u32()?);
        let ttl = r.u8()?;
        let payload = match r.u8()? {
            P_SEG => {
                let src_port = r.u16()?;
                let dst_port = r.u16()?;
                let kind = SegKind::from_u8(r.u8()?)?;
                let seq = r.varint()?;
                let ack = r.varint()?;
                let payload = Bytes::copy_from_slice(r.rest());
                Payload::Seg(Segment { src_port, dst_port, kind, seq, ack, payload })
            }
            P_DGRAM => {
                let src_port = r.u16()?;
                let dst_port = r.u16()?;
                let payload = Bytes::copy_from_slice(r.rest());
                Payload::Dgram(Datagram { src_port, dst_port, payload })
            }
            P_ENCAP => Payload::Encap(Box::new(Self::decode_from(r)?)),
            _ => return Err(WireError::Invalid("ip proto")),
        };
        Ok(Packet { src, dst, ttl, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn segment_roundtrip() {
        let p = Packet {
            src: IpAddr::new(10, 0, 0, 1),
            dst: IpAddr::new(10, 0, 1, 1),
            ttl: 64,
            payload: Payload::Seg(Segment {
                src_port: 49152,
                dst_port: 80,
                kind: SegKind::Data,
                seq: 7,
                ack: 3,
                payload: Bytes::from_static(b"GET /"),
            }),
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn dgram_roundtrip() {
        let p = Packet::dgram(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            5353,
            53,
            Bytes::from_static(b"query"),
        );
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn encap_roundtrip() {
        let inner = Packet::dgram(
            IpAddr::new(10, 0, 0, 9),
            IpAddr::new(10, 9, 9, 9),
            1,
            2,
            Bytes::from_static(b"x"),
        );
        let outer = Packet {
            src: IpAddr::new(172, 16, 0, 1),
            dst: IpAddr::new(172, 16, 9, 1),
            ttl: 64,
            payload: Payload::Encap(Box::new(inner)),
        };
        assert_eq!(Packet::decode(&outer.encode()).unwrap(), outer);
    }

    #[test]
    fn all_seg_kinds_roundtrip() {
        for k in
            [SegKind::Syn, SegKind::SynAck, SegKind::Data, SegKind::Ack, SegKind::Fin, SegKind::Rst]
        {
            assert_eq!(SegKind::from_u8(k.to_u8()).unwrap(), k);
        }
        assert!(SegKind::from_u8(99).is_err());
    }

    /// The sample of `p`'s payload type and segment kind. No `_` arm, and
    /// a constant index past the array's end does not compile: a new
    /// variant needs a sample.
    fn sample_of<'a>(samples: &'a [Packet; 8], p: &Packet) -> &'a Packet {
        match &p.payload {
            Payload::Seg(s) => match s.kind {
                SegKind::Syn => &samples[0],
                SegKind::SynAck => &samples[1],
                SegKind::Data => &samples[2],
                SegKind::Ack => &samples[3],
                SegKind::Fin => &samples[4],
                SegKind::Rst => &samples[5],
            },
            Payload::Dgram(_) => &samples[6],
            Payload::Encap(_) => &samples[7],
        }
    }

    /// Codec symmetry for every payload type and segment kind at once
    /// (DESIGN.md §9, W1).
    #[test]
    fn every_variant_roundtrips() {
        let dgram = Packet::dgram(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            5353,
            53,
            Bytes::from_static(b"query"),
        );
        let seg = |kind| Packet {
            src: IpAddr::new(10, 0, 0, 1),
            dst: IpAddr::new(10, 0, 1, 1),
            ttl: 64,
            payload: Payload::Seg(Segment {
                src_port: 49152,
                dst_port: 80,
                kind,
                seq: 7,
                ack: 3,
                payload: Bytes::from_static(b"GET /"),
            }),
        };
        let samples = [
            seg(SegKind::Syn),
            seg(SegKind::SynAck),
            seg(SegKind::Data),
            seg(SegKind::Ack),
            seg(SegKind::Fin),
            seg(SegKind::Rst),
            dgram.clone(),
            Packet {
                src: IpAddr::new(172, 16, 0, 1),
                dst: IpAddr::new(172, 16, 9, 1),
                ttl: 64,
                payload: Payload::Encap(Box::new(dgram)),
            },
        ];
        for p in &samples {
            assert!(std::ptr::eq(sample_of(&samples, p), p), "misfiled: {p:?}");
            assert_eq!(&Packet::decode(&p.encode()).unwrap(), p);
        }
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = Packet::decode(&Bytes::from(data));
        }
    }
}
