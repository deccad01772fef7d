//! A compact CDAP-like management protocol syntax.
//!
//! The paper (§8) anticipates an ASN.1-style abstract syntax for layer
//! management so that object semantics are decoupled from encoding. We keep
//! that split: this module defines only the *envelope* — an operation on a
//! named object, with an opaque encoded value. The object semantics
//! (enrollment, directory, routing, flow allocation) live in `rina` and
//! encode their values with [`crate::codec`] primitives.

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use bytes::Bytes;

/// CDAP operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Open an application connection (enrollment phase 1); carries auth.
    Connect,
    /// Response to `Connect`.
    ConnectR,
    /// Close the application connection.
    Release,
    /// Create an object (e.g. a flow, a directory registration).
    Create,
    /// Response to `Create`.
    CreateR,
    /// Delete an object (e.g. deallocate a flow).
    Delete,
    /// Response to `Delete`.
    DeleteR,
    /// Read an object's value.
    Read,
    /// Response to `Read`.
    ReadR,
    /// Write an object's value (e.g. disseminate routing state).
    Write,
    /// Response to `Write`.
    WriteR,
    /// Start an action object.
    Start,
    /// Response to `Start`.
    StartR,
    /// Stop an action object.
    Stop,
    /// Response to `Stop`.
    StopR,
}

impl OpCode {
    fn to_u8(self) -> u8 {
        match self {
            OpCode::Connect => 1,
            OpCode::ConnectR => 2,
            OpCode::Release => 3,
            OpCode::Create => 4,
            OpCode::CreateR => 5,
            OpCode::Delete => 6,
            OpCode::DeleteR => 7,
            OpCode::Read => 8,
            OpCode::ReadR => 9,
            OpCode::Write => 10,
            OpCode::WriteR => 11,
            OpCode::Start => 12,
            OpCode::StartR => 13,
            OpCode::Stop => 14,
            OpCode::StopR => 15,
        }
    }
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => OpCode::Connect,
            2 => OpCode::ConnectR,
            3 => OpCode::Release,
            4 => OpCode::Create,
            5 => OpCode::CreateR,
            6 => OpCode::Delete,
            7 => OpCode::DeleteR,
            8 => OpCode::Read,
            9 => OpCode::ReadR,
            10 => OpCode::Write,
            11 => OpCode::WriteR,
            12 => OpCode::Start,
            13 => OpCode::StartR,
            14 => OpCode::Stop,
            15 => OpCode::StopR,
            _ => return Err(WireError::Invalid("cdap opcode")),
        })
    }

    /// Whether this opcode is a response to a request.
    pub fn is_response(self) -> bool {
        matches!(
            self,
            OpCode::ConnectR
                | OpCode::CreateR
                | OpCode::DeleteR
                | OpCode::ReadR
                | OpCode::WriteR
                | OpCode::StartR
                | OpCode::StopR
        )
    }
}

/// Result code 0: success. Anything else is protocol-specific failure.
pub const RES_OK: i32 = 0;

/// A CDAP message: an operation applied to a named object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CdapMsg {
    /// The operation.
    pub op: OpCode,
    /// Correlates responses with requests; chosen by the requester.
    pub invoke_id: u32,
    /// Class of the addressed object (e.g. `"flow"`, `"dir-entry"`).
    pub obj_class: String,
    /// Instance name of the addressed object (e.g. `"/dif/flows/17"`).
    pub obj_name: String,
    /// Result code on responses; [`RES_OK`] on requests.
    pub result: i32,
    /// Opaque encoded object value (semantics defined by `obj_class`).
    pub value: Bytes,
}

impl CdapMsg {
    /// A request message with the given operation and object coordinates.
    pub fn request(
        op: OpCode,
        invoke_id: u32,
        obj_class: &str,
        obj_name: &str,
        value: Bytes,
    ) -> Self {
        debug_assert!(!op.is_response());
        CdapMsg {
            op,
            invoke_id,
            obj_class: obj_class.to_string(),
            obj_name: obj_name.to_string(),
            result: RES_OK,
            value,
        }
    }

    /// The response to this request, echoing object coordinates.
    pub fn response(&self, op: OpCode, result: i32, value: Bytes) -> Self {
        debug_assert!(op.is_response());
        CdapMsg {
            op,
            invoke_id: self.invoke_id,
            obj_class: self.obj_class.clone(),
            obj_name: self.obj_name.clone(),
            result,
            value,
        }
    }

    /// Encode to bytes (no CRC: CDAP rides inside a checksummed PDU).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(
            24 + self.obj_class.len() + self.obj_name.len() + self.value.len(),
        );
        w.u8(self.op.to_u8())
            .varint(self.invoke_id as u64)
            .string(&self.obj_class)
            .string(&self.obj_name)
            .varint(zigzag(self.result))
            .bytes(&self.value);
        w.finish()
    }

    /// Decode from bytes. The value is a zero-copy slice of `buf`, so it
    /// keeps the arriving frame alive for as long as it is held: state
    /// that outlives the message must copy what it keeps.
    pub fn decode(buf: &Bytes) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let op = OpCode::from_u8(r.u8()?)?;
        let invoke_id = u32::try_from(r.varint()?).map_err(|_| WireError::Invalid("invoke id"))?;
        let obj_class = r.string()?.to_string();
        let obj_name = r.string()?.to_string();
        let result = unzigzag(r.varint()?);
        let value = buf.slice_ref(r.bytes()?);
        r.expect_end()?;
        Ok(CdapMsg { op, invoke_id, obj_class, obj_name, result, value })
    }
}

fn zigzag(v: i32) -> u64 {
    ((v as i64) << 1 ^ ((v as i64) >> 63)) as u64
}
fn unzigzag(v: u64) -> i32 {
    ((v >> 1) as i64 ^ -((v & 1) as i64)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_request_response() {
        let req = CdapMsg::request(
            OpCode::Create,
            77,
            "flow",
            "/difs/net/flows",
            Bytes::from_static(b"spec"),
        );
        let b = req.encode();
        assert_eq!(CdapMsg::decode(&b).unwrap(), req);

        let resp = req.response(OpCode::CreateR, -3, Bytes::new());
        let b = resp.encode();
        let d = CdapMsg::decode(&b).unwrap();
        assert_eq!(d.result, -3);
        assert_eq!(d.invoke_id, 77);
        assert_eq!(d.obj_name, "/difs/net/flows");
    }

    #[test]
    fn decoded_value_is_a_slice_of_the_frame() {
        let b = CdapMsg::request(OpCode::Write, 1, "c", "n", Bytes::from_static(b"value")).encode();
        let d = CdapMsg::decode(&b).unwrap();
        let (base, at) = (b.as_ptr() as usize, d.value.as_ptr() as usize);
        assert!(at > base && at + d.value.len() <= base + b.len(), "value was copied");
    }

    #[test]
    fn zigzag_symmetry() {
        for v in [0, 1, -1, i32::MAX, i32::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn opcode_exhaustive_roundtrip() {
        for v in 1..=15u8 {
            let op = OpCode::from_u8(v).unwrap();
            assert_eq!(op.to_u8(), v);
        }
        assert!(OpCode::from_u8(0).is_err());
        assert!(OpCode::from_u8(16).is_err());
    }

    #[test]
    fn response_predicate() {
        assert!(!OpCode::Connect.is_response());
        assert!(OpCode::ConnectR.is_response());
        assert!(!OpCode::Write.is_response());
        assert!(OpCode::WriteR.is_response());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let req = CdapMsg::request(OpCode::Read, 1, "c", "n", Bytes::new());
        let mut b = req.encode().to_vec();
        b.push(0);
        assert_eq!(CdapMsg::decode(&b.into()).err(), Some(WireError::TrailingBytes));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            op in 1u8..=15,
            invoke_id in any::<u32>(),
            obj_class in "[a-z/_-]{0,20}",
            obj_name in "[a-zA-Z0-9/._-]{0,40}",
            result in any::<i32>(),
            value in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let m = CdapMsg {
                op: OpCode::from_u8(op).unwrap(),
                invoke_id,
                obj_class,
                obj_name,
                result,
                value: Bytes::from(value),
            };
            prop_assert_eq!(CdapMsg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = CdapMsg::decode(&data.into());
        }
    }
}
