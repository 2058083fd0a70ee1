//! Wire-format property tests (PR 7): the `procs` backend's framing must
//! be total — every frame kind and every value type round-trips exactly,
//! and *no* input bytes (truncated, bit-flipped, or random) can make the
//! decoder panic or allocate unboundedly. A hostile or half-written socket
//! must surface as a typed [`WireError`], never as a crash inside the
//! progress engine.

use proptest::prelude::*;
use saspgemm::dist::SpgemmReport;
use saspgemm::mpisim::{
    crc32, CommError, CommStats, Frame, PhaseTimes, Primitive, RankError, Wire, WireError,
};
use std::time::Duration;

/// One instance of every frame kind, parameterized by the generated
/// inputs so the property sweeps the full wire surface each case.
fn build_frames(a: u64, b: u64, port: u16, bytes: &[u8], flag: bool) -> Vec<Frame> {
    vec![
        Frame::Hello {
            rank: a % 1024,
            port,
        },
        Frame::Table {
            ports: vec![port, port ^ 1, 9],
        },
        Frame::Peer { rank: b % 1024 },
        Frame::Data {
            comm_id: a,
            src: b % 64,
            tag: b,
            metered: flag,
            meter_bytes: a % 4096,
            type_fp: a ^ b,
            count: bytes.len() as u64,
            payload: bytes.to_vec(),
        },
        Frame::GetReq {
            req_id: a,
            win_id: b,
            part: (a % 7) as u32,
            start: b % 100,
            end: b % 100 + a % 50,
        },
        Frame::GetResp {
            req_id: a,
            payload: bytes.to_vec(),
        },
        Frame::Abort { victim: a % 64 },
        Frame::Bye,
        Frame::Outcome {
            payload: bytes.to_vec(),
        },
        Frame::Heartbeat,
        Frame::Reliable {
            seq: a ^ b,
            inner: (Frame::Data {
                comm_id: a,
                src: b % 64,
                tag: b,
                metered: flag,
                meter_bytes: a % 4096,
                type_fp: a ^ b,
                count: bytes.len() as u64,
                payload: bytes.to_vec(),
            })
            .to_bytes(),
        },
        Frame::Ack { seq: b },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_frame_kind_round_trips_with_valid_checksum(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        port in 0u64..65536,
        bytes in proptest::collection::vec(0u8..=255u8, 0..48),
        flag in 0u8..2,
    ) {
        for f in build_frames(a, b, port as u16, &bytes, flag == 1) {
            let enc = f.to_bytes();
            let back = Frame::from_bytes(&enc);
            prop_assert_eq!(back.as_ref().ok(), Some(&f));
            // the trailing 4 bytes are the CRC32 of everything before them
            let (body, crc) = enc.split_at(enc.len() - 4);
            prop_assert_eq!(u32::from_le_bytes(crc.try_into().unwrap()), crc32(body));
        }
    }

    #[test]
    fn every_truncation_of_every_frame_is_a_typed_error(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        port in 0u64..65536,
        bytes in proptest::collection::vec(0u8..=255u8, 0..24),
        flag in 0u8..2,
    ) {
        for f in build_frames(a, b, port as u16, &bytes, flag == 1) {
            let enc = f.to_bytes();
            for cut in 0..enc.len() {
                // every strict prefix must decode to Err, never panic and
                // never succeed (no frame encoding is a prefix of another)
                prop_assert!(
                    Frame::from_bytes(&enc[..cut]).is_err(),
                    "prefix {cut}/{} of {f:?} decoded",
                    enc.len()
                );
            }
        }
    }

    #[test]
    fn bit_flipped_frames_are_always_typed_corrupt(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        port in 0u64..65536,
        bytes in proptest::collection::vec(0u8..=255u8, 0..24),
        pos in 0usize..4096,
        xor in 1u8..=255,
    ) {
        for f in build_frames(a, b, port as u16, &bytes, true) {
            let mut enc = f.to_bytes();
            let i = pos % enc.len();
            enc[i] ^= xor;
            // any nonzero single-byte damage — header, payload, or the CRC
            // suffix itself — must surface as Corrupt: never a panic, never
            // a successful decode, never any other error shape
            match Frame::from_bytes(&enc) {
                Err(WireError::Corrupt { expected, got }) => prop_assert_ne!(expected, got),
                other => prop_assert!(
                    false,
                    "byte {} ^ {:#04x} of {:?}: expected Corrupt, got {:?}",
                    i, xor, f, other
                ),
            }
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u8..=255u8, 0..64),
    ) {
        let _ = Frame::from_bytes(&bytes);
        let mut buf = bytes.as_slice();
        let _ = <Vec<u64> as Wire>::get(&mut buf);
        let mut buf = bytes.as_slice();
        let _ = String::get(&mut buf);
        let mut buf = bytes.as_slice();
        let _ = <Result<Vec<f64>, RankError> as Wire>::get(&mut buf);
    }

    #[test]
    fn hostile_length_claims_fail_fast_without_allocating(
        kind in 2u8..8, // length-carrying kinds (7 stands in for 11 = Reliable)
        len in 0u64..u64::MAX,
    ) {
        // [kind][huge length]... with no matching body: must be a typed
        // error, and must not try to reserve `len` elements first. The
        // checksum is made valid so the decode *reaches* the length guard
        // instead of bouncing off the CRC check.
        let kind = if kind == 7 { 11 } else { kind };
        let mut enc = vec![kind];
        len.put(&mut enc);
        enc.extend_from_slice(&[0; 16]);
        let crc = crc32(&enc);
        enc.extend_from_slice(&crc.to_le_bytes());
        prop_assert!(Frame::from_bytes(&enc).is_err());
    }

    #[test]
    fn value_types_round_trip_bit_exact(
        v in proptest::collection::vec((0u64..u64::MAX, -1e300f64..1e300), 0..16),
        s in proptest::collection::vec(0u32..0x10FFFF, 0..12),
        secs in 0u64..u64::MAX,
        nanos in 0u64..1_000_000_000,
    ) {
        let ints: Vec<u64> = v.iter().map(|(i, _)| *i).collect();
        let floats: Vec<f64> = v.iter().map(|(_, f)| *f).collect();
        prop_assert_eq!(<Vec<u64> as Wire>::from_bytes(&ints.to_bytes()).unwrap(), ints);
        // floats round-trip through to_bits, so -0.0 and every payload
        // travel exactly
        let back = <Vec<f64> as Wire>::from_bytes(&floats.to_bytes()).unwrap();
        prop_assert_eq!(
            back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        let string: String = s.iter().filter_map(|&c| char::from_u32(c)).collect();
        prop_assert_eq!(String::from_bytes(&string.to_bytes()).unwrap(), string);
        let d = Duration::new(secs, nanos as u32);
        prop_assert_eq!(Duration::from_bytes(&d.to_bytes()).unwrap(), d);
        let stats = CommStats {
            sent_msgs: secs,
            sent_bytes: nanos,
            recv_msgs: secs ^ nanos,
            recv_bytes: secs.wrapping_mul(3),
            rdma_gets: nanos / 7,
            rdma_get_bytes: secs.rotate_left(13),
        };
        prop_assert_eq!(CommStats::from_bytes(&stats.to_bytes()).unwrap(), stats);
        // every field nonzero and distinct, so a field-order slip in the
        // report's encoding cannot round-trip unnoticed
        let n = |k: u64| 1 + k + (secs % (1 << 40)) * 32;
        let x = |k: u64| n(k) as f64 * 0.5 + nanos as f64 * 1e-9;
        let report = SpgemmReport {
            fetched_bytes: n(0),
            cache_hit_bytes: n(1),
            needed_bytes: n(2),
            fetched_bytes_global: n(3),
            rdma_msgs: n(4),
            b_request_bytes: n(5),
            b_shipped_bytes: n(6),
            b_served_bytes: n(7),
            meta_bytes: n(8),
            expand_bytes: n(9),
            reduce_bytes: n(10),
            peak_local_bytes: n(11),
            cv_over_mem: x(12),
            comm: CommStats {
                sent_msgs: n(13),
                sent_bytes: n(14),
                recv_msgs: n(15),
                recv_bytes: n(16),
                rdma_gets: n(17),
                rdma_get_bytes: n(18),
            },
            wall_s: x(19),
            phases: PhaseTimes {
                symbolic_s: x(20),
                fetch_s: x(21),
                compute_s: x(22),
                assemble_s: x(23),
            },
        };
        prop_assert_eq!(SpgemmReport::from_bytes(&report.to_bytes()).unwrap(), report);
    }

    #[test]
    fn error_types_round_trip_through_outcome_frames(
        rank in 0usize..4096,
        secs in 0u64..1_000_000,
    ) {
        for prim in [Primitive::Recv, Primitive::Barrier, Primitive::Exchange] {
            for err in [
                CommError::PeerFailed { rank, primitive: prim },
                CommError::Timeout { primitive: prim, waited: Duration::from_secs(secs) },
                CommError::Poisoned,
            ] {
                let outcome: Result<Vec<u64>, RankError> =
                    Err(RankError::Comm(err.clone()));
                // the exact path a failed rank's result takes to the parent
                let frame = Frame::Outcome { payload: outcome.to_bytes() };
                let enc = frame.to_bytes();
                let Ok(Frame::Outcome { payload }) = Frame::from_bytes(&enc) else {
                    return Err("outcome frame did not round trip".into());
                };
                let back = <Result<Vec<u64>, RankError> as Wire>::from_bytes(&payload).unwrap();
                prop_assert_eq!(back, outcome);
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        a in 0u64..u64::MAX,
        junk in 1usize..8,
    ) {
        // junk appended after the CRC suffix: the stored checksum no longer
        // covers the tail, so this now surfaces as Corrupt
        let mut enc = (Frame::Abort { victim: a }).to_bytes();
        enc.extend(std::iter::repeat_n(0xAB, junk));
        match Frame::from_bytes(&enc) {
            Err(WireError::Corrupt { .. }) => {}
            other => return Err(format!("expected Corrupt, got {other:?}")),
        }
        // junk smuggled *inside* the checksummed region (CRC recomputed to
        // match): passes integrity, still rejected as Malformed
        let mut enc = (Frame::Abort { victim: a }).to_bytes();
        enc.truncate(enc.len() - 4);
        enc.extend(std::iter::repeat_n(0xAB, junk));
        let crc = crc32(&enc);
        enc.extend_from_slice(&crc.to_le_bytes());
        match Frame::from_bytes(&enc) {
            Err(WireError::Malformed { .. }) => {}
            other => return Err(format!("expected Malformed, got {other:?}")),
        }
    }
}
