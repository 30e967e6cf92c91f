//! Codec torture suite: round-trip every frame type, then prove the
//! decoder total — truncations at every byte boundary, single-bit
//! flips, oversized and hostile length fields all yield a typed
//! [`ProtoError`], never a panic. A checked-in regression corpus
//! under `tests/corpus/` pins known-tricky inputs (regenerate with
//! `UPDATE_CORPUS=1 cargo test -p good-server --test proto`).

use good_core::gen::random_workload;
use good_server::proto::{
    decode, encode, rows_payload_len, ErrCode, Frame, ProtoError, SnapshotInfo, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

/// One representative of every frame type, parameterized by a seed so
/// the proptests sweep field values too.
fn sample_frames(seed: u64) -> Vec<Frame> {
    let program = random_workload(seed, 1).remove(0);
    vec![
        Frame::Hello { session: seed },
        Frame::Submit {
            request: seed,
            program,
            trace: seed.is_multiple_of(2).then_some(seed ^ 0xD1CE),
        },
        Frame::Ack {
            request: seed,
            epoch: seed / 2,
            commit_seq: seed.is_multiple_of(2).then_some(seed + 1),
            outcome: if seed.is_multiple_of(3) {
                Err(format!("rejected-{seed}"))
            } else {
                Ok(format!("2 matching(s), +{seed} nodes"))
            },
        },
        Frame::Snapshot {
            request: seed,
            at: (seed % 2 == 1).then_some(seed),
            want_dot: seed.is_multiple_of(2),
            info: None,
        },
        Frame::Snapshot {
            request: seed,
            at: None,
            want_dot: true,
            info: Some(SnapshotInfo {
                epoch: seed,
                nodes: seed * 3,
                edges: seed * 5,
                dot: Some(format!("digraph g{seed} {{}}")),
            }),
        },
        Frame::Query {
            request: seed,
            at: seed.is_multiple_of(4).then_some(seed),
            pattern: format!("i: Info; s: String = \"x{seed}\"; i -name-> s;"),
            trace: seed.is_multiple_of(3).then_some(seed.wrapping_mul(31)),
        },
        Frame::Rows {
            request: seed,
            epoch: seed,
            columns: vec!["i".into(), "s".into()],
            rows: vec![
                vec![format!("Info(#{seed})"), "String(x)".into()],
                vec!["Info(#2)".into(), "String(üñïçøde)".into()],
            ],
        },
        Frame::Err {
            request: seed,
            code: match seed % 7 {
                0 => ErrCode::BadRequest,
                1 => ErrCode::UnknownSession,
                2 => ErrCode::Shutdown,
                3 => ErrCode::QueueFull,
                4 => ErrCode::QuotaExceeded,
                5 => ErrCode::Overloaded,
                _ => ErrCode::Store,
            },
            retry_after_ms: (seed % 500) as u32,
            detail: format!("detail {seed}"),
        },
        Frame::Goodbye {
            reason: format!("reason {seed}"),
        },
        Frame::Stats { request: seed },
        Frame::StatsReply {
            request: seed,
            json: format!("{{\"server\":{{\"epoch\":{seed}}}}}"),
        },
    ]
}

/// Round-trip identity is checked on bytes: `Program` has no
/// `PartialEq`, but its serde encoding is canonical, so
/// `encode(decode(encode(f))) == encode(f)` is the right equality.
fn assert_round_trips(frame: &Frame) {
    let bytes = encode(frame);
    let (decoded, consumed) =
        decode(&bytes).unwrap_or_else(|err| panic!("{} must decode: {err}", frame.type_name()));
    assert_eq!(consumed, bytes.len(), "{} consumed", frame.type_name());
    assert_eq!(
        encode(&decoded),
        bytes,
        "{} round-trip must be byte-identical",
        frame.type_name()
    );
    // The size a server predicts for a reply is the size it encodes to.
    if let Frame::Rows { columns, rows, .. } = frame {
        let cell_bytes = rows.iter().flatten().map(String::len).sum();
        let predicted = rows_payload_len(columns, rows.len(), columns.len(), cell_bytes);
        assert_eq!(predicted, bytes.len() - HEADER_LEN);
    }
}

#[test]
fn every_frame_type_round_trips() {
    for seed in [0, 1, 2, 3, 5, 7, 1_000_003] {
        for frame in sample_frames(seed) {
            assert_round_trips(&frame);
        }
    }
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for frame in sample_frames(11) {
        let bytes = encode(&frame);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(ProtoError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut, "needed {needed} must exceed available {cut}");
                }
                Err(ProtoError::Malformed { .. }) => {
                    // Payload-level truncation detected after the
                    // header claimed a shorter payload is impossible
                    // here (len is exact); any Malformed would be a
                    // codec bug.
                    panic!(
                        "truncation at {cut}/{} of {} decoded as Malformed",
                        bytes.len(),
                        frame.type_name()
                    );
                }
                other => panic!(
                    "truncation at {cut}/{} of {} gave {other:?}",
                    bytes.len(),
                    frame.type_name()
                ),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_yields_frame_or_typed_error() {
    // Exhaustive over all bits of every sample frame: decode must
    // return, never panic. (The result may legitimately be Ok — many
    // flips only change field values.)
    for frame in sample_frames(3) {
        let bytes = encode(&frame);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                match decode(&mutated) {
                    Ok((decoded, consumed)) => {
                        assert!(consumed <= mutated.len());
                        // Re-encoding a decoded frame must stay total.
                        let _ = encode(&decoded);
                    }
                    Err(_typed) => {}
                }
            }
        }
    }
}

#[test]
fn oversized_length_field_is_rejected_before_allocation() {
    let mut bytes = encode(&Frame::Hello { session: 1 });
    bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode(&bytes) {
        Err(ProtoError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX as u64);
            assert_eq!(max, MAX_PAYLOAD as u64);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    // Just over the limit is also refused; the limit itself is not.
    bytes[6..10].copy_from_slice(&((MAX_PAYLOAD + 1) as u32).to_le_bytes());
    assert!(matches!(decode(&bytes), Err(ProtoError::Oversized { .. })));
}

#[test]
fn bad_magic_version_and_type_are_typed() {
    let good = encode(&Frame::Goodbye { reason: "x".into() });

    let mut bad_magic = good.clone();
    bad_magic[0] = b'B';
    assert!(matches!(decode(&bad_magic), Err(ProtoError::BadMagic(_))));

    let mut bad_version = good.clone();
    bad_version[4] = VERSION + 1;
    assert!(matches!(
        decode(&bad_version),
        Err(ProtoError::Version { got, want }) if got == VERSION + 1 && want == VERSION
    ));

    let mut bad_type = good.clone();
    bad_type[5] = 99;
    assert!(matches!(
        decode(&bad_type),
        Err(ProtoError::UnknownFrame(99))
    ));

    let mut zero_type = good;
    zero_type[5] = 0;
    assert!(matches!(
        decode(&zero_type),
        Err(ProtoError::UnknownFrame(0))
    ));
}

#[test]
fn payload_trailing_bytes_are_malformed() {
    let mut bytes = encode(&Frame::Hello { session: 9 });
    // Grow the payload by one byte and fix the length field: the
    // Hello decoder must reject the trailing byte.
    bytes.push(0xAA);
    let len = (bytes.len() - HEADER_LEN) as u32;
    bytes[6..10].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        decode(&bytes),
        Err(ProtoError::Malformed { frame: "Hello", .. })
    ));
}

#[test]
fn invalid_utf8_and_bad_bools_are_malformed() {
    // Goodbye with a string of 2 bytes of invalid UTF-8.
    let bytes = frame_with(8, &[2, 0, 0, 0, 0xFF, 0xFE]);
    assert!(matches!(
        decode(&bytes),
        Err(ProtoError::Malformed {
            frame: "Goodbye",
            ..
        })
    ));

    // Snapshot whose want_dot byte is 7.
    let snap = Frame::Snapshot {
        request: 1,
        at: None,
        want_dot: false,
        info: None,
    };
    let mut bytes = encode(&snap);
    // Payload: request u64 (8) + has_at u8 (1) + want_dot u8 (1) + has_info u8 (1).
    bytes[HEADER_LEN + 9] = 7;
    assert!(matches!(
        decode(&bytes),
        Err(ProtoError::Malformed {
            frame: "Snapshot",
            ..
        })
    ));
}

/// A hand-built frame: a well-formed header around any payload.
fn frame_with(type_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(type_byte);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A hand-built `Submit` frame whose program text is `text`.
fn submit_with_text(request: u64, text: &str) -> Vec<u8> {
    let mut payload = request.to_le_bytes().to_vec();
    payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
    payload.extend_from_slice(text.as_bytes());
    frame_with(2, &payload)
}

#[test]
fn submit_with_garbage_json_is_malformed_not_a_panic() {
    assert!(matches!(
        decode(&submit_with_text(1, "{\"ops\": [truncated")),
        Err(ProtoError::Malformed {
            frame: "Submit",
            ..
        })
    ));
}

#[test]
fn untraced_submit_and_query_use_the_v0_layout() {
    // A Submit/Query without a trace id must encode with zero trailing
    // bytes — byte-identical to what a pre-tracing peer emits — and an
    // old-layout frame must decode with `trace: None`. This is the
    // wire-compat contract: tracing is opt-in per frame, not a version
    // bump.
    let program = random_workload(5, 1).remove(0);
    let submit = Frame::Submit {
        request: 5,
        program,
        trace: None,
    };
    let bytes = encode(&submit);
    // Reconstruct the old layout by hand: request u64 + len-prefixed
    // program JSON, nothing after.
    let json_len = u32::from_le_bytes(bytes[HEADER_LEN + 8..HEADER_LEN + 12].try_into().unwrap());
    assert_eq!(
        bytes.len(),
        HEADER_LEN + 8 + 4 + json_len as usize,
        "untraced Submit must carry no trailing trace bytes"
    );
    let (decoded, _) = decode(&bytes).expect("v0-layout Submit decodes");
    match &decoded {
        Frame::Submit { trace, .. } => assert_eq!(*trace, None),
        other => panic!("decoded {}", other.type_name()),
    }
    assert_eq!(encode(&decoded), bytes);

    let query = Frame::Query {
        request: 6,
        at: None,
        pattern: "i: Info;".into(),
        trace: None,
    };
    let bytes = encode(&query);
    let (decoded, _) = decode(&bytes).expect("v0-layout Query decodes");
    match &decoded {
        Frame::Query { trace, .. } => assert_eq!(*trace, None),
        other => panic!("decoded {}", other.type_name()),
    }
    assert_eq!(encode(&decoded), bytes);
}

#[test]
fn traced_submit_round_trips_and_zero_presence_byte_is_rejected() {
    let program = random_workload(7, 1).remove(0);
    let traced = Frame::Submit {
        request: 7,
        program,
        trace: Some(0xFEED_BEEF_u64),
    };
    let bytes = encode(&traced);
    let (decoded, consumed) = decode(&bytes).expect("traced Submit decodes");
    assert_eq!(consumed, bytes.len());
    match &decoded {
        Frame::Submit { trace, .. } => assert_eq!(*trace, Some(0xFEED_BEEF_u64)),
        other => panic!("decoded {}", other.type_name()),
    }
    assert_eq!(encode(&decoded), bytes);

    // The encoding is canonical: absence is *zero* bytes, so a `0`
    // presence byte (an alternate spelling of "no trace") is malformed.
    let mut zero_presence = bytes.clone();
    // Strip `1 + u64` and append a lone `0`, fixing the length field.
    zero_presence.truncate(bytes.len() - 9);
    zero_presence.push(0);
    let len = (zero_presence.len() - HEADER_LEN) as u32;
    zero_presence[6..10].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        decode(&zero_presence),
        Err(ProtoError::Malformed {
            frame: "Submit",
            ..
        })
    ));
}

// ---------------------------------------------------------------- corpus

/// The regression corpus: known-tricky wire inputs checked in as
/// files. `ok-*.bin` must decode; `err-*.bin` must yield a typed
/// error. Every file must be classified — a panic fails the test by
/// aborting it.
fn corpus_dir() -> std::path::PathBuf {
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("tests");
    path.push("corpus");
    path
}

/// The corpus contents, as `(name, bytes)`; regenerated byte-for-byte
/// by `UPDATE_CORPUS=1`.
fn corpus_entries() -> Vec<(String, Vec<u8>)> {
    let mut entries = Vec::new();
    for (index, frame) in sample_frames(42).into_iter().enumerate() {
        entries.push((
            format!("ok-{:02}-{}.bin", index, frame.type_name().to_lowercase()),
            encode(&frame),
        ));
    }
    let hello = encode(&Frame::Hello { session: 7 });

    entries.push(("err-empty.bin".into(), Vec::new()));
    entries.push(("err-header-only-3-bytes.bin".into(), hello[..3].to_vec()));
    entries.push((
        "err-truncated-mid-payload.bin".into(),
        hello[..HEADER_LEN + 4].to_vec(),
    ));
    let mut bad_magic = hello.clone();
    bad_magic[0..4].copy_from_slice(b"EVIL");
    entries.push(("err-bad-magic.bin".into(), bad_magic));
    let mut bad_version = hello.clone();
    bad_version[4] = 0x7F;
    entries.push(("err-bad-version.bin".into(), bad_version));
    let mut bad_type = hello.clone();
    bad_type[5] = 0xEE;
    entries.push(("err-unknown-type.bin".into(), bad_type));
    let mut oversized = hello.clone();
    oversized[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    entries.push(("err-oversized-length.bin".into(), oversized));
    let mut trailing = encode(&Frame::Hello { session: 3 });
    trailing.push(0x00);
    let len = (trailing.len() - HEADER_LEN) as u32;
    trailing[6..10].copy_from_slice(&len.to_le_bytes());
    entries.push(("err-trailing-payload-byte.bin".into(), trailing));
    // Rows claiming u32::MAX rows in a near-empty payload.
    let mut rows_payload = Vec::new();
    rows_payload.extend_from_slice(&1u64.to_le_bytes());
    rows_payload.extend_from_slice(&1u64.to_le_bytes());
    rows_payload.extend_from_slice(&0u32.to_le_bytes());
    rows_payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let rows_bomb = frame_with(6, &rows_payload);
    entries.push(("err-rows-count-bomb.bin".into(), rows_bomb));
    // A Submit whose JSON is valid UTF-8 garbage.
    let submit_garbage = submit_with_text(9, "not json at all");
    entries.push(("err-submit-garbage-json.bin".into(), submit_garbage));
    // A Submit whose program text nests 100 000 deep: a typed error from
    // the reader's depth count, where a recursive parser overflowed the
    // connection thread's stack and took the process with it.
    let depth_bomb = submit_with_text(13, &"[".repeat(100_000));
    entries.push(("err-submit-depth-bomb.bin".into(), depth_bomb));
    // An Err frame carrying an unassigned error code.
    let mut err_payload = Vec::new();
    err_payload.extend_from_slice(&1u64.to_le_bytes());
    err_payload.push(0xCC); // bad code
    err_payload.extend_from_slice(&0u32.to_le_bytes());
    err_payload.extend_from_slice(&0u32.to_le_bytes());
    let bad_code = frame_with(7, &err_payload);
    entries.push(("err-bad-error-code.bin".into(), bad_code));
    // A Submit spelling "no trace id" as an explicit 0 presence byte:
    // the canonical encoding is zero trailing bytes, so this variant
    // must be rejected (otherwise re-encode would not be byte-stable).
    let mut zero_trace = encode(&Frame::Submit {
        request: 11,
        program: random_workload(11, 1).remove(0),
        trace: None,
    });
    zero_trace.push(0);
    let len = (zero_trace.len() - HEADER_LEN) as u32;
    zero_trace[6..10].copy_from_slice(&len.to_le_bytes());
    entries.push(("err-zero-trace-presence-byte.bin".into(), zero_trace));
    entries
}

#[test]
fn regression_corpus_is_checked_in_and_classified() {
    let dir = corpus_dir();
    if std::env::var("UPDATE_CORPUS").is_ok() {
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (name, bytes) in corpus_entries() {
            std::fs::write(dir.join(&name), &bytes).expect("write corpus file");
        }
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| {
            panic!(
                "corpus dir {} missing ({err}); regenerate with UPDATE_CORPUS=1",
                dir.display()
            )
        })
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(
        names.len() >= corpus_entries().len(),
        "corpus incomplete: {} files, expected at least {}",
        names.len(),
        corpus_entries().len()
    );
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("read corpus file");
        let result = decode(&bytes);
        if name.starts_with("ok-") {
            let (frame, consumed) =
                result.unwrap_or_else(|err| panic!("corpus {name} must decode: {err}"));
            assert_eq!(consumed, bytes.len(), "{name}");
            assert_eq!(encode(&frame), bytes, "{name} must re-encode identically");
        } else if name.starts_with("err-") {
            let err = match result {
                Err(err) => err,
                Ok((frame, _)) => {
                    panic!(
                        "corpus {name} must be rejected, decoded {}",
                        frame.type_name()
                    )
                }
            };
            // The error must render (Display is part of the contract).
            assert!(!err.to_string().is_empty(), "{name}");
        } else {
            panic!("corpus file {name} must be prefixed ok- or err-");
        }
    }
}

// ---------------------------------------------------------------- proptests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame built from random field values round-trips
    /// byte-identically.
    #[test]
    fn prop_round_trip(seed in 0u64..1_000_000) {
        for frame in sample_frames(seed) {
            assert_round_trips(&frame);
        }
    }

    /// Arbitrary byte soup never panics the decoder and always yields
    /// a frame or a typed error; decode of random bytes prefixed with
    /// a valid header shape is equally total.
    #[test]
    fn prop_decoder_is_total_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match decode(&bytes) {
            Ok((frame, consumed)) => {
                prop_assert!(consumed <= bytes.len());
                let _ = encode(&frame);
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
        // Same soup as a claimed-valid payload of every frame type.
        for type_byte in 1u8..=10 {
            let framed = frame_with(type_byte, &bytes);
            match decode(&framed) {
                Ok((frame, consumed)) => {
                    prop_assert!(consumed == framed.len());
                    let _ = encode(&frame);
                }
                Err(err) => prop_assert!(!err.to_string().is_empty()),
            }
        }
    }

    /// Random mutations (splices, flips, truncations) of valid frames
    /// stay total.
    #[test]
    fn prop_decoder_survives_mutations(
        seed in 0u64..100_000,
        cut in 0usize..2048,
        byte in 0usize..2048,
        flip in 0u8..8,
    ) {
        for frame in sample_frames(seed) {
            let mut bytes = encode(&frame);
            if !bytes.is_empty() {
                let position = byte % bytes.len();
                bytes[position] ^= 1 << flip;
                bytes.truncate(cut.max(1).min(bytes.len()));
            }
            match decode(&bytes) {
                Ok((frame, _)) => { let _ = encode(&frame); }
                Err(err) => prop_assert!(!err.to_string().is_empty()),
            }
        }
    }
}
