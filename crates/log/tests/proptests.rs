//! Property tests for the log pipeline: round-trips, join laws, the
//! binary segment codec, and the durability layer (checkpoint framing,
//! segment lifecycle).

use proptest::prelude::*;

use harvest_core::policy::UniformPolicy;
use harvest_log::checkpoint::{load_latest, CheckpointStore, CheckpointWriter, MemoryCheckpoints};
use harvest_log::codec::{self, DecodeError};
use harvest_log::lifecycle::{compact_segments, LifecycleConfig};
use harvest_log::pipeline::HarvestPipeline;
use harvest_log::propensity::KnownPropensity;
use harvest_log::record::{
    read_json_lines, BatchDecision, BatchRecord, DecisionRecord, JsonLinesWriter, LogRecord,
    OutcomeRecord,
};
use harvest_log::scavenge::{scavenge, scavenge_segments};
use harvest_log::segment::{
    crc32, encode_frame, recover_segment, recover_segments, MemorySegments, SegmentConfig,
    SegmentedLogWriter, FRAME_HEADER_LEN,
};

fn arb_decision() -> impl Strategy<Value = DecisionRecord> {
    (
        0u64..1000,
        0u64..1_000_000,
        proptest::collection::vec(-100.0f64..100.0, 0..6),
        1usize..8,
        proptest::option::of(0.05f64..1.0),
        proptest::option::of(-10.0f64..10.0),
    )
        .prop_map(|(id, ts, shared, k, propensity, reward)| DecisionRecord {
            request_id: id,
            timestamp_ns: ts,
            component: "prop".to_string(),
            shared_features: shared,
            action_features: None,
            num_actions: k,
            action: (id as usize) % k,
            propensity,
            reward,
        })
}

proptest! {
    #[test]
    fn json_lines_round_trip_any_records(
        decisions in proptest::collection::vec(arb_decision(), 0..40),
        outcomes in proptest::collection::vec((0u64..1000, 0u64..1_000_000, -10.0f64..10.0), 0..40)
    ) {
        let mut records: Vec<LogRecord> =
            decisions.into_iter().map(LogRecord::Decision).collect();
        records.extend(outcomes.into_iter().map(|(id, ts, r)| {
            LogRecord::Outcome(OutcomeRecord { request_id: id, timestamp_ns: ts, reward: r })
        }));
        let mut w = JsonLinesWriter::new(Vec::new());
        for r in &records {
            w.write(r).unwrap();
        }
        let (back, stats) = read_json_lines(w.into_inner().as_slice()).unwrap();
        prop_assert_eq!(stats.malformed, 0);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn scavenge_join_accounting_balances(
        decisions in proptest::collection::vec(arb_decision(), 0..50)
    ) {
        let records: Vec<LogRecord> = decisions.iter().cloned().map(LogRecord::Decision).collect();
        let (samples, stats) = scavenge(&records);
        // Every decision is either joined (had inline reward), missing its
        // outcome, or invalid.
        prop_assert_eq!(
            stats.joined + stats.missing_outcome + stats.invalid,
            decisions.len()
        );
        prop_assert_eq!(samples.len(), stats.joined);
        prop_assert_eq!(stats.orphan_outcomes, 0);
    }

    #[test]
    fn pipeline_output_is_always_a_valid_dataset(
        decisions in proptest::collection::vec(arb_decision(), 0..50)
    ) {
        let records: Vec<LogRecord> = decisions.iter().cloned().map(LogRecord::Decision).collect();
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (dataset, report) = pipeline.run(&records).unwrap();
        // Validation is enforced sample-by-sample: everything in the
        // dataset has a usable propensity and finite reward.
        for s in &dataset {
            prop_assert!(s.propensity > 0.0 && s.propensity <= 1.0);
            prop_assert!(s.reward.is_finite());
        }
        prop_assert!(dataset.len() <= decisions.len());
        prop_assert_eq!(
            report.logged_propensities + report.inferred_propensities,
            dataset.len() + report.dropped_invalid_propensity
        );
    }
}

/// Sorted joined samples keyed by everything training sees, for multiset
/// comparison across a compaction pass.
fn joined_multiset(segments: &[Vec<u8>]) -> Vec<(usize, String, String, String)> {
    let (samples, _, _) = scavenge_segments(segments);
    let mut keyed: Vec<(usize, String, String, String)> = samples
        .iter()
        .map(|s| {
            (
                s.action,
                format!("{:?}", s.reward),
                format!("{:?}", s.propensity),
                format!("{:?}", s.context),
            )
        })
        .collect();
    keyed.sort();
    keyed
}

proptest! {
    #[test]
    fn checkpoint_round_trips_and_retention_keeps_the_newest(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        keep_last in 1usize..4,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), keep_last).unwrap();
        for p in &payloads {
            w.write(p).unwrap();
        }
        let store = w.into_store();
        let (loaded, rec) = load_latest(&store);
        // The newest payload always loads back verbatim, arbitrary bytes
        // included, and retention never scans a damaged blob on the way.
        prop_assert_eq!(loaded.as_deref(), Some(payloads.last().unwrap().as_slice()));
        prop_assert_eq!(rec.discarded, 0);
        prop_assert_eq!(rec.loaded_seq, Some(payloads.len() as u64 - 1));
        prop_assert!(store.list().unwrap().len() <= keep_last);
    }

    #[test]
    fn checkpoint_truncated_at_any_offset_falls_back_to_previous_valid(
        older in proptest::collection::vec(any::<u8>(), 0..100),
        newer in proptest::collection::vec(any::<u8>(), 0..100),
        frac in 0.0f64..1.0,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), 8).unwrap();
        w.write(&older).unwrap();
        let seq = w.write(&newer).unwrap();
        let mut store = w.into_store();
        // A torn write is any strictly-short prefix — header boundary,
        // mid-header, mid-payload, empty; every offset must be detected.
        let blob = store.raw(seq).unwrap();
        let cut = (((blob.len()) as f64) * frac) as usize;
        store.publish(seq, &blob[..cut.min(blob.len() - 1)]).unwrap();
        let (loaded, rec) = load_latest(&store);
        prop_assert_eq!(loaded.as_deref(), Some(older.as_slice()));
        prop_assert_eq!(rec.discarded, 1);
        prop_assert_eq!(rec.loaded_seq, Some(0));
    }

    #[test]
    fn any_single_byte_corruption_is_detected_and_counted(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), 8).unwrap();
        let seq = w.write(&payload).unwrap();
        let mut store = w.into_store();
        // Flip one byte anywhere: magic, version, seq, length, checksum, or
        // payload. Every position must fail validation — a flipped seq
        // field parses but no longer matches its slot.
        let mut blob = store.raw(seq).unwrap();
        let pos = (((blob.len() - 1) as f64) * pos_frac) as usize;
        blob[pos] ^= xor;
        store.publish(seq, &blob).unwrap();
        let (loaded, rec) = load_latest(&store);
        prop_assert!(loaded.is_none(), "one-byte flip at {pos} validated");
        prop_assert_eq!(rec.discarded, 1);
    }

    #[test]
    fn compaction_preserves_the_joined_multiset_and_quarantine(
        decisions in proptest::collection::vec(arb_decision(), 0..40),
        max_records in 1usize..6,
        hot in 0usize..4,
        damage in proptest::option::of((0usize..8, 1u8..255)),
    ) {
        // Unique ids (joins are per-id); every even id gets an outcome, so
        // the stream mixes folded joins, unmatched decisions, and inline
        // rewards that an outcome must override.
        let mut records: Vec<LogRecord> = Vec::new();
        for (i, mut d) in decisions.into_iter().enumerate() {
            d.request_id = i as u64;
            let ts = d.timestamp_ns;
            records.push(LogRecord::Decision(d));
            if i % 2 == 0 {
                records.push(LogRecord::Outcome(OutcomeRecord {
                    request_id: i as u64,
                    timestamp_ns: ts + 1,
                    reward: i as f64 * 0.25,
                }));
            }
        }
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig { max_records, max_bytes: usize::MAX, max_span_ns: u64::MAX },
        );
        for r in &records {
            w.write(r).unwrap();
        }
        let store = w.into_sink().unwrap();
        if let Some((seg, xor)) = damage {
            let n = store.segment_count();
            if n > 0 {
                store.corrupt_payload(seg % n, 0, xor);
            }
        }
        let before = joined_multiset(&store.snapshot());
        let (_, before_stats) = recover_segments(&store.snapshot());
        let (compacted, report) = compact_segments(
            &store.snapshot(),
            &LifecycleConfig {
                shard: SegmentConfig::default(),
                hot_segments: hot,
                max_shards: usize::MAX,
            },
        );
        // The training view is untouched: exact multiset of joined samples,
        // and damage accounting carried through verbatim.
        prop_assert_eq!(joined_multiset(&compacted), before);
        let (_, after_stats) = recover_segments(&compacted);
        prop_assert_eq!(after_stats.quarantined_records, before_stats.quarantined_records);
        prop_assert_eq!(after_stats.quarantined_bytes, before_stats.quarantined_bytes);
        prop_assert_eq!(report.segments_in, store.segment_count());
        prop_assert_eq!(report.expired_records, 0);
    }
}

// ---------------------------------------------------------------------------
// Binary segment codec
// ---------------------------------------------------------------------------

/// Any `f64` bit pattern, weighted toward the ones a text codec mangles:
/// NaNs with arbitrary payloads and sign, ±0.0, ±∞, subnormals.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (
            0x7FF0_0000_0000_0001u64..=0x7FFF_FFFF_FFFF_FFFF,
            any::<bool>()
        )
            .prop_map(|(bits, neg)| f64::from_bits(bits | (u64::from(neg) << 63))),
        (1u64..1 << 52, any::<bool>())
            .prop_map(|(bits, neg)| f64::from_bits(bits | (u64::from(neg) << 63))),
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
        ],
        -1e3f64..1e3,
    ]
}

/// Strings with multi-byte UTF-8 in them.
fn arb_component() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x11_0000, 0..8)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_action_features() -> impl Strategy<Value = Option<Vec<Vec<f64>>>> {
    proptest::option::of(proptest::collection::vec(
        proptest::collection::vec(arb_f64(), 0..4),
        0..4,
    ))
}

fn arb_batch_decision() -> impl Strategy<Value = BatchDecision> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_f64(), 0..6),
        arb_action_features(),
        any::<usize>(),
        any::<usize>(),
        proptest::option::of(arb_f64()),
        proptest::option::of(arb_f64()),
    )
        .prop_map(
            |(
                request_id,
                timestamp_ns,
                shared_features,
                action_features,
                num_actions,
                action,
                propensity,
                reward,
            )| {
                BatchDecision {
                    request_id,
                    timestamp_ns,
                    shared_features,
                    action_features,
                    num_actions,
                    action,
                    propensity,
                    reward,
                }
            },
        )
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (arb_component(), arb_batch_decision())
            .prop_map(|(c, d)| LogRecord::Decision(d.into_decision(&c))),
        (any::<u64>(), any::<u64>(), arb_f64()).prop_map(|(request_id, timestamp_ns, reward)| {
            LogRecord::Outcome(OutcomeRecord {
                request_id,
                timestamp_ns,
                reward,
            })
        }),
        (
            arb_component(),
            proptest::collection::vec(arb_batch_decision(), 0..6)
        )
            .prop_map(|(component, decisions)| LogRecord::Batch(BatchRecord {
                component,
                decisions
            })),
    ]
}

fn payload(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    codec::encode(record, &mut out);
    out
}

/// Every float of a record as raw bits, in encoding order: `PartialEq`
/// cannot see NaN payloads or the sign of zero, bits can.
fn float_bits(record: &LogRecord) -> Vec<u64> {
    fn decided(out: &mut Vec<u64>, d: &BatchDecision) {
        out.extend(d.shared_features.iter().map(|x| x.to_bits()));
        for row in d.action_features.iter().flatten() {
            out.extend(row.iter().map(|x| x.to_bits()));
        }
        out.extend(d.propensity.map(f64::to_bits));
        out.extend(d.reward.map(f64::to_bits));
    }
    let mut out = Vec::new();
    match record {
        LogRecord::Decision(d) => decided(&mut out, &BatchDecision::from(d.clone())),
        LogRecord::Outcome(o) => out.push(o.reward.to_bits()),
        LogRecord::Batch(b) => b.decisions.iter().for_each(|d| decided(&mut out, d)),
    }
    out
}

/// A record with every float replaced by a NaN-free stand-in, for a
/// `PartialEq` check of all the non-float structure.
fn structure(record: &LogRecord) -> LogRecord {
    fn clean(d: &mut BatchDecision) {
        d.shared_features.iter_mut().for_each(|x| *x = 0.0);
        d.action_features
            .iter_mut()
            .flatten()
            .flatten()
            .for_each(|x| *x = 0.0);
        d.propensity = d.propensity.map(|_| 0.0);
        d.reward = d.reward.map(|_| 0.0);
    }
    let mut r = record.clone();
    match &mut r {
        LogRecord::Decision(d) => {
            let mut b = BatchDecision::from(d.clone());
            clean(&mut b);
            let component = std::mem::take(&mut d.component);
            *d = b.into_decision(&component);
        }
        LogRecord::Outcome(o) => o.reward = 0.0,
        LogRecord::Batch(b) => b.decisions.iter_mut().for_each(clean),
    }
    r
}

proptest! {
    #[test]
    fn codec_round_trips_every_record_bit_for_bit(record in arb_record()) {
        let bytes = payload(&record);
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(float_bits(&back), float_bits(&record));
        prop_assert_eq!(structure(&back), structure(&record));
        prop_assert_eq!(payload(&back), bytes);
    }

    #[test]
    fn codec_rejects_every_strict_prefix(record in arb_record()) {
        let bytes = payload(&record);
        for cut in 0..bytes.len() {
            prop_assert!(codec::decode(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
    }

    #[test]
    fn codec_rejects_trailing_bytes(
        record in arb_record(),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = payload(&record);
        bytes.extend_from_slice(&extra);
        prop_assert_eq!(codec::decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn codec_rejects_overlong_length_prefixes_before_allocating(
        d in arb_batch_decision(),
        component in arb_component(),
        site in 0usize..4,
        excess in any::<u64>(),
    ) {
        // Each length-prefixed field, in turn, claims more elements than
        // the bytes after it hold — up to u64::MAX, which no allocator
        // could satisfy, so an Err (not an abort) proves the check runs
        // before the allocation.
        let mut d = d;
        d.action_features.get_or_insert_with(Vec::new);
        let record = match site {
            0 | 2 | 3 => LogRecord::Decision(d.clone().into_decision(&component)),
            _ => LogRecord::Batch(BatchRecord { component: component.clone(), decisions: vec![d.clone()] }),
        };
        let mut bytes = payload(&record);
        let clen = component.len();
        let at = match site {
            0 => 1 + 16,                              // decision component length
            1 => 1 + 8 + clen,                        // batch decision count
            2 => 1 + 16 + 8 + clen,                   // shared_features length
            _ => 1 + 16 + 8 + clen + 8 + 8 * d.shared_features.len() + 1, // action_features rows
        };
        let left = (bytes.len() - at - 8) as u64;
        let claim = left + 1 + excess % (u64::MAX - left);
        bytes[at..at + 8].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(codec::decode(&bytes), Err(DecodeError::LengthOverrun));
    }

    #[test]
    fn every_single_byte_flip_in_a_frame_is_quarantined_and_counted(
        record in arb_record(),
        xor in 1u8..=255,
    ) {
        let frame = encode_frame(&record).unwrap();
        for pos in 0..frame.len() {
            let mut bytes = frame.clone();
            bytes[pos] ^= xor;
            let (recovered, stats) = recover_segment(&bytes);
            prop_assert!(recovered.is_empty(), "flip at {} of {} replayed", pos, frame.len());
            prop_assert!(stats.quarantined_records >= 1);
            prop_assert_eq!(stats.quarantined_bytes, bytes.len());
        }
    }

    #[test]
    fn a_json_era_frame_is_quarantined_not_misread(
        before in proptest::collection::vec(arb_decision(), 0..4),
        legacy in arb_decision(),
    ) {
        // The earlier payload format: the serde JSON of a LogRecord under
        // a valid header and CRC. It fails the codec's tag check.
        let json = serde_json::to_string(&LogRecord::Decision(legacy)).unwrap();
        let mut legacy_frame = (json.len() as u32).to_le_bytes().to_vec();
        legacy_frame.extend_from_slice(&crc32(json.as_bytes()).to_le_bytes());
        legacy_frame.extend_from_slice(json.as_bytes());
        prop_assert!(codec::decode(&legacy_frame[FRAME_HEADER_LEN..]).is_err());

        let records: Vec<LogRecord> = before.into_iter().map(LogRecord::Decision).collect();
        let mut bytes: Vec<u8> = records.iter().flat_map(|r| encode_frame(r).unwrap()).collect();
        bytes.extend_from_slice(&legacy_frame);
        let (recovered, stats) = recover_segment(&bytes);
        prop_assert_eq!(&recovered, &records);
        prop_assert_eq!(stats.quarantined_records, 1);
        prop_assert_eq!(stats.quarantined_bytes, legacy_frame.len());
    }
}

#[test]
fn codec_round_trips_option_and_batch_extremes() {
    let base = BatchDecision {
        request_id: u64::MAX,
        timestamp_ns: 0,
        shared_features: vec![0.5; 16],
        action_features: None,
        num_actions: 8,
        action: 7,
        propensity: None,
        reward: None,
    };
    let mut variants = Vec::new();
    for propensity in [None, Some(0.125)] {
        for reward in [None, Some(-1.0)] {
            for action_features in [None, Some(vec![]), Some(vec![vec![1.0, 2.0], vec![]])] {
                variants.push(BatchDecision {
                    propensity,
                    reward,
                    action_features: action_features.clone(),
                    ..base.clone()
                });
            }
        }
    }
    let mut records: Vec<LogRecord> = variants
        .iter()
        .map(|d| LogRecord::Decision(d.clone().into_decision("serve")))
        .collect();
    records.push(LogRecord::Batch(BatchRecord {
        component: String::new(),
        decisions: vec![],
    }));
    records.push(LogRecord::Batch(BatchRecord {
        component: "serve".to_string(),
        decisions: (0..1_000)
            .map(|i| BatchDecision {
                request_id: i,
                ..variants[i as usize % variants.len()].clone()
            })
            .collect(),
    }));
    for record in &records {
        let back = codec::decode(&payload(record)).unwrap();
        assert_eq!(&back, record);
    }
    // Through the segment frame too: the batch flattens to its decisions.
    let (recovered, stats) = recover_segment(&encode_frame(records.last().unwrap()).unwrap());
    assert_eq!(stats.recovered, 1_000);
    assert!(stats.is_clean());
    assert_eq!(recovered.len(), 1_000);
}
