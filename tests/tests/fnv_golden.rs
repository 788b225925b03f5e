//! Golden values for every on-disk / on-wire artifact derived from the one
//! FNV-1a hasher (`er_core::intern::Fnv1a`). Each constant was measured at the
//! commit *before* the five private copies of the loop were merged, so a
//! passing suite proves — rather than assumes — that checkpoint
//! fingerprints, spill segments and MinHash block keys are computed as an
//! older build computed them.
//!
//! Two pins moved, deliberately, when frames, shuffle segments and
//! checkpoints moved onto the one wire codec and the colstore segment
//! envelope:
//!
//! * `protocol_fingerprint_is_pinned` — `PROTOCOL_VERSION` went 1 → 2 (frame
//!   payloads are a tag plus wire fields, not an escaped text line), and the
//!   fingerprint hashes the version, so a worker built before the change
//!   cannot join a pool built after it.
//! * `shuffle_segment_checksum_is_pinned` — a shuffle segment is now a
//!   one-section colstore segment of wire `(key, value)` rows instead of an
//!   escaped `er-dist` line file, so its bytes changed; the new value was
//!   measured at that change and pins its bytes from here on.
//!
//! `symbol_shuffle_segment_checksum_is_pinned` was added with the
//! `key-transpose` job: its shuffle segment is a one-section colstore segment
//! holding one key-sorted `KIND_POSTINGS` run, measured when the job landed.
//! It pins the symbol data plane beside the string one, which still holds.
//!
//! `checkpoint_fingerprint_is_pinned` did not move: the checkpoint
//! fingerprint is the same hash, now read from the segment header's
//! fingerprint field instead of a text header.
//!
//! `default_resolution_is_pinned` pins what no other suite pins: the matches
//! and clusters of the default `Pipeline::run` on a 2 000-entity corpus, as
//! `er generate --kind dirty --entities 2000 --seed 2017` writes it. Its
//! values were measured before the tokenizer, matching and clustering
//! kernels were rewritten, so it proves those rewrites moved no output.
//!
//! `protocol_fingerprint()` also hashes `CARGO_PKG_VERSION`; re-pin it (and
//! only it) when the workspace version is bumped.

use er_blocking::minhash::MinHashBlocking;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::colstore::{collection_fingerprint, SegmentWriter, FOOTER_LEN, MAGIC};
use er_core::entity::{EntityBuilder, EntityId, KbId};
use er_core::intern::{Fnv1a, Symbol};
use er_core::parallel::Parallelism;
use er_core::profiles::TokenProfiles;
use er_core::tokenize::Tokenizer;
use er_datagen::{DirtyConfig, DirtyDataset};
use er_integration_tests::ScratchDir;
use er_mapreduce::dist::{
    decode_map_result, default_registry, encode_map_task, encode_transpose_map_task, run_task,
    KEY_TRANSPOSE,
};
use er_pipeline::{Pipeline, RecoveryOptions};

fn fixture() -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for (name, city) in [
        ("Alan Turing", "London"),
        ("Alan M. Turing", "London"),
        ("Grace Hopper", "New York"),
    ] {
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("name", name).attr("city", city),
        );
    }
    c
}

#[test]
fn protocol_fingerprint_is_pinned() {
    assert_eq!(
        er_mapreduce::proto::protocol_fingerprint(),
        0x1844_8548_c72b_6059,
        "{:#018x}",
        er_mapreduce::proto::protocol_fingerprint()
    );
}

#[test]
fn collection_fingerprint_is_pinned() {
    let got = collection_fingerprint(&fixture());
    assert_eq!(got, 0x3dad_c121_524a_c210, "{got:#018x}");
}

#[test]
fn checkpoint_fingerprint_is_pinned() {
    let dir = ScratchDir::new("fnv-ckpt");
    Pipeline::builder()
        .build()
        .run_with_recovery(
            &fixture(),
            &RecoveryOptions::default().checkpoint_dir(&*dir),
        )
        .unwrap();
    let blocked = std::fs::read(dir.join("blocked.ckpt")).unwrap();
    // The segment header: magic, version, reserved, then the fingerprint.
    assert_eq!(&blocked[..8], MAGIC);
    let got = u64::from_le_bytes(blocked[16..24].try_into().unwrap());
    assert_eq!(got, 0xec68_0b0c_66a2_f8b6, "{got:#018x}");
}

#[test]
fn segment_footer_checksum_is_pinned() {
    let dir = ScratchDir::new("fnv-segment");
    let path = dir.join("golden.seg");
    let mut w = SegmentWriter::create(&path, 0xfeed_beef).unwrap();
    w.run(&[
        (Symbol(0), EntityId(0)),
        (Symbol(0), EntityId(1)),
        (Symbol(3), EntityId(2)),
    ])
    .unwrap();
    let len = w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, len);
    let footer = &bytes[bytes.len() - FOOTER_LEN as usize..];
    let checksum = u64::from_le_bytes(footer[24..32].try_into().unwrap());
    assert_eq!(checksum, 0x7af5_52ab_dc05_f16f, "{checksum:#018x}");
}

#[test]
fn minhash_block_key_is_pinned() {
    let blocks = MinHashBlocking::new(2, 2).build(&fixture());
    let keys: Vec<&str> = blocks.blocks().iter().map(|b| b.key()).collect();
    assert_eq!(keys, ["b1:ff3bf330e677d1de"]);
}

#[test]
fn shuffle_segment_checksum_is_pinned() {
    let dir = ScratchDir::created("fnv-shuffle");
    // Tokens holding a backslash, a newline and non-ASCII text travel as
    // length-prefixed wire strings; one partition keeps every posting in one
    // segment.
    let records = [
        "0\tturing\tlondon".to_string(),
        "1\talan\tturing\tlon\\don".to_string(),
        "2\tgrace\tnew york\nny\tzürich".to_string(),
    ];
    let payload = encode_map_task(1, 0, 0xfeed_beef, &dir, &records);
    let result = run_task(&default_registry(), "token-blocking", "map", &payload, 0).unwrap();
    let segments = decode_map_result(&result).unwrap().segments;
    let bytes = std::fs::read(&segments[0].path).unwrap();
    assert_eq!(segments.len(), 1);
    let got = Fnv1a::hash(&bytes);
    assert_eq!(got, 0xd8a9_71eb_de9d_6541, "{got:#018x}");
}

#[test]
fn symbol_shuffle_segment_checksum_is_pinned() {
    let dir = ScratchDir::created("fnv-symbol-shuffle");
    // The fixture's token rows as one `key-transpose` map task; one
    // partition keeps every posting in one key-sorted `KIND_POSTINGS` run.
    let rows = TokenProfiles::build(&fixture(), &Tokenizer::default(), Parallelism::serial());
    let payload = encode_transpose_map_task(1, 0, 0xfeed_beef, &dir, &rows, 0..rows.len());
    let result = run_task(&default_registry(), KEY_TRANSPOSE, "map", &payload, 0).unwrap();
    let segments = decode_map_result(&result).unwrap().segments;
    let bytes = std::fs::read(&segments[0].path).unwrap();
    // It is the out-of-core build's posting run, byte for byte.
    let mut postings: Vec<(Symbol, EntityId)> = rows
        .iter()
        .enumerate()
        .flat_map(|(e, row)| row.iter().map(move |&s| (s, EntityId(e as u32))))
        .collect();
    postings.sort_unstable();
    let run = dir.join("run.seg");
    let mut w = SegmentWriter::create(&run, 0xfeed_beef).unwrap();
    w.run(&postings).unwrap();
    w.finish().unwrap();
    let run = std::fs::read(&run).unwrap();
    assert_eq!(segments.len(), 1);
    assert_eq!(bytes, run);
    let got = Fnv1a::hash(&bytes);
    assert_eq!(got, 0xf22e_72ad_1d4b_9851, "{got:#018x}");
}

#[test]
fn default_resolution_is_pinned() {
    use std::hash::Hasher;
    let ds = DirtyDataset::generate(&DirtyConfig {
        entities: 2000,
        seed: 2017,
        ..Default::default()
    });
    let resolution = Pipeline::builder().build().run(&ds.collection);
    let mut matches = resolution.matches;
    matches.sort_unstable();
    let mut clusters = resolution.clusters;
    clusters.iter_mut().for_each(|c| c.sort_unstable());
    clusters.sort_unstable();
    let mut h = Fnv1a::default();
    for p in &matches {
        h.write(&p.first().0.to_le_bytes());
        h.write(&p.second().0.to_le_bytes());
    }
    for c in &clusters {
        h.write(&(c.len() as u32).to_le_bytes());
        c.iter().for_each(|e| h.write(&e.0.to_le_bytes()));
    }
    let got = (matches.len(), clusters.len(), h.finish());
    assert_eq!(
        got,
        (459, 2740, 0xac33_a966_3789_fcf3),
        "{:?} {:#018x}",
        (got.0, got.1),
        got.2
    );
}
