//! Golden values for every on-disk / on-wire artifact derived from the one
//! FNV-1a hasher (`er_core::intern::Fnv1a`). Each constant was measured at the
//! commit *before* the five private copies of the loop were merged, so a
//! passing suite proves — rather than assumes — that checkpoint
//! fingerprints, segment checksums and MinHash block keys are computed as an
//! older build computed them.
//!
//! `protocol_fingerprint_is_pinned` moved, deliberately, twice: when frames
//! moved onto the one wire codec (`PROTOCOL_VERSION` 1 → 2: frame payloads
//! are a tag plus wire fields, not an escaped text line), and when the
//! shuffle moved into the frames (2 → 3: `Hello` and `HelloAck` lost the
//! worker's budget allotment). The fingerprint hashes the version, so a
//! worker built before either change cannot join a pool built after it.
//!
//! `segment_footer_checksum_is_pinned` was re-pinned when colstore's
//! posting-run kind went with the shuffle's segment files: it now pins a
//! one-`KIND_BYTES`-section segment, the shape of every checkpoint.
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
use er_core::entity::{EntityBuilder, KbId};
use er_core::intern::Fnv1a;
use er_core::wire::put_u32;
use er_datagen::{DirtyConfig, DirtyDataset};
use er_integration_tests::ScratchDir;
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
        0xe8a3_397f_726b_f140,
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
    let mut payload = Vec::new();
    for v in [0, 0, 0, 1, 3, 2] {
        put_u32(&mut payload, v);
    }
    w.bytes(&payload).unwrap();
    let len = w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, len);
    let footer = &bytes[bytes.len() - FOOTER_LEN as usize..];
    let checksum = u64::from_le_bytes(footer[24..32].try_into().unwrap());
    assert_eq!(checksum, 0x50e5_75f4_0bc9_2857, "{checksum:#018x}");
}

#[test]
fn minhash_block_key_is_pinned() {
    let blocks = MinHashBlocking::new(2, 2).build(&fixture());
    let keys: Vec<&str> = blocks.blocks().iter().map(|b| b.key()).collect();
    assert_eq!(keys, ["b1:ff3bf330e677d1de"]);
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
