//! The ingest path's bytes do not depend on the worker-pool size. The pool
//! is process-wide and sized once (`GSTORE_THREADS`), so each size gets a
//! process of its own: the `gstore` binary, driven as a user would.

use gstore::prelude::*;
use gstore::tile::Codec;
use std::path::Path;
use std::process::Command;

fn gstore(threads: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gstore"))
        .env("GSTORE_THREADS", threads)
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "GSTORE_THREADS={threads} gstore {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap()
}

#[test]
fn streamed_and_recoded_bytes_are_the_same_on_1_2_and_4_threads() {
    let dir = tempfile::tempdir().unwrap();
    let el = dir.path().join("g.el");
    let els = el.to_str().unwrap();
    gstore("2", &["generate", "kron:14:8", els]);

    // The references, made in this process: the store built from the
    // resident edge list, and a plain tile-by-tile encode of it.
    let edges = EdgeList::read_binary(&el).unwrap();
    let copts = ConversionOptions::new(8).with_group_side(4);
    let store = TileStore::build(&edges, &copts).unwrap();
    let mem = gstore::tile::write_store(&store, dir.path(), "mem").unwrap();
    let sequential = |src: Codec, codec: Codec| {
        let mut data = Vec::new();
        for idx in 0..store.tile_count() {
            let raw = match src {
                Codec::RawSnb => store.tile_bytes(idx).to_vec(),
                c => c
                    .decode_tile(&c.encode_tile(store.tile_bytes(idx)).unwrap())
                    .unwrap(),
            };
            data.extend_from_slice(&codec.encode_tile(&raw).unwrap());
        }
        data
    };

    for threads in ["1", "2", "4"] {
        let db = dir.path().join(format!("db{threads}"));
        let dbs = db.to_str().unwrap();
        // The smallest budget the CLI takes: 65 536-edge chunks, so the
        // 131 072 edges cross a chunk boundary.
        gstore(
            threads,
            &[
                "convert",
                els,
                dbs,
                "g",
                "--mem-budget",
                "1",
                "--tile-bits",
                "8",
                "--group-side",
                "4",
            ],
        );
        assert_eq!(read(&db, "g.tiles"), std::fs::read(&mem.tiles).unwrap());
        assert_eq!(read(&db, "g.start"), std::fs::read(&mem.start).unwrap());

        for codec in Codec::CODED {
            let out = format!("g-{}", codec.name());
            gstore(
                threads,
                &["compress", dbs, "g", "--codec", codec.name(), "--out", &out],
            );
            assert_eq!(
                read(&db, &format!("{out}.tiles")),
                sequential(Codec::RawSnb, codec),
                "{threads} threads, raw -> {}",
                codec.name()
            );
        }
        // Coded source: gamma -> zeta decodes each tile first.
        gstore(
            threads,
            &["compress", dbs, "g-gamma", "--codec", "zeta", "--out", "gz"],
        );
        assert_eq!(
            read(&db, "gz.tiles"),
            sequential(Codec::GammaGap, Codec::ZetaGap),
            "{threads} threads, gamma -> zeta"
        );
        assert_eq!(read(&db, "gz.start"), read(&db, "g-zeta.start"));
    }
}
