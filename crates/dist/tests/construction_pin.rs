//! Byte-level pins of graph construction: edge generation, the CSR build
//! and the per-rank slicing of `DistGraph`.
//!
//! Each pin is an FNV-1a fingerprint of every byte a stage produces, in
//! order. The table was captured before construction was parallelised and
//! must never be edited to make a change pass: a moved fingerprint means a
//! stage now builds a different graph. The pins must also hold for every
//! worker count, so CI runs this file under several `RAYON_NUM_THREADS`.

use sssp_dist::{DistGraph, LocalGraph};
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::social::social_preset;
use sssp_graph::{gen, Csr, CsrBuilder, EdgeList, EdgeTuple};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn u32s(&mut self, xs: &[u32]) {
        for &x in xs {
            self.u32(x);
        }
    }
}

fn edge_list(el: &EdgeList) -> u64 {
    let mut h = Fnv::new();
    h.u64(el.n as u64);
    h.u64(el.edges.len() as u64);
    for e in &el.edges {
        h.u32(e.u);
        h.u32(e.v);
        h.u32(e.w);
    }
    h.0
}

fn tuples(ts: &[EdgeTuple]) -> u64 {
    let mut h = Fnv::new();
    h.u64(ts.len() as u64);
    for t in ts {
        h.u32(t.u);
        h.u32(t.v);
    }
    h.0
}

fn csr(g: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.num_vertices() as u64);
    for v in g.vertices() {
        let (t, w) = g.row_slices(v);
        h.u64(t.len() as u64);
        h.u32s(t);
        h.u32s(w);
    }
    h.0
}

fn local(h: &mut Fnv, lg: &LocalGraph) {
    h.u64(lg.num_local() as u64);
    h.u64(lg.num_directed_edges() as u64);
    for l in 0..lg.num_local() {
        let (t, w) = lg.row(l);
        h.u64(t.len() as u64);
        h.u32s(t);
        h.u32s(w);
        let hist = lg.weight_histogram(l);
        h.u64(hist.len() as u64);
        h.u32s(hist);
    }
}

fn dist(dg: &DistGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(dg.num_ranks() as u64);
    h.u64(dg.part.num_base() as u64);
    h.u64(dg.part.num_proxies() as u64);
    h.u64(dg.threads_per_rank as u64);
    h.u64(dg.m_directed);
    h.u64(dg.m_input_undirected);
    for lg in &dg.locals {
        local(&mut h, lg);
    }
    h.0
}

/// Compare against the pinned table; on a mismatch, print the fresh table
/// so the difference can be read line by line.
fn check(pins: &[(&str, u64)], got: &[(String, u64)]) {
    let fresh: Vec<(&str, u64)> = got.iter().map(|(l, f)| (l.as_str(), *f)).collect();
    if fresh != pins {
        for (label, f) in &fresh {
            let mark = match pins.iter().find(|(l, _)| l == label) {
                Some((_, pinned)) if pinned == f => "",
                _ => "  // moved",
            };
            eprintln!("    (\"{label}\", {f:#018x}),{mark}");
        }
        panic!("construction fingerprints moved (fresh table above)");
    }
}

fn rmat_pins(name: &str, params: RmatParams) -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for scale in [1, 10, 13, 15] {
        for edge_factor in [4, 16] {
            for permute in [true, false] {
                let g = RmatGenerator::new(params, scale, edge_factor)
                    .seed(u64::from(scale) * 31 + edge_factor as u64)
                    .permute(permute);
                let tag = format!(
                    "{name}/s{scale}/ef{edge_factor}/{}",
                    if permute { "perm" } else { "ids" }
                );
                got.push((
                    format!("{tag}/weighted"),
                    edge_list(&g.generate_weighted(255)),
                ));
                got.push((format!("{tag}/tuples"), tuples(&g.generate_tuples())));
            }
        }
    }
    got
}

#[test]
fn rmat1_generation_is_pinned() {
    check(RMAT1, &rmat_pins("rmat1", RmatParams::RMAT1));
}

#[test]
fn rmat2_generation_is_pinned() {
    check(RMAT2, &rmat_pins("rmat2", RmatParams::RMAT2));
}

#[test]
fn uniform_generation_is_pinned() {
    check(UNIFORM, &rmat_pins("uniform", RmatParams::UNIFORM));
}

#[test]
fn chung_lu_generation_is_pinned() {
    let el = social_preset("livejournal", 1024)
        .expect("preset exists")
        .seed(5)
        .generate();
    check(
        CHUNG_LU,
        &[("livejournal/1024".to_string(), edge_list(&el))],
    );
}

/// Inputs with self-loops, parallel edges and many weight ties.
fn csr_inputs() -> Vec<(&'static str, EdgeList)> {
    let rmat1 = |w_max| {
        RmatGenerator::new(RmatParams::RMAT1, 10, 16)
            .seed(3)
            .generate_weighted(w_max)
    };
    vec![
        ("rmat1-s10-w255", rmat1(255)),
        ("rmat1-s10-w4", rmat1(4)),
        (
            "chung-lu",
            social_preset("orkut", 4096).expect("preset").generate(),
        ),
        ("grid", gen::grid(17, 9, 2)),
    ]
}

#[test]
fn csr_build_is_pinned() {
    let mut got = Vec::new();
    for (name, el) in csr_inputs() {
        for (mode, builder) in [
            ("default", CsrBuilder::new()),
            ("keep_self_loops", CsrBuilder::new().keep_self_loops()),
            ("dedup_min_weight", CsrBuilder::new().dedup_min_weight()),
            (
                "keep+dedup",
                CsrBuilder::new().keep_self_loops().dedup_min_weight(),
            ),
        ] {
            got.push((format!("{name}/{mode}"), csr(&builder.build(&el))));
        }
    }
    check(CSR, &got);
}

#[test]
fn dist_slicing_is_pinned() {
    let rmat2 = CsrBuilder::new().build(
        &RmatGenerator::new(RmatParams::RMAT2, 12, 16)
            .seed(9)
            .generate_weighted(255),
    );
    let rmat1 = CsrBuilder::new().build(
        &RmatGenerator::new(RmatParams::RMAT1, 11, 16)
            .seed(4)
            .permute(false)
            .generate_weighted(255),
    );
    let star = CsrBuilder::new().build(&gen::star(3000, 3));
    let mut got = Vec::new();
    for (name, g) in [("rmat2", &rmat2), ("rmat1-ids", &rmat1), ("star", &star)] {
        for p in [1, 2, 3, 7] {
            got.push((
                format!("{name}/block/p{p}"),
                dist(&DistGraph::build(g, p, 2)),
            ));
            got.push((
                format!("{name}/cyclic/p{p}"),
                dist(&DistGraph::build_cyclic(g, p, 3)),
            ));
            let (dg, report) = DistGraph::build_auto_split(g, p, 2);
            let proxies = report.map_or(0, |r| r.proxies_created);
            got.push((
                format!("{name}/auto_split/p{p}/proxies{proxies}"),
                dist(&dg),
            ));
        }
    }
    check(DIST, &got);
}

const RMAT1: &[(&str, u64)] = &[
    ("rmat1/s1/ef4/perm/weighted", 0x9590a6c4665cf297),
    ("rmat1/s1/ef4/perm/tuples", 0xafc86d13133856bc),
    ("rmat1/s1/ef4/ids/weighted", 0x9590a6c4665cf297),
    ("rmat1/s1/ef4/ids/tuples", 0xafc86d13133856bc),
    ("rmat1/s1/ef16/perm/weighted", 0x5388d30e46e54ce3),
    ("rmat1/s1/ef16/perm/tuples", 0x34bc2ac1c35b5345),
    ("rmat1/s1/ef16/ids/weighted", 0x5388d30e46e54ce3),
    ("rmat1/s1/ef16/ids/tuples", 0x34bc2ac1c35b5345),
    ("rmat1/s10/ef4/perm/weighted", 0x0a54d5d59eb28850),
    ("rmat1/s10/ef4/perm/tuples", 0x9d141346c61f752c),
    ("rmat1/s10/ef4/ids/weighted", 0x0e9ba5805be1e816),
    ("rmat1/s10/ef4/ids/tuples", 0x2161e2cc56abf81a),
    ("rmat1/s10/ef16/perm/weighted", 0x08e69748f3b69aa8),
    ("rmat1/s10/ef16/perm/tuples", 0x7e0f8af4131cac38),
    ("rmat1/s10/ef16/ids/weighted", 0x421b8db85ce68afe),
    ("rmat1/s10/ef16/ids/tuples", 0xd5d16977c4428e46),
    ("rmat1/s13/ef4/perm/weighted", 0x83136ab00622a627),
    ("rmat1/s13/ef4/perm/tuples", 0x737d74985382969f),
    ("rmat1/s13/ef4/ids/weighted", 0x4085669517faaf5f),
    ("rmat1/s13/ef4/ids/tuples", 0xccd177faa988f15f),
    ("rmat1/s13/ef16/perm/weighted", 0x43b1b3a26d97ff7a),
    ("rmat1/s13/ef16/perm/tuples", 0x6dd660676c63d87c),
    ("rmat1/s13/ef16/ids/weighted", 0x0cdf6f95761ac8d9),
    ("rmat1/s13/ef16/ids/tuples", 0xfbb6189c28141b1f),
    ("rmat1/s15/ef4/perm/weighted", 0x066c88c6ab0b3c94),
    ("rmat1/s15/ef4/perm/tuples", 0x5f82f2e6af4e4dfa),
    ("rmat1/s15/ef4/ids/weighted", 0x4482a9997a31bf1e),
    ("rmat1/s15/ef4/ids/tuples", 0x1ca0b354e8719478),
    ("rmat1/s15/ef16/perm/weighted", 0x566d3c9bcd385d43),
    ("rmat1/s15/ef16/perm/tuples", 0x2f4247b21a9b312e),
    ("rmat1/s15/ef16/ids/weighted", 0x2def6753dfcebe88),
    ("rmat1/s15/ef16/ids/tuples", 0x41cee91fbafb83c5),
];
const RMAT2: &[(&str, u64)] = &[
    ("rmat2/s1/ef4/perm/weighted", 0x7e08936c14f0c487),
    ("rmat2/s1/ef4/perm/tuples", 0x850f2b934ae8368c),
    ("rmat2/s1/ef4/ids/weighted", 0x7e08936c14f0c487),
    ("rmat2/s1/ef4/ids/tuples", 0x850f2b934ae8368c),
    ("rmat2/s1/ef16/perm/weighted", 0xd05771c6bc510e43),
    ("rmat2/s1/ef16/perm/tuples", 0x287391c6a36eb655),
    ("rmat2/s1/ef16/ids/weighted", 0xd05771c6bc510e43),
    ("rmat2/s1/ef16/ids/tuples", 0x287391c6a36eb655),
    ("rmat2/s10/ef4/perm/weighted", 0x533fe5837f4b3908),
    ("rmat2/s10/ef4/perm/tuples", 0xdc7a3ea59863a9bc),
    ("rmat2/s10/ef4/ids/weighted", 0xced972d5f4d4d3e4),
    ("rmat2/s10/ef4/ids/tuples", 0x872e95b3a7651804),
    ("rmat2/s10/ef16/perm/weighted", 0xa73da19fd3a5e302),
    ("rmat2/s10/ef16/perm/tuples", 0x722278ed308d3d32),
    ("rmat2/s10/ef16/ids/weighted", 0xd405a97af956f85f),
    ("rmat2/s10/ef16/ids/tuples", 0x4fe48c4049c13777),
    ("rmat2/s13/ef4/perm/weighted", 0x2420bbba78065598),
    ("rmat2/s13/ef4/perm/tuples", 0xb4b52b50ab3894bc),
    ("rmat2/s13/ef4/ids/weighted", 0x3f001811dc51def6),
    ("rmat2/s13/ef4/ids/tuples", 0x1407007ee7d136fa),
    ("rmat2/s13/ef16/perm/weighted", 0x1379c22009e70512),
    ("rmat2/s13/ef16/perm/tuples", 0x69869ac4342a14c4),
    ("rmat2/s13/ef16/ids/weighted", 0x8b328b297e088866),
    ("rmat2/s13/ef16/ids/tuples", 0xe2b15b202fc9ebc4),
    ("rmat2/s15/ef4/perm/weighted", 0x8466c863b910e35a),
    ("rmat2/s15/ef4/perm/tuples", 0x8151b80fc810773c),
    ("rmat2/s15/ef4/ids/weighted", 0x4df1661ca24be2b0),
    ("rmat2/s15/ef4/ids/tuples", 0x54de714f448a0a6a),
    ("rmat2/s15/ef16/perm/weighted", 0x0cec9f6e81ef1865),
    ("rmat2/s15/ef16/perm/tuples", 0xd34cb29d34e58c00),
    ("rmat2/s15/ef16/ids/weighted", 0x2742c0b8a0ab642f),
    ("rmat2/s15/ef16/ids/tuples", 0x4e11399d1c8e0b86),
];
const UNIFORM: &[(&str, u64)] = &[
    ("uniform/s1/ef4/perm/weighted", 0x0b34d6e8852d9646),
    ("uniform/s1/ef4/perm/tuples", 0x79890ceb43feef2d),
    ("uniform/s1/ef4/ids/weighted", 0x0b34d6e8852d9646),
    ("uniform/s1/ef4/ids/tuples", 0x79890ceb43feef2d),
    ("uniform/s1/ef16/perm/weighted", 0x711581ddd18aac03),
    ("uniform/s1/ef16/perm/tuples", 0x387dd02a6cb3f055),
    ("uniform/s1/ef16/ids/weighted", 0x711581ddd18aac03),
    ("uniform/s1/ef16/ids/tuples", 0x387dd02a6cb3f055),
    ("uniform/s10/ef4/perm/weighted", 0x56890d44ce9d9fb4),
    ("uniform/s10/ef4/perm/tuples", 0x702a721d55df5834),
    ("uniform/s10/ef4/ids/weighted", 0x510323e87d38c055),
    ("uniform/s10/ef4/ids/tuples", 0x77421506033e5e5d),
    ("uniform/s10/ef16/perm/weighted", 0xe1f92c08376ddaeb),
    ("uniform/s10/ef16/perm/tuples", 0x721f8478cf223d8b),
    ("uniform/s10/ef16/ids/weighted", 0x24ba15034996e98c),
    ("uniform/s10/ef16/ids/tuples", 0x60356f609962f9cc),
    ("uniform/s13/ef4/perm/weighted", 0x66e35c7394a5812e),
    ("uniform/s13/ef4/perm/tuples", 0xd9ce1877d89d0842),
    ("uniform/s13/ef4/ids/weighted", 0x56c7aa9afc34b780),
    ("uniform/s13/ef4/ids/tuples", 0x1aebf5dbb7a7e108),
    ("uniform/s13/ef16/perm/weighted", 0xda2eb0c068d9a68d),
    ("uniform/s13/ef16/perm/tuples", 0x544e395b87fd9c8b),
    ("uniform/s13/ef16/ids/weighted", 0xb5d531293fe9509f),
    ("uniform/s13/ef16/ids/tuples", 0x426e750b89ab26e5),
    ("uniform/s15/ef4/perm/weighted", 0x7a2f94fd18d86fa3),
    ("uniform/s15/ef4/perm/tuples", 0xb81ecb71e2c36315),
    ("uniform/s15/ef4/ids/weighted", 0x2c4507a9bdcc2d0d),
    ("uniform/s15/ef4/ids/tuples", 0x5b6c985302c8b2cf),
    ("uniform/s15/ef16/perm/weighted", 0x2733bfbafbec8c92),
    ("uniform/s15/ef16/perm/tuples", 0x4b1962ed928e8993),
    ("uniform/s15/ef16/ids/weighted", 0x2855f85b3b0765b1),
    ("uniform/s15/ef16/ids/tuples", 0xdf13843a7cec7958),
];
const CHUNG_LU: &[(&str, u64)] = &[("livejournal/1024", 0x19ae28afb4344377)];
const CSR: &[(&str, u64)] = &[
    ("rmat1-s10-w255/default", 0x3eded617323aae2a),
    ("rmat1-s10-w255/keep_self_loops", 0x0f4c3d1d01bc413f),
    ("rmat1-s10-w255/dedup_min_weight", 0x9d1a464aecd26db2),
    ("rmat1-s10-w255/keep+dedup", 0x5f07b2860416b3b2),
    ("rmat1-s10-w4/default", 0x71ac0f986b1dc5b2),
    ("rmat1-s10-w4/keep_self_loops", 0xbdaa2a111db20373),
    ("rmat1-s10-w4/dedup_min_weight", 0xa5091c37d38243d6),
    ("rmat1-s10-w4/keep+dedup", 0x2f8efd6c8feaf8be),
    ("chung-lu/default", 0x8d6ca5e8488b6591),
    ("chung-lu/keep_self_loops", 0x02ece2a1907b7cab),
    ("chung-lu/dedup_min_weight", 0xb44b3e7de03c265a),
    ("chung-lu/keep+dedup", 0x1a6b4973231edd66),
    ("grid/default", 0x3b12c3ccc9fee15f),
    ("grid/keep_self_loops", 0x3b12c3ccc9fee15f),
    ("grid/dedup_min_weight", 0x3b12c3ccc9fee15f),
    ("grid/keep+dedup", 0x3b12c3ccc9fee15f),
];
const DIST: &[(&str, u64)] = &[
    ("rmat2/block/p1", 0x57823be089e0dc8a),
    ("rmat2/cyclic/p1", 0x00ba094a186691bb),
    ("rmat2/auto_split/p1/proxies0", 0x57823be089e0dc8a),
    ("rmat2/block/p2", 0xfb7f8955ae8172ec),
    ("rmat2/cyclic/p2", 0x64f72f17743a936b),
    ("rmat2/auto_split/p2/proxies0", 0xfb7f8955ae8172ec),
    ("rmat2/block/p3", 0xca96fdb92040f9b7),
    ("rmat2/cyclic/p3", 0xa81ad1bc02b58316),
    ("rmat2/auto_split/p3/proxies0", 0xca96fdb92040f9b7),
    ("rmat2/block/p7", 0x1bc32cf97e939b4d),
    ("rmat2/cyclic/p7", 0xf83d7f888beac544),
    ("rmat2/auto_split/p7/proxies0", 0x1bc32cf97e939b4d),
    ("rmat1-ids/block/p1", 0x456623b20617af56),
    ("rmat1-ids/cyclic/p1", 0xfb2fcd0d55c02687),
    ("rmat1-ids/auto_split/p1/proxies0", 0x456623b20617af56),
    ("rmat1-ids/block/p2", 0x26d624f8901713af),
    ("rmat1-ids/cyclic/p2", 0xd65c92eae3ee56e3),
    ("rmat1-ids/auto_split/p2/proxies0", 0x26d624f8901713af),
    ("rmat1-ids/block/p3", 0xd4833c349cbc7ae0),
    ("rmat1-ids/cyclic/p3", 0xab22347553c0d389),
    ("rmat1-ids/auto_split/p3/proxies0", 0xd4833c349cbc7ae0),
    ("rmat1-ids/block/p7", 0xf7ba285687a6d303),
    ("rmat1-ids/cyclic/p7", 0xb3a5fe9f7cbdcd6a),
    ("rmat1-ids/auto_split/p7/proxies2", 0x676e42eca89d4a30),
    ("star/block/p1", 0x9d7cf8a2e0f5aebc),
    ("star/cyclic/p1", 0x10c4e76c1fd790f5),
    ("star/auto_split/p1/proxies0", 0x9d7cf8a2e0f5aebc),
    ("star/block/p2", 0xa4b7ea122ebb0113),
    ("star/cyclic/p2", 0x2edcbc7c49f1b832),
    ("star/auto_split/p2/proxies5", 0x1318b2c39e9ea918),
    ("star/block/p3", 0xdca78b880100dce2),
    ("star/cyclic/p3", 0x4699b9d479a1f1fb),
    ("star/auto_split/p3/proxies7", 0x437b7c3c37fa6954),
    ("star/block/p7", 0x9cc896d696fb09ca),
    ("star/cyclic/p7", 0x8a25af2ff4e61c9f),
    ("star/auto_split/p7/proxies15", 0x40f449a71ee3e567),
];
