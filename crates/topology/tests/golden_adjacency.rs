//! Golden adjacency hashes: the generator's output is pinned bit for bit.
//!
//! Every downstream baseline (ledger op counts, benchmark fingerprints,
//! figure tables) is a function of the adjacency lists *in order*, so a
//! change to the generator's draw machinery must reproduce exactly these
//! graphs. The table below was computed with the O(pool)-per-draw
//! `choose_weighted` generator and must never be re-blessed by a change
//! that claims to keep the same graphs.

use bgpscale_topology::{generate, AsGraph, GrowthScenario, Relationship};

/// FNV-1a over every node's `(regions, neighbors-in-order)`.
fn adjacency_hash(g: &AsGraph) -> u64 {
    fn eat(h: &mut u64, v: u32) {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for id in g.node_ids() {
        let region_mask = g.regions(id).iter().fold(0u32, |m, r| m | 1 << r);
        eat(&mut h, region_mask);
        eat(&mut h, g.neighbors(id).len() as u32);
        for nb in g.neighbors(id) {
            eat(&mut h, nb.id.0);
            eat(
                &mut h,
                match nb.rel {
                    Relationship::Customer => 0,
                    Relationship::Peer => 1,
                    Relationship::Provider => 2,
                },
            );
        }
    }
    h
}

const SIZES: [usize; 3] = [300, 1_000, 3_000];
const SEEDS: [u64; 3] = [1, 2, 3];

/// `GOLDEN[scenario][size][seed]`, scenarios in `GrowthScenario::ALL` order.
const GOLDEN: [[[u64; 3]; 3]; 14] = [
    // BASELINE
    [
        [0xa5f41ea3da2d3f9c, 0xd79a8c75ed50d485, 0x10a61160e4c733fd],
        [0x889b9b304fa89363, 0x658072d347eac549, 0x3b58222164697c54],
        [0xb5e9d6ec02c0b48f, 0x4d764fcbf14943b4, 0x41e01821c2872c95],
    ],
    // NO-MIDDLE
    [
        [0xff556fb2de056472, 0x6d8a09fa166241d7, 0xccaea2aeacb1e060],
        [0x99f6bba9312d2e14, 0x3f876dc5c00bc11d, 0x7fcc7bdbea2494bb],
        [0x3e0e5df563445f9f, 0xf8d3045472f23ca8, 0xaa75f77db5551ba4],
    ],
    // RICH-MIDDLE
    [
        [0x1b509eaf79f08451, 0x4b42d8fdcd731ff4, 0xe9be4a80a95b925b],
        [0x2a235d9038b9c195, 0x37d5a1e6664988eb, 0xdb38ae6f626f462a],
        [0xd1280ea098943753, 0xb85c227f2afc65e3, 0x081e9b220da8fd44],
    ],
    // STATIC-MIDDLE
    [
        [0xa5f41ea3da2d3f9c, 0xd79a8c75ed50d485, 0x10a61160e4c733fd],
        [0x889b9b304fa89363, 0x658072d347eac549, 0x3b58222164697c54],
        [0xaf41c63569a1350b, 0x96ad10562fe39027, 0x2345fbbcdb209297],
    ],
    // TRANSIT-CLIQUE
    [
        [0x5af129387a56d8aa, 0x52d8a4e6fffb36a3, 0xd0d153a070610134],
        [0x1667e54133264640, 0x295953165c0edd1b, 0x1b0a3a0168f06b45],
        [0x143786b2568b11ce, 0x4a32fc48a2393894, 0x9f004c92dcabd729],
    ],
    // DENSE-CORE
    [
        [0x1697b69abafa060f, 0xf9be574829c9eab7, 0xee61d2172c610ade],
        [0x3fdc7bc9a2a1153a, 0x7e4a5ef9c92d3b2d, 0xcb1df035126dd354],
        [0x4d7fc27caeb347b1, 0x5b2b32015323f121, 0x48c34431fb8a5c61],
    ],
    // DENSE-EDGE
    [
        [0x03244cf33d26a9d7, 0x0251d3d2900ab4a1, 0x0fcc29bcbb7a3308],
        [0x2b860eb699eb6a62, 0xa1b0a83e3f762e03, 0xbac53e6f1a4098d3],
        [0x3bfc0a4735dd3c72, 0x56add4cd11f26935, 0x15771d1031211875],
    ],
    // TREE
    [
        [0xd16102093cd95ec7, 0x13dfad84f8998782, 0xf2a3e0a1c07c8ad0],
        [0x579bd9fee386c3b5, 0x169d87f692e31436, 0x6a29a195cff778c9],
        [0x979db601d6378a0c, 0xe48befc5a623569f, 0x50348923892e0bef],
    ],
    // CONSTANT-MHD
    [
        [0x84fe1b2dae4c0dd1, 0xcd16e41883e90104, 0xe9758d9acfe34ebc],
        [0x5eee9eb293989966, 0x39dec7db928da196, 0xfa48de0ab8de06e1],
        [0x9f910366714195d7, 0xe1bb8ae1b2fec566, 0x4216ec88ddbf7640],
    ],
    // NO-PEERING
    [
        [0x1202dfbf05a6076c, 0x5b4029a0eb11f4e2, 0x0d02743865cdf4f7],
        [0x3a19cc36b8676799, 0x5015784351b267c8, 0x43c6c2046b28a1b1],
        [0xeba9dceb2b0f63db, 0xa807ad5bb8d9ed8d, 0xa6ff12b862a0e5d8],
    ],
    // STRONG-CORE-PEERING
    [
        [0x09611ab12d707d94, 0x528f51d615252a4b, 0xd32faf233763175c],
        [0x99bcb40152f27e76, 0xa6e2af4f9f85f585, 0xe767c55ae2ee7a10],
        [0x133f85d2eeeae1e0, 0xb1013be5f902329e, 0x906d86803438dbf7],
    ],
    // STRONG-EDGE-PEERING
    [
        [0x0276bc9f4b39ea7d, 0x8fece88b9487fcc8, 0x0a568096c332a9fb],
        [0x921faedcfa0d4b20, 0x686d2f9b03523adf, 0x4ef72d54c406f4b8],
        [0x58be15c37c76b2fe, 0x33ce346e3a080c9c, 0x098d8d617753c7dd],
    ],
    // PREFER-MIDDLE
    [
        [0xbf28a6aaebe5e404, 0x60c654747d7a2458, 0xf7b5207ce7711d6f],
        [0x2d75314afbdae592, 0x3516a27ca4a7ef4b, 0x23effefe1897f0e5],
        [0x2985f7fa1dea8201, 0xe3a574a41d6523f0, 0xc76424130e05aaff],
    ],
    // PREFER-TOP
    [
        [0x022d5df92259cb68, 0x3592c6fb72631d50, 0xb3c2e15c26b65377],
        [0xdc933f9e70071687, 0x88533ccdf2323daf, 0xf368ad77e668db1d],
        [0x4bb9b38c7425252b, 0x01f9f83cfd4a25fb, 0x0338d0b8c9092094],
    ],
];

/// BASELINE, n = 12000, seed 42 — the frontier benchmark's topology class.
const GOLDEN_BASELINE_12K: u64 = 0x3ea33ad73e6e3838;

#[test]
fn every_scenario_reproduces_its_golden_adjacency() {
    let mut mismatches = Vec::new();
    for (si, &scenario) in GrowthScenario::ALL.iter().enumerate() {
        for (ni, &n) in SIZES.iter().enumerate() {
            for (ki, &seed) in SEEDS.iter().enumerate() {
                let got = adjacency_hash(&generate(scenario, n, seed));
                if got != GOLDEN[si][ni][ki] {
                    mismatches.push(format!(
                        "{scenario} n={n} seed={seed}: got {got:#018x}, golden {:#018x}",
                        GOLDEN[si][ni][ki]
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 126 adjacency hashes moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn baseline_12k_reproduces_its_golden_adjacency() {
    let got = adjacency_hash(&generate(GrowthScenario::Baseline, 12_000, 42));
    assert_eq!(
        got, GOLDEN_BASELINE_12K,
        "BASELINE n=12000 seed=42: got {got:#018x}"
    );
}

#[test]
fn a_different_seed_changes_the_hash() {
    let a = adjacency_hash(&generate(GrowthScenario::Baseline, 300, 1));
    let b = adjacency_hash(&generate(GrowthScenario::Baseline, 300, 4));
    assert_eq!(a, GOLDEN[0][0][0]);
    assert_ne!(a, b);
}
