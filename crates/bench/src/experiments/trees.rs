//! Tree-realization experiments (Theorems 14 and 16).

use crate::drive;
use crate::experiments::ratios_flat;
use crate::table::{f2, Table};
use dgr_core::DegreeSequence;
use dgr_graphgen as graphgen;
use dgr_trees::{greedy, TreeAlgo};

fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// Theorem 14: implicit tree realization in polylog rounds.
pub fn t14_chain() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 14 — tree realization (Algorithm 4), n sweep",
        &[
            "n",
            "rounds",
            "log2²(n)",
            "rounds/log²",
            "is tree",
            "degrees",
        ],
    );
    let mut ratios = Vec::new();
    let mut ok_all = true;
    for &n in &[32usize, 64, 128, 256, 512, 1024] {
        let degrees = graphgen::random_tree_sequence(n, n as u64);
        let out = drive::tree(&degrees, TreeAlgo::Chain, 31);
        let r = out.expect_realized();
        let deg_ok = dgr_core::verify::degrees_match(&r.graph, &r.requested).is_ok();
        ok_all &= r.graph.is_tree() && deg_ok && r.metrics.is_clean();
        let ratio = r.metrics.rounds as f64 / (lg(n) * lg(n));
        ratios.push(ratio);
        t.row(vec![
            n.to_string(),
            r.metrics.rounds.to_string(),
            f2(lg(n) * lg(n)),
            f2(ratio),
            r.graph.is_tree().to_string(),
            if deg_ok {
                "exact".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    t.verdict(
        ok_all && ratios_flat(&ratios, 2.5),
        "valid trees with exact degrees at every n; rounds/log² n flat \
         (polylog, independent of Δ)",
    );
    vec![t]
}

/// Theorem 16 (+ Lemma 15): Algorithm 5's tree has minimum diameter.
pub fn t16_greedy() -> Vec<Table> {
    let mut t = Table::new(
        "Theorem 16 — minimum-diameter tree realization (Algorithm 5)",
        &[
            "profile",
            "n",
            "Alg.4 diameter",
            "Alg.5 diameter",
            "greedy T_G",
            "brute min",
        ],
    );
    let mut ok_all = true;
    let profiles: Vec<(&str, Vec<usize>)> = vec![
        ("star", graphgen::star_tree_sequence(64)),
        (
            "caterpillar",
            graphgen::caterpillar_tree_sequence(64, 20, 3),
        ),
        ("random", graphgen::random_tree_sequence(64, 4)),
        ("binary-ish", {
            let mut d = vec![3usize; 31];
            d.extend(vec![1usize; 33]);
            d[0] = 2;
            // fix sum to 2(n-1) = 126: current 3*31-1+33 = 125 → bump one.
            d[1] = 4;
            d
        }),
        (
            "tiny (brute-checkable)",
            graphgen::random_tree_sequence(8, 5),
        ),
    ];
    for (name, degrees) in profiles {
        let n = degrees.len();
        let seq = DegreeSequence::new(degrees.clone());
        if !seq.is_tree_realizable() {
            panic!("profile {name} is not tree-realizable");
        }
        let chain = drive::tree(&degrees, TreeAlgo::Chain, 32);
        let greedy_t = drive::tree(&degrees, TreeAlgo::Greedy, 32);
        let (c, g) = (chain.expect_realized(), greedy_t.expect_realized());
        let reference = greedy::greedy_tree(&seq).unwrap();
        let ref_dia = greedy::diameter_of(&reference, n);
        let brute = if n <= 8 {
            greedy::min_diameter_brute(&seq)
                .map(|d| d.to_string())
                .unwrap_or_default()
        } else {
            "-".into()
        };
        ok_all &= g.diameter == ref_dia && g.diameter <= c.diameter;
        if n <= 8 {
            ok_all &= brute == g.diameter.to_string();
        }
        t.row(vec![
            name.into(),
            n.to_string(),
            c.diameter.to_string(),
            g.diameter.to_string(),
            ref_dia.to_string(),
            brute,
        ]);
    }
    t.verdict(
        ok_all,
        "Algorithm 5 always matches the sequential greedy T_G (provably \
         minimal, Lemma 15; brute-force-confirmed at small n) and never \
         loses to Algorithm 4",
    );
    vec![t]
}
