//! Pins the DS engine's results to fixed digests. `skip_equivalence`
//! compares [`Ds::run`] with [`Ds::run_reference`], but both share the
//! issue and retire code, so a change to that code moves both engines
//! together and passes there. This suite catches such a change: it
//! re-times `skip_equivalence`'s random workloads over a grid of
//! configurations and folds every [`ExecutionResult`] into one FNV-1a
//! digest per (workload, consistency model). The expected digests were
//! generated once and must not be edited to make a change pass; a
//! changed digest means the engine now reports different numbers.

mod support;

use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::{ConsistencyModel, ExecutionResult, ProcessorModel};
use lookahead_isa::rng::XorShift64;
use lookahead_trace::fnv1a;
use support::gen_workload;

const MODELS: [ConsistencyModel; 4] = [
    ConsistencyModel::Sc,
    ConsistencyModel::Pc,
    ConsistencyModel::Wo,
    ConsistencyModel::Rc,
];

/// Random workloads re-timed per model.
const CASES: usize = 8;

/// Expected digests, `[case][model]` with models in [`MODELS`] order.
const EXPECTED: [[u64; 4]; CASES] = [
    [
        0xf976b28e06819eb1,
        0x65c650316b27b395,
        0x3c4c22460847869c,
        0xe610b441e1a785ee,
    ],
    [
        0x2107c46c6c31f3e9,
        0xa80bc2b61107ffe9,
        0x1a12934559116eae,
        0x9ccf25fbfdd124ab,
    ],
    [
        0x157d495d4e16cc25,
        0x157d495d4e16cc25,
        0x157d495d4e16cc25,
        0x157d495d4e16cc25,
    ],
    [
        0x3c856b39c0bdc469,
        0xfd17d1653912ef35,
        0x883f546184e6e700,
        0x6e01bf93f6e78b77,
    ],
    [
        0xadb215168c1a4f99,
        0xf1b90752324ee8f1,
        0x9f159e18e085a26b,
        0x35bc38d78b097132,
    ],
    [
        0x6ac1487e2effc151,
        0xc85e996cd2045f65,
        0xb75e2c94a990cc87,
        0x3d5bdaeaf20ce422,
    ],
    [
        0xadbddbdf1e3aaf79,
        0x41e71d7c766f21c5,
        0xbdabc6d1f47b89af,
        0xaf4bac7267cd88bf,
    ],
    [
        0x6205c9644c2bc6a5,
        0xf2feffd512815af1,
        0xc1b6b687f8168295,
        0x4943bd42e7aa09d7,
    ],
];

/// The ablation variants of one base configuration: plain, non-binding
/// prefetch, speculative loads, perfect branch prediction, and perfect
/// branch prediction with data dependences ignored.
fn variants(base: DsConfig) -> [DsConfig; 5] {
    [
        base,
        DsConfig {
            nonbinding_prefetch: true,
            ..base
        },
        DsConfig {
            speculative_loads: true,
            ..base
        },
        DsConfig {
            perfect_branch_prediction: true,
            ..base
        },
        DsConfig {
            perfect_branch_prediction: true,
            ignore_data_dependences: true,
            ..base
        },
    ]
}

/// Every configuration of the grid for one consistency model.
fn configs(model: ConsistencyModel) -> Vec<DsConfig> {
    let mut out = Vec::new();
    for window in [1, 4, 16, 64, 256] {
        for issue_width in [1, 4] {
            for mshr_limit in [None, Some(2)] {
                for store_buffer_depth in [1, 16] {
                    let base = DsConfig {
                        issue_width,
                        mshr_limit,
                        store_buffer_depth,
                        ..DsConfig::with_model(model).window(window)
                    };
                    out.extend(variants(base));
                }
            }
        }
    }
    out
}

/// Appends every field of `r` to `bytes` in a fixed order.
fn encode(r: &ExecutionResult, bytes: &mut Vec<u8>) {
    let b = &r.breakdown;
    let s = &r.stats;
    let words = [
        b.busy,
        b.sync,
        b.read,
        b.write,
        s.instructions,
        s.branches,
        s.mispredictions,
        s.fetch_stall_cycles,
        s.write_buffer_full_stalls,
        s.peak_outstanding_misses as u64,
        s.context_switches,
        s.switch_overhead_cycles,
        s.read_miss_issue_delays.len() as u64,
    ];
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    for &d in &s.read_miss_issue_delays {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
}

#[test]
fn ds_results_match_pinned_digests() {
    let mut rng = XorShift64::seed_from_u64(0xD16E_0001);
    let mut actual = [[0u64; 4]; CASES];
    for row in actual.iter_mut() {
        let (program, trace) = gen_workload(&mut rng);
        for (digest, model) in row.iter_mut().zip(MODELS) {
            let mut bytes = Vec::new();
            for cfg in configs(model) {
                encode(&Ds::new(cfg).run(&program, &trace), &mut bytes);
            }
            *digest = fnv1a(&bytes);
        }
    }
    let table: String = actual
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        actual, EXPECTED,
        "DS results changed; digests now read:\n[\n{table}]"
    );
}
